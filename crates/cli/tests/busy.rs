//! `smarts submit` against a server whose queue is at its admission cap:
//! the typed `busy` refusal reaches the user, and nothing is queued.

use std::process::Command;
use std::sync::atomic::Ordering;

use smarts_exec::CancelToken;
use smarts_server::json::Json;
use smarts_server::{machine_for, Client, JobSpec, Server, ServerConfig, MAX_QUEUED_JOBS};

#[test]
fn submit_past_the_admission_cap_prints_busy() {
    let store_dir = std::env::temp_dir().join(format!("smarts-cli-busy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let server = Server::bind(&ServerConfig {
        store_dir: store_dir.clone(),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let (shared, stop) = (server.shared(), server.stop_flag());
    let serving = std::thread::spawn(move || server.serve());

    // Hold the warm ticket of the spec's store, so the one worker claims
    // the first job and then waits on this "racing warmer" for as long
    // as the test needs the queue to stay full.
    let spec = JobSpec {
        bench: "loopy-1".to_string(),
        scale: 0.02,
        n: 8,
        ..JobSpec::default()
    };
    let cfg = machine_for(spec.config);
    let meta = spec.meta().expect("valid spec");
    let ticket = (shared.stores)
        .acquire(&meta, &cfg, &CancelToken::new())
        .expect("warm ticket");
    let mut client = Client::connect(&addr).expect("connect");
    let blocked = client.submit(&spec).expect("submit");
    while client.status(Some(&blocked)).expect("status").get("state")
        != Some(&Json::Str("warming".into()))
    {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    for _ in 0..MAX_QUEUED_JOBS {
        client.submit(&spec).expect("below the cap");
    }

    let output = Command::new(env!("CARGO_BIN_EXE_smarts"))
        .args(["submit", "--addr", &addr, "--bench", "loopy-1"])
        .args(["--scale", "0.02", "--n", "8", "--wait"])
        .output()
        .expect("smarts runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.starts_with(&format!("error: busy: {MAX_QUEUED_JOBS} jobs are queued")),
        "stderr: {stderr}"
    );
    let stats = client.stats().expect("stats");
    let accepted = stats.get("jobs").and_then(Json::as_u64);
    assert_eq!(
        accepted,
        Some(MAX_QUEUED_JOBS as u64 + 1),
        "busy queued nothing"
    );

    // Drain: the queued jobs are abandoned, then the worker is released.
    stop.store(true, Ordering::SeqCst);
    while !shared.jobs.is_closed() {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    client.cancel(&blocked).expect("cancel");
    shared.stores.abort(&ticket);
    let summary = serving.join().expect("server thread").expect("drained");
    assert_eq!(summary.abandoned.len(), MAX_QUEUED_JOBS);
    let _ = std::fs::remove_dir_all(&store_dir);
}
