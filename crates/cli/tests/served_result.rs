//! `smarts result` prints a served job's report under the job's own
//! benchmark and machine, not under this command's defaults.

use std::process::Command;

use smarts_server::json::Json;
use smarts_server::{Client, JobSpec, Server, ServerConfig};

#[test]
fn a_fetched_result_is_labelled_with_the_jobs_machine() {
    let store_dir = std::env::temp_dir().join(format!("smarts-cli-result-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let server = Server::bind(&ServerConfig {
        store_dir: store_dir.clone(),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let serving = std::thread::spawn(move || server.serve());

    let spec = JobSpec {
        bench: "loopy-1".to_string(),
        config: 16,
        scale: 0.02,
        n: 8,
        ..JobSpec::default()
    };
    let mut client = Client::connect(&addr).expect("connect");
    let job = client.submit(&spec).expect("submit");
    let end = client.watch(&job, |_| {}).expect("watch");
    assert_eq!(end.get("state"), Some(&Json::Str("done".into())));

    // No --config and no --bench: both come from the job.
    let output = Command::new(env!("CARGO_BIN_EXE_smarts"))
        .args(["result", "--addr", &addr, "--job", &job])
        .output()
        .expect("smarts runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "stdout: {stdout}");
    let line = |label: &str| stdout.lines().find(|line| line.starts_with(label));
    let machine = line("machine ").expect("a machine line");
    assert!(machine.starts_with("machine       16-way "), "{machine}");
    assert_eq!(line("benchmark "), Some("benchmark     loopy-1"));

    client.shutdown().expect("shutdown");
    serving.join().expect("serve thread").expect("serve");
    let _ = std::fs::remove_dir_all(&store_dir);
}
