//! End-to-end frontend coverage for the job server: a `risc` job must
//! serve the exact canonical bytes of a one-shot pipeline run,
//! resubmits must come back from the results cache unchanged, and a
//! builtin job for the same benchmark/design must resolve to a distinct
//! store and cache entry (the fingerprint folds the frontend tag).

use smarts_ckpt::IsaId;
use smarts_core::SmartsSim;
use smarts_exec::{sample, Executor};
use smarts_server::{estimate_line, machine_for, Client, JobSpec, Server, ServerConfig};
use smarts_workloads::risc_suite;

/// Watches `job` to its `end` event and returns the terminal state.
fn end_state(client: &mut Client, job: &str) -> String {
    let end = client.watch(job, |_| {}).expect("watch");
    let state = end.get("state").and_then(smarts_server::json::Json::as_str);
    state.expect("`end` carries the state").to_string()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("smarts_served_isa_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn served_risc_job_matches_a_one_shot_run_and_keys_its_own_cache() {
    let store_dir = temp_dir("store");
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: store_dir.clone(),
        workers: 2,
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.serve());

    let bench = risc_suite()[0].name().to_string();
    let spec = JobSpec {
        bench: bench.clone(),
        isa: IsaId::Risc,
        scale: 0.05,
        n: 10,
        jobs: 2,
        ..JobSpec::default()
    };

    let mut client = Client::connect(&addr).unwrap();
    let job = client.submit(&spec).unwrap();
    assert_eq!(end_state(&mut client, &job), "done");
    let (source, served) = client.result(&job).unwrap();
    assert_eq!(source, "cold");

    // One-shot reference through the same exec entry point the CLI uses.
    let sim = SmartsSim::new(machine_for(spec.config));
    let (two, sampler) = (Executor::new(2).unwrap(), spec.sampler_spec());
    let one_shot = sample(&two, &sim, &spec.meta().unwrap(), &sampler, None).unwrap();
    assert_eq!(
        served,
        estimate_line(&one_shot.estimate),
        "served risc report is not byte-identical to the one-shot run"
    );

    // Resubmit: answered from the results cache with the same bytes.
    let again = client.submit(&spec).unwrap();
    assert_eq!(end_state(&mut client, &again), "done");
    let (source, cached) = client.result(&again).unwrap();
    assert_eq!(source, "cache");
    assert_eq!(cached, served);

    // The same benchmark and design under the builtin frontend is a
    // different store identity: it must run (not hit the risc cache)
    // and serve the builtin one-shot bytes.
    let builtin_spec = JobSpec {
        isa: IsaId::Builtin,
        ..spec.clone()
    };
    let job = client.submit(&builtin_spec).unwrap();
    assert_eq!(end_state(&mut client, &job), "done");
    let (source, builtin_served) = client.result(&job).unwrap();
    assert_eq!(source, "cold", "builtin job must not reuse the risc store");
    let builtin_meta = builtin_spec.meta().unwrap();
    let builtin_one_shot = sample(&two, &sim, &builtin_meta, &sampler, None).unwrap();
    assert_eq!(builtin_served, estimate_line(&builtin_one_shot.estimate));

    // A trace submit is refused at the protocol boundary.
    let err = client
        .round_trip(&format!(
            r#"{{"cmd":"submit","bench":"{bench}","isa":"trace"}}"#
        ))
        .unwrap();
    assert!(err.contains(r#""ok":false"#), "got: {err}");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&store_dir).ok();
}
