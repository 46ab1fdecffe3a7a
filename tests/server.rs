//! End-to-end guarantees of the sampling-as-a-service job server:
//! reports served over the wire are byte-identical to one-shot pipeline
//! runs on every path (cold, store hit, memoized store hit, cache hit),
//! concurrent submissions of the same store trigger exactly one warming
//! pass and one simulation, the wire protocol refuses abuse crisply, and
//! shutdown drains.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::thread::JoinHandle;

use smarts::exec::{sample, Executor};
use smarts::prelude::*;
use smarts::server::json::Json;
use smarts::server::{
    estimate_line, machine_for, Client, JobSpec, Server, ServerConfig, Shared, ShutdownSummary,
    MAX_CACHED_LINE_BYTES, MAX_FINISHED_JOBS,
};

/// Watches `job` to its `end` event and returns the terminal state.
fn end_state(client: &mut Client, job: &str) -> String {
    let end = client.watch(job, |_| {}).expect("watch");
    let state = end.get("state").and_then(Json::as_str);
    state.expect("`end` carries the state").to_string()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smarts-server-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct RunningServer {
    addr: String,
    handle: JoinHandle<Result<ShutdownSummary, String>>,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    shared: std::sync::Arc<Shared>,
}

impl RunningServer {
    fn start(store_dir: &Path, workers: usize) -> RunningServer {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            store_dir: store_dir.to_path_buf(),
            workers,
        })
        .expect("bind ephemeral server");
        let addr = server.local_addr().to_string();
        let stop = server.stop_flag();
        let shared = server.shared();
        let handle = std::thread::spawn(move || server.serve());
        RunningServer {
            addr,
            handle,
            stop,
            shared,
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("connect to test server")
    }

    fn shutdown(self) -> ShutdownSummary {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .expect("server thread")
            .expect("server drained")
    }
}

fn small_spec() -> JobSpec {
    JobSpec {
        bench: "loopy-1".to_string(),
        config: 8,
        scale: 0.02,
        n: 8,
        unit: 500,
        warming_len: Some(1000),
        offset: 0,
        jobs: 2,
        ..JobSpec::default()
    }
}

/// The line a one-shot `smarts-exec` run produces for a spec — the
/// reference every server path must match byte for byte, for the
/// systematic estimator and the samplers alike.
fn one_shot_line(spec: &JobSpec) -> String {
    let meta = spec.meta().expect("valid spec");
    let sim = SmartsSim::new(machine_for(spec.config));
    let executor = Executor::new(spec.jobs).expect("executor");
    let run = sample(&executor, &sim, &meta, &spec.sampler_spec(), None);
    estimate_line(&run.expect("one-shot run").estimate)
}

#[test]
fn cold_store_and_cache_paths_serve_identical_bytes() {
    let store_dir = temp_dir("paths");
    let expected = one_shot_line(&small_spec());

    // First server: cold warm, then a cache hit for the same spec.
    let server = RunningServer::start(&store_dir, 2);
    let mut client = server.client();
    client.ping().expect("ping");

    let first = client.submit(&small_spec()).expect("submit cold");
    assert_eq!(end_state(&mut client, &first), "done");
    let (source, raw) = client.result(&first).expect("cold result");
    assert_eq!(source, "cold");
    assert_eq!(raw, expected, "cold path must match the one-shot run");

    let second = client.submit(&small_spec()).expect("submit cached");
    assert_eq!(end_state(&mut client, &second), "done");
    let (source, raw) = client.result(&second).expect("cached result");
    assert_eq!(source, "cache");
    assert_eq!(raw, expected, "cache path must serve the same bytes");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("warm_passes").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("cache_hits").and_then(Json::as_u64), Some(1));
    server.shutdown();

    // Second server over the same directory: the store survives, the
    // in-memory cache does not — a store-hit replay, still byte-equal.
    let server = RunningServer::start(&store_dir, 2);
    let mut client = server.client();
    let third = client.submit(&small_spec()).expect("submit store hit");
    assert_eq!(end_state(&mut client, &third), "done");
    let (source, raw) = client.result(&third).expect("store result");
    assert_eq!(source, "store");
    assert_eq!(raw, expected, "store path must replay the same bytes");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("warm_passes").and_then(Json::as_u64), Some(0));
    assert_eq!(stats.get("store_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("units_memoized").and_then(Json::as_u64), Some(0));
    let simulated = stats.get("units_replayed").and_then(Json::as_u64);
    assert!(simulated > Some(0), "the store hit replayed its units");

    // A different selection over the store that hit just replayed: a
    // store hit again, but every unit it draws is already known, so it
    // is served from the memo — the bytes of a run that simulated them.
    let sampled = JobSpec {
        sampler: smarts::core::SamplerKind::Stratified,
        seed: 3,
        ..small_spec()
    };
    let fourth = client.submit(&sampled).expect("submit memoized store hit");
    assert_eq!(end_state(&mut client, &fourth), "done");
    let (source, raw) = client.result(&fourth).expect("memoized result");
    assert_eq!(source, "store");
    assert_eq!(raw, one_shot_line(&sampled));
    let stats = client.stats().expect("stats");
    let count = |name: &str| stats.get(name).and_then(Json::as_u64).expect(name);
    assert_eq!(count("store_hits"), 2);
    assert_eq!(count("stores_opened"), 1);
    assert!(count("units_memoized") > 0, "nothing came out of the memo");
    assert_eq!(
        Some(count("units_replayed") - count("units_memoized")),
        simulated,
        "a memoized unit was simulated again"
    );
    server.shutdown();

    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn sampled_jobs_are_deterministic_and_cache_keyed_by_sampler() {
    let store_dir = temp_dir("sampled");
    let spec = JobSpec {
        sampler: smarts::core::SamplerKind::Stratified,
        seed: 9,
        ..small_spec()
    };

    let server = RunningServer::start(&store_dir, 2);
    let mut client = server.client();

    let first = client.submit(&spec).expect("submit sampled cold");
    assert_eq!(end_state(&mut client, &first), "done");
    let (source, cold_line) = client.result(&first).expect("cold result");
    assert_eq!(source, "cold");
    assert_eq!(cold_line, one_shot_line(&spec));

    // Exact repeat: the sampler spec is part of the cache key, so this
    // is a cache hit with the same bytes.
    let second = client.submit(&spec).expect("submit sampled repeat");
    assert_eq!(end_state(&mut client, &second), "done");
    let (source, raw) = client.result(&second).expect("cached result");
    assert_eq!(source, "cache");
    assert_eq!(raw, cold_line, "cache path must serve the same bytes");

    // Same store, different seed: must NOT alias the cached result —
    // it replays the shared store under the new selection (and the
    // served line embeds the seed, so the bytes differ).
    let reseeded = JobSpec {
        seed: 10,
        ..spec.clone()
    };
    let third = client.submit(&reseeded).expect("submit reseeded");
    assert_eq!(end_state(&mut client, &third), "done");
    let (source, raw) = client.result(&third).expect("reseeded result");
    assert_eq!(
        source, "store",
        "a different sampler spec cannot hit the cache"
    );
    assert_ne!(raw, cold_line, "reseeded line carries its own spec");

    // One design, one warming pass, however many selections.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("warm_passes").and_then(Json::as_u64), Some(1));
    server.shutdown();

    // Fresh server over the same directory: the in-memory cache is
    // gone, so the job replays the committed store — and the fixed
    // seed makes the selection (and the line) reproduce exactly.
    let server = RunningServer::start(&store_dir, 2);
    let mut client = server.client();
    let fourth = client.submit(&spec).expect("submit store hit");
    assert_eq!(end_state(&mut client, &fourth), "done");
    let (source, raw) = client.result(&fourth).expect("store result");
    assert_eq!(source, "store");
    assert_eq!(raw, cold_line, "store replay must reproduce the cold bytes");
    server.shutdown();

    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn concurrent_submissions_share_one_warming_pass() {
    let store_dir = temp_dir("race");
    let expected = one_shot_line(&small_spec());
    let server = RunningServer::start(&store_dir, 4);

    // Two clients race the same spec; the store manager must elect a
    // single warmer, and the racer takes the warmer's line: it is
    // cached before the commit wakes the racer, which simulates nothing.
    let submitters: Vec<_> = (0..2)
        .map(|_| {
            let addr = server.addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let id = client.submit(&small_spec()).expect("submit");
                assert_eq!(end_state(&mut client, &id), "done");
                client.result(&id).expect("result")
            })
        })
        .collect();
    let results: Vec<(String, String)> = submitters
        .into_iter()
        .map(|h| h.join().expect("submitter thread"))
        .collect();

    for (_, raw) in &results {
        assert_eq!(raw, &expected, "every concurrent result is byte-identical");
    }
    let mut sources: Vec<&str> = results.iter().map(|(source, _)| source.as_str()).collect();
    sources.sort_unstable();
    assert_eq!(sources, ["cache", "cold"], "the loser re-simulated");
    let mut client = server.client();
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.get("warm_passes").and_then(Json::as_u64),
        Some(1),
        "exactly one warming pass serves all concurrent jobs"
    );
    assert_eq!(stats.get("stores_opened").and_then(Json::as_u64), Some(0));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn a_submit_without_functional_warming_is_refused_with_the_typed_message() {
    // A served job always goes through a store, and no checkpoint holds
    // the stale state such a design measures each unit on: the submit
    // itself is refused, and no job is created.
    let store_dir = temp_dir("no-fw");
    let server = RunningServer::start(&store_dir, 1);
    let mut client = server.client();
    let mut line = String::from(r#"{"cmd":"submit","functional_warming":false,"#);
    line.push_str(&small_spec().to_json().to_line()[1..]);
    let response = smarts::server::json::parse(&client.round_trip(&line).expect("reply"))
        .expect("response is JSON");
    let refusal = smarts::exec::ExecError::NoFunctionalWarming.to_string();
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        response.get("error").and_then(Json::as_str),
        Some(refusal.as_str())
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("jobs").and_then(Json::as_u64), Some(0));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn protocol_refuses_abuse_without_dying() {
    let store_dir = temp_dir("abuse");
    let server = RunningServer::start(&store_dir, 1);
    let mut client = server.client();

    // Malformed JSON.
    let response = client.round_trip("this is not json").expect("reply");
    assert!(response.contains("\"ok\":false"), "got {response}");
    // Valid JSON, no cmd.
    let response = client.round_trip(r#"{"x":1}"#).expect("reply");
    assert!(response.contains("\"ok\":false"));
    // Unknown cmd.
    let response = client.round_trip(r#"{"cmd":"frobnicate"}"#).expect("reply");
    assert!(response.contains("unknown cmd"));
    // Bad submit fields.
    let response = client
        .round_trip(r#"{"cmd":"submit","bench":"no-such-bench"}"#)
        .expect("reply");
    assert!(response.contains("unknown benchmark"));
    // Unknown job ids.
    assert!(client.status(Some("j-404")).is_err());
    assert!(client.result("j-404").is_err());
    assert!(client.cancel("j-404").is_err());
    // The same connection still works after every refusal.
    client.ping().expect("connection survives refusals");

    // Truncated line (no newline) followed by a disconnect: the server
    // must not crash, and new connections must still be served.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(&server.addr).expect("connect raw");
        raw.write_all(br#"{"cmd":"pi"#).expect("partial write");
    } // dropped without a newline
    server.client().ping().expect("server survives truncation");

    // Oversized line: refused and the connection closed.
    {
        let mut big = String::with_capacity(70 * 1024);
        big.push_str(r#"{"cmd":"ping","pad":""#);
        while big.len() < 66 * 1024 {
            big.push('x');
        }
        big.push_str("\"}");
        let mut abuser = server.client();
        let response = abuser.round_trip(&big).expect("oversize refusal");
        assert!(response.contains("exceeds"), "got {response}");
        assert!(
            abuser.ping().is_err(),
            "oversized-line connection must be closed"
        );
    }
    server.client().ping().expect("server survives oversize");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn cancellation_is_idempotent_and_queued_jobs_die_quickly() {
    let store_dir = temp_dir("cancel");
    // One worker: the second job is guaranteed to queue behind the
    // first, so cancelling it exercises the queued-cancel path.
    let server = RunningServer::start(&store_dir, 1);
    let mut client = server.client();

    let mut long = small_spec();
    long.scale = 0.4; // long enough that the next submission stays queued
    let running = client.submit(&long).expect("submit running");
    let mut bigger = small_spec();
    bigger.offset = 1; // different design → different store → must queue
    let queued = client.submit(&bigger).expect("submit queued");

    let was = client.cancel(&queued).expect("cancel queued");
    assert!(was == "queued" || was == "warming", "got {was}");
    // Double-cancel: still answered, terminal state reported.
    let again = client.cancel(&queued).expect("double cancel");
    assert!(
        again == "cancelled" || again == "queued" || again == "warming",
        "got {again}"
    );
    assert_eq!(end_state(&mut client, &queued), "cancelled");
    assert!(
        client.result(&queued).is_err(),
        "a cancelled job has no result"
    );

    // The uncancelled job is unaffected.
    assert_eq!(end_state(&mut client, &running), "done");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn watch_streams_progress_to_a_terminal_event() {
    let store_dir = temp_dir("watch");
    let server = RunningServer::start(&store_dir, 2);
    let mut client = server.client();
    let id = client.submit(&small_spec()).expect("submit");

    let mut watcher = server.client();
    let mut events = 0u32;
    let end = watcher
        .watch(&id, |event| {
            events += 1;
            assert!(event.get("event").is_some());
            assert_eq!(event.get("job").and_then(Json::as_str), Some(id.as_str()));
        })
        .expect("watch to completion");
    assert!(events >= 1, "at least the terminal event streams");
    assert_eq!(end.get("state").and_then(Json::as_str), Some("done"));

    // The watching connection is still usable afterwards.
    watcher.ping().expect("watcher connection survives");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn shutdown_drains_in_flight_work_and_reports_abandoned_jobs() {
    let store_dir = temp_dir("drain");
    let server = RunningServer::start(&store_dir, 1);
    let mut client = server.client();

    // Fill the single worker with a long job, then queue distinct
    // designs behind it: shutdown must arrive while it is in flight.
    let mut specs = Vec::new();
    for offset in 0..4 {
        let mut spec = small_spec();
        spec.offset = offset;
        if offset == 0 {
            spec.scale = 2.0; // long enough to still be running
        }
        specs.push(spec);
    }
    let ids: Vec<String> = specs
        .iter()
        .map(|s| client.submit(s).expect("submit"))
        .collect();

    client.shutdown().expect("shutdown accepted");
    let summary = server
        .handle
        .join()
        .expect("server thread")
        .expect("drained");
    assert!(
        !summary.abandoned.is_empty(),
        "queued jobs behind a busy worker are abandoned"
    );
    assert!(
        summary.abandoned.len() < ids.len(),
        "the in-flight job is drained, not abandoned"
    );
    for id in &summary.abandoned {
        assert!(ids.contains(id), "abandoned id {id} was submitted");
    }
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn evicted_lines_and_records_get_a_typed_refusal() {
    let store_dir = temp_dir("evicted");
    let server = RunningServer::start(&store_dir, 1);
    let mut client = server.client();
    let id = client.submit(&small_spec()).expect("submit");
    assert_eq!(end_state(&mut client, &id), "done");
    let (_, line) = client.result(&id).expect("result while cached");

    // Other jobs' lines push this one out of the results cache: the
    // record stays, the result is `evicted`, not a wrong or empty line.
    let filler = "x".repeat(64 * 1024);
    for key in 0..(MAX_CACHED_LINE_BYTES / filler.len() + 1) as u64 {
        server.shared.cache.put(key, 8, 0, filler.clone());
    }
    let status = client.status(Some(&id)).expect("the record is retained");
    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
    let err = client.result(&id).unwrap_err();
    assert!(err.starts_with("evicted: "), "got {err}");
    let raw = Json::obj(vec![
        ("cmd", Json::Str("result".into())),
        ("job", Json::Str(id.clone())),
    ]);
    let response = client.round_trip(&raw.to_line()).expect("reply");
    assert!(response.contains(r#""code":"evicted""#), "got {response}");

    // Past the cap of finished records, the first to finish goes: every
    // question about it is `evicted`, while an id never handed out stays
    // unknown. (The filler jobs name no benchmark, so one a worker claims
    // before its cancel lands fails instead of finishing `done`.)
    let unservable = JobSpec {
        bench: "no-such-bench".to_string(),
        ..small_spec()
    };
    for _ in 0..MAX_FINISHED_JOBS {
        let other = server.shared.jobs.submit(unservable.clone());
        let _ = server.shared.jobs.cancel(&other.expect("submit"));
    }
    for err in [
        client.status(Some(&id)).map(|_| ()).unwrap_err(),
        client.result(&id).map(|_| ()).unwrap_err(),
        client.watch(&id, |_| {}).map(|_| ()).unwrap_err(),
        client.cancel(&id).map(|_| ()).unwrap_err(),
    ] {
        assert!(err.starts_with("evicted: "), "got {err}");
    }
    let unknown = client.status(Some("j-999999")).unwrap_err();
    assert!(unknown.starts_with("unknown job"), "got {unknown}");
    // `stats` still counts every job ever accepted.
    let stats = client.stats().expect("stats");
    let jobs = stats.get("jobs").and_then(Json::as_u64);
    assert_eq!(jobs, Some(MAX_FINISHED_JOBS as u64 + 1));
    assert_eq!(stats.get("done").and_then(Json::as_u64), Some(1));

    // A resubmit of the evicted job's spec serves the same bytes.
    let again = client.submit(&small_spec()).expect("resubmit");
    assert_eq!(end_state(&mut client, &again), "done");
    assert_eq!(client.result(&again).expect("result").1, line);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn connections_past_the_cap_are_told_busy_and_closed() {
    use smarts::server::MAX_CONNECTIONS;
    let store_dir = temp_dir("conn-cap");
    let server = RunningServer::start(&store_dir, 1);
    // A ping proves each connection has its own handler thread.
    let mut held: Vec<Client> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let mut client = server.client();
            client.ping().expect("under the cap");
            client
        })
        .collect();

    let mut extra = server.client();
    let busy = extra.read_line().expect("one refusal line");
    assert!(busy.contains(r#""code":"busy""#), "got {busy}");
    assert!(extra.read_line().is_err(), "the refused socket is closed");

    // Closing one held connection frees a slot once its handler sees
    // the close.
    drop(held.pop());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if server.client().ping().is_ok() {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "no slot came free");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    drop(held);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
}
