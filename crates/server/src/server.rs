//! The TCP front end: accept loop, per-connection line handling, and
//! graceful shutdown.
//!
//! Every connection is one thread running a bounded line reader: bytes
//! accumulate until a newline, lines longer than
//! [`crate::proto::MAX_LINE`] are refused and the connection
//! closed. At most [`MAX_CONNECTIONS`] are open at once; one more is
//! answered with a single `busy` line and closed. Responses are written back one line each; `watch` streams
//! event lines until the watched job reaches a terminal state.
//!
//! Shutdown (the `shutdown` command, [`Server::stop_flag`], or a signal
//! wired to that flag) drains: the accept loop stops, still-queued jobs
//! are abandoned (cancelled), in-flight jobs run to completion — a
//! cancelled or failed warming pass still flushes its `.partial` store
//! as a salvageable prefix — and only then are connection handlers
//! released, so watchers observe final states.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::jobs::{JobRecord, JobState, JobTable, Refusal, ResultSource, MAX_QUEUED_JOBS};
use crate::json::Json;
use crate::proto::{
    coded_err_response, err_response, ok_response, parse_request, Request, MAX_LINE,
};
use crate::scheduler::{worker_loop, Shared};
use crate::store_mgr::{ResultsCache, StoreManager};

/// Most connections served at once. Each holds a thread, so a peer
/// opening sockets in a loop cannot grow the process without bound.
pub const MAX_CONNECTIONS: usize = 64;

/// How a server is configured at bind time.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Directory for the shared checkpoint stores.
    pub store_dir: PathBuf,
    /// Scheduler worker threads (jobs running concurrently).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            store_dir: PathBuf::from("smarts-store"),
            workers: 2,
        }
    }
}

/// What a drained server left behind.
#[derive(Debug)]
pub struct ShutdownSummary {
    /// Ids of jobs still queued when shutdown began — cancelled, never
    /// run. A nonzero count is the binary's nonzero-exit condition.
    pub abandoned: Vec<String>,
}

/// A bound server: listener plus scheduler workers, ready to serve.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, opens the store directory, and starts the
    /// scheduler workers.
    ///
    /// # Errors
    ///
    /// Returns a message when the address cannot be bound or the store
    /// directory cannot be created.
    pub fn bind(config: &ServerConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot make listener nonblocking: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        let shared = Arc::new(Shared {
            jobs: JobTable::new(),
            stores: StoreManager::new(&config.store_dir)?,
            cache: ResultsCache::new(),
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        Ok(Server {
            listener,
            addr,
            shared,
            stop: Arc::new(AtomicBool::new(false)),
            workers,
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared scheduler state (job table, stores, cache).
    pub fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// A flag that stops [`Server::serve`] when set — wire signals or a
    /// supervising thread to this.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Runs the accept loop until shutdown is requested, then drains.
    ///
    /// # Errors
    ///
    /// Returns a message on a non-transient accept failure.
    pub fn serve(self) -> Result<ShutdownSummary, String> {
        let conn_stop = Arc::new(AtomicBool::new(false));
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((mut stream, _peer)) => {
                    conns.retain(|handle| !handle.is_finished());
                    if conns.len() >= MAX_CONNECTIONS {
                        let busy = coded_err_response(
                            "busy",
                            &format!("{MAX_CONNECTIONS} connections are open already; retry later"),
                        );
                        // Dropping the stream closes it.
                        let _ = write_line(&mut stream, &busy);
                        continue;
                    }
                    let shared = Arc::clone(&self.shared);
                    let stop = Arc::clone(&self.stop);
                    let conn_stop = Arc::clone(&conn_stop);
                    conns.push(std::thread::spawn(move || {
                        // A broken pipe mid-conversation is the peer's
                        // problem, not the server's.
                        let _ = handle_connection(stream, &shared, &stop, &conn_stop);
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("accept failed: {e}")),
            }
        }

        // Drain: abandon the queue, let claimed jobs finish, then
        // release connection handlers so watchers saw final states.
        let abandoned = self.shared.jobs.close();
        for worker in self.workers {
            let _ = worker.join();
        }
        conn_stop.store(true, Ordering::SeqCst);
        for conn in conns {
            let _ = conn.join();
        }
        Ok(ShutdownSummary { abandoned })
    }
}

/// Reads newline-delimited requests off one connection until EOF,
/// oversize abuse, or shutdown.
fn handle_connection(
    mut stream: TcpStream,
    shared: &Arc<Shared>,
    stop: &AtomicBool,
    conn_stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let _ = stream.set_nodelay(true);
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Process every complete line already buffered. The length gate
        // comes first: a line past MAX_LINE is refused even when it has
        // fully arrived, and a newline-less buffer past the cap is
        // refused without waiting for one.
        while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
            if nl > MAX_LINE {
                write_line(&mut stream, &err_response("request line exceeds 64 KiB"))?;
                return Ok(());
            }
            let line: Vec<u8> = pending.drain(..=nl).collect();
            let text = String::from_utf8_lossy(&line[..nl]);
            let keep_going = handle_line(
                text.trim_end_matches('\r'),
                shared,
                stop,
                conn_stop,
                &mut stream,
            )?;
            if !keep_going {
                return Ok(());
            }
        }
        if pending.len() > MAX_LINE {
            write_line(&mut stream, &err_response("request line exceeds 64 KiB"))?;
            return Ok(());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // client closed
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if conn_stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn write_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")
}

/// One job's protocol fields (a `status` reply, a `watch` event, an
/// element of the `status` list).
fn job_fields(record: &JobRecord) -> Vec<(&'static str, Json)> {
    vec![
        ("job", Json::Str(record.id.clone())),
        ("bench", Json::Str(record.spec.bench.clone())),
        ("config", Json::U64(u64::from(record.spec.config))),
        ("state", Json::Str(record.state.name().to_string())),
        ("source", source_json(record.source)),
        ("emitted", Json::U64(record.emitted)),
        ("replayed", Json::U64(record.replayed)),
        (
            "error",
            match &record.error {
                None => Json::Null,
                Some(e) => Json::Str(e.clone()),
            },
        ),
    ]
}

fn source_json(source: Option<ResultSource>) -> Json {
    match source {
        None => Json::Null,
        Some(s) => Json::Str(s.name().to_string()),
    }
}

/// The reply refusing a request about job `id` (or a submit).
fn refusal_line(refusal: Refusal, id: &str) -> String {
    match refusal {
        Refusal::Unknown => err_response(&format!("unknown job `{id}`")),
        Refusal::Evicted => coded_err_response(
            "evicted",
            &format!("job `{id}` is no longer retained; resubmit its spec"),
        ),
        Refusal::Busy => coded_err_response(
            "busy",
            &format!("{MAX_QUEUED_JOBS} jobs are queued already; retry later"),
        ),
        Refusal::ShuttingDown => err_response("server is shutting down"),
    }
}

/// Handles one request line; returns `Ok(false)` to close the
/// connection.
fn handle_line(
    line: &str,
    shared: &Arc<Shared>,
    stop: &AtomicBool,
    conn_stop: &AtomicBool,
    stream: &mut TcpStream,
) -> std::io::Result<bool> {
    if line.is_empty() {
        return Ok(true);
    }
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(message) => {
            write_line(stream, &err_response(&message))?;
            return Ok(true);
        }
    };
    match request {
        Request::Ping => write_line(stream, &ok_response(vec![("pong", Json::Bool(true))]))?,
        Request::Submit(spec) => {
            // Validate up front so a bad spec fails the submit, not the
            // job: the scheduler re-derives the same parameters.
            if let Err(message) = spec.meta() {
                write_line(stream, &err_response(&message))?;
                return Ok(true);
            }
            match shared.jobs.submit(spec) {
                Ok(id) => write_line(stream, &ok_response(vec![("job", Json::Str(id))]))?,
                Err(refusal) => write_line(stream, &refusal_line(refusal, ""))?,
            }
        }
        Request::Status(None) => {
            let jobs = shared.jobs.list();
            let jobs = Json::Arr(jobs.iter().map(|r| Json::obj(job_fields(r))).collect());
            write_line(stream, &ok_response(vec![("jobs", jobs)]))?;
        }
        Request::Status(Some(id)) => match shared.jobs.get(&id) {
            Ok(record) => write_line(stream, &ok_response(job_fields(&record)))?,
            Err(refusal) => write_line(stream, &refusal_line(refusal, &id))?,
        },
        Request::Result(id) => {
            let record = match shared.jobs.get(&id) {
                Ok(record) => record,
                Err(refusal) => {
                    write_line(stream, &refusal_line(refusal, &id))?;
                    return Ok(true);
                }
            };
            match record.result.as_ref().map(Weak::upgrade) {
                Some(Some(report)) => {
                    // Splice the cached canonical line in verbatim —
                    // string concatenation, never re-serialization — so
                    // every path serves byte-identical report bytes.
                    let head = ok_response(vec![
                        ("job", Json::Str(record.id.clone())),
                        ("source", source_json(record.source)),
                    ]);
                    let mut line = String::with_capacity(head.len() + report.len() + 12);
                    line.push_str(&head[..head.len() - 1]);
                    line.push_str(",\"report\":");
                    line.push_str(&report);
                    line.push('}');
                    write_line(stream, &line)?;
                }
                // Done, but the results cache has let the line go.
                Some(None) => write_line(stream, &refusal_line(Refusal::Evicted, &id))?,
                None => {
                    write_line(
                        stream,
                        &err_response(&format!(
                            "job `{id}` has no result (state {})",
                            record.state.name()
                        )),
                    )?;
                }
            }
        }
        Request::Watch(id) => {
            if let Err(refusal) = shared.jobs.get(&id) {
                write_line(stream, &refusal_line(refusal, &id))?;
                return Ok(true);
            }
            let mut seq = 0; // emit the current state immediately
            let mut last: Option<(JobState, u64, u64)> = None;
            loop {
                // Only a finished record can go, once `MAX_FINISHED_JOBS`
                // later jobs have finished: a watcher that slow is told so.
                let record = match shared.jobs.get(&id) {
                    Ok(record) => record,
                    Err(refusal) => {
                        write_line(stream, &refusal_line(refusal, &id))?;
                        break;
                    }
                };
                let snapshot = (record.state, record.emitted, record.replayed);
                if last != Some(snapshot) {
                    last = Some(snapshot);
                    let kind = if record.state.is_terminal() {
                        "end"
                    } else {
                        "progress"
                    };
                    let mut fields = vec![("event", Json::Str(kind.to_string()))];
                    fields.extend(job_fields(&record));
                    write_line(stream, &Json::obj(fields).to_line())?;
                }
                if record.state.is_terminal() {
                    break;
                }
                seq = shared.jobs.wait_change(seq, Duration::from_millis(200));
                if conn_stop.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
        Request::Cancel(id) => match shared.jobs.cancel(&id) {
            Ok(observed) => write_line(
                stream,
                &ok_response(vec![
                    ("job", Json::Str(id)),
                    ("was", Json::Str(observed.name().to_string())),
                ]),
            )?,
            Err(refusal) => write_line(stream, &refusal_line(refusal, &id))?,
        },
        Request::Stats => {
            let (jobs, done) = shared.jobs.counts();
            let (stores, open_stores) = shared.stores.counts();
            write_line(
                stream,
                &ok_response(vec![
                    ("jobs", Json::U64(jobs)),
                    ("done", Json::U64(done)),
                    ("warm_passes", Json::U64(stores.warm_passes)),
                    ("store_hits", Json::U64(stores.store_hits)),
                    ("cache_hits", Json::U64(shared.cache.hits())),
                    ("open_stores", Json::U64(open_stores)),
                    ("stores_opened", Json::U64(stores.stores_opened)),
                    ("stores_evicted", Json::U64(stores.stores_evicted)),
                    ("units_replayed", Json::U64(stores.units_replayed)),
                    ("units_memoized", Json::U64(stores.units_memoized)),
                ]),
            )?;
        }
        Request::Shutdown => {
            write_line(stream, &ok_response(vec![("draining", Json::Bool(true))]))?;
            stop.store(true, Ordering::SeqCst);
        }
    }
    Ok(true)
}
