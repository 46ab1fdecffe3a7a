//! The `smarts-server` binary: bind, serve, drain on signal.
//!
//! ```text
//! smarts-server [--listen ADDR] [--store-dir DIR] [--workers N]
//!               [--port-file PATH]
//! ```
//!
//! `--port-file` writes the actually-bound port (one line) after bind —
//! the supervisor-friendly way to use an ephemeral port (`--listen
//! 127.0.0.1:0`). SIGINT/SIGTERM begin a graceful drain: in-flight jobs
//! finish, still-queued jobs are abandoned, and the process exits
//! nonzero if any job was abandoned.

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

use smarts_server::{Server, ServerConfig};

/// Signal plumbing: a process-wide flag set by SIGINT/SIGTERM.
///
/// The workspace is dependency-free, so instead of a signal crate this
/// declares the two C-runtime symbols it needs. The handler only
/// stores to an atomic — the async-signal-safe subset.
#[allow(unsafe_code)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    /// Installs handlers for SIGINT and SIGTERM.
    pub fn install() {
        // SAFETY: `signal` is the C standard library's handler
        // registration; the handler only performs an atomic store.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    /// Whether a termination signal has arrived.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

struct Args {
    config: ServerConfig,
    port_file: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut config = ServerConfig::default();
    let mut port_file = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--listen" => config.addr = value("--listen")?,
            "--store-dir" => config.store_dir = PathBuf::from(value("--store-dir")?),
            "--workers" => {
                config.workers = value("--workers")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&w| (1..=256).contains(&w))
                    .ok_or("--workers takes a count in 1..=256")?;
            }
            "--port-file" => port_file = Some(PathBuf::from(value("--port-file")?)),
            "--help" | "-h" => {
                return Err("usage: smarts-server [--listen ADDR] [--store-dir DIR] \
                     [--workers N] [--port-file PATH]"
                    .to_string())
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(Args { config, port_file })
}

fn run() -> Result<i32, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;

    signals::install();
    let server = Server::bind(&args.config)?;
    let addr = server.local_addr();
    if let Some(path) = &args.port_file {
        std::fs::write(path, format!("{}\n", addr.port()))
            .map_err(|e| format!("cannot write port file {}: {e}", path.display()))?;
    }
    eprintln!(
        "smarts-server listening on {addr} (stores in {}, {} workers)",
        args.config.store_dir.display(),
        args.config.workers.max(1)
    );

    // Relay termination signals to the server's stop flag.
    let stop = server.stop_flag();
    std::thread::spawn(move || loop {
        if signals::requested() {
            stop.store(true, Ordering::SeqCst);
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });

    let summary = server.serve()?;
    if summary.abandoned.is_empty() {
        eprintln!("smarts-server drained cleanly");
        Ok(0)
    } else {
        eprintln!(
            "smarts-server abandoned {} queued job(s): {}",
            summary.abandoned.len(),
            summary.abandoned.join(", ")
        );
        Ok(1)
    }
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("smarts-server: {message}");
            std::process::exit(2);
        }
    }
}
