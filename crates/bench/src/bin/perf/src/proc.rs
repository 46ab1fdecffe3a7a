//! Child processes and scratch space: the two user-facing binaries run
//! as children (`smarts` one invocation at a time, `smarts-server` for
//! the length of a workload), and everything they write lands in one
//! scratch directory that is removed when the run ends.

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Resource usage of a reaped child, as `wait4` reports it. The repo
/// builds without external crates, so this declares the one libc symbol
/// it needs, as `crates/ckpt` does for `mmap`.
mod sys {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// longs.
    #[repr(C)]
    pub struct Rusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub rest: [i64; 14],
    }

    extern "C" {
        pub fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    }
}

/// One finished `smarts` invocation.
#[derive(Debug)]
pub struct CliRun {
    pub success: bool,
    pub stdout: String,
    /// Spawn → exit, host wall.
    pub wall: Duration,
    /// User + system CPU time of the child.
    pub cpu: Duration,
    /// Peak resident set of the child: the last `VmHWM` a 2 ms poll of
    /// `/proc/<pid>/status` saw. (`ru_maxrss` would be simpler, but a
    /// spawned child's starts at the *spawning* process's peak, and
    /// this process grows to tens of MiB computing golden lines.)
    pub peak_rss_kib: u64,
}

/// `VmHWM` of process `pid` in KiB; 0 once it has no address space.
fn vm_hwm_kib(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// Runs `program args…` to completion with its temp files confined to
/// `scratch`, and reaps it with `wait4` to learn its CPU time.
pub fn run_cli(program: &Path, args: &[String], scratch: &Path) -> Result<CliRun, String> {
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .env("TMPDIR", scratch)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", program.display()))?;
    let pid = child.id();
    let exited = AtomicBool::new(false);
    let mut stdout = String::new();
    let (read, reaped, wall, peak_rss_kib) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0;
            while !exited.load(Ordering::Relaxed) {
                peak = peak.max(vm_hwm_kib(pid));
                std::thread::sleep(Duration::from_millis(2));
            }
            peak
        });
        let read = child
            .stdout
            .take()
            .expect("stdout was piped")
            .read_to_string(&mut stdout);
        let reaped = reap(&mut child);
        let wall = start.elapsed();
        exited.store(true, Ordering::Relaxed);
        let peak = sampler.join().expect("the sampler does not panic");
        (read, reaped, wall, peak)
    });
    let (status, cpu) = reaped?;
    read.map_err(|e| format!("cannot read {} output: {e}", program.display()))?;
    Ok(CliRun {
        // Exited (low seven bits clear) with code 0.
        success: status == 0,
        stdout,
        wall,
        cpu,
        peak_rss_kib,
    })
}

/// Reaps `child` through `wait4`, returning its raw wait status and CPU
/// time.
fn reap(child: &mut Child) -> Result<(i32, Duration), String> {
    let mut status = 0i32;
    let mut usage = sys::Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `wait4` writes one `int` and one `struct rusage` through
    // the two pointers, both of which point at live, correctly laid out
    // locals; the pid is a child of this process that nothing else
    // waits for (`Child::wait` is never called on it).
    let reaped = unsafe { sys::wait4(child.id() as i32, &mut status, 0, &mut usage) };
    if reaped < 0 {
        return Err(format!("wait4 failed: {}", std::io::Error::last_os_error()));
    }
    let timeval = |tv: [i64; 2]| {
        Duration::from_secs(tv[0].max(0) as u64) + Duration::from_micros(tv[1].max(0) as u64)
    };
    Ok((status, timeval(usage.utime) + timeval(usage.stime)))
}

/// A running `smarts-server`. Dropping it kills the child, so a panic
/// anywhere in the benchmark cannot leave a server behind.
#[derive(Debug)]
pub struct ServerChild {
    child: Child,
    pub addr: String,
}

impl ServerChild {
    /// Starts the server on an ephemeral loopback port over `store_dir`
    /// and waits for its port file.
    pub fn start(
        program: &Path,
        scratch: &Path,
        store_dir: &Path,
        workers: usize,
    ) -> Result<Self, String> {
        let port_file = scratch.join("port");
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(program)
            .args(["--listen", "127.0.0.1:0", "--workers", &workers.to_string()])
            .arg("--store-dir")
            .arg(store_dir)
            .arg("--port-file")
            .arg(&port_file)
            .env("TMPDIR", scratch)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", program.display()))?;
        let mut server = ServerChild {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            // The file is written in one call; a trailing newline marks
            // it complete.
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Some(port) = text.strip_suffix('\n') {
                    server.addr = format!("127.0.0.1:{port}");
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("smarts-server exited at start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("smarts-server wrote no port file within 20 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident set of the server so far (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> u64 {
        vm_hwm_kib(self.child.id())
    }

    /// Waits for the server to exit after a `shutdown` request; `true`
    /// if it drained cleanly. A server that does not exit in time is
    /// killed when `self` drops.
    pub fn wait_exit(mut self) -> bool {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(_) => return false,
            }
        }
        false
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The run's scratch directory, removed on drop (also on unwind).
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `<base>/run-<pid>` afresh.
    pub fn create(base: &Path) -> Result<Self, String> {
        let dir = base.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Empties the directory between two set-ups.
    pub fn clear(&self) -> Result<(), String> {
        std::fs::remove_dir_all(&self.0)
            .and_then(|()| std::fs::create_dir_all(&self.0))
            .map_err(|e| format!("cannot reset {}: {e}", self.0.display()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The first line of `program args…`'s output, or `unknown`.
pub fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}
