//! `smarts` — command-line interface to the sampling simulator.
//!
//! ```text
//! smarts list                                 # show the benchmark suite
//! smarts sample  --bench chase-1 [options]    # SMARTS sampling estimate
//! smarts reference --bench chase-1 [options]  # full-detail ground truth
//! smarts compare --bench chase-1 [options]    # paired 8-way vs 16-way
//! smarts simpoint --bench chase-1 [options]   # SimPoint baseline estimate
//! ```
//!
//! Run `smarts help` for the full option list.

use smarts_cli::{dispatch, usage};

/// Restores the default `SIGPIPE` disposition (Rust's runtime ignores
/// it), so `smarts list | head` ends quietly once the reader has gone
/// instead of panicking inside `println!`.
#[cfg(unix)]
fn restore_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SAFETY: `signal` is the C standard library's handler registration;
    // 13 is SIGPIPE and 0 is SIG_DFL, which installs no handler code.
    unsafe { signal(13, 0) };
}

fn main() {
    #[cfg(unix)]
    restore_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => {}
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    }
}
