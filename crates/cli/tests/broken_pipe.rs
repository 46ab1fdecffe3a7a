//! `smarts <cmd> | head`: a stdout reader that has gone away ends the
//! process quietly instead of panicking it (exit 101 and a backtrace).

#![cfg(unix)]

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_pipe_does_not_panic() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_smarts"))
        .arg("list")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("smarts runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_ne!(output.status.code(), Some(101), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
