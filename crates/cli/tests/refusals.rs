//! Input that once panicked the process or kept it running until it was
//! killed — a scale that is not finite and positive, a worker count past
//! the executor's bound — ends every command with a named error.

use std::process::Command;

#[test]
fn bad_scales_and_worker_counts_exit_with_a_message() {
    let bench = ["--bench", "loopy-1"];
    let mut cases: Vec<Vec<&str>> = Vec::new();
    for command in [
        "sample",
        "reference",
        "compare",
        "simpoint",
        "cachesim",
        "bpredsim",
        "trace-export",
    ] {
        for scale in ["nan", "inf"] {
            cases.push([&[command][..], &bench, &["--scale", scale]].concat());
        }
    }
    for jobs in ["257", "50000"] {
        cases.push(
            [
                &["sample"][..],
                &bench,
                &["--scale", "0.01", "--jobs", jobs],
            ]
            .concat(),
        );
    }
    for args in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_smarts"))
            .args(&args)
            .output()
            .expect("smarts runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: --"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
