//! The `bqs` binary end to end: its output against a reader that goes
//! away, and the log writers inside a spill tree.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn bqs(args: &[&str]) -> Output {
    let output = Command::new(env!("CARGO_BIN_EXE_bqs"))
        .args(args)
        .output()
        .expect("run bqs");
    assert_eq!(output.status.code(), Some(0), "bqs {args:?}: {output:?}");
    output
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("bqs-cli-bin")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// `bqs … | head -1` exits 0 without a word on stderr instead of
/// panicking on the closed pipe.
#[test]
fn a_closed_stdout_reader_is_a_quiet_success() {
    // ~190 KB of CSV: more than a pipe buffers, so the write meets the
    // closed read end whenever the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_bqs"))
        .args(["generate", "vehicle", "--seed", "9"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bqs");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("wait for bqs");
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    assert_eq!(String::from_utf8_lossy(&output.stderr), "");
}

/// `bqs log append|compact` on one shard of a tree rebuilds the tree's
/// MANIFEST, so `bqs log verify` of the whole tree still holds.
#[test]
fn writing_one_shard_keeps_the_tree_manifest_fresh() {
    let dir = temp_dir("manifest");
    let (tree, trace) = (dir.join("t"), dir.join("trace.csv"));
    let (tree, trace) = (tree.to_str().unwrap(), trace.to_str().unwrap());
    let shard = format!("{tree}/shard-0");
    bqs(&[
        "fleet",
        "--sessions",
        "10",
        "--points",
        "100",
        "--seed",
        "3",
        "--spill",
        tree,
    ]);
    bqs(&["generate", "vehicle", "--seed", "9", "--out", trace]);
    let verified = |step: &str| {
        let out = String::from_utf8(bqs(&["log", "verify", tree]).stdout).unwrap();
        assert!(out.contains("MANIFEST verified"), "after {step}: {out}");
    };
    let appended = bqs(&["log", "append", &shard, trace, "--track", "99"]);
    assert!(String::from_utf8_lossy(&appended.stdout).contains("rebuilt"));
    verified("append");
    bqs(&["log", "compact", &shard, "--drop", "99"]);
    verified("compact");
    let _ = std::fs::remove_dir_all(&dir);
}
