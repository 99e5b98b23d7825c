//! Per-lint fixtures: for every source lint, a positive case (the
//! violation fires, at the right line), a suppressed case (a justifying
//! comment or an explicit allow marker silences it), and a clean case
//! (idiomatic code passes untouched). Fixtures are tiny on-disk
//! workspaces, so these tests exercise the real `run()` walk — path
//! scoping included — not just `lint_file` in isolation.

use bqs_analyze::{run, Config};
use std::path::{Path, PathBuf};

fn fixture(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir()
        .join("bqs-analyze-fixtures")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for (rel, content) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, content).unwrap();
    }
    root
}

/// Runs only the given lints and flattens findings to `file:line id`.
fn findings(root: &Path, only: &[&str]) -> Vec<String> {
    let report = run(&Config {
        root: root.to_path_buf(),
        only: only.iter().map(|s| s.to_string()).collect(),
    })
    .unwrap();
    report
        .findings
        .iter()
        .map(|f| format!("{}:{} {}", f.file, f.line, f.lint))
        .collect()
}

// --- atomics-ordering ---------------------------------------------------

#[test]
fn atomics_positive_suppressed_clean() {
    let root = fixture(
        "atomics",
        &[(
            "crates/foo/src/lib.rs",
            "use std::sync::atomic::{AtomicUsize, Ordering};\n\
             pub fn bad(a: &AtomicUsize) -> usize {\n\
             \x20   a.load(Ordering::Relaxed)\n\
             }\n\
             pub fn justified(a: &AtomicUsize) -> usize {\n\
             \x20   // ordering: relaxed counter, only atomicity matters\n\
             \x20   a.load(Ordering::Relaxed)\n\
             }\n\
             pub fn clean(a: &AtomicUsize) -> usize {\n\
             \x20   42\n\
             }\n",
        )],
    );
    assert_eq!(
        findings(&root, &["atomics-ordering"]),
        vec!["crates/foo/src/lib.rs:3 atomics-ordering"]
    );
}

#[test]
fn atomics_obs_relaxed_carveout() {
    // `crates/obs` may use Relaxed bare (documented contract) but any
    // other ordering still needs a justification even there.
    let root = fixture(
        "atomics-obs",
        &[(
            "crates/obs/src/lib.rs",
            "use std::sync::atomic::{AtomicU64, Ordering};\n\
             pub fn count(c: &AtomicU64) {\n\
             \x20   c.fetch_add(1, Ordering::Relaxed);\n\
             \x20   c.fetch_add(1, Ordering::SeqCst);\n\
             }\n",
        )],
    );
    assert_eq!(
        findings(&root, &["atomics-ordering"]),
        vec!["crates/obs/src/lib.rs:4 atomics-ordering"]
    );
}

#[test]
fn atomics_fire_even_in_test_code() {
    // Concurrency lints are not style lints: a wrong ordering in a
    // test is still wrong, so `#[cfg(test)]` gives no exemption.
    let root = fixture(
        "atomics-test",
        &[(
            "crates/foo/src/lib.rs",
            "#[cfg(test)]\n\
             mod tests {\n\
             \x20   use std::sync::atomic::{AtomicUsize, Ordering};\n\
             \x20   fn f(a: &AtomicUsize) -> usize { a.load(Ordering::Acquire) }\n\
             }\n",
        )],
    );
    assert_eq!(
        findings(&root, &["atomics-ordering"]),
        vec!["crates/foo/src/lib.rs:4 atomics-ordering"]
    );
}

// --- safety-comment -----------------------------------------------------

#[test]
fn safety_positive_suppressed_clean() {
    let root = fixture(
        "safety",
        &[(
            "crates/foo/src/lib.rs",
            "pub fn bad(p: *const u8) -> u8 {\n\
             \x20   unsafe { *p }\n\
             }\n\
             pub fn good(p: *const u8) -> u8 {\n\
             \x20   // SAFETY: caller guarantees p is valid for reads\n\
             \x20   unsafe { *p }\n\
             }\n\
             pub fn clean() -> u8 {\n\
             \x20   0\n\
             }\n",
        )],
    );
    assert_eq!(
        findings(&root, &["safety-comment"]),
        vec!["crates/foo/src/lib.rs:2 safety-comment"]
    );
}

#[test]
fn safety_in_doc_example_is_not_a_finding() {
    let root = fixture(
        "safety-doc",
        &[(
            "crates/foo/src/lib.rs",
            "/// ```\n\
             /// unsafe { core::hint::unreachable_unchecked() }\n\
             /// ```\n\
             pub fn documented() {}\n",
        )],
    );
    assert_eq!(findings(&root, &["safety-comment"]), Vec::<String>::new());
}

// --- no-unwrap-in-lib ---------------------------------------------------

#[test]
fn unwrap_positive_suppressed_clean() {
    let root = fixture(
        "unwrap",
        &[(
            "crates/foo/src/lib.rs",
            "pub fn bad(v: Option<u8>) -> u8 {\n\
             \x20   v.unwrap()\n\
             }\n\
             pub fn bad_expect(v: Option<u8>) -> u8 {\n\
             \x20   v.expect(\"present\")\n\
             }\n\
             pub fn bad_panic() {\n\
             \x20   panic!(\"boom\");\n\
             }\n\
             pub fn allowed(v: Option<u8>) -> u8 {\n\
             \x20   // bqs-analyze: allow(no-unwrap-in-lib) — invariant: set in new()\n\
             \x20   v.unwrap()\n\
             }\n\
             pub fn clean(v: Option<u8>) -> u8 {\n\
             \x20   v.unwrap_or(0)\n\
             }\n",
        )],
    );
    assert_eq!(
        findings(&root, &["no-unwrap-in-lib"]),
        vec![
            "crates/foo/src/lib.rs:2 no-unwrap-in-lib",
            "crates/foo/src/lib.rs:5 no-unwrap-in-lib",
            "crates/foo/src/lib.rs:8 no-unwrap-in-lib",
        ]
    );
}

#[test]
fn unwrap_exempt_in_tests_and_shims() {
    let root = fixture(
        "unwrap-exempt",
        &[
            (
                "crates/foo/src/lib.rs",
                "#[cfg(test)]\n\
                 mod tests {\n\
                 \x20   fn f(v: Option<u8>) -> u8 { v.unwrap() }\n\
                 }\n",
            ),
            (
                "crates/foo/tests/it.rs",
                "fn f(v: Option<u8>) -> u8 { v.unwrap() }\n",
            ),
            (
                "shims/dep/src/lib.rs",
                "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n",
            ),
        ],
    );
    assert_eq!(findings(&root, &["no-unwrap-in-lib"]), Vec::<String>::new());
}

#[test]
fn unwrap_in_comment_or_string_is_not_a_finding() {
    let root = fixture(
        "unwrap-quoted",
        &[(
            "crates/foo/src/lib.rs",
            "/// Call `v.unwrap()` at your peril.\n\
             pub fn doc() -> &'static str {\n\
             \x20   \"then .unwrap() the result\"\n\
             }\n",
        )],
    );
    assert_eq!(findings(&root, &["no-unwrap-in-lib"]), Vec::<String>::new());
}

// --- no-print-in-lib ----------------------------------------------------

#[test]
fn print_positive_and_cli_exemption() {
    let root = fixture(
        "print",
        &[
            (
                "crates/foo/src/lib.rs",
                "pub fn bad() {\n\
                 \x20   println!(\"hello\");\n\
                 }\n",
            ),
            (
                "crates/cli/src/lib.rs",
                "pub fn fine() {\n\
                 \x20   println!(\"hello\");\n\
                 }\n",
            ),
            (
                "crates/foo/src/main.rs",
                "fn main() {\n\
                 \x20   eprintln!(\"binaries may print\");\n\
                 }\n",
            ),
        ],
    );
    assert_eq!(
        findings(&root, &["no-print-in-lib"]),
        vec!["crates/foo/src/lib.rs:2 no-print-in-lib"]
    );
}

// --- now-in-hot-path ----------------------------------------------------

#[test]
fn now_fires_only_in_hot_modules() {
    let body = "use std::time::Instant;\n\
                pub fn stamp() -> Instant {\n\
                \x20   Instant::now()\n\
                }\n";
    let root = fixture(
        "hot-now",
        &[
            ("crates/net/src/server.rs", body),
            ("crates/net/src/wire.rs", body),
        ],
    );
    assert_eq!(
        findings(&root, &["now-in-hot-path"]),
        vec!["crates/net/src/server.rs:3 now-in-hot-path"]
    );
}

#[test]
fn now_suppressed_by_allow_marker() {
    let root = fixture(
        "hot-now-allow",
        &[(
            "crates/tlog/src/spill.rs",
            "use std::time::Instant;\n\
             pub fn stamp() -> Instant {\n\
             \x20   // bqs-analyze: allow(now-in-hot-path) — cold setup path, runs once\n\
             \x20   Instant::now()\n\
             }\n",
        )],
    );
    assert_eq!(findings(&root, &["now-in-hot-path"]), Vec::<String>::new());
}

// --- trig-in-kernel -----------------------------------------------------

#[test]
fn trig_fires_only_in_kernel_modules() {
    let body = "pub fn heading(x: f64, y: f64) -> f64 {\n\
                \x20   y.atan2(x)\n\
                }\n\
                pub fn unit(theta: f64) -> (f64, f64) {\n\
                \x20   (theta.cos(), theta.sin())\n\
                }\n";
    let root = fixture(
        "kernel-trig",
        &[
            ("crates/core/src/quadrant.rs", body),
            ("crates/core/src/reconstruct.rs", body),
            ("crates/geo/src/vec2.rs", body),
        ],
    );
    assert_eq!(
        findings(&root, &["trig-in-kernel"]),
        vec![
            "crates/core/src/quadrant.rs:2 trig-in-kernel",
            "crates/core/src/quadrant.rs:5 trig-in-kernel",
            "crates/core/src/quadrant.rs:5 trig-in-kernel",
        ]
    );
}

#[test]
fn trig_suppressed_by_marker_and_exempt_in_test_regions() {
    let root = fixture(
        "kernel-trig-allow",
        &[(
            "crates/core/src/engine.rs",
            "pub fn report_angle(x: f64, y: f64) -> f64 {\n\
             \x20   // bqs-analyze: allow(trig-in-kernel) — report accessor, never on the push path\n\
             \x20   y.atan2(x)\n\
             }\n\
             pub fn clean(ax: f64, ay: f64, bx: f64, by: f64) -> bool {\n\
             \x20   ax * by - ay * bx > 0.0\n\
             }\n\
             #[cfg(test)]\n\
             mod radians_reference {\n\
             \x20   pub fn angle_of(x: f64, y: f64) -> f64 {\n\
             \x20       y.atan2(x)\n\
             \x20   }\n\
             }\n",
        )],
    );
    assert_eq!(findings(&root, &["trig-in-kernel"]), Vec::<String>::new());
}

// --- bad-suppression ----------------------------------------------------

#[test]
fn bad_suppressions_are_themselves_findings() {
    let root = fixture(
        "bad-suppression",
        &[(
            "crates/foo/src/lib.rs",
            "// bqs-analyze: allow(not-a-lint) — whatever\n\
             pub fn a() {}\n\
             // bqs-analyze: allow(no-unwrap-in-lib)\n\
             pub fn b() {}\n\
             // bqs-analyze: please ignore this file\n\
             pub fn c() {}\n",
        )],
    );
    assert_eq!(
        findings(&root, &["bad-suppression"]),
        vec![
            "crates/foo/src/lib.rs:1 bad-suppression",
            "crates/foo/src/lib.rs:3 bad-suppression",
            "crates/foo/src/lib.rs:5 bad-suppression",
        ]
    );
}

#[test]
fn allow_with_reason_is_not_flagged() {
    let root = fixture(
        "good-suppression",
        &[(
            "crates/foo/src/lib.rs",
            "// bqs-analyze: allow(no-unwrap-in-lib) — invariant: non-empty by construction\n\
             pub fn a(v: Option<u8>) -> u8 {\n\
             \x20   v.unwrap_or(0)\n\
             }\n",
        )],
    );
    assert_eq!(
        findings(&root, &["bad-suppression", "no-unwrap-in-lib"]),
        Vec::<String>::new()
    );
}
