//! Source lints over the lexer's per-line views.
//!
//! Every lint here enforces a *written-down* contract:
//!
//! | id | contract |
//! |---|---|
//! | `atomics-ordering` | every atomic `Ordering::…` site carries an `// ordering:` justification (except `Relaxed` inside `crates/obs`, whose relaxed-counter contract is documented in `docs/observability.md`) |
//! | `safety-comment` | every `unsafe` block/fn/impl carries a `// SAFETY:` comment |
//! | `no-unwrap-in-lib` | `.unwrap()` / `.expect(` / `panic!` are forbidden in non-test library code — typed errors are the house style |
//! | `no-print-in-lib` | `println!` / `eprintln!` (and the non-`ln` forms) only in `crates/cli` and binaries |
//! | `now-in-hot-path` | direct `Instant::now` / `SystemTime::now` reads are forbidden in the designated hot modules — clock reads go through the `bqs-obs` timing helpers |
//! | `trig-in-kernel` | no trigonometric call (`atan2`, `.angle()`, `.sin()`, `.cos()`, `.tan()`, `from_angle`, …) in the BQS decision-kernel modules — the kernel orders directions by cross-product sign and is priced in roots and divisions |
//! | `bad-suppression` | a suppression marker must name a known lint and give a reason |
//!
//! Suppression grammar (same line or the line directly above): the
//! crate name, a colon, then `allow(<lint-id>) — <non-empty reason>`;
//! the exact form is spelled out in `docs/static-analysis.md`. (It is
//! paraphrased here so this very doc comment does not parse as a
//! marker.)

use crate::lexer::FileScan;
use crate::Finding;

/// The source-lint ids, as accepted by `--lint`.
pub const SOURCE_LINT_IDS: &[&str] = &[
    "atomics-ordering",
    "safety-comment",
    "no-unwrap-in-lib",
    "no-print-in-lib",
    "now-in-hot-path",
    "trig-in-kernel",
    "bad-suppression",
];

/// Modules on the ingest/serve hot path: per-event clock reads must go
/// through the `bqs-obs` helpers (`bqs_obs::now`, `elapsed_us`,
/// `Histogram::record_elapsed`) so their cost stays auditable in one
/// place.
pub const HOT_MODULES: &[&str] = &[
    "crates/net/src/server.rs",
    "crates/core/src/fleet/parallel.rs",
    "crates/core/src/fleet/reorder.rs",
    "crates/tlog/src/spill.rs",
    "crates/tlog/src/engine.rs",
];

/// The BQS decision kernel: everything `BqsEngine::push` runs per point.
/// These modules order directions by cross-product sign and intersect
/// rays from direction vectors, so a trigonometric call here is a
/// performance regression (`docs/architecture.md` §Decision kernel) —
/// one `atan2` costs more than a whole deviation-bound evaluation.
pub const KERNEL_MODULES: &[&str] = &[
    "crates/core/src/quadrant.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/bounds.rs",
    "crates/core/src/rotation.rs",
];

/// `f64` trigonometric methods, flagged when called (`x.sin()`,
/// `f64::atan2(y, x)`), plus `.angle()` — the geometry crate's `atan2`
/// wrapper on vectors, lines and rotations. `from_angle(…)`
/// (`Vec2`/`Rot2`: `cos` and `sin` inside) is flagged as a call of any
/// shape.
const TRIG_METHODS: &[&str] = &[
    "sin", "cos", "tan", "sin_cos", "asin", "acos", "atan", "atan2", "angle",
];

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// What the path of a file implies for lint scope.
struct Scope {
    /// Vendored dependency stand-ins under `shims/`: concurrency lints
    /// only — they mirror external crates' panicking/printing APIs.
    shim: bool,
    /// Integration tests or examples: exempt from the style lints,
    /// covered by the concurrency lints.
    test_like: bool,
    /// `crates/cli` (and binaries): the one place allowed to print.
    cli: bool,
    /// `crates/obs/src`: relaxed counters are its documented contract.
    obs: bool,
    /// On the [`HOT_MODULES`] list.
    hot: bool,
    /// On the [`KERNEL_MODULES`] list.
    kernel: bool,
}

impl Scope {
    fn of(rel: &str) -> Scope {
        Scope {
            shim: rel.starts_with("shims/"),
            test_like: rel.contains("/tests/")
                || rel.starts_with("tests/")
                || rel.contains("/examples/")
                || rel.starts_with("examples/"),
            cli: rel.starts_with("crates/cli/") || rel.ends_with("/main.rs"),
            obs: rel.starts_with("crates/obs/src/"),
            hot: HOT_MODULES.contains(&rel),
            kernel: KERNEL_MODULES.contains(&rel),
        }
    }
}

/// A parsed suppression marker.
struct Allow {
    id: String,
    has_reason: bool,
}

fn parse_allows(comment: &str) -> Vec<Allow> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find("bqs-analyze:") {
        rest = &rest[at + "bqs-analyze:".len()..];
        let Some(open) = rest.find("allow(") else {
            // A marker without an allow form — flag it so typos
            // ("alow", "ignore") can't silently disable nothing.
            out.push(Allow {
                id: String::new(),
                has_reason: false,
            });
            continue;
        };
        rest = &rest[open + "allow(".len()..];
        let Some(close) = rest.find(')') else {
            out.push(Allow {
                id: String::new(),
                has_reason: false,
            });
            break;
        };
        let id = rest[..close].trim().to_string();
        rest = &rest[close + 1..];
        // The reason: whatever follows the closing paren after
        // separator punctuation (`—`, `-`, `:`), non-empty.
        let reason = rest
            .trim_start()
            .trim_start_matches(['—', '-', ':', ' '])
            .trim();
        let upto = reason.find("bqs-analyze:").unwrap_or(reason.len());
        out.push(Allow {
            id,
            has_reason: !reason[..upto].trim().is_empty(),
        });
    }
    out
}

/// Runs every source lint over one scanned file, appending findings.
pub fn lint_file(
    rel: &str,
    scan: &FileScan,
    enabled: &dyn Fn(&str) -> bool,
    out: &mut Vec<Finding>,
) {
    let scope = Scope::of(rel);

    // Per-line allow markers (and their own validity findings).
    let mut allows: Vec<Vec<String>> = vec![Vec::new(); scan.lines.len()];
    for (idx, line) in scan.lines.iter().enumerate() {
        for comment in &line.comments {
            for allow in parse_allows(comment) {
                let lineno = idx + 1;
                if allow.id.is_empty() {
                    if enabled("bad-suppression") {
                        out.push(Finding::new(
                            rel,
                            lineno,
                            "bad-suppression",
                            "malformed `bqs-analyze:` marker: expected `allow(<lint-id>) — reason`",
                        ));
                    }
                    continue;
                }
                if !SOURCE_LINT_IDS.contains(&allow.id.as_str()) {
                    if enabled("bad-suppression") {
                        out.push(Finding::new(
                            rel,
                            lineno,
                            "bad-suppression",
                            format!("unknown lint id in allow(): {:?}", allow.id),
                        ));
                    }
                    continue;
                }
                if !allow.has_reason {
                    if enabled("bad-suppression") {
                        out.push(Finding::new(
                            rel,
                            lineno,
                            "bad-suppression",
                            format!("allow({}) needs a reason after the closing paren", allow.id),
                        ));
                    }
                    continue;
                }
                allows[idx].push(allow.id);
            }
        }
    }
    let allowed = |lineno: usize, id: &str| -> bool {
        let own = allows.get(lineno - 1).map(Vec::as_slice).unwrap_or(&[]);
        let above = lineno
            .checked_sub(2)
            .and_then(|i| allows.get(i))
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        own.iter().chain(above).any(|a| a == id)
    };
    let justified = |lineno: usize, marker: &str| -> bool {
        scan.comments_at(lineno).any(|c| {
            c.trim_start()
                .trim_start_matches(['*', ' '])
                .starts_with(marker)
        })
    };

    let test_region = test_region_lines(scan);

    for (idx, line) in scan.lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        // The concurrency lints (atomics-ordering, safety-comment)
        // apply everywhere — a test that gets an ordering wrong is
        // still wrong. The style lints skip test code.
        let in_test = test_region[idx] || scope.test_like;

        for (pos, ident) in idents(code) {
            let before = &code[..pos];
            let after = &code[pos + ident.len()..];
            match ident {
                ord if ATOMIC_ORDERINGS.contains(&ord) && before.ends_with("Ordering::") => {
                    if !enabled("atomics-ordering") {
                        continue;
                    }
                    if scope.obs && ord == "Relaxed" {
                        continue; // the documented relaxed-counter contract
                    }
                    if justified(lineno, "ordering:") || allowed(lineno, "atomics-ordering") {
                        continue;
                    }
                    out.push(Finding::new(
                        rel,
                        lineno,
                        "atomics-ordering",
                        format!("Ordering::{ord} without an `// ordering:` justification"),
                    ));
                }
                "unsafe" => {
                    if !enabled("safety-comment") {
                        continue;
                    }
                    if justified(lineno, "SAFETY:") || allowed(lineno, "safety-comment") {
                        continue;
                    }
                    out.push(Finding::new(
                        rel,
                        lineno,
                        "safety-comment",
                        "`unsafe` without a `// SAFETY:` comment",
                    ));
                }
                "unwrap" | "expect"
                    if before.trim_end().ends_with('.')
                        && (ident == "expect" || after.trim_start().starts_with("()")) =>
                {
                    if ident == "expect" && !after.trim_start().starts_with('(') {
                        continue; // a field or path named `expect`
                    }
                    if !enabled("no-unwrap-in-lib") || in_test || scope.shim {
                        continue;
                    }
                    if allowed(lineno, "no-unwrap-in-lib") {
                        continue;
                    }
                    out.push(Finding::new(
                        rel,
                        lineno,
                        "no-unwrap-in-lib",
                        format!(
                            ".{ident}( in library code — return a typed error \
                             (CliError/TlogError/WireError style) or justify with allow()"
                        ),
                    ));
                }
                "panic" if after.trim_start().starts_with('!') => {
                    if !enabled("no-unwrap-in-lib") || in_test || scope.shim {
                        continue;
                    }
                    if allowed(lineno, "no-unwrap-in-lib") {
                        continue;
                    }
                    out.push(Finding::new(
                        rel,
                        lineno,
                        "no-unwrap-in-lib",
                        "panic! in library code — return a typed error or justify with allow()",
                    ));
                }
                "println" | "eprintln" | "print" | "eprint"
                    if after.trim_start().starts_with('!') =>
                {
                    if !enabled("no-print-in-lib") || in_test || scope.shim || scope.cli {
                        continue;
                    }
                    if allowed(lineno, "no-print-in-lib") {
                        continue;
                    }
                    out.push(Finding::new(
                        rel,
                        lineno,
                        "no-print-in-lib",
                        format!(
                            "{ident}! outside crates/cli — return strings, print at the binary"
                        ),
                    ));
                }
                "now" if before.ends_with("Instant::") || before.ends_with("SystemTime::") => {
                    if !enabled("now-in-hot-path") || !scope.hot || test_region[idx] {
                        continue;
                    }
                    if allowed(lineno, "now-in-hot-path") {
                        continue;
                    }
                    out.push(Finding::new(
                        rel,
                        lineno,
                        "now-in-hot-path",
                        "direct clock read in a hot module — use bqs_obs::now()/elapsed_us()",
                    ));
                }
                trig if scope.kernel
                    && after.trim_start().starts_with('(')
                    && (trig == "from_angle"
                        || (TRIG_METHODS.contains(&trig)
                            && (before.trim_end().ends_with('.')
                                || before.ends_with("f64::")))) =>
                {
                    if !enabled("trig-in-kernel") || test_region[idx] {
                        continue;
                    }
                    if allowed(lineno, "trig-in-kernel") {
                        continue;
                    }
                    out.push(Finding::new(
                        rel,
                        lineno,
                        "trig-in-kernel",
                        format!(
                            "{trig}( in a decision-kernel module — order directions by \
                             cross-product sign, intersect from direction vectors"
                        ),
                    ));
                }
                _ => {}
            }
        }
    }
}

/// Per-line "inside a `#[cfg(test)]` item" flags, via brace-depth
/// tracking over the comment/string-stripped code view. Shared with
/// the consistency checks, which must not harvest names that test
/// code registers (dummy metrics).
pub fn test_region_lines(scan: &FileScan) -> Vec<bool> {
    let mut out = vec![false; scan.lines.len()];
    let mut depth: i64 = 0;
    let mut test_depth: Option<i64> = None;
    let mut pending_cfg = false;
    for (idx, line) in scan.lines.iter().enumerate() {
        let code = line.code.as_str();
        if test_depth.is_none() && code.trim_start().starts_with("#[cfg(") && code.contains("test")
        {
            pending_cfg = true;
        }
        if pending_cfg && code.contains('{') {
            test_depth = Some(depth);
            pending_cfg = false;
        }
        depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
        if let Some(td) = test_depth {
            out[idx] = true;
            if depth <= td {
                test_depth = None;
            }
        } else {
            out[idx] = pending_cfg;
        }
    }
    out
}

/// Yields `(byte_offset, ident)` for every identifier-shaped token in
/// a comment/string-stripped code line.
fn idents(code: &str) -> impl Iterator<Item = (usize, &str)> {
    let bytes = code.as_bytes();
    let mut i = 0usize;
    std::iter::from_fn(move || {
        while i < bytes.len() {
            let c = bytes[i];
            if c.is_ascii_alphabetic() || c == b'_' {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                return Some((start, &code[start..i]));
            }
            if c.is_ascii_digit() {
                // Skip number literals (incl. suffixes) so `0x81u8`
                // does not read as an ident.
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                continue;
            }
            i += 1;
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        lint_file(rel, &scan(src), &|_| true, &mut out);
        out
    }

    #[test]
    fn unjustified_ordering_fires_and_comment_clears() {
        let bad = "fn f(a: &AtomicU64) { a.load(Ordering::SeqCst); }\n";
        assert_eq!(run("crates/x/src/lib.rs", bad).len(), 1);
        let good = "// ordering: release-acquire pairs with the writer\n\
                    fn f(a: &AtomicU64) { a.load(Ordering::Acquire); }\n";
        assert!(run("crates/x/src/lib.rs", good).is_empty());
        let inline = "fn f(a: &AtomicU64) { a.load(Ordering::Acquire); } // ordering: see writer\n";
        assert!(run("crates/x/src/lib.rs", inline).is_empty());
    }

    #[test]
    fn obs_relaxed_is_contract_but_seqcst_is_not() {
        let relaxed = "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n";
        assert!(run("crates/obs/src/lib.rs", relaxed).is_empty());
        assert_eq!(run("crates/net/src/x.rs", relaxed).len(), 1);
        let seqcst = "fn f(a: &AtomicU64) { a.load(Ordering::SeqCst); }\n";
        assert_eq!(run("crates/obs/src/lib.rs", seqcst).len(), 1);
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        assert_eq!(
            run("shims/p/src/lib.rs", "let x = unsafe { f() };\n").len(),
            1
        );
        let good = "// SAFETY: fd is open for the lifetime of self\n\
                    let x = unsafe { f() };\n";
        assert!(run("shims/p/src/lib.rs", good).is_empty());
    }

    #[test]
    fn unwrap_scope_and_suppression() {
        let src = "fn f(v: Option<u8>) -> u8 { v.unwrap() }\n";
        assert_eq!(run("crates/x/src/lib.rs", src).len(), 1);
        assert!(run("crates/x/tests/t.rs", src).is_empty());
        assert!(run("shims/rand/src/lib.rs", src).is_empty());
        let cfg = "#[cfg(test)]\nmod tests {\n fn f(v: Option<u8>) -> u8 { v.unwrap() }\n}\n";
        assert!(run("crates/x/src/lib.rs", cfg).is_empty());
        let sup = "// bqs-analyze: allow(no-unwrap-in-lib) — invariant: set by new()\n\
                   fn f(v: Option<u8>) -> u8 { v.unwrap() }\n";
        assert!(run("crates/x/src/lib.rs", sup).is_empty());
    }

    #[test]
    fn unwrap_or_and_doc_examples_do_not_fire() {
        assert!(run("crates/x/src/lib.rs", "let v = o.unwrap_or(3);\n").is_empty());
        assert!(run("crates/x/src/lib.rs", "/// let v = o.unwrap();\n").is_empty());
        assert!(run("crates/x/src/lib.rs", "let s = \"don't .unwrap() me\";\n").is_empty());
    }

    #[test]
    fn print_only_in_cli() {
        let src = "fn f() { println!(\"hi\"); }\n";
        assert_eq!(run("crates/eval/src/lib.rs", src).len(), 1);
        assert!(run("crates/cli/src/commands.rs", src).is_empty());
        assert_eq!(
            run("crates/eval/src/lib.rs", "fn f() { eprint!(\"x\"); }\n").len(),
            1
        );
    }

    #[test]
    fn clock_reads_only_flag_hot_modules() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(run("crates/net/src/server.rs", src).len(), 1);
        assert!(run("crates/net/src/client.rs", src).is_empty());
        let sup = "fn f() { let t = Instant::now(); } \
                   // bqs-analyze: allow(now-in-hot-path) — one-shot uptime anchor\n";
        assert!(run("crates/net/src/server.rs", sup).is_empty());
    }

    #[test]
    fn trig_only_flags_kernel_modules_outside_tests() {
        let src = "fn f(p: Vec2) -> f64 { p.y.atan2(p.x) + p.angle() + f64::sin(p.x) }\n";
        let found = run("crates/core/src/quadrant.rs", src);
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(found.iter().all(|f| f.lint == "trig-in-kernel"));
        assert!(run("crates/core/src/reconstruct.rs", src).is_empty());
        assert!(run("crates/geo/src/vec2.rs", src).is_empty());
        let ctor = "fn f(t: f64) -> Vec2 { Vec2::from_angle(t) }\n";
        assert_eq!(run("crates/core/src/engine.rs", ctor).len(), 1);
        // Fields, other identifiers and the on-demand accessor's name are not calls.
        let fields =
            "fn f(r: Rot2, q: &Q) -> f64 { r.cos * r.sin + q.angle_range().0 + cosine(1.0) }\n";
        assert!(run("crates/core/src/rotation.rs", fields).is_empty());
        let cfg = "#[cfg(test)]\nmod reference {\n fn f(x: f64) -> f64 { x.cos() }\n}\n";
        assert!(run("crates/core/src/quadrant.rs", cfg).is_empty());
        let sup = "// bqs-analyze: allow(trig-in-kernel) — on-demand accessor, off the push path\n\
                   fn f(p: Vec2) -> f64 { p.y.atan2(p.x) }\n";
        assert!(run("crates/core/src/quadrant.rs", sup).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_a_finding() {
        let src =
            "// bqs-analyze: allow(no-unwrap-in-lib)\nfn f(v: Option<u8>) -> u8 { v.unwrap() }\n";
        let found = run("crates/x/src/lib.rs", src);
        assert_eq!(found.len(), 2, "{found:?}"); // bad-suppression + the unsuppressed site
        let unknown = "// bqs-analyze: allow(no-such-lint) — because\nfn f() {}\n";
        assert_eq!(run("crates/x/src/lib.rs", unknown).len(), 1);
    }
}
