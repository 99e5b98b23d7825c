//! `bqs-analyze` — project-native static analysis for the workspace.
//!
//! Two halves, one gate (`bqs analyze --deny` in CI):
//!
//! 1. **Source lints** ([`lints`]) over a hand-rolled lexer
//!    ([`lexer`]): concurrency-contract and house-style rules that
//!    `clippy` cannot express because they encode *this* project's
//!    written invariants (ordering justifications, SAFETY comments,
//!    typed-error discipline, the obs timing helpers).
//! 2. **Consistency checks** ([`consistency`]): the normative
//!    documents — `docs/protocol.md`, `docs/observability.md` and the
//!    README command surface — must agree with the code they describe,
//!    exactly.
//!
//! The crate is std-only and dependency-free: it runs in the offline
//! CI image and anywhere `bqs` runs. See `docs/static-analysis.md`
//! for the lint catalog and the suppression grammar.

pub mod consistency;
pub mod lexer;
pub mod lints;

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// One analysis finding, displayed as `file:line lint-id message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line, or 0 when the finding is about a file as a whole.
    pub line: usize,
    /// The lint / check id this finding belongs to.
    pub lint: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(
        file: &str,
        line: usize,
        lint: &'static str,
        message: impl Into<String>,
    ) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            lint,
            message: message.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Every known lint/check id, for `--lint` validation and `--help`.
pub fn all_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = lints::SOURCE_LINT_IDS.to_vec();
    ids.extend_from_slice(consistency::CONSISTENCY_IDS);
    ids
}

/// An analysis run: the workspace root plus an optional id filter.
pub struct Config {
    /// Workspace root (the directory holding `Cargo.toml`, `crates/`,
    /// `docs/`, `README.md`).
    pub root: PathBuf,
    /// When non-empty, only these lint/check ids run.
    pub only: Vec<String>,
}

/// The outcome of [`run`].
pub struct Report {
    /// All findings, sorted by (file, line, id).
    pub findings: Vec<Finding>,
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
}

/// Validates `config.only` against the known ids.
pub fn validate_filter(only: &[String]) -> Result<(), String> {
    let known = all_ids();
    for id in only {
        if !known.contains(&id.as_str()) {
            return Err(format!(
                "unknown lint id {:?}; known ids: {}",
                id,
                known.join(", ")
            ));
        }
    }
    Ok(())
}

/// Runs the full pass over the workspace at `config.root`.
pub fn run(config: &Config) -> io::Result<Report> {
    let enabled =
        |id: &str| -> bool { config.only.is_empty() || config.only.iter().any(|o| o == id) };

    let mut files = Vec::new();
    for top in ["crates", "shims", "src", "tests", "examples"] {
        let dir = config.root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut findings = Vec::new();
    let mut metrics = consistency::MetricNames::default();
    let files_scanned = files.len();
    for path in &files {
        let rel = rel_path(&config.root, path);
        let bytes = std::fs::read(path)?;
        let text = String::from_utf8_lossy(&bytes);
        let scan = lexer::scan(&text);
        lints::lint_file(&rel, &scan, &enabled, &mut findings);
        // Metric registrations live in library code; `crates/obs` is
        // the registry itself (its docs and tests use dummy names).
        if enabled("metrics-doc")
            && rel.starts_with("crates/")
            && rel.contains("/src/")
            && !rel.starts_with("crates/obs/")
            && !rel.starts_with("crates/analyze/")
        {
            metrics.collect(&scan);
        }
    }

    if enabled("wire-protocol-doc") {
        consistency::check_wire_protocol(&config.root, &mut findings);
    }
    if enabled("metrics-doc") {
        consistency::check_metrics_doc(&config.root, &metrics, &mut findings);
    }
    if enabled("cli-usage-doc") {
        consistency::check_cli_usage(&config.root, &mut findings);
    }

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    Ok(Report {
        findings,
        files_scanned,
    })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    parts.join("/")
}
