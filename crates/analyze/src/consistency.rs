//! Cross-artifact consistency: the normative documents must agree with
//! the code they describe, mechanically.
//!
//! | id | code side | doc side |
//! |---|---|---|
//! | `wire-protocol-doc` | `TAG_*` consts + `ErrorCode` arms in `crates/net/src/wire.rs` | opcode + error-code tables in `docs/protocol.md` |
//! | `metrics-doc` | names passed to `.counter/.gauge/.histogram(` | the catalog tables in `docs/observability.md` |
//! | `cli-usage-doc` | `--flag` literals + the `USAGE` const in `crates/cli/src/args.rs` | every `bqs …` mention in `README.md` |
//!
//! Every comparison is set equality with a named direction, so a rename
//! on either side — code or spec — trips the gate.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::lexer::{scan, FileScan};
use crate::lints::test_region_lines;
use crate::Finding;

/// The consistency-check ids, as accepted by `--lint`.
pub const CONSISTENCY_IDS: &[&str] = &["wire-protocol-doc", "metrics-doc", "cli-usage-doc"];

/// Registered metric names harvested from the source walk, with the
/// `format!("…{k}…")` hole normalised to the catalog's `<k>`.
#[derive(Default)]
pub struct MetricNames {
    names: BTreeSet<String>,
}

impl MetricNames {
    /// Collects registrations from one scanned file. Only library code
    /// registers real metrics: `crates/obs` (its own API examples) and
    /// test regions are the caller's job to exclude.
    ///
    /// Two registration shapes are recognised: direct
    /// `….counter("x")` / `.gauge(` / `.histogram(` calls, and the
    /// local-closure idiom `let c = |name: &str| registry.counter(name);`
    /// followed by `c("x")` at the use sites.
    pub fn collect(&mut self, scan: &FileScan) {
        let in_test = test_region_lines(scan);
        // First pass: closure names bound to a registry method.
        let mut closures: BTreeSet<String> = BTreeSet::new();
        for (idx, line) in scan.lines.iter().enumerate() {
            if in_test[idx] {
                continue;
            }
            let code = line.code.trim_start();
            if !(registers(code) && code.starts_with("let ") && code.contains('|')) {
                continue;
            }
            let ident: String = code["let ".len()..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !ident.is_empty() {
                closures.insert(ident);
            }
        }
        for (idx, line) in scan.lines.iter().enumerate() {
            if in_test[idx] {
                continue;
            }
            let direct = registers(&line.code);
            let via_closure = closures.iter().any(|c| calls_closure(&line.code, c));
            if direct || via_closure {
                for name in &line.strings {
                    if looks_like_metric(name) {
                        self.names.insert(normalize_holes(name));
                    }
                }
            }
        }
    }
}

fn registers(code: &str) -> bool {
    code.contains(".counter(") || code.contains(".gauge(") || code.contains(".histogram(")
}

/// Does `code` call closure `name` with a string literal (which the
/// lexer leaves as `("")`), at a word boundary?
fn calls_closure(code: &str, name: &str) -> bool {
    let pat = format!("{name}(\"\"");
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(at) = code[from..].find(&pat) {
        let pos = from + at;
        from = pos + 1;
        let boundary = pos == 0 || {
            let b = bytes[pos - 1];
            !(b.is_ascii_alphanumeric() || b == b'_' || b == b'.')
        };
        if boundary {
            return true;
        }
    }
    false
}

fn looks_like_metric(name: &str) -> bool {
    !name.is_empty()
        && name.chars().all(|c| {
            c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '{' || c == '}'
        })
        && name.contains('_')
}

fn normalize_holes(name: &str) -> String {
    let mut out = String::new();
    let mut in_hole = false;
    for c in name.chars() {
        match c {
            '{' => {
                in_hole = true;
                out.push_str("<k>");
            }
            '}' => in_hole = false,
            _ if !in_hole => out.push(c),
            _ => {}
        }
    }
    out
}

/// One parsed markdown table row: 1-based line, trimmed cells.
struct Row {
    line: usize,
    cells: Vec<String>,
}

/// Parses every table in a markdown file as (header, rows).
fn md_tables(text: &str) -> Vec<(Vec<String>, Vec<Row>)> {
    let mut tables = Vec::new();
    let mut current: Option<(Vec<String>, Vec<Row>)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('|') {
            let cells = split_cells(line);
            match current.as_mut() {
                None => current = Some((cells, Vec::new())),
                Some((_, rows)) => {
                    // Skip the |---|---| separator row.
                    if !cells
                        .iter()
                        .all(|c| c.chars().all(|ch| ch == '-' || ch == ':'))
                    {
                        rows.push(Row {
                            line: idx + 1,
                            cells,
                        });
                    }
                }
            }
        } else if let Some(t) = current.take() {
            tables.push(t);
        }
    }
    if let Some(t) = current.take() {
        tables.push(t);
    }
    tables
}

fn split_cells(line: &str) -> Vec<String> {
    // `\|` escapes a pipe inside a cell.
    let sentinel = '\u{1}';
    let unescaped: String = line.replace("\\|", &sentinel.to_string());
    let mut cells: Vec<String> = unescaped
        .split('|')
        .map(|c| c.replace(sentinel, "|").trim().to_string())
        .collect();
    // Leading/trailing empties from the outer pipes.
    if cells.first().is_some_and(String::is_empty) {
        cells.remove(0);
    }
    if cells.last().is_some_and(String::is_empty) {
        cells.pop();
    }
    cells
}

/// Backtick-delimited spans inside one table cell.
fn code_spans(cell: &str) -> Vec<String> {
    cell.split('`')
        .enumerate()
        .filter(|&(i, _)| i % 2 == 1)
        .map(|(_, s)| s.to_string())
        .collect()
}

fn read(root: &Path, rel: &str, id: &'static str, out: &mut Vec<Finding>) -> Option<String> {
    match std::fs::read_to_string(root.join(rel)) {
        Ok(text) => Some(text),
        Err(e) => {
            out.push(Finding::new(
                rel,
                0,
                id,
                format!("cannot read the checked artifact: {e}"),
            ));
            None
        }
    }
}

// ---------------------------------------------------------------------
// wire-protocol-doc
// ---------------------------------------------------------------------

/// `TAG_HELLO_OK` → `HelloOk`.
fn camel(tag: &str) -> String {
    tag.split('_')
        .map(|part| {
            let mut cs = part.chars();
            match cs.next() {
                Some(f) => f.to_ascii_uppercase().to_string() + &cs.as_str().to_ascii_lowercase(),
                None => String::new(),
            }
        })
        .collect()
}

fn parse_int(tok: &str) -> Option<u32> {
    let tok = tok.trim().trim_end_matches([',', ';']);
    if let Some(hex) = tok.strip_prefix("0x") {
        u32::from_str_radix(hex, 16).ok()
    } else {
        tok.parse().ok()
    }
}

/// Checks wire.rs opcodes + error codes against docs/protocol.md.
pub fn check_wire_protocol(root: &Path, out: &mut Vec<Finding>) {
    const ID: &str = "wire-protocol-doc";
    const WIRE: &str = "crates/net/src/wire.rs";
    const DOC: &str = "docs/protocol.md";
    let (Some(wire_text), Some(doc_text)) = (read(root, WIRE, ID, out), read(root, DOC, ID, out))
    else {
        return;
    };
    let wire = scan(&wire_text);

    // Code side: `const TAG_<X>: u8 = 0x…;` → (value, MessageName).
    let mut code_tags: BTreeMap<u32, (String, usize)> = BTreeMap::new();
    // Code side: `ErrorCode::<V> => <n>` / `<n> => Ok(ErrorCode::<V>)`
    // byte arms plus `ErrorCode::<V> => "<name>"` display arms.
    let mut variant_byte: BTreeMap<String, u32> = BTreeMap::new();
    let mut variant_name: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for (idx, line) in wire.lines.iter().enumerate() {
        let code = line.code.as_str();
        if let Some(pos) = code.find("const TAG_") {
            let rest = &code[pos + "const ".len()..];
            let ident: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if let Some(eq) = rest.find('=') {
                if let Some(value) = parse_int(rest[eq + 1..].trim()) {
                    code_tags.insert(value, (camel(&ident["TAG_".len()..]), idx + 1));
                }
            }
        }
        if let Some((lhs, rhs)) = code.split_once("=>") {
            if let Some(pos) = rhs.find("ErrorCode::") {
                // `1 => Ok(ErrorCode::BadFrame),`
                if let Some(byte) = parse_int(lhs.trim()) {
                    let v: String = rhs[pos + "ErrorCode::".len()..]
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric())
                        .collect();
                    variant_byte.insert(v, byte);
                }
            } else if let Some(pos) = lhs.find("ErrorCode::") {
                let v: String = lhs[pos + "ErrorCode::".len()..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric())
                    .collect();
                if let Some(byte) = parse_int(rhs.trim()) {
                    // `ErrorCode::BadFrame => 1,`
                    variant_byte.insert(v, byte);
                } else if rhs.contains("\"\"") && line.strings.len() == 1 {
                    // `ErrorCode::BadFrame => "bad-frame",`
                    variant_name.insert(v, (line.strings[0].clone(), idx + 1));
                }
            }
        }
    }
    let mut code_codes: BTreeMap<u32, (String, usize)> = BTreeMap::new();
    for (variant, byte) in &variant_byte {
        match variant_name.get(variant) {
            Some((name, lineno)) => {
                code_codes.insert(*byte, (name.clone(), *lineno));
            }
            None => out.push(Finding::new(
                WIRE,
                0,
                ID,
                format!("ErrorCode::{variant} has a byte arm but no Display name arm"),
            )),
        }
    }

    // Doc side.
    let mut doc_tags: BTreeMap<u32, (String, usize)> = BTreeMap::new();
    let mut doc_codes: BTreeMap<u32, (String, usize)> = BTreeMap::new();
    for (header, rows) in md_tables(&doc_text) {
        let h0 = header.first().map(String::as_str).unwrap_or("");
        let h1 = header.get(1).map(String::as_str).unwrap_or("");
        if h0 == "tag" && h1 == "message" {
            for row in rows {
                let (Some(tag_cell), Some(name_cell)) = (row.cells.first(), row.cells.get(1))
                else {
                    continue;
                };
                let (Some(tag), Some(name)) = (
                    code_spans(tag_cell).first().and_then(|s| parse_int(s)),
                    code_spans(name_cell).into_iter().next(),
                ) else {
                    out.push(Finding::new(
                        DOC,
                        row.line,
                        ID,
                        "malformed opcode row: expected | `0xNN` | `Name` | …",
                    ));
                    continue;
                };
                doc_tags.insert(tag, (name, row.line));
            }
        } else if h0 == "code" && h1 == "name" {
            for row in rows {
                let (Some(code_cell), Some(name_cell)) = (row.cells.first(), row.cells.get(1))
                else {
                    continue;
                };
                let (Some(byte), Some(name)) = (
                    parse_int(code_cell),
                    code_spans(name_cell).into_iter().next(),
                ) else {
                    out.push(Finding::new(
                        DOC,
                        row.line,
                        ID,
                        "malformed error-code row: expected | N | `name` | …",
                    ));
                    continue;
                };
                doc_codes.insert(byte, (name, row.line));
            }
        }
    }

    diff_maps(ID, WIRE, DOC, "opcode", &code_tags, &doc_tags, out);
    diff_maps(ID, WIRE, DOC, "error code", &code_codes, &doc_codes, out);
}

fn diff_maps(
    id: &'static str,
    code_file: &str,
    doc_file: &str,
    what: &str,
    code: &BTreeMap<u32, (String, usize)>,
    doc: &BTreeMap<u32, (String, usize)>,
    out: &mut Vec<Finding>,
) {
    for (value, (name, lineno)) in code {
        match doc.get(value) {
            None => out.push(Finding::new(
                code_file,
                *lineno,
                id,
                format!("{what} {value:#04x} `{name}` is in code but missing from {doc_file}"),
            )),
            Some((doc_name, doc_line)) if doc_name != name => out.push(Finding::new(
                doc_file,
                *doc_line,
                id,
                format!("{what} {value:#04x} is `{name}` in code but `{doc_name}` in the spec"),
            )),
            _ => {}
        }
    }
    for (value, (name, lineno)) in doc {
        if !code.contains_key(value) {
            out.push(Finding::new(
                doc_file,
                *lineno,
                id,
                format!("{what} {value:#04x} `{name}` is specified but absent from {code_file}"),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// metrics-doc
// ---------------------------------------------------------------------

/// Checks harvested registrations against the observability catalog.
pub fn check_metrics_doc(root: &Path, registered: &MetricNames, out: &mut Vec<Finding>) {
    const ID: &str = "metrics-doc";
    const DOC: &str = "docs/observability.md";
    let Some(doc_text) = read(root, DOC, ID, out) else {
        return;
    };
    let mut documented: BTreeMap<String, usize> = BTreeMap::new();
    for (header, rows) in md_tables(&doc_text) {
        if header.first().map(String::as_str) != Some("name") {
            continue;
        }
        for row in rows {
            let Some(cell) = row.cells.first() else {
                continue;
            };
            for span in code_spans(cell) {
                documented.insert(span, row.line);
            }
        }
    }
    for name in &registered.names {
        if !documented.contains_key(name) {
            out.push(Finding::new(
                DOC,
                0,
                ID,
                format!("metric `{name}` is registered in code but missing from the catalog"),
            ));
        }
    }
    for (name, lineno) in &documented {
        if !registered.names.contains(name) {
            out.push(Finding::new(
                DOC,
                *lineno,
                ID,
                format!("metric `{name}` is in the catalog but never registered in code"),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// cli-usage-doc
// ---------------------------------------------------------------------

fn flags_in(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b'-'
            && bytes[i + 1] == b'-'
            && (i == 0 || !bytes[i - 1].is_ascii_alphanumeric() && bytes[i - 1] != b'-')
        {
            let start = i;
            i += 2;
            while i < bytes.len() && (bytes[i].is_ascii_lowercase() || bytes[i] == b'-') {
                i += 1;
            }
            if i > start + 2 {
                out.insert(text[start..i].trim_end_matches('-').to_string());
            }
        } else {
            i += 1;
        }
    }
    out
}

/// `bqs <cmd> …` mentions → per-command flag sets. `log` takes its
/// subcommand into the name (`log verify`). Word-boundary aware:
/// `fbqs trace.csv` is an algorithm argument, not a mention.
fn collect_mentions(text: &str, per: &mut BTreeMap<String, BTreeSet<String>>) {
    let bytes = text.as_bytes();
    let mut starts = Vec::new();
    let mut from = 0;
    while let Some(at) = text[from..].find("bqs ") {
        let pos = from + at;
        from = pos + "bqs ".len();
        let boundary = pos == 0
            || !(bytes[pos - 1].is_ascii_alphanumeric()
                || bytes[pos - 1] == b'_'
                || bytes[pos - 1] == b'-');
        if boundary {
            starts.push(pos);
        }
    }
    for (i, &pos) in starts.iter().enumerate() {
        let end = starts.get(i + 1).copied().unwrap_or(text.len());
        let chunk = &text[pos + "bqs ".len()..end];
        let mut words = chunk.split_whitespace();
        let Some(first) = words.next() else { continue };
        if first.starts_with('-') || !first.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
            continue;
        }
        let mut name = first.to_string();
        if name == "log" {
            match words.next() {
                Some(sub) if sub.chars().all(|c| c.is_ascii_lowercase()) => {
                    name.push(' ');
                    name.push_str(sub);
                }
                _ => continue,
            }
        }
        per.entry(name).or_default().extend(flags_in(chunk));
    }
}

/// Checks the CLI surface: parser `--flag` literals ↔ `USAGE` ↔ README.
pub fn check_cli_usage(root: &Path, out: &mut Vec<Finding>) {
    const ID: &str = "cli-usage-doc";
    const ARGS: &str = "crates/cli/src/args.rs";
    const README: &str = "README.md";
    let (Some(args_text), Some(readme_text)) =
        (read(root, ARGS, ID, out), read(root, README, ID, out))
    else {
        return;
    };
    let args = scan(&args_text);

    // The USAGE const: the big multi-line literal on its declaring line.
    let mut usage: Option<&str> = None;
    for line in &args.lines {
        if line.code.contains("const USAGE") {
            usage = line.strings.first().map(String::as_str);
            break;
        }
    }
    let Some(usage) = usage else {
        out.push(Finding::new(ARGS, 0, ID, "no `const USAGE` string found"));
        return;
    };

    // USAGE side: commands + flags. A line starting `bqs ` opens a
    // command; indented lines continue it.
    let mut usage_cmds: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut current: Option<String> = None;
    for raw in usage.lines() {
        let line = raw.trim_start();
        if let Some(rest) = line.strip_prefix("bqs ") {
            let mut words = rest.split_whitespace();
            let Some(first) = words.next() else { continue };
            if !first.chars().all(|c| c.is_ascii_lowercase()) {
                continue; // the `bqs — <title>` banner line
            }
            let mut name = first.to_string();
            if name == "log" {
                if let Some(sub) = words.next() {
                    name.push(' ');
                    name.push_str(sub);
                }
            }
            usage_cmds
                .entry(name.clone())
                .or_default()
                .extend(flags_in(rest));
            current = Some(name);
        } else if let Some(name) = current.clone() {
            if raw.starts_with(' ') || raw.starts_with('\t') {
                usage_cmds.entry(name).or_default().extend(flags_in(line));
            } else {
                current = None;
            }
        }
    }

    // Parser side: every whole-literal `--flag` in args.rs.
    let mut parser_flags: BTreeSet<String> = BTreeSet::new();
    for line in &args.lines {
        for s in &line.strings {
            if s.starts_with("--")
                && s.len() > 2
                && s[2..].chars().all(|c| c.is_ascii_lowercase() || c == '-')
            {
                parser_flags.insert(s.clone());
            }
        }
    }
    let usage_flags: BTreeSet<String> = usage_cmds.values().flatten().cloned().collect();
    for flag in parser_flags.difference(&usage_flags) {
        out.push(Finding::new(
            ARGS,
            0,
            ID,
            format!("parser accepts `{flag}` but USAGE never mentions it"),
        ));
    }
    for flag in usage_flags.difference(&parser_flags) {
        out.push(Finding::new(
            ARGS,
            0,
            ID,
            format!("USAGE advertises `{flag}` but no parser literal matches it"),
        ));
    }

    // README side: every `bqs …` mention in code spans and fenced
    // blocks, unioned per command.
    let mut readme_cmds: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut fenced = false;
    let mut fenced_text = String::new();
    let mut inline_text = String::new();
    for raw in readme_text.lines() {
        if raw.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            // Strip shell comments, keep line-continuations joined by
            // the whitespace split later.
            let body = raw.split(" #").next().unwrap_or(raw);
            fenced_text.push_str(body.trim_end_matches('\\'));
            fenced_text.push(' ');
            if !body.trim_end().ends_with('\\') {
                fenced_text.push('\n');
            }
        } else {
            inline_text.push_str(raw);
            inline_text.push('\n');
        }
    }
    for line in fenced_text.lines() {
        if line.trim_start().starts_with("bqs ") {
            collect_mentions(&format!("\n{}", line.trim_start()), &mut readme_cmds);
        }
    }
    // Inline spans may wrap across lines; split the prose on backticks.
    for (i, span) in inline_text.split('`').enumerate() {
        if i % 2 == 1 && span.starts_with("bqs ") {
            collect_mentions(span, &mut readme_cmds);
        }
    }

    for (name, flags) in &usage_cmds {
        let Some(readme_flags) = readme_cmds.get(name) else {
            out.push(Finding::new(
                README,
                0,
                ID,
                format!("`bqs {name}` is in USAGE but never shown in the README"),
            ));
            continue;
        };
        for flag in flags.difference(readme_flags) {
            out.push(Finding::new(
                README,
                0,
                ID,
                format!("`bqs {name}` flag `{flag}` is undocumented in the README"),
            ));
        }
        for flag in readme_flags.difference(flags) {
            out.push(Finding::new(
                README,
                0,
                ID,
                format!("README shows `bqs {name} {flag}` but USAGE does not have that flag"),
            ));
        }
    }
    for name in readme_cmds.keys() {
        if !usage_cmds.contains_key(name) && name != "help" {
            out.push(Finding::new(
                README,
                0,
                ID,
                format!("README mentions `bqs {name}` which is not a USAGE command"),
            ));
        }
    }
}
