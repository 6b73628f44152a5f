//! Shared source-scanning machinery for the workspace's static passes.
//!
//! Both text-level passes of the static analysis harness — the lint rules
//! of `cargo xtask lint` and the UDF-purity determinism pass of
//! `haten2-analyze` — need the same substrate: walk `.rs` files, separate
//! *code* from comments and string literals, extract balanced regions, and
//! honour `// lint:allow(<rule>) — <reason>` suppressions. This crate is
//! that substrate, lifted out of the `xtask` binary so the analyzer can
//! reuse it:
//!
//! * [`SourceText`] — a tokenizer aware of line/nested-block comments,
//!   string/raw-string/byte-string/char literals, and lifetimes. It
//!   produces a same-length **code view** in which comment and
//!   string-literal *contents* are blanked, so substring rules cannot
//!   fire inside prose or data, plus the byte spans of every string
//!   literal (for reading literal contents back out of the raw text).
//! * Region helpers — [`matching_close`], [`find_calls`],
//!   [`split_top_level`], [`enclosing_fn_name`]: enough structure to pull
//!   the closure arguments out of a `run_job(...)` call without a full
//!   parser.
//! * [`scan_udf_purity`] — the determinism pass proper: inspects every
//!   map/reduce closure passed to the engine's job runners for
//!   nondeterminism sources (unordered `HashMap`/`HashSet` iteration
//!   feeding emits, wall-clock reads, thread-id dependence, and float
//!   reductions in reducers not declared commutative-associative in plan
//!   metadata).
//! * [`rs_files`], [`workspace_root`], [`is_suppressed`] — the shared
//!   walking and suppression conventions.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::path::{Path, PathBuf};

/// One parsed source file: the raw text plus its code view.
///
/// The code view has exactly the same byte length and line structure as
/// the raw text; bytes belonging to comments or to string/char literal
/// *contents* are replaced with spaces (newlines are preserved). String
/// literal delimiters are kept, and the byte span of every string literal
/// (delimiters included) is recorded in [`SourceText::strings`].
#[derive(Debug, Clone)]
pub struct SourceText {
    /// The original text.
    pub raw: String,
    /// Same-length view with comments and literal contents blanked.
    pub code: String,
    /// Byte spans `(start, end)` of string literals, delimiters included.
    pub strings: Vec<(usize, usize)>,
}

impl SourceText {
    /// Tokenize `raw` into a code view.
    pub fn parse(raw: &str) -> SourceText {
        let b = raw.as_bytes();
        let mut code = vec![0u8; b.len()];
        let mut strings = Vec::new();
        let mut i = 0usize;
        let blank = |out: &mut [u8], from: usize, to: usize, src: &[u8]| {
            for (j, slot) in out.iter_mut().enumerate().take(to).skip(from) {
                *slot = if src[j] == b'\n' { b'\n' } else { b' ' };
            }
        };
        while i < b.len() {
            let c = b[i];
            // Line comment.
            if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
                let end = raw[i..].find('\n').map(|o| i + o).unwrap_or(b.len());
                blank(&mut code, i, end, b);
                i = end;
                continue;
            }
            // Block comment (nesting honoured, as rustc does).
            if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut code, i, j, b);
                i = j;
                continue;
            }
            // Raw (byte) string: r"...", r#"..."#, br#"..."# — only when the
            // `r` does not terminate a longer identifier.
            if (c == b'r' || (c == b'b' && i + 1 < b.len() && b[i + 1] == b'r'))
                && (i == 0 || !is_ident_byte(b[i - 1]))
            {
                let r_at = if c == b'b' { i + 1 } else { i };
                let mut j = r_at + 1;
                let mut hashes = 0usize;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    let content_start = j + 1;
                    let closer: String = format!("\"{}", "#".repeat(hashes));
                    let end = raw[content_start..]
                        .find(&closer)
                        .map(|o| content_start + o + closer.len())
                        .unwrap_or(b.len());
                    // Keep delimiters, blank the contents.
                    code[i..content_start].copy_from_slice(&b[i..content_start]);
                    blank(
                        &mut code,
                        content_start,
                        end.saturating_sub(closer.len()),
                        b,
                    );
                    code[end.saturating_sub(closer.len())..end]
                        .copy_from_slice(&b[end.saturating_sub(closer.len())..end]);
                    strings.push((i, end));
                    i = end;
                    continue;
                }
            }
            // String / byte-string literal.
            if c == b'"' || (c == b'b' && i + 1 < b.len() && b[i + 1] == b'"') {
                let quote_at = if c == b'b' { i + 1 } else { i };
                let mut j = quote_at + 1;
                while j < b.len() {
                    match b[j] {
                        b'\\' => j += 2,
                        b'"' => {
                            j += 1;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                code[i..=quote_at].copy_from_slice(&b[i..=quote_at]);
                blank(&mut code, quote_at + 1, j.saturating_sub(1), b);
                if j > quote_at + 1 {
                    code[j - 1] = b'"';
                }
                strings.push((i, j));
                i = j;
                continue;
            }
            // Char literal vs lifetime: 'x' / '\n' are literals, 'a (no
            // closing quote nearby) is a lifetime and stays code.
            if c == b'\'' {
                let is_char = if i + 1 < b.len() && b[i + 1] == b'\\' {
                    true
                } else {
                    i + 2 < b.len() && b[i + 2] == b'\''
                };
                if is_char {
                    let mut j = i + 1;
                    while j < b.len() {
                        match b[j] {
                            b'\\' => j += 2,
                            b'\'' => {
                                j += 1;
                                break;
                            }
                            _ => j += 1,
                        }
                    }
                    code[i] = b'\'';
                    blank(&mut code, i + 1, j.saturating_sub(1), b);
                    if j > i + 1 {
                        code[j - 1] = b'\'';
                    }
                    i = j;
                    continue;
                }
            }
            code[i] = c;
            i += 1;
        }
        SourceText {
            raw: raw.to_string(),
            code: String::from_utf8(code).unwrap_or_else(|_| raw.to_string()),
            strings,
        }
    }

    /// The first string literal whose span starts inside `region`
    /// (byte range of the code view), as raw text without the quotes.
    pub fn first_string_in(&self, region: (usize, usize)) -> Option<&str> {
        self.strings
            .iter()
            .find(|(s, _)| *s >= region.0 && *s < region.1)
            .map(|&(s, e)| {
                let inner = &self.raw[s..e];
                inner
                    .trim_start_matches('b')
                    .trim_start_matches('r')
                    .trim_matches('#')
                    .trim_matches('"')
            })
    }
}

/// True when `c` can appear in an identifier.
fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// 1-based line number of byte offset `pos` in `text`.
pub fn line_of(text: &str, pos: usize) -> usize {
    text.as_bytes()[..pos.min(text.len())]
        .iter()
        .filter(|&&c| c == b'\n')
        .count()
        + 1
}

/// Byte index of the bracket matching the opener at `open`
/// (`(`/`[`/`{`), scanning the code view. `None` when unbalanced.
pub fn matching_close(code: &str, open: usize) -> Option<usize> {
    let b = code.as_bytes();
    let mut depth = 0i64;
    for (j, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Every call of `callee` in the code view, as `(name_start, args_region)`
/// where `args_region` is the byte range *between* the call's parentheses.
/// `callee` must be a standalone token followed by `(` (whitespace
/// allowed), so `run_job` does not match `run_job_written`.
pub fn find_calls(code: &str, callee: &str) -> Vec<(usize, (usize, usize))> {
    let mut out = Vec::new();
    let b = code.as_bytes();
    let mut search = 0usize;
    while let Some(off) = code[search..].find(callee) {
        let at = search + off;
        search = at + callee.len();
        let before_ok = at == 0 || !matches!(b[at - 1], c if is_ident_byte(c) || c == b'.');
        let after = at + callee.len();
        if !before_ok || (after < b.len() && is_ident_byte(b[after])) {
            continue;
        }
        let mut j = after;
        while j < b.len() && (b[j] == b' ' || b[j] == b'\n' || b[j] == b'\t') {
            j += 1;
        }
        if j < b.len() && b[j] == b'(' {
            if let Some(close) = matching_close(code, j) {
                out.push((at, (j + 1, close)));
            }
        }
    }
    out
}

/// Split a code-view region into top-level comma-separated pieces
/// (commas nested in brackets or closure pipes do not split).
pub fn split_top_level(code: &str, region: (usize, usize)) -> Vec<(usize, usize)> {
    let b = code.as_bytes();
    let mut pieces = Vec::new();
    let mut depth = 0i64;
    let mut in_pipes = false;
    let mut start = region.0;
    for j in region.0..region.1.min(b.len()) {
        match b[j] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            // Closure parameter pipes: commas between them are the
            // closure's own arguments, not call arguments.
            b'|' if depth == 0
                && j > 0
                && b[j - 1] != b'|'
                && (j + 1 >= b.len() || b[j + 1] != b'|') =>
            {
                in_pipes = !in_pipes;
            }
            b',' if depth == 0 && !in_pipes => {
                pieces.push((start, j));
                start = j + 1;
            }
            _ => {}
        }
    }
    if start < region.1 {
        pieces.push((start, region.1));
    }
    pieces
}

/// Name of the innermost `fn` declared before byte `pos` in the code view
/// (a cheap proxy for "the function this call site lives in").
pub fn enclosing_fn_name(code: &str, pos: usize) -> Option<String> {
    let b = code.as_bytes();
    let mut best: Option<String> = None;
    let mut search = 0usize;
    while let Some(off) = code[search..].find("fn ") {
        let at = search + off;
        search = at + 3;
        if at >= pos {
            break;
        }
        if at > 0 && is_ident_byte(b[at - 1]) {
            continue;
        }
        let rest = &code[at + 3..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() {
            best = Some(name);
        }
    }
    best
}

/// Every `fn` with a body in the code view, as `(name, body_region)` where
/// `body_region` is the byte range *between* the body's braces.
fn fn_bodies(code: &str) -> Vec<(String, (usize, usize))> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    let mut search = 0usize;
    while let Some(off) = code[search..].find("fn ") {
        let at = search + off;
        search = at + 3;
        if at > 0 && is_ident_byte(b[at - 1]) {
            continue;
        }
        let name: String = code[at + 3..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        // The body opens at the first `{` outside the signature's
        // parentheses; a `;` there instead is a bodiless declaration.
        let mut depth = 0i64;
        for (j, &c) in b.iter().enumerate().skip(at + 3 + name.len()) {
            match c {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b';' if depth == 0 => break,
                b'{' if depth == 0 => {
                    if let Some(close) = matching_close(code, j) {
                        out.push((name, (j + 1, close)));
                    }
                    break;
                }
                _ => {}
            }
        }
    }
    out
}

/// Whether a finding of `rule` on line `idx` (0-based) is suppressed by a
/// `// lint:allow(<rule>)` marker on the same or the preceding raw line.
pub fn is_suppressed(raw_lines: &[&str], idx: usize, rule: &str) -> bool {
    let marker = format!("lint:allow({rule})");
    raw_lines.get(idx).is_some_and(|l| l.contains(&marker))
        || (idx > 0 && raw_lines[idx - 1].contains(&marker))
}

/// Recursively collect `.rs` files under `dir` into `out`.
pub fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The workspace root: walk up from the calling crate's manifest dir (or
/// the CWD when cargo's env is absent) to the first `Cargo.toml` declaring
/// `[workspace]`. Works both for xtask-style tools run from the root and
/// for per-crate test harnesses run from `crates/<name>/`.
pub fn workspace_root() -> PathBuf {
    let start = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .ok()
        .or_else(|| std::env::current_dir().ok())
        .unwrap_or_else(|| PathBuf::from("."));
    let mut dir = start.clone();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            return start;
        }
    }
}

// ---------------------------------------------------------------------------
// UDF-purity rules (the determinism pass)
// ---------------------------------------------------------------------------

/// One UDF-purity finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PurityFinding {
    /// File the closure lives in.
    pub file: PathBuf,
    /// 1-based line of the offending token.
    pub line: usize,
    /// Rule id (one of [`PURITY_RULES`]).
    pub rule: &'static str,
    /// The reducer/mapper site label (enclosing function name, or the job
    /// name template for literally-named jobs, `{..}` normalized to `{}`).
    pub site: String,
    /// Human-readable diagnostic.
    pub message: String,
}

impl std::fmt::Display for PurityFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} (site `{}`)",
            self.file.display(),
            self.line,
            self.rule,
            self.message,
            self.site
        )
    }
}

/// The UDF-purity rule ids and their rationale, in reporting order.
pub const PURITY_RULES: &[(&str, &str)] = &[
    (
        "no-unordered-iteration",
        "iterating a HashMap/HashSet inside an emitting closure makes emission \
         order depend on hasher state; use BTreeMap/BTreeSet or sort first",
    ),
    (
        "no-wall-clock",
        "SystemTime/Instant reads inside a map/reduce closure make output \
         depend on scheduling; clocks belong to the engine, not UDFs",
    ),
    (
        "no-thread-id",
        "thread-identity reads inside a map/reduce closure make output depend \
         on worker placement",
    ),
    (
        "unannotated-float-reduction",
        "a float reduction in a reducer must be declared commutative-associative \
         in the plan metadata (PlanJob::comm_assoc, backed by a property test), \
         or re-execution and reordering may change the bits",
    ),
];

/// One reducer closure found by the scan, with its site label and whether
/// its body contains a floating-point reduction pattern.
#[derive(Debug, Clone)]
pub struct ReducerSite {
    /// File the reducer lives in.
    pub file: PathBuf,
    /// 1-based line the closure starts on.
    pub line: usize,
    /// Site label (enclosing fn or normalized job-name template).
    pub site: String,
    /// Whether the body accumulates floats (`+=`, `.sum()`, `.product()`).
    pub has_float_reduction: bool,
}

/// The job runners whose closure arguments the purity pass inspects —
/// every public entry of the engine that takes a reducer — each with the
/// number of UDFs a call passes, the reducer last: a mapper and a
/// reducer, or a reducer alone where the map ran before the job
/// (`run_job_written`). A runner missing here takes its call sites out of
/// the scan without a sound, so `haten2-analyze` asserts that every
/// registered kernel and every annotated reducer is among the sites the
/// scan reports.
const JOB_RUNNERS: &[(&str, usize)] = &[
    ("run_job", 2),
    ("run_job_streaming", 2),
    ("run_job_collect", 2),
    ("run_job_written", 1),
];

fn contains_token(hay: &str, needle: &str) -> Option<usize> {
    let b = hay.as_bytes();
    let mut search = 0usize;
    while let Some(off) = hay[search..].find(needle) {
        let at = search + off;
        search = at + needle.len();
        let before_ok = at == 0 || !is_ident_byte(b[at - 1]);
        let after = at + needle.len();
        let after_ok = after >= b.len() || !is_ident_byte(b[after]);
        if before_ok && after_ok {
            return Some(at);
        }
    }
    None
}

/// Variable names declared as `HashMap`/`HashSet` inside `region` of the
/// code view (statement-level heuristic: a `let [mut] NAME …;` statement
/// that mentions either type).
fn unordered_decls(code_region: &str) -> Vec<String> {
    let mut names = Vec::new();
    for stmt in code_region.split(';') {
        if !(stmt.contains("HashMap") || stmt.contains("HashSet")) {
            continue;
        }
        let Some(let_at) = contains_token(stmt, "let") else {
            continue;
        };
        let mut rest = stmt[let_at + 3..].trim_start();
        if let Some(r) = rest.strip_prefix("mut ") {
            rest = r.trim_start();
        }
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() {
            names.push(name);
        }
    }
    names
}

/// Does `code_region` iterate the variable `name` (loop or iterator
/// adapter), as opposed to keyed lookups, which are order-free?
fn iterates(code_region: &str, name: &str) -> Option<usize> {
    for pat in [
        format!("in {name}"),
        format!("in &{name}"),
        format!("in &mut {name}"),
        format!("{name}.iter()"),
        format!("{name}.into_iter()"),
        format!("{name}.keys()"),
        format!("{name}.values()"),
        format!("{name}.drain("),
    ] {
        let mut search = 0usize;
        while let Some(off) = code_region[search..].find(&pat) {
            let at = search + off;
            search = at + pat.len();
            let b = code_region.as_bytes();
            // Token boundary on the variable name inside the pattern.
            let name_at = at + pat.find(name).unwrap_or(0);
            let before_ok = name_at == 0 || !is_ident_byte(b[name_at - 1]);
            let after = name_at + name.len();
            let after_ok = after >= b.len() || !is_ident_byte(b[after]) || b[after] == b'.';
            if before_ok && after_ok {
                return Some(at);
            }
        }
    }
    None
}

/// Float-reduction patterns a reducer body may contain.
fn float_reduction_at(code_region: &str) -> Option<usize> {
    for pat in ["+=", ".sum()", ".sum::<", ".product()", ".product::<"] {
        if let Some(at) = code_region.find(pat) {
            return Some(at);
        }
    }
    None
}

/// The normalized site label of one job-runner call: the first string
/// literal inside its `JobSpec::named(...)` argument with `{…}` holes
/// normalized to `{}` (e.g. `nway-imhp-mode{mode}` → `nway-imhp-mode{}`),
/// or the enclosing function name when the job name is built dynamically.
fn site_label(st: &SourceText, call_start: usize, args: (usize, usize)) -> String {
    if let Some(named_at) = st.code[args.0..args.1]
        .find("JobSpec::named")
        .map(|o| args.0 + o)
    {
        if let Some(open) = st.code[named_at..args.1].find('(').map(|o| named_at + o) {
            if let Some(close) = matching_close(&st.code, open) {
                if let Some(lit) = st.first_string_in((open, close)) {
                    return normalize_template(lit);
                }
            }
        }
    }
    enclosing_fn_name(&st.code, call_start).unwrap_or_else(|| "<unknown>".to_string())
}

/// Replace every `{…}` hole in a job-name template with `{}`.
pub fn normalize_template(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut in_hole = false;
    for c in name.chars() {
        match c {
            '{' => {
                in_hole = true;
                out.push('{');
            }
            '}' => {
                in_hole = false;
                out.push('}');
            }
            _ if in_hole => {}
            _ => out.push(c),
        }
    }
    out
}

/// Scan one source file for UDF-purity violations in the closures passed
/// to the engine's job runners.
///
/// `is_comm_assoc` answers whether the plan metadata declares the reducer
/// at a given site label commutative-associative (the analyzer wires this
/// to `haten2_core::plan::is_comm_assoc_site`; the fixture tests pass
/// `|_| false`). Returns the findings plus every reducer site seen, so
/// callers can cross-check annotation coverage.
///
/// A closure that hands its work to a function defined in the same file
/// (`|k, vals, emit| fold(*k, vals, emit)`) is scanned through that
/// function's body as well, one call deep: factoring a reducer's fold out
/// so it can be unit-tested must not take it out of the scan.
///
/// Scanning stops at the file's `#[cfg(test)]` region (tests may use
/// whatever they like), and `// lint:allow(<rule>)` on the same or the
/// preceding line suppresses a finding.
pub fn scan_udf_purity(
    path: &Path,
    raw: &str,
    is_comm_assoc: &dyn Fn(&str) -> bool,
) -> (Vec<PurityFinding>, Vec<ReducerSite>) {
    let st = SourceText::parse(raw);
    let raw_lines: Vec<&str> = raw.lines().collect();
    let mut findings = Vec::new();
    let mut reducers = Vec::new();

    // Byte offset where the test module starts (scan stops there).
    let test_cutoff = raw
        .lines()
        .scan(0usize, |off, l| {
            let at = *off;
            *off += l.len() + 1;
            Some((at, l))
        })
        .find(|(_, l)| l.trim_start().starts_with("#[cfg(test)]"))
        .map(|(at, _)| at)
        .unwrap_or(raw.len());

    let push = |findings: &mut Vec<PurityFinding>, at: usize, rule: &'static str, site: &str| {
        let line = line_of(&st.raw, at);
        if is_suppressed(&raw_lines, line - 1, rule) {
            return;
        }
        let message = PURITY_RULES
            .iter()
            .find(|(id, _)| *id == rule)
            .map(|(_, m)| *m)
            .unwrap_or("");
        findings.push(PurityFinding {
            file: path.to_path_buf(),
            line,
            rule,
            site: site.to_string(),
            message: message.to_string(),
        });
    };

    let local_fns = fn_bodies(&st.code[..test_cutoff]);
    for &(runner, udfs) in JOB_RUNNERS {
        for (call_start, args) in find_calls(&st.code, runner) {
            if call_start >= test_cutoff {
                continue;
            }
            let site = site_label(&st, call_start, args);
            let pieces = split_top_level(&st.code, args);
            let closures: Vec<(usize, usize)> = pieces
                .into_iter()
                .filter(|&(s, e)| {
                    let t = st.code[s..e].trim_start();
                    t.starts_with('|') || t.starts_with("move ")
                })
                .collect();
            for (ci, &closure) in closures.iter().enumerate() {
                let is_reducer = ci + 1 == closures.len() && closures.len() >= udfs;
                // The closure, then the same-file functions it calls.
                let callees = local_fns
                    .iter()
                    .filter(|(name, _)| {
                        !find_calls(&st.code[closure.0..closure.1], name).is_empty()
                    })
                    .map(|&(_, body)| body);
                let mut float_at = None;
                for (s, e) in std::iter::once(closure).chain(callees) {
                    let body = &st.code[s..e];
                    if body.contains("emit") {
                        for name in unordered_decls(body) {
                            if let Some(at) = iterates(body, &name) {
                                push(&mut findings, s + at, "no-unordered-iteration", &site);
                            }
                        }
                    }
                    for tok in ["SystemTime", "Instant"] {
                        if let Some(at) = contains_token(body, tok) {
                            push(&mut findings, s + at, "no-wall-clock", &site);
                        }
                    }
                    for pat in ["thread::current", "ThreadId"] {
                        if let Some(at) = body.find(pat) {
                            push(&mut findings, s + at, "no-thread-id", &site);
                        }
                    }
                    float_at = float_at.or(float_reduction_at(body).map(|at| s + at));
                }
                if is_reducer {
                    reducers.push(ReducerSite {
                        file: path.to_path_buf(),
                        line: line_of(&st.raw, closure.0),
                        site: site.clone(),
                        has_float_reduction: float_at.is_some(),
                    });
                    if let Some(at) = float_at {
                        if !is_comm_assoc(&site) {
                            push(&mut findings, at, "unannotated-float-reduction", &site);
                        }
                    }
                }
            }
        }
    }
    (findings, reducers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_view_blanks_comments_and_strings() {
        let src = r#"let a = "thread::spawn"; // thread::spawn in prose
/* thread::spawn */ let b = 'x'; let c: &'static str = "";"#;
        let st = SourceText::parse(src);
        assert_eq!(st.raw.len(), st.code.len());
        assert!(!st.code.contains("thread::spawn"));
        assert!(st.code.contains("let a"));
        assert!(st.code.contains("&'static str"));
        assert_eq!(st.strings.len(), 2);
    }

    #[test]
    fn raw_strings_and_chars_are_blanked() {
        let src = r##"let a = r#"dbg!( inside "#; let b = '\n'; let c = b"dbg!(";"##;
        let st = SourceText::parse(src);
        assert!(!st.code.contains("dbg!("));
        assert_eq!(st.raw.len(), st.code.len());
    }

    #[test]
    fn call_and_region_extraction() {
        let src = "fn outer() { run_job(cluster, spec, |a, b| a + b, |k, v| k) }";
        let st = SourceText::parse(src);
        let calls = find_calls(&st.code, "run_job");
        assert_eq!(calls.len(), 1);
        let pieces = split_top_level(&st.code, calls[0].1);
        assert_eq!(pieces.len(), 4);
        assert_eq!(
            enclosing_fn_name(&st.code, calls[0].0),
            Some("outer".to_string())
        );
        // run_job must not match run_job_written.
        let src2 = "run_job_written(a, b)";
        let st2 = SourceText::parse(src2);
        assert!(find_calls(&st2.code, "run_job").is_empty());
        assert_eq!(find_calls(&st2.code, "run_job_written").len(), 1);
    }

    #[test]
    fn purity_flags_unordered_iteration_and_float_reduction() {
        let src = r#"
fn bad_reduce() {
    run_job(
        c,
        JobSpec::named("bad-job{i}"),
        &input,
        |k, v, emit| emit(k, v),
        |k, vals, emit| {
            let mut acc: HashMap<u64, f64> = HashMap::new();
            for v in vals { *acc.entry(v).or_insert(0.0) += 1.0; }
            for (k2, v2) in acc { emit(k2, v2); }
        },
    );
}
"#;
        let (findings, reducers) = scan_udf_purity(Path::new("mem.rs"), src, &|_| false);
        assert!(findings
            .iter()
            .any(|f| f.rule == "no-unordered-iteration" && f.site == "bad-job{}"));
        assert!(findings
            .iter()
            .any(|f| f.rule == "unannotated-float-reduction"));
        assert_eq!(reducers.len(), 1);
        assert!(reducers[0].has_float_reduction);
        // Declared comm-assoc: the float-reduction finding disappears.
        let (findings2, _) = scan_udf_purity(Path::new("mem.rs"), src, &|_| true);
        assert!(!findings2
            .iter()
            .any(|f| f.rule == "unannotated-float-reduction"));
    }

    #[test]
    fn purity_ignores_lookups_and_tests() {
        let src = r#"
fn good_reduce() {
    run_job(
        c,
        JobSpec::named(name.to_string()),
        &input,
        |k, v, emit| emit(k, v),
        |k, vals, emit| {
            let mut coefs: HashMap<u64, f64> = HashMap::new();
            for v in &vals { coefs.insert(v.0, v.1); }
            if let Some(c) = coefs.get(&k) { emit(k, *c); }
        },
    );
}
#[cfg(test)]
mod tests {
    fn in_tests() {
        run_job(c, s, &i, |a, b, emit| emit(a, Instant::now()), |k, v, e| e(k, v));
    }
}
"#;
        let (findings, reducers) = scan_udf_purity(Path::new("mem.rs"), src, &|_| false);
        // `coefs.insert` / `coefs.get` are keyed, not iteration; the
        // iteration over `&vals` is a Vec, not a map. Tests are skipped.
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(reducers.len(), 1);
        assert_eq!(reducers[0].site, "good_reduce");
        assert!(!reducers[0].has_float_reduction);
    }

    #[test]
    fn purity_follows_a_closure_into_the_local_function_it_calls() {
        // The reducer's fold is factored out (so it can be unit-tested);
        // what it does is still what the reducer does.
        let src = r#"
fn fold(k: u64, vals: impl Iterator<Item = f64>, emit: &mut dyn FnMut(u64, f64)) {
    let mut acc: HashMap<u64, f64> = HashMap::new();
    for v in vals { *acc.entry(k).or_insert(0.0) += v; }
    for (k2, v2) in acc { emit(k2, v2); }
}
fn elsewhere(x: f64) -> f64 { let mut y = 0.0; y += x; y }
fn delegating() {
    run_job_collect(
        c,
        JobSpec::named("delegating"),
        &input,
        |k, v, emit| emit(k, v),
        |k, vals, emit| fold(*k, vals, emit),
    );
}
fn plain() {
    run_job_collect(c, JobSpec::named("plain"), &input, |k, v, emit| emit(k, v), |k, vals, emit| {
        for v in vals { emit(*k, v); }
    });
}
"#;
        let (findings, reducers) = scan_udf_purity(Path::new("mem.rs"), src, &|_| false);
        let rules_at = |site: &str| -> Vec<(&str, usize)> {
            let at_site = findings.iter().filter(|f| f.site == site);
            at_site.map(|f| (f.rule, f.line)).collect()
        };
        assert_eq!(
            rules_at("delegating"),
            [
                ("no-unordered-iteration", 5),
                ("unannotated-float-reduction", 4)
            ]
        );
        // A function the closure does not call is not its business.
        assert_eq!(rules_at("plain"), []);
        let seen: Vec<_> = reducers
            .iter()
            .map(|r| (r.site.as_str(), r.has_float_reduction))
            .collect();
        assert_eq!(seen, [("delegating", true), ("plain", false)]);
    }

    #[test]
    fn a_reducer_alone_is_a_reducer_where_the_map_ran_before_the_job() {
        // `run_job_written` takes no mapper: its one closure is the
        // reducer, and is held to the same rules.
        let src = r#"
fn fold(k: u64, vals: impl Iterator<Item = f64>, emit: &mut dyn FnMut(u64, f64)) {
    let mut acc = 0.0;
    for v in vals { acc += v; }
    emit(k, acc);
}
fn merging(input: Input) {
    let spec = JobSpec::named(name.to_string());
    match input {
        Input::Mapped(f) => run_job_collect(c, spec, &f, |k, v, e| e(*k, *v), |k, vals, emit| {
            fold(*k, vals, emit)
        }),
        Input::Written(w) => run_job_written(c, spec, w, 8, |k, vals, emit| fold(*k, vals, emit)),
    }
}
fn clocked(w: Written) {
    run_job_written(c, JobSpec::named("clocked"), w, 8, |k, _vals, emit| emit(*k, Instant::now()));
}
"#;
        let (findings, reducers) = scan_udf_purity(Path::new("mem.rs"), src, &|s| s == "merging");
        let seen: Vec<_> = reducers
            .iter()
            .map(|r| (r.site.as_str(), r.line, r.has_float_reduction))
            .collect();
        assert_eq!(
            seen,
            [
                ("merging", 10, true),
                ("merging", 13, true),
                ("clocked", 17, false)
            ]
        );
        let rules: Vec<_> = findings.iter().map(|f| (f.rule, f.site.as_str())).collect();
        assert_eq!(rules, [("no-wall-clock", "clocked")]);
    }

    #[test]
    fn fn_bodies_skip_declarations_and_find_generic_signatures() {
        let src = "trait T { fn decl(&self) -> (u8, u8); }\n\
                   fn g<F: Fn(u8) -> [u8; 2]>(f: F) -> impl Iterator<Item = (u8, u8)> where F: Copy { body() }";
        let st = SourceText::parse(src);
        let found = fn_bodies(&st.code);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, "g");
        assert_eq!(st.code[found[0].1 .0..found[0].1 .1].trim(), "body()");
    }

    #[test]
    fn suppression_marker_is_honoured() {
        let src = r#"
fn noisy() {
    run_job(
        c,
        s,
        &i,
        |k, v, emit| emit(k, v),
        |k, vals, emit| {
            // lint:allow(no-wall-clock) — timestamping is this job's purpose
            let t = Instant::now();
            emit(k, t)
        },
    );
}
"#;
        let (findings, _) = scan_udf_purity(Path::new("mem.rs"), src, &|_| false);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn template_normalization() {
        assert_eq!(normalize_template("job-{mode}"), "job-{}");
        assert_eq!(normalize_template("plain"), "plain");
        assert_eq!(normalize_template("a{x}b{y}"), "a{}b{}");
    }
}
