//! Workspace automation library behind `cargo xtask`.
//!
//! The source-level lint pass of the static analysis harness lives here
//! (the plan-level passes live in `haten2-analyze`); text scanning is
//! shared with the analyzer's determinism pass via `haten2-srcscan`, so
//! both see the same comment/string-blanked view of each file.
//!
//! The linter enforces workspace invariants clippy cannot express:
//!
//! * **no-raw-threads** — thread primitives (`thread::spawn`,
//!   `thread::scope`, `thread::Builder`) are forbidden in library sources
//!   outside `crates/mapreduce/src/pool.rs`: all parallelism must go
//!   through the persistent `WorkerPool` so the engine's cost accounting
//!   sees it.
//! * **no-default-hasher** — `DefaultHasher` is banned in library sources:
//!   partitioning must use the engine's explicit, stable partitioner so
//!   shuffle placement is reproducible across runs and toolchains.
//! * **no-unwrap** — `.unwrap()` is banned in library (non-test) sources;
//!   library errors must propagate (`clippy::unwrap_used` backs this rule
//!   at the semantic level, this pass catches it even in code clippy skips).
//! * **undocumented-unsafe** — every `unsafe` token must have a `SAFETY:`
//!   comment within the preceding lines.
//! * **no-debug-macros** — `dbg!(` and `todo!(` are banned everywhere,
//!   including tests.
//! * **shared-backoff** — retry backoff arithmetic is banned in library
//!   sources outside `crates/mapreduce/src/fault.rs`: every retry site
//!   must charge delays through the one `RetryPolicy::backoff_s` helper so
//!   the engine and the reference executor account recovery identically.
//! * **no-per-record-alloc** — pushing owned `(key, value)` tuples record
//!   by record (`.push((`) is banned in the engine's hot data path
//!   (`crates/mapreduce/src/job.rs`): map emit, shuffle, and reduce
//!   staging must go through the columnar arena buffers of
//!   `crates/mapreduce/src/arena.rs`, which keep keys and values in
//!   contiguous per-column storage. This rule is scoped via `applies_to` —
//!   tuple pushes are fine elsewhere (the sequential reference executor
//!   deliberately stays row-major).
//! * **no-direct-fs** — direct filesystem calls (`std::fs`, `File::open`,
//!   `File::create`, `OpenOptions`) are banned in the engine and driver
//!   library sources (`crates/mapreduce/src`, `crates/core/src`, scoped via
//!   `applies_under`): durable state must go through `haten2-blockstore`
//!   (`localfs` for atomic small files, `BlockStore` for segment data) so
//!   fsync discipline and crash atomicity stay uniform. Only
//!   `crates/blockstore` may touch the filesystem directly.
//!
//! Suppress a finding with `// lint:allow(<rule>) — <reason>` on the same
//! or the preceding line; `cargo xtask lint --list-allows` prints every
//! suppression with its justification (and fails on reasonless ones).
//! `shims/` (vendored stand-ins) and `crates/xtask` (this linter's own
//! pattern strings) are excluded from the walk.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use haten2_srcscan::{is_suppressed, rs_files, SourceText};
use std::fmt;
use std::path::{Path, PathBuf};

/// Where a rule applies.
#[derive(Clone, Copy, PartialEq)]
pub enum Scope {
    /// Only library sources (`src/` trees), outside `#[cfg(test)]` regions.
    LibraryCode,
    /// Every scanned file, tests and benches included.
    Everywhere,
}

/// One lint rule: substring patterns plus scope and rationale.
pub struct Rule {
    /// Rule id, as used in `lint:allow(<id>)`.
    pub id: &'static str,
    /// Substring patterns that trigger the rule (matched on the
    /// comment/string-blanked code view).
    pub patterns: &'static [&'static str],
    /// Where the rule applies.
    pub scope: Scope,
    /// Rationale shown with each finding.
    pub message: &'static str,
    /// Files (workspace-relative) exempt from this rule.
    pub exempt: &'static [&'static str],
    /// When non-empty, the rule fires *only* in these files
    /// (workspace-relative) — the inverse of `exempt`, for rules whose
    /// pattern is legitimate everywhere except a few guarded hot paths.
    pub applies_to: &'static [&'static str],
    /// When non-empty, the rule fires only in files whose
    /// workspace-relative path starts with one of these prefixes —
    /// directory-level scoping for rules that guard a subsystem boundary
    /// rather than a single file.
    pub applies_under: &'static [&'static str],
}

/// The workspace lint rules (see the crate docs for rationale).
pub const RULES: &[Rule] = &[
    Rule {
        id: "no-raw-threads",
        patterns: &["thread::spawn", "thread::scope", "thread::Builder"],
        scope: Scope::LibraryCode,
        message: "raw thread primitives are reserved for the WorkerPool; route parallelism \
                  through haten2_mapreduce::WorkerPool so cost accounting sees it",
        exempt: &["crates/mapreduce/src/pool.rs"],
        applies_to: &[],
        applies_under: &[],
    },
    Rule {
        id: "no-default-hasher",
        patterns: &["DefaultHasher"],
        scope: Scope::LibraryCode,
        message: "DefaultHasher is not stable across toolchains; use the engine's explicit \
                  partitioner for reproducible shuffle placement",
        exempt: &[],
        applies_to: &[],
        applies_under: &[],
    },
    Rule {
        id: "no-unwrap",
        patterns: &[".unwrap()"],
        scope: Scope::LibraryCode,
        message: "library code must propagate errors, not panic; return a Result or use \
                  expect with an invariant message",
        exempt: &[],
        applies_to: &[],
        applies_under: &[],
    },
    Rule {
        id: "no-debug-macros",
        patterns: &["dbg!(", "todo!("],
        scope: Scope::Everywhere,
        message: "debugging leftovers must not land",
        exempt: &[],
        applies_to: &[],
        applies_under: &[],
    },
    Rule {
        id: "shared-backoff",
        patterns: &[
            "backoff_base",
            "backoff_factor",
            "backoff_ms",
            "retry_delay",
        ],
        scope: Scope::LibraryCode,
        message: "retry sites must charge delays through RetryPolicy::backoff_s \
                  (crates/mapreduce/src/fault.rs), not ad-hoc backoff arithmetic, so \
                  recovery time stays identical across executors",
        exempt: &["crates/mapreduce/src/fault.rs"],
        applies_to: &[],
        applies_under: &[],
    },
    Rule {
        id: "no-per-record-alloc",
        patterns: &[".push(("],
        scope: Scope::LibraryCode,
        message: "the engine's map-emit/shuffle/reduce hot paths must not push owned \
                  (key, value) tuples record by record; stage records through the \
                  columnar arena buffers (crates/mapreduce/src/arena.rs) so keys and \
                  values stay in contiguous per-column storage",
        exempt: &[],
        applies_to: &["crates/mapreduce/src/job.rs", "no_per_record_alloc.rs"],
        applies_under: &[],
    },
    Rule {
        id: "no-direct-fs",
        patterns: &["std::fs", "File::open", "File::create", "OpenOptions"],
        scope: Scope::LibraryCode,
        message: "durable state must go through haten2-blockstore (localfs::write_atomic \
                  / BlockStore) so fsync discipline and crash atomicity stay uniform; \
                  direct filesystem calls are reserved for crates/blockstore",
        exempt: &[],
        applies_to: &[],
        applies_under: &["crates/mapreduce/src", "crates/core/src", "no_direct_fs.rs"],
    },
];

/// One finding.
pub struct Finding {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Rule id.
    pub rule: &'static str,
    /// Rationale.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// True when `hay[idx..]` starts a standalone `unsafe` token (not part of a
/// longer identifier like `unsafe_code`).
fn is_unsafe_token(hay: &str, idx: usize) -> bool {
    let bytes = hay.as_bytes();
    let before_ok = idx == 0 || !(bytes[idx - 1].is_ascii_alphanumeric() || bytes[idx - 1] == b'_');
    let after = idx + "unsafe".len();
    let after_ok =
        after >= bytes.len() || !(bytes[after].is_ascii_alphanumeric() || bytes[after] == b'_');
    before_ok && after_ok
}

/// Lint one file. `rel` is its workspace-relative path (for exemptions);
/// `is_library` applies the `LibraryCode`-scoped rules.
pub fn lint_file(path: &Path, rel: &str, is_library: bool, findings: &mut Vec<Finding>) {
    let Ok(text) = std::fs::read_to_string(path) else {
        findings.push(Finding {
            file: path.to_path_buf(),
            line: 0,
            rule: "io",
            message: "unreadable source file".to_string(),
        });
        return;
    };
    // The code view blanks comments and string contents byte-for-byte, so
    // line numbers agree with the raw text and pattern strings in prose or
    // literals cannot trigger rules.
    let st = SourceText::parse(&text);
    let raw_lines: Vec<&str> = text.lines().collect();
    let code_lines: Vec<&str> = st.code.lines().collect();

    // Library files conventionally end with `#[cfg(test)] mod tests`; the
    // library-scoped rules stop applying there (tests may unwrap).
    let test_region_start = raw_lines
        .iter()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
        .unwrap_or(raw_lines.len());

    for (i, code) in code_lines.iter().enumerate() {
        for rule in RULES {
            if rule.scope == Scope::LibraryCode && (!is_library || i >= test_region_start) {
                continue;
            }
            if rule.exempt.contains(&rel) {
                continue;
            }
            if !rule.applies_to.is_empty() && !rule.applies_to.contains(&rel) {
                continue;
            }
            if !rule.applies_under.is_empty()
                && !rule.applies_under.iter().any(|p| rel.starts_with(p))
            {
                continue;
            }
            if rule.patterns.iter().any(|p| code.contains(p))
                && !is_suppressed(&raw_lines, i, rule.id)
            {
                findings.push(Finding {
                    file: path.to_path_buf(),
                    line: i + 1,
                    rule: rule.id,
                    message: rule.message.to_string(),
                });
            }
        }
        // undocumented-unsafe: every real `unsafe` token needs a SAFETY:
        // comment within the preceding lines (or on the line itself). The
        // token is looked up in the code view (comments don't count), the
        // SAFETY marker in the raw text (it *is* a comment).
        if is_library {
            let mut search = 0;
            while let Some(off) = code[search..].find("unsafe") {
                let idx = search + off;
                if is_unsafe_token(code, idx) {
                    let lookback = 25usize;
                    let from = i.saturating_sub(lookback);
                    let documented = raw_lines[from..=i].iter().any(|l| l.contains("SAFETY"))
                        || is_suppressed(&raw_lines, i, "undocumented-unsafe");
                    if !documented {
                        findings.push(Finding {
                            file: path.to_path_buf(),
                            line: i + 1,
                            rule: "undocumented-unsafe",
                            message: "unsafe without a SAFETY: comment in the preceding lines"
                                .to_string(),
                        });
                    }
                }
                search = idx + "unsafe".len();
            }
        }
    }
}

/// Every source file the lint pass covers, with its workspace-relative
/// path and whether it counts as library code. Excluded from the walk
/// entirely: `shims/` (vendored API stand-ins, not this project's code)
/// and `crates/xtask` (this linter's own pattern strings would
/// self-match).
pub fn workspace_files(root: &Path) -> Vec<(PathBuf, String, bool)> {
    let mut files = Vec::new();
    let mut scanned_dirs = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            if entry.path().file_name().is_some_and(|n| n == "xtask") {
                continue;
            }
            for sub in ["src", "tests", "benches"] {
                scanned_dirs.push(entry.path().join(sub));
            }
        }
    }
    for sub in ["src", "tests", "examples"] {
        scanned_dirs.push(root.join(sub));
    }
    for dir in &scanned_dirs {
        rs_files(dir, &mut files);
    }
    files.sort();
    files
        .into_iter()
        .map(|file| {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let is_library = rel.split('/').any(|c| c == "src");
            (file, rel, is_library)
        })
        .collect()
}

/// Run the lint pass over the workspace. Returns the findings and the
/// number of files scanned.
pub fn run_lint(root: &Path) -> (Vec<Finding>, usize) {
    let mut findings = Vec::new();
    let files = workspace_files(root);
    let count = files.len();
    for (file, rel, is_library) in &files {
        lint_file(file, rel, *is_library, &mut findings);
    }
    (findings, count)
}

/// One `lint:allow` suppression site.
pub struct Allow {
    /// File the suppression is in.
    pub file: PathBuf,
    /// 1-based line of the marker.
    pub line: usize,
    /// Suppressed rule id.
    pub rule: String,
    /// Justification (empty = reasonless, which `--list-allows` rejects).
    pub reason: String,
}

impl fmt::Display for Allow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: allow({}) — {}",
            self.file.display(),
            self.line,
            self.rule,
            if self.reason.is_empty() {
                "NO REASON GIVEN"
            } else {
                &self.reason
            }
        )
    }
}

/// Justification for an allow marker: text after the `)` on the marker
/// line, or — when the marker line carries none — the contiguous comment
/// block immediately above it.
fn allow_reason(raw_lines: &[&str], idx: usize, after: &str) -> String {
    let inline = after
        .trim_start()
        .trim_start_matches(['—', '-', ':'])
        .trim()
        .to_string();
    if !inline.is_empty() {
        return inline;
    }
    // Walk the comment block upward, skipping the marker line itself.
    let mut parts = Vec::new();
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = raw_lines[i].trim_start();
        if let Some(c) = t.strip_prefix("//") {
            let c = c.trim_start_matches(['/', '!']).trim();
            if c.contains("lint:allow(") {
                break;
            }
            parts.push(c.to_string());
        } else {
            break;
        }
    }
    parts.reverse();
    parts.join(" ")
}

/// Collect every `lint:allow(...)` suppression in the lint pass's file
/// set, with its justification. Marker text inside string literals (the
/// scanner's own format strings, raw-string test fixtures) is ignored, as
/// are documentation placeholders like `lint:allow(<rule>)`.
pub fn collect_allows(root: &Path) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (file, _, _) in workspace_files(root) {
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        let st = SourceText::parse(&text);
        let raw_lines: Vec<&str> = text.lines().collect();
        let mut offset = 0usize;
        for (i, line) in raw_lines.iter().enumerate() {
            let mut search = 0usize;
            while let Some(off) = line[search..].find("lint:allow(") {
                let at = search + off;
                search = at + "lint:allow(".len();
                let abs = offset + at;
                if st.strings.iter().any(|&(s, e)| s <= abs && abs < e) {
                    continue;
                }
                let rest = &line[search..];
                let Some(close) = rest.find(')') else {
                    continue;
                };
                let rule = rest[..close].trim().to_string();
                // Placeholders in prose/docs, not real suppressions.
                if rule.is_empty() || rule.contains(['<', '{', ' ']) {
                    continue;
                }
                allows.push(Allow {
                    file: file.clone(),
                    line: i + 1,
                    rule,
                    reason: allow_reason(&raw_lines, i, &rest[close + 1..]),
                });
            }
            offset += line.len() + 1;
        }
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_tree_is_clean() {
        let (findings, count) = run_lint(&haten2_srcscan::workspace_root());
        assert!(count > 20, "walk found only {count} files");
        let msgs: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
        assert!(findings.is_empty(), "lint findings: {msgs:#?}");
    }

    #[test]
    fn every_allow_in_the_tree_is_justified() {
        let allows = collect_allows(&haten2_srcscan::workspace_root());
        // The known exemption surface: the engine's one push per sealed
        // run. `no-raw-threads` and `no-default-hasher` hold with no
        // exemption. Growing this list is a review event.
        for a in &allows {
            assert_eq!(
                a.rule,
                "no-per-record-alloc",
                "new exemption at {}:{}",
                a.file.display(),
                a.line
            );
            assert!(
                !a.reason.is_empty(),
                "reasonless suppression at {}:{} ({})",
                a.file.display(),
                a.line,
                a.rule
            );
        }
    }

    #[test]
    fn patterns_in_strings_and_comments_do_not_fire() {
        let dir = std::env::temp_dir().join(format!("xtask-lint-selftest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("strings.rs");
        std::fs::write(
            &path,
            "// thread::spawn in a comment\npub fn f() -> &'static str { \"thread::spawn\" }\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        lint_file(&path, "strings.rs", true, &mut findings);
        assert!(
            findings.is_empty(),
            "{:?}",
            findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
