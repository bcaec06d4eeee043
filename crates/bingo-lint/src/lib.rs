//! Project-specific static analysis for the Bingo workspace.
//!
//! `bingo-lint` is an offline, dependency-free lint pass built on a
//! hand-rolled token-level lexer ([`lexer`]). It enforces the concurrency
//! and determinism invariants the hand-rolled runtime depends on — things
//! `rustc`/`clippy` cannot know are load-bearing here:
//!
//! | rule | what it enforces |
//! |------|------------------|
//! | `atomics-ordering` | every `Ordering::Relaxed` is telemetry-path or carries `// relaxed-ok: <reason>` |
//! | `determinism` | no wall-clock reads / entropy-seeded RNG / unordered map iteration outside whitelisted layers |
//! | `lock-discipline` | consistent cross-function lock order (no cycles), no lock held across a blocking call |
//! | `metric-names` | metric-name string literals exist in `bingo-telemetry/src/names.rs` |
//! | `panic-hygiene` | no `unwrap()` / `println!` in `bingo-service`/`bingo-gateway` non-test code |
//!
//! Escape hatches, strictest first:
//!
//! - `// relaxed-ok: <reason>` — justifies one `Ordering::Relaxed`
//!   statement (atomics-ordering only);
//! - `// lint:allow(<rule>): <reason>` — suppresses `<rule>` for the
//!   statement it annotates (any rule);
//! - `lint.allow` at the workspace root — baseline entries of the form
//!   `<rule> <path-prefix>`, for adopting the gate on legacy code.
//!
//! Test code (`#[test]` fns, `#[cfg(test)]` items) and the fixture
//! corpus are exempt from every rule. Run as
//! `cargo run -p bingo-lint -- --workspace`.

pub mod lexer;
pub mod rules;

use lexer::Lexed;
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired (e.g. `atomics-ordering`).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description with the expected remedy.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A file to lint: a workspace-relative path (rules are path-sensitive)
/// plus its source text. The path does not need to exist on disk, which
/// lets tests lint fixture snippets *as if* they lived in a given crate.
#[derive(Debug, Clone)]
pub struct FileInput {
    /// Workspace-relative path, `/`-separated (e.g.
    /// `crates/bingo-service/src/service.rs`).
    pub path: String,
    /// Full source text.
    pub source: String,
}

/// Cross-file lint configuration.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// The metric-name taxonomy (string values of the consts in
    /// `bingo-telemetry/src/names.rs`). Empty disables the
    /// `metric-names` rule.
    pub metric_names: BTreeSet<String>,
    /// Baseline suppressions: `(rule, path-prefix)` pairs from
    /// `lint.allow`.
    pub allow: Vec<(String, String)>,
    /// Restrict the run to one rule (CLI `--rule`).
    pub only_rule: Option<String>,
}

impl LintConfig {
    fn baseline_allows(&self, rule: &str, path: &str) -> bool {
        self.allow
            .iter()
            .any(|(r, prefix)| r == rule && path.starts_with(prefix.as_str()))
    }

    fn rule_enabled(&self, rule: &str) -> bool {
        self.only_rule.as_deref().is_none_or(|only| only == rule)
    }
}

/// The rule names, in report order.
pub const RULES: &[(&str, &str)] = &[
    (
        "atomics-ordering",
        "Ordering::Relaxed outside telemetry needs `// relaxed-ok: <reason>`",
    ),
    (
        "determinism",
        "no wall clocks, entropy-seeded RNG, or unordered map iteration in deterministic layers",
    ),
    (
        "lock-discipline",
        "consistent cross-function lock order; no lock held across a blocking call",
    ),
    (
        "metric-names",
        "metric-name literals must exist in bingo-telemetry/src/names.rs",
    ),
    (
        "panic-hygiene",
        "no unwrap()/println! in bingo-service/bingo-gateway non-test code",
    ),
    (
        "wire-format",
        "wire-path files: little-endian only, no usize on the wire, no unordered containers",
    ),
];

/// The crate a workspace-relative path belongs to (`crates/x/...` or
/// `shims/x/...` → `x`), or `""` for root-level files.
pub(crate) fn crate_of(path: &str) -> &str {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") | Some("shims") => parts.next().unwrap_or(""),
        _ => "",
    }
}

/// Lint a set of in-memory files. This is the core entry point; the CLI
/// and the test suite both go through it.
pub fn lint_files(files: &[FileInput], cfg: &LintConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut lock_edges = Vec::new();
    for file in files {
        let lexed = lexer::lex(&file.source);
        if cfg.rule_enabled("atomics-ordering") {
            findings.extend(rules::atomics::check(&file.path, &lexed));
        }
        if cfg.rule_enabled("determinism") {
            findings.extend(rules::determinism::check(&file.path, &lexed));
        }
        if cfg.rule_enabled("lock-discipline") {
            let (edges, blocking) = rules::locks::collect(&file.path, &lexed);
            lock_edges.extend(edges);
            findings.extend(blocking);
        }
        if cfg.rule_enabled("metric-names") && !cfg.metric_names.is_empty() {
            findings.extend(rules::metrics::check(&file.path, &lexed, &cfg.metric_names));
        }
        if cfg.rule_enabled("panic-hygiene") {
            findings.extend(rules::hygiene::check(&file.path, &lexed));
        }
        if cfg.rule_enabled("wire-format") {
            findings.extend(rules::wire::check(&file.path, &lexed));
        }
    }
    if cfg.rule_enabled("lock-discipline") {
        findings.extend(rules::locks::find_cycles(&lock_edges));
    }
    findings.retain(|f| !cfg.baseline_allows(f.rule, &f.file));
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Recursively collect the workspace's lintable `.rs` files: `crates/*/src`
/// and `shims/*/src` (library + shim code). Integration tests and examples
/// are covered by the rules' own path whitelists where they matter, and
/// excluded here where they don't (tests are all-test code by definition;
/// the fixture corpus is known-bad on purpose).
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<FileInput>> {
    let mut out = Vec::new();
    for top in ["crates", "shims"] {
        let top_dir = root.join(top);
        if !top_dir.is_dir() {
            continue;
        }
        for entry in std::fs::read_dir(&top_dir)? {
            let krate = entry?.path();
            let src = krate.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut out, root)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut out, root)?;
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<FileInput>, root: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out, root)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(FileInput {
                path: rel,
                source: std::fs::read_to_string(&path)?,
            });
        }
    }
    Ok(())
}

/// Parse `bingo-telemetry/src/names.rs`-style sources for
/// `pub const NAME: &str = "value";` items and return the values.
pub fn parse_metric_names(source: &str) -> BTreeSet<String> {
    let lexed = lexer::lex(source);
    let mut names = BTreeSet::new();
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if toks[i].text == "const" {
            // const IDENT : & str = "value" ;
            if let Some(value) = toks[i..]
                .iter()
                .take(10)
                .find(|t| t.kind == lexer::TokKind::Str)
            {
                names.insert(value.text.clone());
            }
        }
    }
    names
}

/// Load the `lint.allow` baseline: one `<rule> <path-prefix>` entry per
/// line, `#` comments and blank lines ignored.
fn parse_baseline(text: &str) -> Vec<(String, String)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some(rule), Some(prefix)) => Some((rule.to_string(), prefix.to_string())),
                _ => None,
            }
        })
        .collect()
}

/// Lint the workspace rooted at `root` end-to-end: collect files, load
/// the taxonomy and baseline, run every rule.
pub fn lint_workspace(root: &Path, only_rule: Option<&str>) -> std::io::Result<Vec<Finding>> {
    let files = workspace_files(root)?;
    let names_path: PathBuf = root.join("crates/bingo-telemetry/src/names.rs");
    let metric_names = match std::fs::read_to_string(&names_path) {
        Ok(src) => parse_metric_names(&src),
        Err(_) => BTreeSet::new(),
    };
    let allow = match std::fs::read_to_string(root.join("lint.allow")) {
        Ok(text) => parse_baseline(&text),
        Err(_) => Vec::new(),
    };
    let cfg = LintConfig {
        metric_names,
        allow,
        only_rule: only_rule.map(str::to_string),
    };
    Ok(lint_files(&files, &cfg))
}

/// Shared helper: skip a token when it is test code or carries the
/// rule's `lint:allow` escape in its statement window.
pub(crate) fn exempt(lexed: &Lexed, idx: usize, rule: &str) -> bool {
    let line = lexed.tokens[idx].line;
    lexed.is_test_line(line) || lexed.window_has_comment(idx, &format!("lint:allow({rule})"))
}
