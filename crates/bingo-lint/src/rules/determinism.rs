//! `determinism` — keep nondeterminism out of the walk-producing layers.
//!
//! Bingo's contract is bit-identical walks for a given seed at any thread
//! count. Three classes of leaks are flagged in library crates:
//!
//! 1. **wall-clock reads** — `Instant::now()` / `SystemTime::now()`
//!    anywhere outside the telemetry/bench/example layers (latency
//!    metrics are telemetry's job; a clock read feeding anything else is
//!    a determinism hazard);
//! 2. **entropy-seeded RNG** — `thread_rng`, `from_entropy`, seeding from
//!    a clock or an address (all randomness must flow from the request
//!    seed through SplitMix chains);
//! 3. **unordered-map iteration** — iterating a `HashMap`/`HashSet` into
//!    anything order-sensitive (the iteration order is
//!    randomized-by-hasher in general; this workspace's shim hasher is
//!    deterministic, but the *code* shouldn't rely on that). Iterations
//!    that end in an order-insensitive fold (`sum`, `count`, `min`,
//!    `max`, `any`, `all`, `fold` into a commutative op is NOT assumed)
//!    within the same statement are accepted.

use crate::lexer::{Lexed, TokKind};
use crate::{crate_of, exempt, Finding};
use std::collections::HashSet;

pub(crate) const RULE: &str = "determinism";

/// Layers allowed to read clocks / observe nondeterminism: telemetry
/// (latency histograms are its purpose), the observability plane (the
/// stall watchdog measures wall time by design and never feeds walks),
/// the bench/repro harness, the lint itself (its reports are not walk
/// output), and examples.
fn clock_whitelisted(path: &str) -> bool {
    matches!(
        crate_of(path),
        "bingo-telemetry" | "bingo-obs" | "bingo-bench" | "bingo-lint"
    ) || path.starts_with("examples/")
}

/// Crates whose map iterations must be order-robust (the deterministic
/// pipeline). Shims count: the rayon shim *is* the determinism story.
fn iteration_checked(path: &str) -> bool {
    path.starts_with("crates/") && !matches!(crate_of(path), "bingo-bench" | "bingo-lint")
        || path.starts_with("shims/")
}

/// Order-insensitive terminal adaptors: a `HashMap` iteration feeding one
/// of these within the same statement is deterministic regardless of
/// iteration order.
const ORDER_INSENSITIVE: &[&str] = &[
    "sum",
    "count",
    "min",
    "max",
    "any",
    "all",
    "len",
    "is_empty",
    "contains",
    "min_by_key",
    "max_by_key",
];

/// Unordered-iteration producers on a hash container.
const ITER_METHODS: &[&str] = &["iter", "iter_mut", "keys", "values", "values_mut", "drain"];

pub fn check(path: &str, lexed: &Lexed) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &lexed.tokens;

    // --- clocks + entropy ---------------------------------------------
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let clock = (t.text == "Instant" || t.text == "SystemTime")
            && toks.get(i + 1).is_some_and(|t| t.text == ":")
            && toks.get(i + 3).is_some_and(|t| t.text == "now");
        if clock && !clock_whitelisted(path) && !exempt(lexed, i, RULE) {
            findings.push(Finding {
                rule: RULE,
                file: path.to_string(),
                line: t.line,
                message: format!(
                    "wall-clock read ({}::now) outside the telemetry/bench layer: walks \
                     must not observe time; move the measurement behind bingo-telemetry \
                     or justify with `// lint:allow(determinism): <reason>`",
                    t.text
                ),
            });
        }
        let entropy = matches!(t.text.as_str(), "thread_rng" | "from_entropy" | "OsRng");
        if entropy && !exempt(lexed, i, RULE) {
            findings.push(Finding {
                rule: RULE,
                file: path.to_string(),
                line: t.line,
                message: format!(
                    "entropy-seeded RNG (`{}`): all randomness must derive from the \
                     request seed via the SplitMix chains",
                    t.text
                ),
            });
        }
    }

    // --- unordered-map iteration --------------------------------------
    if iteration_checked(path) {
        let hash_names = hash_container_names(lexed);
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.kind != TokKind::Ident || !ITER_METHODS.contains(&t.text.as_str()) {
                continue;
            }
            // Shape: <receiver-ident> . method ( — receiver must be a
            // known hash-container binding/field in this file.
            if i < 2 || toks[i - 1].text != "." || toks[i - 2].kind != TokKind::Ident {
                continue;
            }
            if toks.get(i + 1).map(|t| t.text.as_str()) != Some("(") {
                continue;
            }
            if !hash_names.contains(toks[i - 2].text.as_str()) {
                continue;
            }
            if exempt(lexed, i, RULE) {
                continue;
            }
            if statement_is_order_insensitive(lexed, i) {
                continue;
            }
            findings.push(Finding {
                rule: RULE,
                file: path.to_string(),
                line: t.line,
                message: format!(
                    "iteration over hash container `{}` feeds order-sensitive output: \
                     collect-and-sort, switch to BTreeMap, or justify with \
                     `// lint:allow(determinism): <reason>`",
                    toks[i - 2].text
                ),
            });
        }
    }

    findings
}

/// Identifiers declared as `HashMap`/`HashSet` in this file — via
/// `name: HashMap<...>` (field or binding annotation) or
/// `name = HashMap::new()` / `HashMap::with_capacity`.
fn hash_container_names(lexed: &Lexed) -> HashSet<&str> {
    let toks = &lexed.tokens;
    let mut names = HashSet::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // `name : HashMap` (possibly through `& mut` etc.) — scan back
        // over type sigils to the `:` then take the ident before it.
        let mut j = i;
        while j > 0 && matches!(toks[j - 1].text.as_str(), "&" | "mut" | "<" | "Arc" | "Box") {
            j -= 1;
        }
        if j >= 2 && toks[j - 1].text == ":" && toks[j - 2].kind == TokKind::Ident {
            names.insert(toks[j - 2].text.as_str());
        }
        // `name = HashMap::new(...)`
        if i >= 2 && toks[i - 1].text == "=" && toks[i - 2].kind == TokKind::Ident {
            names.insert(toks[i - 2].text.as_str());
        }
    }
    names
}

/// Whether the statement containing token `idx` ends in an
/// order-insensitive adaptor.
fn statement_is_order_insensitive(lexed: &Lexed, idx: usize) -> bool {
    let toks = &lexed.tokens;
    // Scan forward to the end of the statement (`;` or closing `}` at a
    // shallower depth), looking for `. <adaptor>`.
    let mut depth = 0i32;
    for i in idx..toks.len() {
        match toks[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            ";" if depth == 0 => break,
            _ => {}
        }
        if toks[i].kind == TokKind::Ident
            && ORDER_INSENSITIVE.contains(&toks[i].text.as_str())
            && i > 0
            && toks[i - 1].text == "."
        {
            return true;
        }
    }
    false
}
