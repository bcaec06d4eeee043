//! `lock-discipline` — the static half of the lock-order story.
//!
//! For every function body the rule extracts the sequence of lock
//! acquisitions (`.lock()`, `.try_lock()`, `.read()`, `.write()`) with an
//! approximation of guard lifetimes good enough for real code:
//!
//! - a guard bound by `let g = x.lock()` (incl. `if let Some(g) =
//!   x.try_lock()`) lives until its enclosing block closes or an explicit
//!   `drop(g)`;
//! - an unbound guard (`x.lock().field = ...`) lives to the end of its
//!   statement;
//! - `cv.wait(g)` keeps `g`'s lock held (the wait re-acquires before
//!   returning).
//!
//! Acquiring `B` while holding `A` contributes the edge `A -> B` to a
//! cross-function, cross-crate graph keyed `crate.field`; a cycle in
//! that graph means two call paths disagree about the order — a
//! potential ABBA deadlock — and is reported on each participating edge.
//! The rule also flags a **lock held across a blocking call** (`recv`,
//! `recv_timeout`, `join`, `sleep`, and condvar `wait` on a *different*
//! lock's guard): such a hold extends the critical section by an
//! unbounded wait and is deadlock-adjacent; an intentional design must
//! say so with `// lint:allow(lock-discipline): <reason>` (the tree has
//! none).
//!
//! The static pass sees every code path but cannot see through calls;
//! the runtime checker in the `parking_lot` shim (`BINGO_LOCK_CHECK=on`)
//! covers the interprocedural orders on executed paths. CI runs both.

use crate::lexer::{Lexed, TokKind};
use crate::{crate_of, exempt, Finding};
use std::collections::{BTreeMap, BTreeSet};

pub(crate) const RULE: &str = "lock-discipline";

/// One observed `held -> acquired` pair.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Qualified name (`crate.field`) of the lock already held.
    pub from: String,
    /// Qualified name of the lock being acquired.
    pub to: String,
    /// Where the acquisition happened.
    pub file: String,
    /// 1-based line of the acquisition.
    pub line: u32,
}

const LOCK_METHODS: &[&str] = &["lock", "try_lock", "read", "write"];
const BLOCKING_METHODS: &[&str] = &["recv", "recv_timeout", "join", "sleep"];

/// The `parking_lot` shim is the checker itself; its internal `.lock()`s
/// on `std` primitives are the instrumentation, not workspace locking
/// discipline.
fn path_exempt(path: &str) -> bool {
    path.starts_with("shims/parking_lot/")
}

#[derive(Debug)]
struct Held {
    /// Qualified lock name (`crate.field`).
    name: String,
    /// Guard binding, when `let`-bound.
    bound: Option<String>,
    /// Brace depth (within the function body) at acquisition.
    depth: i32,
    /// Unbound temporary — released at the next `;` of its depth.
    temp: bool,
}

/// Scan one file: return the lock-order edges it contributes and any
/// held-across-blocking findings.
pub fn collect(path: &str, lexed: &Lexed) -> (Vec<LockEdge>, Vec<Finding>) {
    let mut edges = Vec::new();
    let mut findings = Vec::new();
    if path_exempt(path) {
        return (edges, findings);
    }
    let krate = crate_of(path);
    let toks = &lexed.tokens;
    let mut i = 0;
    while i < toks.len() {
        // Find `fn name ... {` and process the body.
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "fn"
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
        {
            // Skip to the body's `{` (or `;` for a bodyless signature),
            // ignoring braces inside generics/where clauses is not needed:
            // `{` cannot appear in a type position we'd cross here.
            let mut j = i + 2;
            while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
                j += 1;
            }
            if j >= toks.len() || toks[j].text == ";" {
                i = j + 1;
                continue;
            }
            let body_end = scan_function(path, krate, lexed, j, &mut edges, &mut findings);
            i = body_end;
            continue;
        }
        i += 1;
    }
    (edges, findings)
}

/// Process one function body starting at the `{` at `open`. Returns the
/// index just past the matching `}`.
fn scan_function(
    path: &str,
    krate: &str,
    lexed: &Lexed,
    open: usize,
    edges: &mut Vec<LockEdge>,
    findings: &mut Vec<Finding>,
) -> usize {
    let toks = &lexed.tokens;
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 1i32;
    let mut i = open + 1;
    while i < toks.len() && depth > 0 {
        let t = &toks[i];
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                held.retain(|h| h.depth <= depth);
            }
            ";" => held.retain(|h| !(h.temp && h.depth >= depth)),
            _ => {}
        }
        // `drop ( ident )` — explicit release.
        if t.kind == TokKind::Ident
            && t.text == "drop"
            && toks.get(i + 1).is_some_and(|t| t.text == "(")
            && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
            && toks.get(i + 3).is_some_and(|t| t.text == ")")
        {
            let var = toks[i + 2].text.as_str();
            held.retain(|h| h.bound.as_deref() != Some(var));
            i += 4;
            continue;
        }
        // `. lockmethod ( )` — an acquisition.
        if t.kind == TokKind::Ident
            && LOCK_METHODS.contains(&t.text.as_str())
            && i >= 1
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|t| t.text == "(")
            && toks.get(i + 2).is_some_and(|t| t.text == ")")
        {
            if let Some(recv) = receiver_name(toks, i - 1) {
                if !lexed.is_test_line(t.line) {
                    let name = format!("{krate}.{recv}");
                    let exempted = exempt(lexed, i, RULE);
                    if !exempted {
                        for h in &held {
                            if h.name != name {
                                edges.push(LockEdge {
                                    from: h.name.clone(),
                                    to: name.clone(),
                                    file: path.to_string(),
                                    line: t.line,
                                });
                            }
                        }
                    }
                    let bound = binding_of(lexed, i);
                    held.push(Held {
                        name,
                        temp: bound.is_none(),
                        bound,
                        depth,
                    });
                }
            }
            i += 3;
            continue;
        }
        // Blocking call while locks are held.
        if t.kind == TokKind::Ident && i >= 1 {
            let is_blocking_method = BLOCKING_METHODS.contains(&t.text.as_str())
                && (toks[i - 1].text == "." || toks[i - 1].text == ":")
                && toks.get(i + 1).is_some_and(|t| t.text == "(");
            let condvar_wait = (t.text == "wait" || t.text == "wait_timeout")
                && toks[i - 1].text == "."
                && toks.get(i + 1).is_some_and(|t| t.text == "(");
            if is_blocking_method || condvar_wait {
                // For a condvar wait, the guard passed as the first
                // argument is *supposed* to be held — exclude its lock.
                let waited_var = if condvar_wait {
                    toks.get(i + 2)
                        .filter(|t| t.kind == TokKind::Ident)
                        .map(|t| t.text.clone())
                } else {
                    None
                };
                let still_held: Vec<&Held> = held
                    .iter()
                    .filter(|h| h.bound != waited_var || waited_var.is_none())
                    .collect();
                if !still_held.is_empty() && !lexed.is_test_line(t.line) && !exempt(lexed, i, RULE)
                {
                    let names: Vec<&str> = still_held.iter().map(|h| h.name.as_str()).collect();
                    findings.push(Finding {
                        rule: RULE,
                        file: path.to_string(),
                        line: t.line,
                        message: format!(
                            "lock{} `{}` held across blocking call `{}`: shrink the \
                             critical section or justify with \
                             `// lint:allow(lock-discipline): <reason>`",
                            if names.len() == 1 { "" } else { "s" },
                            names.join("`, `"),
                            t.text,
                        ),
                    });
                }
            }
        }
        i += 1;
    }
    held.clear();
    i
}

/// The lock's field/variable name for the `.` at index `dot` (the token
/// before `.lock`): `self.pending.lock()` → `pending`;
/// `graph().lock()` → `graph`; `inputs[i].lock()` → `inputs`.
fn receiver_name(toks: &[crate::lexer::Token], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let prev = &toks[dot - 1];
    match prev.text.as_str() {
        ")" | "]" => {
            // Walk back over the balanced group, then take the ident.
            let close = prev.text.as_bytes()[0];
            let open = if close == b')' { ")" } else { "]" };
            let open_ch = if close == b')' { "(" } else { "[" };
            let mut depth = 1i32;
            let mut j = dot - 1;
            while j > 0 && depth > 0 {
                j -= 1;
                if toks[j].text == open {
                    depth += 1;
                } else if toks[j].text == open_ch {
                    depth -= 1;
                }
            }
            (j > 0 && toks[j - 1].kind == TokKind::Ident).then(|| toks[j - 1].text.clone())
        }
        _ if prev.kind == TokKind::Ident && prev.text != "self" => Some(prev.text.clone()),
        _ => None,
    }
}

/// The variable the acquisition's guard is bound to, if the statement is
/// a `let` binding: handles `let [mut] g = ...`,
/// `[if|while] let Some(g) = ...`, `let Ok(g) = ...`.
fn binding_of(lexed: &Lexed, idx: usize) -> Option<String> {
    let toks = &lexed.tokens;
    // Scan back to the statement start.
    let mut start = idx;
    for j in (0..idx).rev() {
        if matches!(toks[j].text.as_str(), ";" | "{" | "}") {
            start = j + 1;
            break;
        }
        start = j;
    }
    let mut j = start;
    while j < idx {
        if toks[j].text == "let" {
            let mut k = j + 1;
            if toks.get(k).is_some_and(|t| t.text == "mut") {
                k += 1;
            }
            let t = toks.get(k)?;
            if t.kind != TokKind::Ident {
                return None;
            }
            // `Some ( g )` / `Ok ( g )` pattern?
            if (t.text == "Some" || t.text == "Ok")
                && toks.get(k + 1).is_some_and(|t| t.text == "(")
            {
                let mut inner = k + 2;
                if toks.get(inner).is_some_and(|t| t.text == "mut") {
                    inner += 1;
                }
                return toks
                    .get(inner)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone());
            }
            return Some(t.text.clone());
        }
        j += 1;
    }
    None
}

/// Report every edge that participates in a cycle of the cross-function
/// lock-order graph.
pub fn find_cycles(edges: &[LockEdge]) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str());
    }
    let reachable = |from: &str, to: &str| -> bool {
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        seen.insert(from);
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if let Some(nexts) = adj.get(n) {
                for &next in nexts {
                    if seen.insert(next) {
                        stack.push(next);
                    }
                }
            }
        }
        false
    };
    let mut findings = Vec::new();
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for e in edges {
        if reachable(&e.to, &e.from) {
            let key = (e.from.clone(), e.to.clone());
            if reported.insert(key) {
                findings.push(Finding {
                    rule: RULE,
                    file: e.file.clone(),
                    line: e.line,
                    message: format!(
                        "lock-order cycle: `{}` is acquired while holding `{}` here, but \
                         another path orders them the other way — pick one order \
                         (potential ABBA deadlock)",
                        e.to, e.from,
                    ),
                });
            }
        }
    }
    findings
}
