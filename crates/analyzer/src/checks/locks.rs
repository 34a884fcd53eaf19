//! Lock-order and no-blocking-under-sequencer checks.
//!
//! Both run over the same per-function guard-liveness simulation:
//!
//! * an acquisition is a zero-argument `.lock()` / `.read()` /
//!   `.write()` / `.try_lock()` method call; the guard's *name* is the
//!   receiver's last path segment (`self.coord.engine.lock()` →
//!   `engine`);
//! * a guard bound by `let [mut] var = <recv>.lock()[.expect(…)];`
//!   (or `.unwrap()`, or `.unwrap_or_else(…)`, which a `try_lock` falls
//!   back through) lives until its enclosing block closes or
//!   `drop(var)`;
//! * any other acquisition is a temporary that lives to the end of the
//!   statement (which, as in real Rust, extends through `if let` /
//!   `match` bodies whose scrutinee holds the guard);
//! * acquiring `B` while `A` is live records the edge `A → B`.
//!
//! Edges are validated against the declared order in
//! `analysis/lock_order.toml`: both names must appear in `order`, the
//! outer strictly before the inner, and re-acquiring a name already
//! held is always flagged. Because `order` is a total order, any cycle
//! necessarily contains a flagged edge; an explicit cycle report is
//! emitted too so the root cause reads directly from CI output.

use std::collections::BTreeMap;

use crate::config::Config;
use crate::lexer::{TokKind, Token};
use crate::parse::FileModel;
use crate::{Finding, CHECK_LOCK_ORDER, CHECK_SEQ_BLOCK};

/// Method names whose zero-arg call takes a guard (`try_lock` may not,
/// but when it does the guard is as live as `lock`'s).
const ACQUIRE: &[&str] = &["lock", "read", "write", "try_lock"];

/// Method names that block the calling thread (any arity).
const BLOCKING_METHODS: &[&str] = &[
    "recv",
    "recv_timeout",
    "recv_deadline",
    "join",
    "wait",
    "wait_timeout",
    "wait_while",
    "park",
    "park_timeout",
];

/// Free/path functions that block (`thread::sleep(d)` etc.). A yield or
/// a spin hint is the body of a hand-rolled wait — a `try_recv` loop
/// that yields between polls blocks on its peer as surely as `recv`.
const BLOCKING_CALLS: &[&str] = &[
    "sleep",
    "sleep_ms",
    "park",
    "park_timeout",
    "yield_now",
    "spin_loop",
];

#[derive(Debug)]
struct Guard {
    name: String,
    /// Binding variable for `drop(var)` tracking (let-bound only).
    var: Option<String>,
    /// Brace depth (relative to body) at acquisition.
    depth: u32,
    /// Temporaries die at the next `;` at their own depth.
    temp: bool,
}

/// An observed nested acquisition.
#[derive(Debug)]
pub struct Edge {
    pub outer: String,
    pub inner: String,
    pub file: String,
    pub line: u32,
}

/// Runs the guard simulation over every function in `model`; returns
/// per-function findings (re-acquisition, blocking-under-sequencer)
/// plus the observed edges for the cross-file order/cycle validation.
pub fn scan_file(model: &FileModel, cfg: &Config, findings: &mut Vec<Finding>) -> Vec<Edge> {
    let mut edges = Vec::new();
    for func in &model.funcs {
        scan_func(model, func.body.clone(), cfg, findings, &mut edges);
    }
    edges
}

fn scan_func(
    model: &FileModel,
    body: std::ops::Range<usize>,
    cfg: &Config,
    findings: &mut Vec<Finding>,
    edges: &mut Vec<Edge>,
) {
    let toks = &model.tokens;
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0u32;
    let mut stmt_start = body.start;
    let mut i = body.start;
    while i < body.end {
        match &toks[i].kind {
            TokKind::Punct('{') => {
                depth += 1;
                stmt_start = i + 1;
            }
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
                stmt_start = i + 1;
            }
            TokKind::Punct(';') => {
                guards.retain(|g| !(g.temp && g.depth == depth));
                stmt_start = i + 1;
            }
            TokKind::Ident(id) if id == "drop" && is_punct(toks, i + 1, '(') => {
                if let Some(var) = toks.get(i + 2).and_then(|t| t.ident()) {
                    guards.retain(|g| g.var.as_deref() != Some(var));
                }
            }
            TokKind::Ident(id) if is_acquisition(toks, i, id) => {
                let name = receiver_name(toks, i, body.start);
                let line = toks[i].line;
                for g in &guards {
                    if g.name == name {
                        findings.push(Finding::new(
                            CHECK_LOCK_ORDER,
                            &model.path,
                            line,
                            format!("re-acquisition of `{name}` while already held"),
                        ));
                    } else {
                        edges.push(Edge {
                            outer: g.name.clone(),
                            inner: name.clone(),
                            file: model.path.clone(),
                            line,
                        });
                    }
                }
                if sequencer_live(&guards, cfg) {
                    findings.push(Finding::new(
                        CHECK_SEQ_BLOCK,
                        &model.path,
                        line,
                        format!("acquires `{name}` while the sequencer engine guard is live"),
                    ));
                }
                let (let_bound, var) = let_binding(toks, stmt_start, i);
                guards.push(Guard {
                    name,
                    var,
                    depth,
                    temp: !let_bound,
                });
            }
            TokKind::Ident(id) if is_blocking(toks, i, id) && sequencer_live(&guards, cfg) => {
                findings.push(Finding::new(
                    CHECK_SEQ_BLOCK,
                    &model.path,
                    toks[i].line,
                    format!("blocking call `{id}` while the sequencer engine guard is live"),
                ));
            }
            _ => {}
        }
        i += 1;
    }
}

fn is_punct(toks: &[Token], i: usize, c: char) -> bool {
    toks.get(i).map(|t| t.is_punct(c)).unwrap_or(false)
}

/// `.lock()` / `.read()` / `.write()` with no arguments.
fn is_acquisition(toks: &[Token], i: usize, id: &str) -> bool {
    ACQUIRE.contains(&id)
        && i > 0
        && toks[i - 1].is_punct('.')
        && is_punct(toks, i + 1, '(')
        && is_punct(toks, i + 2, ')')
}

/// A blocking method call (`.recv(…)`) or path call (`thread::sleep(…)`).
fn is_blocking(toks: &[Token], i: usize, id: &str) -> bool {
    if !is_punct(toks, i + 1, '(') {
        return false;
    }
    if i > 0 && toks[i - 1].is_punct('.') {
        return BLOCKING_METHODS.contains(&id);
    }
    BLOCKING_CALLS.contains(&id)
}

fn sequencer_live(guards: &[Guard], cfg: &Config) -> bool {
    guards.iter().any(|g| cfg.sequencer_locks.contains(&g.name))
}

/// The receiver's final path segment: the identifier just before the
/// `.` of the acquisition call, or `<expr>` for computed receivers.
fn receiver_name(toks: &[Token], call: usize, lo: usize) -> String {
    if call >= 2 && call - 2 >= lo {
        if let Some(name) = toks[call - 2].ident() {
            return name.to_string();
        }
    }
    "<expr>".to_string()
}

/// Does the statement starting at `stmt_start` bind the acquisition's
/// guard via `let [mut] var = <chain>.lock()[.expect(…)|.unwrap()];`?
/// The guard is only bound when the acquisition (plus result adapters)
/// is the whole right-hand side.
fn let_binding(toks: &[Token], stmt_start: usize, call: usize) -> (bool, Option<String>) {
    let mut j = stmt_start;
    if toks.get(j).and_then(|t| t.ident()) != Some("let") {
        return (false, None);
    }
    j += 1;
    if toks.get(j).and_then(|t| t.ident()) == Some("mut") {
        j += 1;
    }
    let Some(var) = toks.get(j).and_then(|t| t.ident()) else {
        return (false, None); // tuple/struct pattern: treat as temporary
    };
    // After the acquisition's `()`, only guard-preserving adapters may
    // precede the `;` for the binding to hold the guard itself.
    let mut k = call + 3; // past `name ( )`
    loop {
        match toks.get(k).map(|t| &t.kind) {
            Some(TokKind::Punct(';')) => return (true, Some(var.to_string())),
            Some(TokKind::Punct('.')) => {
                let adapter = toks.get(k + 1).and_then(|t| t.ident());
                if !matches!(
                    adapter,
                    Some("expect") | Some("unwrap") | Some("unwrap_or_else")
                ) {
                    return (false, None);
                }
                // Skip the adapter's balanced parens.
                let mut d = 0i32;
                let mut m = k + 2;
                while m < toks.len() {
                    match toks[m].kind {
                        TokKind::Punct('(') => d += 1,
                        TokKind::Punct(')') => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    m += 1;
                }
                k = m + 1;
            }
            _ => return (false, None),
        }
    }
}

/// Cross-file validation of observed edges against the declared order.
pub fn validate_edges(edges: &[Edge], cfg: &Config, findings: &mut Vec<Finding>) {
    let pos: BTreeMap<&str, usize> = cfg
        .lock_order
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    for e in edges {
        match (pos.get(e.outer.as_str()), pos.get(e.inner.as_str())) {
            (Some(po), Some(pi)) if po < pi => {}
            (Some(po), Some(pi)) => {
                debug_assert!(po >= pi);
                findings.push(Finding::new(
                    CHECK_LOCK_ORDER,
                    &e.file,
                    e.line,
                    format!(
                        "acquisition `{}` → `{}` violates the declared order in \
                         analysis/lock_order.toml",
                        e.outer, e.inner
                    ),
                ));
            }
            _ => {
                findings.push(Finding::new(
                    CHECK_LOCK_ORDER,
                    &e.file,
                    e.line,
                    format!(
                        "undeclared nesting `{}` → `{}`: declare both in \
                         analysis/lock_order.toml `order`",
                        e.outer, e.inner
                    ),
                ));
            }
        }
    }
    report_cycles(edges, findings);
}

/// DFS cycle detection over the observed edge set; one report per
/// distinct cycle entry point.
fn report_cycles(edges: &[Edge], findings: &mut Vec<Finding>) {
    let mut adj: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.outer.as_str()).or_default().push(e);
    }
    let mut reported: Vec<String> = Vec::new();
    for start in adj.keys().copied().collect::<Vec<_>>() {
        let mut stack: Vec<&str> = vec![start];
        let mut path: Vec<&str> = Vec::new();
        dfs(start, &adj, &mut path, &mut reported, findings, edges);
        stack.clear();
    }
}

fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a Edge>>,
    path: &mut Vec<&'a str>,
    reported: &mut Vec<String>,
    findings: &mut Vec<Finding>,
    _edges: &[Edge],
) {
    if let Some(pos) = path.iter().position(|n| *n == node) {
        let mut cycle: Vec<&str> = path[pos..].to_vec();
        cycle.push(node);
        let mut canon = cycle[..cycle.len() - 1].to_vec();
        canon.sort_unstable();
        let key = canon.join(",");
        if !reported.contains(&key) {
            reported.push(key);
            let edge = adj[path[path.len() - 1]]
                .iter()
                .find(|e| e.inner == node)
                .expect("edge on cycle path");
            findings.push(Finding::new(
                CHECK_LOCK_ORDER,
                &edge.file,
                edge.line,
                format!("lock cycle detected: {}", cycle.join(" → ")),
            ));
        }
        return;
    }
    path.push(node);
    if let Some(outs) = adj.get(node) {
        for e in outs {
            dfs(e.inner.as_str(), adj, path, reported, findings, _edges);
        }
    }
    path.pop();
}
