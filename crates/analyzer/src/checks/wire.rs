//! Panic-free wire paths: in configured decode/serve scopes
//! (`analysis/wire_paths.toml`), non-test code may not `unwrap`,
//! `expect`, `panic!`-family, or slice-index. Attacker-controlled
//! frames must surface as `Error::Malformed`, never as a controller
//! abort (the controller is the single point of failure for a metro
//! deployment — DESIGN.md §9/§12).
//!
//! A scope whose `file` matches no scanned source, or a `functions`
//! pattern that matches no non-test function of that file, is itself a
//! finding: a renamed or moved function would otherwise leave the scope
//! without a word.

use crate::config::{glob_match, Config};
use crate::lexer::{TokKind, Token};
use crate::parse::FileModel;
use crate::{Finding, CHECK_WIRE_PANIC};

const MANIFEST_PATH: &str = "analysis/wire_paths.toml";

/// Macros that abort. `debug_assert*` is deliberately absent: it
/// compiles out of release builds and is the sanctioned way to state
/// encoder-side invariants.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Keywords that may directly precede `[` without it being indexing
/// (`let [a, b] = …`, `for x in [..]`, `return [..]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "break", "continue", "move", "as", "ref", "mut",
    "box", "where", "const", "static", "dyn", "impl", "fn", "use", "pub",
];

pub fn scan_file(model: &FileModel, cfg: &Config, findings: &mut Vec<Finding>) {
    let scopes: Vec<_> = cfg
        .wire_scopes
        .iter()
        .filter(|s| s.matches_file(&model.path))
        .collect();
    if scopes.is_empty() {
        return;
    }
    for func in &model.funcs {
        if func.is_test || !scopes.iter().any(|s| s.matches_fn(&func.qual)) {
            continue;
        }
        scan_body(model, &func.qual, func.body.clone(), findings);
    }
}

/// Reports every scope file that no scanned source matches, and every
/// `functions` pattern that no non-test function of its file matches.
pub fn unmatched_entries(models: &[FileModel], cfg: &Config, findings: &mut Vec<Finding>) {
    let stale = |msg: String| Finding::new(CHECK_WIRE_PANIC, MANIFEST_PATH, 1, msg);
    for scope in &cfg.wire_scopes {
        let file = &scope.file;
        let files: Vec<_> = models
            .iter()
            .filter(|m| scope.matches_file(&m.path))
            .collect();
        if files.is_empty() {
            findings.push(stale(format!(
                "scope file `{file}` matches no scanned source"
            )));
            continue;
        }
        for pat in &scope.functions {
            let funcs = files.iter().flat_map(|m| &m.funcs);
            if !funcs
                .filter(|f| !f.is_test)
                .any(|f| glob_match(pat, &f.qual))
            {
                findings.push(stale(format!(
                    "pattern `{pat}` matches no non-test function of `{file}`"
                )));
            }
        }
    }
}

fn scan_body(
    model: &FileModel,
    qual: &str,
    body: std::ops::Range<usize>,
    findings: &mut Vec<Finding>,
) {
    let toks = &model.tokens;
    for i in body.clone() {
        match &toks[i].kind {
            TokKind::Ident(id)
                if (id == "unwrap" || id == "expect")
                    && i > body.start
                    && toks[i - 1].is_punct('.')
                    && is_punct(toks, i + 1, '(') =>
            {
                findings.push(Finding::new(
                    CHECK_WIRE_PANIC,
                    &model.path,
                    toks[i].line,
                    format!("`{id}()` on the wire path `{qual}`: return Error::Malformed"),
                ));
            }
            TokKind::Ident(id)
                if PANIC_MACROS.contains(&id.as_str()) && is_punct(toks, i + 1, '!') =>
            {
                findings.push(Finding::new(
                    CHECK_WIRE_PANIC,
                    &model.path,
                    toks[i].line,
                    format!("`{id}!` on the wire path `{qual}`"),
                ));
            }
            TokKind::Punct('[') if i > body.start && is_index_expr(&toks[i - 1]) => {
                findings.push(Finding::new(
                    CHECK_WIRE_PANIC,
                    &model.path,
                    toks[i].line,
                    format!("slice indexing on the wire path `{qual}`: use `.get(..)`"),
                ));
            }
            _ => {}
        }
    }
}

fn is_punct(toks: &[Token], i: usize, c: char) -> bool {
    toks.get(i).map(|t| t.is_punct(c)).unwrap_or(false)
}

/// `expr[` is indexing when the previous token ends an expression:
/// a non-keyword identifier, `)`, or `]`. This excludes `#[attr]`,
/// `vec![…]` (previous token `!`), types `&[u8]`, and patterns.
fn is_index_expr(prev: &Token) -> bool {
    match &prev.kind {
        TokKind::Ident(id) => !NON_INDEX_KEYWORDS.contains(&id.as_str()),
        TokKind::Punct(')') | TokKind::Punct(']') => true,
        _ => false,
    }
}
