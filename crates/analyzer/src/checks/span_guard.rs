//! Span-guard discipline: tracing spans must be RAII.
//!
//! The tracer's contract is that a span closes when its [`Span`] guard
//! drops — there is no `span_start`/`span_end` pair to forget, so a
//! panic, early `return`, or `?` can never leak an open span. This
//! check flags any *call* to a `span_start` or `span_end` function in
//! non-test code: manually paired span bookkeeping reintroduces exactly
//! the leak the guard design removed. The RAII forms — `span(..)`,
//! `span_in(..)`, `root(..)` — and the single-call forms
//! `record_span(..)` (a cross-thread wait) and `instant(..)` (a
//! lifecycle event): one atomic record each, nothing left open — stay
//! clean.

use crate::lexer::TokKind;
use crate::parse::FileModel;
use crate::{Finding, CHECK_SPAN_GUARD};

pub fn scan_file(model: &FileModel, findings: &mut Vec<Finding>) {
    for func in &model.funcs {
        if func.is_test {
            continue;
        }
        for i in func.body.clone() {
            let TokKind::Ident(id) = &model.tokens[i].kind else {
                continue;
            };
            if id != "span_start" && id != "span_end" {
                continue;
            }
            // only calls: an identifier immediately followed by `(`
            // (field names or doc text in macros stay clean)
            if !model.tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                continue;
            }
            // a declaration site (`fn span_start(..)`) is not a call
            if i > func.body.start && model.tokens[i - 1].ident() == Some("fn") {
                continue;
            }
            findings.push(Finding::new(
                CHECK_SPAN_GUARD,
                &model.path,
                model.tokens[i].line,
                format!(
                    "manually paired `{id}(..)`: spans are RAII guards — open with \
                     `tracer.span(..)`/`span_in(..)`/`root(..)` and let the guard drop \
                     (cross-thread waits use the single-call `record_span`)"
                ),
            ));
        }
    }
}
