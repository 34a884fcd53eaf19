//! Atomics-ordering audit: in cross-thread handshake modules
//! (`analysis/atomics.toml`), any `Ordering::Relaxed` (or a bare
//! imported `Relaxed`) in non-test code is flagged. Relaxed is only
//! legitimate for pure counters that no thread reads to make a
//! happens-before decision — such sites carry an in-place
//! `softcell-lint: allow(atomics-order) -- pure counter …` suppression
//! so the exception is visible in diffs.
//!
//! A listed file that matches no scanned source is itself a finding: a
//! module that moved or went would otherwise drop out of the audit
//! without a word.

use crate::config::Config;
use crate::lexer::TokKind;
use crate::parse::FileModel;
use crate::{Finding, CHECK_ATOMICS};

const MANIFEST_PATH: &str = "analysis/atomics.toml";

/// Whether the manifest entry `file` names the source at `path`.
fn audits(file: &str, path: &str) -> bool {
    path == file || path.ends_with(file)
}

pub fn scan_file(model: &FileModel, cfg: &Config, findings: &mut Vec<Finding>) {
    if !cfg.atomics_files.iter().any(|f| audits(f, &model.path)) {
        return;
    }
    for func in &model.funcs {
        if func.is_test {
            continue;
        }
        for i in func.body.clone() {
            if let TokKind::Ident(id) = &model.tokens[i].kind {
                if id == "Relaxed" {
                    findings.push(Finding::new(
                        CHECK_ATOMICS,
                        &model.path,
                        model.tokens[i].line,
                        "Ordering::Relaxed in a cross-thread handshake module: use \
                         Acquire/Release (or suppress as a pure counter)"
                            .to_string(),
                    ));
                }
            }
        }
    }
}

/// Reports every listed file that no scanned source matches.
pub fn unmatched_entries(models: &[FileModel], cfg: &Config, findings: &mut Vec<Finding>) {
    for file in &cfg.atomics_files {
        if !models.iter().any(|m| audits(file, &m.path)) {
            findings.push(Finding::new(
                CHECK_ATOMICS,
                MANIFEST_PATH,
                1,
                format!("`{file}` matches no scanned source"),
            ));
        }
    }
}
