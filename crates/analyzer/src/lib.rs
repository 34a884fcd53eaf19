//! softcell-analyzer: workspace static analysis for the invariants the
//! compiler cannot see (DESIGN.md §12).
//!
//! Five checks, all token-stream passes over a hand-rolled lexer (the
//! build is offline — no `syn`):
//!
//! | check          | invariant                                              |
//! |----------------|--------------------------------------------------------|
//! | `lock-order`   | nested guard acquisitions follow `analysis/lock_order.toml` |
//! | `seq-block`    | nothing blocks while the Algorithm-1 engine guard is live |
//! | `wire-panic`   | decode/serve scopes never panic on attacker input      |
//! | `atomics-order`| no `Ordering::Relaxed` in handshake modules            |
//! | `telemetry`    | metric names: snake_case, suffix-typed, manifested     |
//! | `span-guard`   | tracing spans are RAII, never `span_start`/`span_end` pairs |
//!
//! Suppression: `// softcell-lint: allow(<check>) -- <reason>` on the
//! offending line (or the comment line directly above it). A
//! suppression without a written reason does not suppress — it is
//! itself reported (`suppression`), so every exception in the tree
//! carries its justification.

pub mod checks;
pub mod config;
pub mod lexer;
pub mod parse;
pub mod walk;

use std::path::Path;

use config::{Config, MetricsManifest};
use parse::FileModel;

pub const CHECK_LOCK_ORDER: &str = "lock-order";
pub const CHECK_SEQ_BLOCK: &str = "seq-block";
pub const CHECK_WIRE_PANIC: &str = "wire-panic";
pub const CHECK_ATOMICS: &str = "atomics-order";
pub const CHECK_TELEMETRY: &str = "telemetry";
pub const CHECK_SPAN_GUARD: &str = "span-guard";
pub const CHECK_SUPPRESSION: &str = "suppression";

pub const ALL_CHECKS: &[&str] = &[
    CHECK_LOCK_ORDER,
    CHECK_SEQ_BLOCK,
    CHECK_WIRE_PANIC,
    CHECK_ATOMICS,
    CHECK_TELEMETRY,
    CHECK_SPAN_GUARD,
];

#[derive(Debug, Clone)]
pub struct Finding {
    pub check: &'static str,
    pub file: String,
    pub line: u32,
    pub msg: String,
    /// Set during post-processing when an in-source allow covers it.
    pub suppressed: bool,
}

impl Finding {
    pub fn new(check: &'static str, file: &str, line: u32, msg: String) -> Finding {
        Finding {
            check,
            file: file.to_string(),
            line,
            msg,
            suppressed: false,
        }
    }

    pub fn render(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.check, self.msg)
    }
}

/// Result of one full analysis run.
pub struct Analysis {
    pub findings: Vec<Finding>,
    /// Metric names observed in code, for `--write-metrics-manifest`.
    pub observed_metrics: MetricsManifest,
    pub files_scanned: usize,
}

impl Analysis {
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.suppressed)
    }
}

/// Analyzes the given relative paths under `root` with `cfg`.
pub fn analyze_paths(root: &Path, rel_paths: &[String], cfg: &Config) -> Analysis {
    let mut models = Vec::new();
    for rel in rel_paths {
        let Ok(src) = std::fs::read_to_string(root.join(rel)) else {
            continue;
        };
        models.push(FileModel::parse(rel, &src));
    }
    analyze_models(&models, cfg)
}

/// Walks `root` and analyzes everything (the CI entry point).
pub fn analyze_root(root: &Path, cfg: &Config) -> Analysis {
    analyze_paths(root, &walk::source_files(root), cfg)
}

pub fn analyze_models(models: &[FileModel], cfg: &Config) -> Analysis {
    let mut findings = Vec::new();
    let mut edges = Vec::new();
    let mut sites = Vec::new();
    for model in models {
        edges.extend(checks::locks::scan_file(model, cfg, &mut findings));
        checks::wire::scan_file(model, cfg, &mut findings);
        checks::atomics::scan_file(model, cfg, &mut findings);
        checks::span_guard::scan_file(model, &mut findings);
        checks::telemetry::collect_sites(model, &mut sites);
        suppression_hygiene(model, &mut findings);
    }
    checks::wire::unmatched_entries(models, cfg, &mut findings);
    checks::atomics::unmatched_entries(models, cfg, &mut findings);
    checks::locks::validate_edges(&edges, cfg, &mut findings);
    let observed_metrics = checks::telemetry::validate(&sites, cfg, &mut findings);

    // Apply in-source suppressions (reasoned allows only).
    for f in &mut findings {
        if f.check == CHECK_SUPPRESSION {
            continue;
        }
        if let Some(model) = models.iter().find(|m| m.path == f.file) {
            if model.is_suppressed(f.check, f.line) {
                f.suppressed = true;
            }
        }
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.check, &a.msg).cmp(&(&b.file, b.line, b.check, &b.msg))
    });
    Analysis {
        findings,
        observed_metrics,
        files_scanned: models.len(),
    }
}

/// Every suppression must name known checks and carry a reason.
fn suppression_hygiene(model: &FileModel, findings: &mut Vec<Finding>) {
    for s in &model.suppressions {
        if s.reason.is_none() {
            findings.push(Finding::new(
                CHECK_SUPPRESSION,
                &model.path,
                s.comment_line,
                "suppression without a reason: write `allow(<check>) -- <why>`".to_string(),
            ));
        }
        for c in &s.checks {
            if !ALL_CHECKS.contains(&c.as_str()) {
                findings.push(Finding::new(
                    CHECK_SUPPRESSION,
                    &model.path,
                    s.comment_line,
                    format!("unknown check `{c}` in suppression"),
                ));
            }
        }
    }
}
