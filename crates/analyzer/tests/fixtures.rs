//! The violation-fixture corpus: every check must produce exactly the
//! expected findings, with correct file:line spans, on known-bad
//! snippets — and nothing on the false-positive regression file.

use std::path::PathBuf;

use softcell_analyzer::config::{Config, MetricsManifest, WireScope};
use softcell_analyzer::parse::FileModel;
use softcell_analyzer::{analyze_models, analyze_paths};

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Config mirroring the real manifests' shape, scoped to the corpus:
/// declared order engine → a_lock → b_lock, `engine` is the sequencer,
/// every fixture's `decode` is a wire path, and the atomics audit
/// covers the files that exercise it.
fn fixture_config() -> Config {
    let wire_files = [
        "wire_unwrap.rs",
        "wire_index.rs",
        "wire_macro.rs",
        "suppressed_ok.rs",
        "suppress_no_reason.rs",
        "false_positive.rs",
    ];
    Config {
        lock_order: vec!["engine".into(), "a_lock".into(), "b_lock".into()],
        sequencer_locks: vec!["engine".into()],
        wire_scopes: wire_files
            .iter()
            .map(|f| WireScope {
                file: (*f).to_string(),
                functions: vec!["decode".into()],
            })
            .collect(),
        atomics_files: vec![
            "atomics_relaxed.rs".into(),
            "suppressed_ok.rs".into(),
            "false_positive.rs".into(),
        ],
        metrics_manifest: None,
    }
}

/// Runs one fixture; returns its (check, line, suppressed) findings,
/// dropping global (manifest-level) findings not tied to the file.
fn run(file: &str) -> Vec<(String, u32, bool)> {
    let analysis = analyze_paths(&fixtures_root(), &[file.to_string()], &fixture_config());
    assert_eq!(analysis.files_scanned, 1, "fixture {file} must exist");
    analysis
        .findings
        .iter()
        .filter(|f| f.file == file)
        .map(|f| (f.check.to_string(), f.line, f.suppressed))
        .collect()
}

fn expect(file: &str, want: &[(&str, u32)]) {
    let got = run(file);
    let unsuppressed: Vec<(String, u32)> = got
        .iter()
        .filter(|(_, _, s)| !s)
        .map(|(c, l, _)| (c.clone(), *l))
        .collect();
    let want: Vec<(String, u32)> = want.iter().map(|(c, l)| (c.to_string(), *l)).collect();
    assert_eq!(unsuppressed, want, "fixture {file}: findings mismatch");
}

#[test]
fn lock_cycle_reports_violation_and_cycle() {
    expect("lock_cycle.rs", &[("lock-order", 16), ("lock-order", 16)]);
}

#[test]
fn lock_undeclared_nesting() {
    expect("lock_undeclared.rs", &[("lock-order", 8)]);
}

#[test]
fn lock_reacquisition() {
    expect("lock_reacquire.rs", &[("lock-order", 8)]);
}

#[test]
fn seq_block_on_recv() {
    expect("seq_recv.rs", &[("seq-block", 8)]);
}

#[test]
fn seq_block_on_sleep_and_nested_lock() {
    expect("seq_sleep.rs", &[("seq-block", 9), ("seq-block", 10)]);
}

#[test]
fn seq_block_on_yield_and_spin_polling() {
    expect("seq_yield.rs", &[("seq-block", 13), ("seq-block", 14)]);
}

#[test]
fn seq_block_under_a_guard_taken_with_try_lock() {
    expect("seq_try_lock.rs", &[("seq-block", 11)]);
}

#[test]
fn wire_unwrap_and_expect_in_scope_only() {
    expect("wire_unwrap.rs", &[("wire-panic", 4), ("wire-panic", 5)]);
}

#[test]
fn wire_indexing_without_bracket_false_positives() {
    expect(
        "wire_index.rs",
        &[("wire-panic", 9), ("wire-panic", 10), ("wire-panic", 10)],
    );
}

#[test]
fn wire_panic_macros_except_debug_assert() {
    expect("wire_macro.rs", &[("wire-panic", 6), ("wire-panic", 8)]);
}

#[test]
fn atomics_relaxed_outside_tests() {
    expect("atomics_relaxed.rs", &[("atomics-order", 7)]);
}

#[test]
fn telemetry_naming_and_suffix() {
    expect(
        "telemetry_bad.rs",
        &[("telemetry", 4), ("telemetry", 5), ("telemetry", 6)],
    );
}

#[test]
fn telemetry_kind_conflict() {
    expect(
        "telemetry_conflict.rs",
        &[("telemetry", 5), ("telemetry", 5)],
    );
}

#[test]
fn reasoned_suppressions_silence_findings() {
    let got = run("suppressed_ok.rs");
    let unsuppressed: Vec<_> = got.iter().filter(|(_, _, s)| !s).collect();
    let suppressed: Vec<_> = got.iter().filter(|(_, _, s)| *s).collect();
    assert!(unsuppressed.is_empty(), "unexpected: {unsuppressed:?}");
    assert_eq!(suppressed.len(), 3, "got: {suppressed:?}");
}

#[test]
fn suppression_without_reason_does_not_suppress() {
    expect(
        "suppress_no_reason.rs",
        &[("suppression", 4), ("wire-panic", 4)],
    );
}

#[test]
fn false_positive_regressions_stay_clean() {
    expect("false_positive.rs", &[]);
}

#[test]
fn span_guard_flags_manual_pairs_only() {
    expect("span_pairs.rs", &[("span-guard", 5), ("span-guard", 7)]);
}

#[test]
fn metrics_manifest_drift_both_directions() {
    let model = FileModel::parse(
        "m.rs",
        "fn f(r: &Registry) { let c = r.counter(\"softcell_fixture_a_total\"); c.inc(); }",
    );
    let cfg = Config {
        metrics_manifest: Some(MetricsManifest {
            counters: vec!["softcell_fixture_gone_total".into()],
            gauges: vec![],
            histograms: vec![],
        }),
        ..Config::default()
    };
    let analysis = analyze_models(&[model], &cfg);
    let msgs: Vec<&str> = analysis
        .unsuppressed()
        .map(|f| {
            assert_eq!(f.check, "telemetry");
            assert_eq!(f.file, "analysis/metrics_manifest.toml");
            f.msg.as_str()
        })
        .collect();
    assert_eq!(msgs.len(), 2, "{msgs:?}");
    assert!(
        msgs.iter()
            .any(|m| m.contains("softcell_fixture_a_total")
                && m.contains("missing from the manifest"))
    );
    assert!(msgs
        .iter()
        .any(|m| m.contains("softcell_fixture_gone_total") && m.contains("no longer registered")));
}
