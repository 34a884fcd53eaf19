//! `compare A.json B.json`: one row per (workload, end-to-end metric),
//! judged against the metric's bound. A is the baseline, B the
//! candidate.

use std::fmt::Write as _;

use crate::catalog::{Better, EndToEnd, END_TO_END};
use crate::report::RunDetail;
use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the baseline by more than the bound (or, for an
    /// exact count, at all).
    Improved,
    /// No worse than the baseline by more than the bound.
    WithinBound,
    /// Worse than the baseline by more than the bound (or, for an exact
    /// count, at all).
    Regressed,
    /// Within the bound, but a run's own spread is wider than the bound:
    /// the runs cannot tell "unchanged" from "changed".
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How far `b` is worse than `a`, as a share of `a` (negative = better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / a.abs()
    }
}

/// The spread of a run's median, estimated from its slices: IQR ÷ √n,
/// as a share of the median.
fn median_spread(s: &Summary) -> f64 {
    s.iqr_share() / (s.n.max(1) as f64).sqrt()
}

/// Judges one metric. `same_inputs` says both runs used one seed: counts
/// then repeat exactly, so a count is compared exactly instead of
/// against its (across-seed) bound.
pub fn judge(m: &EndToEnd, a: &Summary, b: &Summary, same_inputs: bool) -> Verdict {
    let worse = worse_by(a.value, b.value, m.better);
    if m.unit == "count" && same_inputs {
        return match worse {
            w if w > 0.0 => Verdict::Regressed,
            w if w < 0.0 => Verdict::Improved,
            _ => Verdict::WithinBound,
        };
    }
    if worse > m.bound {
        Verdict::Regressed
    } else if -worse > m.bound {
        Verdict::Improved
    } else if median_spread(a).max(median_spread(b)) > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

pub struct Comparison {
    pub table: String,
    /// A regression, or a higher failed share, on any workload.
    pub failed: bool,
    pub unresolved: usize,
}

/// Compares the untraced runs of two result sets, workload by workload.
pub fn compare(a: &[RunDetail], b: &[RunDetail]) -> Comparison {
    let mut table = String::new();
    let mut failed = false;
    let mut unresolved = 0;
    writeln!(
        table,
        "{:<20} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "worse by", "bound"
    )
    .expect("write to String");
    for ra in a.iter().filter(|r| !r.traced) {
        let Some(rb) = b.iter().find(|r| !r.traced && r.workload == ra.workload) else {
            writeln!(table, "{:<20} missing from the candidate", ra.workload)
                .expect("write to String");
            failed = true;
            continue;
        };
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (ra.metric(m.name), rb.metric(m.name)) else {
                continue;
            };
            let verdict = judge(m, sa, sb, ra.seed == rb.seed);
            failed |= verdict == Verdict::Regressed;
            unresolved += usize::from(verdict == Verdict::Unresolved);
            writeln!(
                table,
                "{:<20} {:<14} {:>14.6} {:>14.6} {:>8.1}% {:>6.0}%  {}",
                ra.workload,
                m.name,
                sa.value,
                sb.value,
                worse_by(sa.value, sb.value, m.better) * 100.0,
                m.bound * 100.0,
                verdict.as_str()
            )
            .expect("write to String");
        }
        let (fa, fb) = (ra.failed_share(), rb.failed_share());
        let worse = fb > fa;
        failed |= worse;
        writeln!(
            table,
            "{:<20} {:<14} {:>14.3e} {:>14.3e} {:>9} {:>7}  {}",
            ra.workload,
            "failed_share",
            fa,
            fb,
            "",
            "0%",
            if worse { "REGRESSED" } else { "within bound" }
        )
        .expect("write to String");
    }
    Comparison {
        table,
        failed,
        unresolved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::end_to_end;

    fn timing(median: f64, iqr_share: f64, n: usize) -> Summary {
        Summary {
            value: median,
            median,
            q1: median * (1.0 - iqr_share / 2.0),
            q3: median * (1.0 + iqr_share / 2.0),
            n,
            tail: None,
        }
    }

    #[test]
    fn throughput_verdicts() {
        let m = end_to_end("ops_per_s").unwrap(); // higher is better, bound 25 %
        let base = timing(100_000.0, 0.10, 12);
        assert_eq!(
            judge(m, &base, &timing(130_000.0, 0.10, 12), true),
            Verdict::Improved
        );
        assert_eq!(
            judge(m, &base, &timing(90_000.0, 0.10, 12), true),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(m, &base, &timing(110_000.0, 0.10, 12), true),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(m, &base, &timing(70_000.0, 0.10, 12), true),
            Verdict::Regressed
        );
        // slices so scattered that the median itself is uncertain by
        // more than the bound: 1.2 / sqrt(12) = 35 %
        assert_eq!(
            judge(m, &base, &timing(95_000.0, 1.2, 12), true),
            Verdict::Unresolved
        );
        // a regression stays a regression however noisy
        assert_eq!(
            judge(m, &base, &timing(60_000.0, 1.2, 12), true),
            Verdict::Regressed
        );
    }

    #[test]
    fn latency_is_lower_better() {
        let m = end_to_end("op_p50_us").unwrap();
        let base = timing(50.0, 0.5, 100_000);
        assert_eq!(
            judge(m, &base, &timing(70.0, 0.5, 100_000), false),
            Verdict::Regressed
        );
        assert_eq!(
            judge(m, &base, &timing(30.0, 0.5, 100_000), false),
            Verdict::Improved
        );
        assert_eq!(
            judge(m, &base, &timing(55.0, 0.5, 100_000), false),
            Verdict::WithinBound
        );
    }

    #[test]
    fn a_count_changed_by_one_is_a_verdict_when_inputs_are_the_same() {
        let m = end_to_end("rules_total").unwrap();
        let base = Summary::exact(5_349.0);
        assert_eq!(
            judge(m, &base, &Summary::exact(5_349.0), true),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(m, &base, &Summary::exact(5_350.0), true),
            Verdict::Regressed
        );
        assert_eq!(
            judge(m, &base, &Summary::exact(5_348.0), true),
            Verdict::Improved
        );
        // across seeds the count differs by construction; only the bound applies
        assert_eq!(
            judge(m, &base, &Summary::exact(5_350.0), false),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(m, &base, &Summary::exact(7_000.0), false),
            Verdict::Regressed
        );
    }

    fn detail(workload: &str, ops: f64, failed: u64) -> RunDetail {
        RunDetail {
            workload: workload.into(),
            seed: 7,
            seconds: 24.0,
            traced: false,
            wall_s: 30.0,
            attempted: 1_000,
            failed,
            reasons: Vec::new(),
            metrics: END_TO_END
                .iter()
                .map(|m| {
                    let v = if m.name == "ops_per_s" { ops } else { 10.0 };
                    (m.name.to_string(), timing(v, 0.05, 12))
                })
                .collect(),
            layers: Vec::new(),
        }
    }

    #[test]
    fn compare_fails_on_a_regression_or_a_higher_failed_share() {
        let a = vec![
            detail("metro_churn", 100.0, 0),
            detail("fabric_forward", 100.0, 0),
        ];
        let same = compare(&a, &a);
        assert!(!same.failed && same.unresolved == 0);
        assert_eq!(
            same.table.matches("within bound").count(),
            2 * (END_TO_END.len() + 1)
        );

        let slower = vec![
            detail("metro_churn", 100.0, 0),
            detail("fabric_forward", 60.0, 0),
        ];
        let c = compare(&a, &slower);
        assert!(c.failed);
        assert_eq!(c.table.matches("REGRESSED").count(), 1);

        let failing = vec![
            detail("metro_churn", 100.0, 1),
            detail("fabric_forward", 100.0, 0),
        ];
        assert!(compare(&a, &failing).failed);
        assert!(
            compare(&a, &a[..1]).failed,
            "a workload missing from the candidate"
        );
    }
}
