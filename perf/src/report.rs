//! What a run reports and how: the human-readable table, the driver's
//! one-line result, and the detail record `--all` and `compare` read.

use std::fmt::Write as _;

use crate::catalog::{self, END_TO_END, PER_LAYER};
use crate::json::{obj, Value};
use crate::span::{by_layer, Span};
use crate::stats::Summary;
use crate::workloads::Outcome;

/// One layer's share of a traced run.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerRow {
    pub name: String,
    pub calls: u64,
    pub self_ms: f64,
    /// Self time as a share of all recorded self time.
    pub share: f64,
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug, PartialEq)]
pub struct RunDetail {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
    /// Every catalogued metric of the run's kind, in catalogue order; a
    /// layer this workload does not exercise reads 0 with `n == 0`.
    pub metrics: Vec<(String, Summary)>,
    pub layers: Vec<LayerRow>,
}

impl RunDetail {
    pub fn new(
        workload: &str,
        seed: u64,
        seconds: f64,
        traced: bool,
        wall_s: f64,
        out: &Outcome,
    ) -> RunDetail {
        let names: Vec<&str> = if traced {
            PER_LAYER.iter().map(|l| l.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let metrics = names
            .into_iter()
            .map(|name| {
                let summary = out
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map_or_else(not_measured, |m| m.summary.clone());
                (name.to_string(), summary)
            })
            .collect();
        for m in &out.metrics {
            debug_assert!(
                catalog::unit_of(m.name).is_some(),
                "{} is not catalogued",
                m.name
            );
            debug_assert!(
                PER_LAYER
                    .iter()
                    .all(|l| l.name != m.name || l.on == workload || l.on == catalog::ALL),
                "{} is not a layer of {workload}",
                m.name
            );
        }
        RunDetail {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            wall_s,
            attempted: out.checks.attempted,
            failed: out.checks.failed,
            reasons: out.checks.reasons.clone(),
            metrics,
            layers: layer_rows(&out.spans),
        }
    }

    /// A run is correct when nothing it verified failed, it verified
    /// something, and every number it reports is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|(_, s)| s.value.is_finite())
            && (self.traced || self.metrics.iter().all(|(_, s)| s.value > 0.0))
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn metric(&self, name: &str) -> Option<&Summary> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// The driver's result line: `correct`, `attempted`, `failed`,
    /// `metrics`, nothing else.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, s)| {
                let unit = catalog::unit_of(name).unwrap_or("");
                (
                    name.clone(),
                    obj([
                        ("value", Value::Num(s.value)),
                        ("unit", Value::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .render()
    }

    /// Every metric by name with unit, reported value, median, quartiles
    /// and `n`.
    pub fn table(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "== {} ({}) seed {} — {:.0} s timed, {:.1} s wall; {} operations verified, {} failed (share {:.2e})",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.seed,
            self.seconds,
            self.wall_s,
            self.attempted,
            self.failed,
            self.failed_share(),
        )
        .expect("write to String");
        for r in &self.reasons {
            writeln!(out, "   FAILED: {r}").expect("write to String");
        }
        if let Some(w) = catalog::workload(&self.workload) {
            writeln!(out, "   {}", w.why).expect("write to String");
        }
        writeln!(
            out,
            "   {:<34} {:>6} {:>14} {:>14} {:>14} {:>14} {:>8}  better; tail; should move",
            "metric", "unit", "value", "median", "q1", "q3", "n"
        )
        .expect("write to String");
        for (name, s) in &self.metrics {
            if s.n == 0 {
                continue; // a layer this workload does not touch
            }
            let mut notes = vec![catalog::better_of(name)
                .map_or("", |b| b.as_str())
                .to_string()];
            if let Some((p, v)) = s.tail {
                notes.push(format!("p{p} {}", sig(v)));
            }
            if let Some(l) = PER_LAYER.iter().find(|l| l.name == name) {
                notes.push(format!("-> {}", l.moves));
            }
            let notes = notes.join("; ");
            writeln!(
                out,
                "   {:<34} {:>6} {:>14} {:>14} {:>14} {:>14} {:>8}  {notes}",
                name,
                catalog::unit_of(name).unwrap_or(""),
                sig(s.value),
                sig(s.median),
                sig(s.q1),
                sig(s.q3),
                s.n
            )
            .expect("write to String");
        }
        if !self.layers.is_empty() {
            writeln!(out, "   layer self time (span minus covered children):")
                .expect("write to String");
            for l in &self.layers {
                writeln!(
                    out,
                    "     {:<34} {:>10} calls {:>12.3} ms {:>6.1} %",
                    l.name,
                    l.calls,
                    l.self_ms,
                    l.share * 100.0
                )
                .expect("write to String");
            }
        }
        out
    }

    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, s)| {
                let (tail_pct, tail) = s.tail.unwrap_or((0.0, 0.0));
                (
                    name.clone(),
                    obj([
                        (
                            "unit",
                            Value::Str(catalog::unit_of(name).unwrap_or("").into()),
                        ),
                        ("value", Value::Num(s.value)),
                        ("median", Value::Num(s.median)),
                        ("q1", Value::Num(s.q1)),
                        ("q3", Value::Num(s.q3)),
                        ("n", Value::Num(s.n as f64)),
                        ("tail_pct", Value::Num(tail_pct)),
                        ("tail", Value::Num(tail)),
                    ]),
                )
            })
            .collect();
        let layers = self
            .layers
            .iter()
            .map(|l| {
                obj([
                    ("name", Value::Str(l.name.clone())),
                    ("calls", Value::Num(l.calls as f64)),
                    ("self_ms", Value::Num(l.self_ms)),
                    ("share", Value::Num(l.share)),
                ])
            })
            .collect();
        obj([
            ("workload", Value::Str(self.workload.clone())),
            ("seed", Value::Num(self.seed as f64)),
            ("seconds", Value::Num(self.seconds)),
            ("traced", Value::Bool(self.traced)),
            ("wall_s", Value::Num(self.wall_s)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "reasons",
                Value::Arr(self.reasons.iter().cloned().map(Value::Str).collect()),
            ),
            ("metrics", Value::Obj(metrics)),
            ("layers", Value::Arr(layers)),
        ])
    }

    pub fn from_json(v: &Value) -> Result<RunDetail, String> {
        let num = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing number `{k}`"))
        };
        let text = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string `{k}`"))
        };
        let metrics = v
            .get("metrics")
            .ok_or("missing `metrics`")?
            .fields()
            .iter()
            .map(|(name, m)| {
                let tail_pct = num(m, "tail_pct")?;
                Ok((
                    name.clone(),
                    Summary {
                        value: num(m, "value")?,
                        median: num(m, "median")?,
                        q1: num(m, "q1")?,
                        q3: num(m, "q3")?,
                        n: num(m, "n")? as usize,
                        tail: (tail_pct > 0.0).then_some((tail_pct, num(m, "tail")?)),
                    },
                ))
            })
            .collect::<Result<_, String>>()?;
        let layers = v
            .get("layers")
            .map(Value::as_array)
            .unwrap_or_default()
            .iter()
            .map(|l| {
                Ok(LayerRow {
                    name: text(l, "name")?,
                    calls: num(l, "calls")? as u64,
                    self_ms: num(l, "self_ms")?,
                    share: num(l, "share")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(RunDetail {
            workload: text(v, "workload")?,
            seed: num(v, "seed")? as u64,
            seconds: num(v, "seconds")?,
            traced: matches!(v.get("traced"), Some(Value::Bool(true))),
            wall_s: num(v, "wall_s")?,
            attempted: num(v, "attempted")? as u64,
            failed: num(v, "failed")? as u64,
            reasons: v
                .get("reasons")
                .map(Value::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(|r| r.as_str().map(str::to_string))
                .collect(),
            metrics,
            layers,
        })
    }
}

fn not_measured() -> Summary {
    Summary {
        n: 0,
        ..Summary::exact(0.0)
    }
}

fn layer_rows(spans: &[Span]) -> Vec<LayerRow> {
    let layers = by_layer(spans);
    let total: u64 = layers.values().map(|l| l.self_ns).sum();
    let mut rows: Vec<LayerRow> = layers
        .into_iter()
        .map(|(name, l)| LayerRow {
            name: name.to_string(),
            calls: l.calls,
            self_ms: l.self_ns as f64 / 1e6,
            share: l.self_ns as f64 / total.max(1) as f64,
        })
        .collect();
    rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
    rows
}

/// Six significant digits: enough to read, short enough to line up.
fn sig(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e5 {
        format!("{v:.0}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workloads::{Checks, Metric};

    fn outcome() -> Outcome {
        let mut checks = Checks::default();
        checks.passed(1000);
        Outcome {
            checks,
            metrics: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, m)| Metric::sampled(m.name, &[1.0 + i as f64, 2.0 + i as f64, 4.0]))
                .collect(),
            spans: Vec::new(),
        }
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys_and_every_metric() {
        let d = RunDetail::new("metro_churn", 7, 24.0, false, 30.0, &outcome());
        let line = d.contract_line();
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let names: Vec<&str> = v
            .get("metrics")
            .unwrap()
            .fields()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        let setup = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn a_failure_or_a_zero_end_to_end_metric_is_not_correct() {
        let mut out = outcome();
        out.checks.fail(|| "boom".into());
        let d = RunDetail::new("metro_churn", 7, 24.0, false, 30.0, &out);
        assert!(!d.correct());
        assert!(d.contract_line().contains("\"correct\":false"));
        assert!(d.table().contains("FAILED: boom"));

        let mut out = outcome();
        out.metrics.pop(); // tags_used missing → reads 0
        assert!(!RunDetail::new("metro_churn", 7, 24.0, false, 30.0, &out).correct());
    }

    #[test]
    fn traced_runs_list_every_layer_metric_and_round_trip_through_json() {
        let mut out = outcome();
        out.metrics = vec![Metric::sampled("packet.parse_ns", &[9.0; 120])];
        let d = RunDetail::new("fabric_forward", 11, 24.0, true, 30.0, &out);
        assert!(d.correct(), "unmeasured layers read 0 and are fine");
        assert_eq!(d.metrics.len(), PER_LAYER.len());
        assert_eq!(d.metric("packet.parse_ns").unwrap().n, 120);
        assert_eq!(d.metric("ctlchan.echo_rtt_us").unwrap().n, 0);
        let back = RunDetail::from_json(&json::parse(&d.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn sig_keeps_six_digits() {
        assert_eq!(sig(188_234.53), "188235");
        assert_eq!(sig(4.58401), "4.58401");
        assert_eq!(sig(0.000_412_345_6), "0.000412346");
        assert_eq!(sig(0.0), "0");
    }
}
