//! Figure 6 — LTE workload characteristics (paper §6.1).
//!
//! The paper plots three CDFs from a proprietary metro trace; this
//! binary regenerates them from the calibrated synthetic model (see
//! `softcell-workload` and DESIGN.md §2):
//!
//! * Fig 6(a): network-wide UE arrivals and handoffs per second
//!   (paper 99.999-pct: 214 and 280);
//! * Fig 6(b): active UEs per base station (paper 99.999-pct: 514);
//! * Fig 6(c): radio-bearer arrivals per second per base station
//!   (paper 99.999-pct: 34).
//!
//! Usage: `fig6_workload [--quick] [--seed N] [--json PATH]`

use serde::Serialize;
use softcell_bench::{arg_value, is_quick, maybe_dump_json, timed, TextTable};
use softcell_workload::{Cdf, MetroModel};

#[derive(Serialize)]
struct SeriesSummary {
    name: String,
    paper_p99999: f64,
    measured_p99999: f64,
    median: f64,
    mean: f64,
    max: f64,
    curve: Vec<(f64, f64)>,
}

#[derive(Serialize)]
struct Output {
    experiment: String,
    seed: u64,
    total_arrivals: u64,
    total_handoffs: u64,
    series: Vec<SeriesSummary>,
}

fn summarize(name: &str, paper: f64, cdf: &Cdf) -> SeriesSummary {
    SeriesSummary {
        name: name.to_string(),
        paper_p99999: paper,
        measured_p99999: cdf.quantile(0.99999),
        median: cdf.median(),
        mean: cdf.mean(),
        max: cdf.max(),
        curve: cdf.curve(20),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg_value(&args, "--seed").unwrap_or(42);
    let model = if is_quick(&args) {
        MetroModel::small(seed)
    } else {
        MetroModel::paper_metro(seed)
    };

    println!(
        "Synthetic metro LTE workload: {} base stations, {} subscribers, one weekday",
        model.base_stations, model.ues
    );
    let (stats, secs) = timed(|| model.generate());
    eprintln!("generated in {secs:.1}s");

    let series = vec![
        summarize(
            "fig6a: UE arrivals/s (network)",
            214.0,
            &stats.ue_arrivals_per_sec,
        ),
        summarize(
            "fig6a: handoffs/s (network)",
            280.0,
            &stats.handoffs_per_sec,
        ),
        summarize(
            "fig6b: active UEs per station",
            514.0,
            &stats.active_per_station,
        ),
        summarize(
            "fig6c: bearer arrivals/s per station",
            34.0,
            &stats.bearers_per_station_sec,
        ),
    ];

    let mut t = TextTable::new(&[
        "series",
        "paper p99.999",
        "measured",
        "median",
        "mean",
        "max",
    ]);
    for s in &series {
        t.row(&[
            s.name.clone(),
            format!("{:.0}", s.paper_p99999),
            format!("{:.0}", s.measured_p99999),
            format!("{:.0}", s.median),
            format!("{:.1}", s.mean),
            format!("{:.0}", s.max),
        ]);
    }
    t.print();
    println!(
        "\nday totals: {} UE arrivals, {} handoffs",
        stats.total_arrivals, stats.total_handoffs
    );

    println!("\nCDF curves (value @ cumulative fraction):");
    for s in &series {
        let pts: Vec<String> = s
            .curve
            .iter()
            .step_by(4)
            .map(|(v, p)| format!("{v:.0}@{p:.2}"))
            .collect();
        println!("  {:45} {}", s.name, pts.join("  "));
    }

    maybe_dump_json(
        &args,
        &Output {
            experiment: "fig6".into(),
            seed,
            total_arrivals: stats.total_arrivals,
            total_handoffs: stats.total_handoffs,
            series,
        },
    );
}
