//! Figure 7 — large-scale simulation of switch table sizes (paper §6.3).
//!
//! Usage:
//! ```text
//! fig7_simulation [a|b|c|all] [--quick] [--json PATH]
//! ```
//!
//! * `a` — table size vs. number of policy clauses (k=8, m=5,
//!   n ∈ 1000..8000). Paper: median 1214 / max 1697 at n=1000; linear
//!   growth with slope < 2.
//! * `b` — table size vs. policy-path length (k=8, n=1000, m ∈ 4..8).
//!   Paper: max 1934 at m=8; linear with small slope.
//! * `c` — table size vs. network size (n=1000, m=5,
//!   k ∈ {8,10,12,14,16,18,20} → 1280..20000 stations). Paper: table
//!   size *decreases* as the network grows.
//!
//! `--quick` runs a reduced sweep (k=4/6, n scaled down) for smoke
//! testing; absolute numbers then differ but every trend must still
//! hold. The default sweeps use a subset of the paper's x-axis points
//! (this reproduction runs on one core); `--full` runs every point.

use serde::Serialize;
use softcell_bench::{is_quick, maybe_dump_json, maybe_dump_telemetry, timed, TextTable};
use softcell_sim::figure7::{run, run_on, Figure7Config, InstanceChoice};
use softcell_sim::Figure7Result;
use softcell_telemetry::Registry;
use softcell_topology::CellularParams;

#[derive(Serialize)]
struct Output {
    experiment: String,
    quick: bool,
    rows: Vec<Figure7Result>,
}

fn base(quick: bool) -> Figure7Config {
    Figure7Config {
        k: if quick { 4 } else { 8 },
        n_clauses: if quick { 100 } else { 1000 },
        m_chain: 5,
        choice: InstanceChoice::PerClause,
        seed: 2013,
        tag_capacity: u16::MAX,
    }
}

fn print_rows(title: &str, rows: &[Figure7Result]) {
    println!("\n== {title} ==");
    let mut t = TextTable::new(&[
        "k",
        "stations",
        "clauses",
        "m",
        "paths",
        "median",
        "max",
        "mean",
        "tags",
        "swaps",
        "delivered",
    ]);
    for r in rows {
        t.row(&[
            r.config.k.to_string(),
            r.base_stations.to_string(),
            r.config.n_clauses.to_string(),
            r.config.m_chain.to_string(),
            r.paths_installed.to_string(),
            r.median_rules.to_string(),
            r.max_rules.to_string(),
            format!("{:.1}", r.mean_rules),
            r.tags_used.to_string(),
            r.swap_rules.to_string(),
            r.delivered.to_string(),
        ]);
    }
    t.print();
}

fn sweep_a(quick: bool, full: bool) -> Vec<Figure7Result> {
    let cfg = base(quick);
    let topo = CellularParams::paper(cfg.k).build().expect("topology");
    let ns: Vec<usize> = if quick {
        vec![50, 100, 200]
    } else if full {
        vec![1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000]
    } else {
        vec![1000, 2000, 4000, 8000]
    };
    // Note: each n is run independently (fresh installer), as the paper
    // sweeps configurations, not an incremental deployment.
    ns.into_iter()
        .map(|n| {
            let (r, secs) = timed(|| {
                run_on(
                    &topo,
                    Figure7Config {
                        n_clauses: n,
                        ..cfg
                    },
                )
                .expect("run")
            });
            eprintln!("fig7a n={n}: {secs:.1}s");
            r
        })
        .collect()
}

fn sweep_b(quick: bool) -> Vec<Figure7Result> {
    let cfg = base(quick);
    let topo = CellularParams::paper(cfg.k).build().expect("topology");
    (4..=8)
        .map(|m| {
            let (r, secs) =
                timed(|| run_on(&topo, Figure7Config { m_chain: m, ..cfg }).expect("run"));
            eprintln!("fig7b m={m}: {secs:.1}s");
            r
        })
        .collect()
}

fn sweep_c(quick: bool, full: bool) -> Vec<Figure7Result> {
    let cfg = base(quick);
    let ks: Vec<usize> = if quick {
        vec![4, 6, 8]
    } else if full {
        vec![8, 10, 12, 14, 16, 18, 20]
    } else {
        vec![8, 12, 16, 20]
    };
    ks.into_iter()
        .map(|k| {
            let (r, secs) = timed(|| run(Figure7Config { k, ..cfg }).expect("run"));
            eprintln!("fig7c k={k}: {secs:.1}s");
            r
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = is_quick(&args);
    let full = args.iter().any(|a| a == "--full");
    let which = args
        .iter()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .unwrap_or("all");

    if which == "point" {
        // a single configurable data point: fig7_simulation point --k 8 --n 500 --m 5
        let cfg = Figure7Config {
            k: softcell_bench::arg_value(&args, "--k").unwrap_or(8),
            n_clauses: softcell_bench::arg_value(&args, "--n").unwrap_or(1000),
            m_chain: softcell_bench::arg_value(&args, "--m").unwrap_or(5),
            ..base(false)
        };
        let (r, secs) = timed(|| run(cfg).expect("run"));
        eprintln!("point: {secs:.1}s");
        print_rows("single point", &[r]);
        return;
    }

    let mut all_rows = Vec::new();
    if which == "a" || which == "all" {
        let rows = sweep_a(quick, full);
        print_rows(
            "Figure 7(a): table size vs number of policy clauses (paper: median 1214 / max 1697 @ n=1000, slope < 2)",
            &rows,
        );
        all_rows.extend(rows);
    }
    if which == "b" || which == "all" {
        let rows = sweep_b(quick);
        print_rows(
            "Figure 7(b): table size vs policy-path length (paper: max 1934 @ m=8)",
            &rows,
        );
        all_rows.extend(rows);
    }
    if which == "c" || which == "all" {
        let rows = sweep_c(quick, full);
        print_rows(
            "Figure 7(c): table size vs network size (paper: decreasing)",
            &rows,
        );
        all_rows.extend(rows);
    }

    maybe_dump_json(
        &args,
        &Output {
            experiment: format!("fig7-{which}"),
            quick,
            rows: all_rows,
        },
    );
    maybe_dump_telemetry(&args, &Registry::global().snapshot());
}
