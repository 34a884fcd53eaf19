//! Ablation: multi-dimensional aggregation vs. the §3.1 strawmen.
//!
//! Not a paper figure — it quantifies the claim behind Figure 7: that
//! neither flat tag routing ("scales poorly as it enforces flat
//! routing") nor plain location routing (cannot express policies) is a
//! substitute for selective multi-dimensional matching. The same policy
//! paths are fed to:
//!
//! * **Algorithm 1** (this system);
//! * **flat tag routing** — one label per path, one rule per on-path
//!   switch;
//! * **per-flow rules** — flat shape × 10 concurrent flows/path;
//! * **location-only routing** — destination-prefix forwarding with
//!   sibling aggregation (policy-free lower bound).
//!
//! Usage: `ablation_aggregation [--quick] [--json PATH]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use softcell_bench::{is_quick, maybe_dump_json, maybe_dump_telemetry, timed, TextTable};
use softcell_controller::install::Direction;
use softcell_controller::{PathInstaller, TagPolicy};
use softcell_sim::baseline::{per_flow_estimate, FlatTagBaseline, LocationOnlyBaseline};
use softcell_sim::figure7::scheme_for;
use softcell_telemetry::Registry;
use softcell_topology::{CellularParams, PolicyPath, ShortestPaths, SwitchRole};
use softcell_types::{BaseStationId, MiddleboxId, MiddleboxKind};

#[derive(Serialize)]
struct Row {
    system: String,
    max_rules: usize,
    median_rules: usize,
    total_rules: usize,
    expressive: bool,
    /// Paths the finished tables deliver (Algorithm 1's row only).
    delivered: Option<usize>,
}

#[derive(Serialize)]
struct Output {
    experiment: String,
    k: usize,
    clauses: usize,
    m: usize,
    paths: usize,
    rows: Vec<Row>,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = is_quick(&args);
    let (k, n_clauses, m) = if quick { (4, 50, 3) } else { (8, 1000, 5) };

    let topo = CellularParams::paper(k).build().expect("topology");
    let scheme = scheme_for(&topo).expect("scheme");
    let kinds = MiddleboxKind::enumerate(topo.middlebox_kinds().count());
    let gw = topo.default_gateway().switch;
    let mut sp = ShortestPaths::new(&topo);
    let mut rng = StdRng::seed_from_u64(2013);

    // generate the same path stream once
    println!(
        "generating {} paths (k={k}, n={n_clauses}, m={m})...",
        n_clauses * topo.base_stations().len()
    );
    let (paths, secs) = timed(|| {
        let mut out: Vec<PolicyPath> = Vec::new();
        for _ in 0..n_clauses {
            // per-clause random instances (the Figure 7 methodology)
            use rand::Rng;
            let mut kidx: Vec<usize> = (0..kinds.len()).collect();
            for i in 0..m.min(kinds.len()) {
                let j = rng.gen_range(i..kidx.len());
                kidx.swap(i, j);
            }
            let chain: Vec<MiddleboxId> = kidx[..m.min(kinds.len())]
                .iter()
                .map(|&ki| {
                    let insts = topo.instances_of(kinds[ki]);
                    insts[rng.gen_range(0..insts.len())]
                })
                .collect();
            for bs in 0..topo.base_stations().len() {
                out.push(
                    sp.route_policy_path(BaseStationId(bs as u32), &chain, gw)
                        .expect("route"),
                );
            }
        }
        out
    });
    eprintln!("routed in {secs:.1}s");

    // fabric-switch statistics helper
    let fabric_stats = |per_switch: &[usize]| -> (usize, usize, usize) {
        let mut fabric: Vec<usize> = topo
            .switches()
            .iter()
            .filter(|s| s.role != SwitchRole::Access)
            .map(|s| per_switch[s.id.index()])
            .collect();
        fabric.sort_unstable();
        (
            *fabric.last().unwrap_or(&0),
            fabric[fabric.len() / 2],
            per_switch.iter().sum(),
        )
    };

    // 1. Algorithm 1, then every path walked through its finished tables
    let (ins, secs) = timed(|| {
        let mut ins = PathInstaller::new(&topo, scheme, TagPolicy::default());
        let tags: Vec<_> = (paths.iter())
            .map(|p| {
                ins.install_path(p, Direction::Downlink)
                    .expect("install")
                    .entry_tag()
            })
            .collect();
        (ins, tags)
    });
    eprintln!("algorithm 1 in {secs:.1}s");
    let (ins, tags) = ins;
    let tables = ins.shadows(Direction::Downlink);
    let delivers = |(p, &tag): (&PolicyPath, _)| {
        let prefix = scheme
            .base_station_prefix(p.origin)
            .expect("station prefix");
        let mut chain = p.middleboxes();
        chain.reverse();
        tables.delivers(gw, tag, prefix, p.access_switch(), &chain)
    };
    let a_delivered = paths.iter().zip(&tags).filter(|&x| delivers(x)).count();
    let (a_max, a_med, a_tot) = fabric_stats(&tables.rule_counts());

    // 2. flat tags
    let mut flat = FlatTagBaseline::new(&topo);
    for p in &paths {
        flat.install(p);
    }
    let (f_max, f_med, f_tot) = fabric_stats(flat.counts().per_switch());

    // 3. per-flow (flat × 10)
    let pf = per_flow_estimate(flat.counts(), 10);
    let (pf_max, pf_med, pf_tot) = fabric_stats(pf.per_switch());

    // 4. location-only
    let mut loc = LocationOnlyBaseline::new(&topo, scheme);
    for p in &paths {
        loc.install(p).expect("loc install");
    }
    let lc = loc.counts();
    let (l_max, l_med, l_tot) = fabric_stats(lc.per_switch());

    let rows = vec![
        Row {
            system: "SoftCell (Algorithm 1)".into(),
            max_rules: a_max,
            median_rules: a_med,
            total_rules: a_tot,
            expressive: true,
            delivered: Some(a_delivered),
        },
        Row {
            system: "flat tag per path".into(),
            max_rules: f_max,
            median_rules: f_med,
            total_rules: f_tot,
            expressive: true,
            delivered: None,
        },
        Row {
            system: "per-flow rules (x10)".into(),
            max_rules: pf_max,
            median_rules: pf_med,
            total_rules: pf_tot,
            expressive: true,
            delivered: None,
        },
        Row {
            system: "location-only routing".into(),
            max_rules: l_max,
            median_rules: l_med,
            total_rules: l_tot,
            expressive: false,
            delivered: None,
        },
    ];

    println!(
        "\n== Aggregation ablation (k={k}, {} paths) ==",
        paths.len()
    );
    let mut t = TextTable::new(&[
        "system",
        "max/switch",
        "median",
        "total",
        "policies?",
        "delivered",
    ]);
    for r in &rows {
        t.row(&[
            r.system.clone(),
            r.max_rules.to_string(),
            r.median_rules.to_string(),
            r.total_rules.to_string(),
            if r.expressive { "yes" } else { "NO" }.to_string(),
            r.delivered.map_or("-".into(), |d| d.to_string()),
        ]);
    }
    t.print();

    maybe_dump_json(
        &args,
        &Output {
            experiment: "ablation-aggregation".into(),
            k,
            clauses: n_clauses,
            m,
            paths: paths.len(),
            rows,
        },
    );
    maybe_dump_telemetry(&args, &Registry::global().snapshot());
}
