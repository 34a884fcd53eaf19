//! `path_install_storm`: Algorithm 1 as a cold bulk install — the
//! paper's §6.3 method. Every clause's policy path from every station,
//! through `route_policy_path` + `install_path`, into large shadow
//! tables. No mobility, no tickets, no data plane. Single thread.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use softcell_controller::install::Direction;
use softcell_controller::shadow::{Entry, NextHop, ShadowSwitch};
use softcell_controller::{PathInstaller, TagPolicy};
use softcell_sim::figure7::scheme_for;
use softcell_topology::{CellularParams, ShortestPaths, SwitchRole, Topology};
use softcell_types::{BaseStationId, Ipv4Prefix, MiddleboxId, PolicyTag, Result, SwitchId};

use super::{
    harness_metrics, iterate_for, peak_rss_mb, shuffle, timed_setup, Checks, Metric, Outcome,
    RuleCounts, RunArgs, UnitTimes,
};
use crate::span::{by_layer, durations_us, Tracer};
use crate::stats::{percentile, Summary};

/// Topology parameter: `paper(6)` has 540 stations.
const K: usize = 6;
const STATIONS: usize = 540;
const CLAUSES: usize = 100;
const CHAIN: usize = 5;
/// Set-ups timed at the head of every iteration (0.1 ms each).
const SETUPS_PER_ITERATION: usize = 10;

pub struct Setup {
    pub topo: Topology,
    topology_build_s: f64,
}

pub fn setup() -> Setup {
    let t = Instant::now();
    let topo = CellularParams::paper(K).build().expect("paper(6) topology");
    Setup {
        topo,
        topology_build_s: t.elapsed().as_secs_f64(),
    }
}

/// Seed of the clause chains. They are the same on every run: how many
/// rules a set of chains needs varies by ±20 % from one random set to
/// the next, and the work per path with it. The run's seed decides the
/// order in which the same paths arrive.
const CHAIN_SEED: u64 = 2013;

/// `m` distinct middlebox instances drawn from the whole deployment
/// (§6.3: "a policy path traverses m randomly chosen middlebox
/// instances"), one chain per clause.
fn clause_chains(topo: &Topology) -> Vec<Vec<MiddleboxId>> {
    let mut rng = StdRng::seed_from_u64(CHAIN_SEED);
    let total = topo.middlebox_count();
    (0..CLAUSES)
        .map(|_| {
            let mut idx: Vec<usize> = (0..total).collect();
            for i in 0..CHAIN.min(total) {
                let j = rng.gen_range(i..total);
                idx.swap(i, j);
            }
            idx[..CHAIN.min(total)]
                .iter()
                .map(|&i| MiddleboxId(i as u32))
                .collect()
        })
        .collect()
}

/// The install order: clause by clause as in §6.3, the clauses in a
/// seeded order, each clause's stations ascending from a seeded start
/// (sibling stations stay adjacent, which is what aggregation feeds on).
pub fn arrival_order(topo: &Topology, seed: u64) -> Vec<(Vec<MiddleboxId>, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chains = clause_chains(topo);
    shuffle(&mut chains, &mut rng);
    chains
        .into_iter()
        .map(|chain| (chain, rng.gen_range(0..STATIONS)))
        .collect()
}

struct StormTotals {
    /// Seconds each clause's 540 paths took, in arrival order.
    clause_s: Vec<f64>,
    swap_rules: usize,
    /// Over the fabric (non-access) switches, as Fig. 7 counts them.
    fabric: RuleCounts,
    rules_total: usize,
    tags_used: usize,
}

/// One bulk install: `figure7::run_on`'s loop (route, then install, per
/// clause and station) written out against the public API, so that the
/// arrival order is the harness's to choose and each call can carry a
/// span. With a disabled tracer this is the untraced run.
fn drive(
    topo: &Topology,
    order: &[(Vec<MiddleboxId>, usize)],
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Result<StormTotals> {
    let mut installer = PathInstaller::new(
        topo,
        scheme_for(topo)?,
        TagPolicy {
            capacity: u16::MAX,
            ..TagPolicy::default()
        },
    );
    let mut sp = ShortestPaths::new(topo);
    let gw = topo.default_gateway().switch;
    let mut swap_rules = 0;
    let mut req = 0u64;
    let mut clause_s = Vec::with_capacity(order.len());
    for (chain, first) in order {
        let t = Instant::now();
        for bs in (0..STATIONS).map(|i| (first + i) % STATIONS) {
            req += 1;
            let r = tr.scope("storm.path", req, |tr| -> Result<usize> {
                let path = tr.scope("topology.route_policy_path", req, |_| {
                    sp.route_policy_path(BaseStationId(bs as u32), chain, gw)
                })?;
                let report = tr.scope("install.install_path", req, |_| {
                    installer.install_path(&path, Direction::Downlink)
                })?;
                Ok(report.swap_rules)
            });
            swap_rules += checks.ok("install path", r).unwrap_or(0);
        }
        clause_s.push(t.elapsed().as_secs_f64());
    }
    let shadows = installer.shadows(Direction::Downlink);
    let rules = |fabric_only: bool| {
        RuleCounts::of(
            topo.switches()
                .iter()
                .filter(|sw| !fabric_only || sw.role != SwitchRole::Access)
                .map(|sw| shadows.switch(sw.id).rule_count())
                .collect(),
        )
    };
    Ok(StormTotals {
        clause_s,
        swap_rules,
        fabric: rules(true),
        rules_total: rules(false).total,
        tags_used: installer.tags_in_use(),
    })
}

/// Rule and tag counts of one install: they must repeat exactly from
/// iteration to iteration.
fn counts(t: &StormTotals) -> (usize, RuleCounts, usize, usize) {
    (t.rules_total, t.fabric, t.tags_used, t.swap_rules)
}

/// Installs `order` once and returns `(rules network-wide, tags used)`.
#[cfg(test)]
pub fn install_counts(topo: &Topology, order: &[(Vec<MiddleboxId>, usize)]) -> (usize, usize) {
    let t = drive(topo, order, &mut Tracer::disabled(), &mut Checks::default()).unwrap();
    (t.rules_total, t.tags_used)
}

pub fn run(args: &RunArgs) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let mut checks = Checks::default();
    let mut setup_times = Vec::new();
    let mut s = timed_setup(1, &mut setup_times, setup);
    let order = arrival_order(&s.topo, args.seed);

    // a clause's 540 paths are one unit: the same work every iteration,
    // and 12 ms of it instead of an iteration's 1.4 s
    let mut units = UnitTimes::new(order.len());
    let mut first: Option<StormTotals> = None;
    iterate_for(args.seconds, || {
        s = timed_setup(SETUPS_PER_ITERATION, &mut setup_times, setup);
        let mut path_checks = Checks::default();
        let t = Instant::now();
        let r = drive(&s.topo, &order, &mut Tracer::disabled(), &mut path_checks);
        let secs = t.elapsed().as_secs_f64();
        checks.absorb(path_checks);
        if let Some(totals) = checks.ok("bulk install", r) {
            for (clause, &s) in totals.clause_s.iter().enumerate() {
                units.record(clause, s);
            }
            match &first {
                None => first = Some(totals),
                Some(f) => checks.check(counts(f) == counts(&totals), || {
                    format!(
                        "counts moved between iterations: {:?} then {:?}",
                        counts(f),
                        counts(&totals)
                    )
                }),
            }
        }
        secs
    });

    // each clause at its quiet time: an install is their sum, and the
    // median clause gives the time of one path
    let paths = (CLAUSES * STATIONS) as f64;
    let quiet = units.quiet();
    let rates: Vec<f64> = units.pass_times().iter().map(|t| paths / t).collect();
    let per_op_us: Vec<f64> = quiet.iter().map(|t| t * 1e6 / STATIONS as f64).collect();
    let (rules_total, tags_used) = first.map_or((0, 0), |f| (f.rules_total, f.tags_used));
    Outcome {
        checks,
        metrics: vec![
            Metric::quiet("setup_s", &setup_times),
            Metric::estimated("ops_per_s", paths / quiet.iter().sum::<f64>(), &rates),
            Metric::sampled("op_p50_us", &per_op_us),
            Metric::exact("peak_rss_mb", peak_rss_mb()),
            Metric::exact("rules_total", rules_total as f64),
            Metric::exact("tags_used", tags_used as f64),
        ],
        spans: Vec::new(),
    }
}

/// The `microbench.rs` aggregation cascade: a default pointing
/// elsewhere, then 512 sibling /23 overrides that merge into one /14.
fn aggregate_512(checks: &mut Checks) -> f64 {
    let t = Instant::now();
    let mut s = ShadowSwitch::new();
    s.install(
        Entry::Ingress,
        PolicyTag(1),
        Ipv4Prefix::from_bits(0x0B00_0000, 23),
        NextHop::Switch(SwitchId(1)),
    );
    for i in 0..512u32 {
        s.install(
            Entry::Ingress,
            PolicyTag(1),
            Ipv4Prefix::from_bits(0x0A00_0000 | (i << 9), 23),
            NextHop::Switch(SwitchId(7)),
        );
    }
    let us = t.elapsed().as_secs_f64() * 1e6;
    checks.check(s.rule_count() == 2, || {
        format!(
            "512 siblings aggregated into {} rules, expected 2",
            s.rule_count()
        )
    });
    us
}

fn run_traced(args: &RunArgs) -> Outcome {
    let mut checks = Checks::default();
    let s = timed_setup(5, &mut Vec::new(), setup);
    let order = arrival_order(&s.topo, args.seed);
    let mut metrics = vec![Metric::exact("topology.build_s", s.topology_build_s)];

    let epoch = Instant::now();
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut tracer = Tracer::disabled();
    let mut totals = None;
    iterate_for(args.seconds * 0.9, || {
        let t = Instant::now();
        let r = drive(&s.topo, &order, &mut Tracer::disabled(), &mut checks);
        let plain = t.elapsed().as_secs_f64();
        plain_s.push(plain);
        checks.ok("per-call drive", r);

        tracer = Tracer::new(epoch, 0);
        let t = Instant::now();
        let r = drive(&s.topo, &order, &mut tracer, &mut checks);
        let traced = t.elapsed().as_secs_f64();
        traced_s.push(traced);
        totals = checks.ok("per-call drive", r);
        plain + traced
    });
    let (plain, traced) = (Summary::of(&plain_s), Summary::of(&traced_s));
    if let Some(t) = totals {
        metrics.push(Metric::exact("install.swap_rules", t.swap_rules as f64));
        metrics.push(Metric::exact("shadow.rules_total", t.rules_total as f64));
        metrics.push(Metric::exact("shadow.rules_max", t.fabric.max as f64));
        metrics.push(Metric::exact("shadow.rules_median", t.fabric.median as f64));
    }

    let mut cascade = Vec::new();
    iterate_for(args.seconds * 0.1, || {
        let us = aggregate_512(&mut checks);
        cascade.push(us);
        us / 1e6
    });
    metrics.push(Metric::sampled("shadow.aggregate_512_us", &cascade));

    let spans = tracer.into_spans();
    metrics.extend(harness_metrics(
        traced.median / plain.median,
        &plain,
        &spans,
    ));
    let layers = by_layer(&spans);
    let us = |name: &str| durations_us(&layers, name);
    metrics.push(Metric::sampled(
        "topology.route_policy_path_us",
        &us("topology.route_policy_path"),
    ));
    let install = us("install.install_path");
    metrics.push(Metric::sampled("install.install_path_us", &install));
    metrics.push(Metric::exact(
        "install.install_path_p99_us",
        percentile(&install, 99.0),
    ));
    Outcome {
        checks,
        metrics,
        spans,
    }
}
