//! The §6.3 large-scale simulation driver (Figure 7).
//!
//! Methodology, reproduced from the paper: build the three-layer
//! synthetic topology for parameter `k` (10k³/4 base stations); deploy
//! `k` middlebox kinds (one instance per kind per pod, two per kind in
//! the core); generate `n` policy clauses, each traversing `m` randomly
//! chosen middlebox instances; instantiate each clause's policy path
//! from *every* base station to the gateway; run the online Algorithm 1
//! over the resulting path stream; report the maximum and median switch
//! flow-table size.
//!
//! Instances: each clause draws `m` random middlebox instances once,
//! and every station's path through that clause shares them — "a
//! policy path traverses m randomly chosen middlebox instances".
//!
//! Paper reference points: n=1000, m=5, k=8 → median 1214 / max 1697
//! rules; table size grows linearly in `n` (slope < 2) and in `m`, and
//! *decreases* with network size `k`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use softcell_controller::install::Direction;
use softcell_controller::{PathInstaller, RuleClasses, ShadowTables, TagPolicy};
use softcell_topology::{CellularParams, ShortestPaths, SwitchRole, Topology};
use softcell_types::{AddressingScheme, BaseStationId, Ipv4Prefix, MiddleboxId, Result};

/// One Figure 7 data point's configuration.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Figure7Config {
    /// Topology parameter (10k³/4 base stations).
    pub k: usize,
    /// Number of service-policy clauses.
    pub n_clauses: usize,
    /// Middleboxes per policy path.
    pub m_chain: usize,
    /// RNG seed.
    pub seed: u64,
    /// Tag space available to the installer.
    pub tag_capacity: u16,
}

/// The measured outcome of one configuration.
#[derive(Clone, Debug, Serialize)]
pub struct Figure7Result {
    /// The configuration.
    pub config: Figure7Config,
    /// Base stations in the topology.
    pub base_stations: usize,
    /// Policy paths installed (n × stations).
    pub paths_installed: usize,
    /// Max rules over fabric switches (aggregation + core + gateway).
    pub max_rules: usize,
    /// Median rules over fabric switches.
    pub median_rules: usize,
    /// Mean rules over fabric switches.
    pub mean_rules: f64,
    /// Max rules including access-layer switches.
    pub max_rules_all: usize,
    /// Total rules network-wide.
    pub total_rules: usize,
    /// Distinct tags consumed.
    pub tags_used: usize,
    /// Tag-swap rules installed (loop disambiguation).
    pub swap_rules: usize,
    /// Installed paths the finished tables deliver: traffic entering the
    /// gateway with the path's entry tag reaches the station's access
    /// switch through the path's middleboxes, in order
    /// ([`ShadowTables::delivers`](softcell_controller::ShadowTables::delivers)).
    pub delivered: usize,
    /// The rules of the fabric switch holding `max_rules`, by class.
    pub classes_max: RuleClasses,
    /// Every switch's rules, by class.
    pub classes_total: RuleClasses,
}

/// The rule classes of the fullest fabric switch (aggregation, core or
/// gateway; the first of equals) and of the whole network.
pub fn rule_classes(topo: &Topology, shadows: &ShadowTables) -> (RuleClasses, RuleClasses) {
    let mut total = RuleClasses::default();
    let mut max = RuleClasses::default();
    for sw in topo.switches() {
        let classes = shadows.switch(sw.id).classes();
        total += classes;
        if sw.role != SwitchRole::Access && classes.total() > max.total() {
            max = classes;
        }
    }
    (max, total)
}

/// Runs one Figure 7 configuration.
pub fn run(config: Figure7Config) -> Result<Figure7Result> {
    let topo = CellularParams::paper(config.k).build()?;
    run_on(&topo, config)
}

/// Runs a configuration on a pre-built topology (lets sweeps share the
/// expensive k=20 build).
pub fn run_on(topo: &Topology, config: Figure7Config) -> Result<Figure7Result> {
    // Dense, cluster-contiguous station numbering (the generator's
    // default) is the best-aggregating assignment: sibling merges work
    // across cluster and pod boundaries. Padding stations to
    // power-of-two blocks looks attractive but *defeats* aggregation —
    // measured 30x worse hot-switch tables (EXPERIMENTS.md) — because
    // the padding gaps leave sibling pairs forever incomplete.
    let scheme = scheme_for(topo)?;
    let mut installer = PathInstaller::new(
        topo,
        scheme,
        TagPolicy {
            capacity: config.tag_capacity,
        },
    );
    let mut sp = ShortestPaths::new(topo);
    let gw = topo.default_gateway().switch;
    let stations = topo.base_stations().len();

    let mut swap_rules = 0usize;
    // each path's entry tag, in install order, for the delivery walk
    let mut entry_tags = Vec::with_capacity(config.n_clauses * stations);
    each_path(topo, &config, |origin, instances| {
        let path = sp.route_policy_path(origin, instances, gw)?;
        let report = installer.install_path(&path, Direction::Downlink)?;
        swap_rules += report.swap_rules;
        entry_tags.push(report.entry_tag());
        Ok(())
    })?;
    let paths_installed = entry_tags.len();

    // every path against the finished tables: later paths must not have
    // redirected earlier ones
    let shadows = installer.shadows(Direction::Downlink);
    let mut tags = entry_tags.into_iter();
    let mut delivered = 0usize;
    let mut chain = Vec::with_capacity(config.m_chain);
    each_path(topo, &config, |origin, instances| {
        let tag = tags.next().expect("one entry tag per installed path");
        let (access, prefix) = (
            topo.base_station(origin).access_switch,
            scheme.base_station_prefix(origin)?,
        );
        // the downlink meets the chain back to front
        chain.clear();
        chain.extend(instances.iter().rev());
        delivered += usize::from(shadows.delivers(gw, tag, prefix, access, &chain));
        Ok(())
    })?;

    // statistics over fabric switches (aggregation + core + gateway) —
    // access switches are software and are reported separately
    let mut fabric: Vec<usize> = Vec::new();
    let mut all_max = 0usize;
    let mut total = 0usize;
    for sw in topo.switches() {
        let rules = shadows.switch(sw.id).rule_count();
        total += rules;
        all_max = all_max.max(rules);
        if sw.role != SwitchRole::Access {
            fabric.push(rules);
        }
    }
    fabric.sort_unstable();
    let median_rules = fabric[fabric.len() / 2];
    let max_rules = *fabric.last().unwrap_or(&0);
    let mean_rules = fabric.iter().sum::<usize>() as f64 / fabric.len().max(1) as f64;
    let (classes_max, classes_total) = rule_classes(topo, shadows);

    Ok(Figure7Result {
        config,
        base_stations: stations,
        paths_installed,
        max_rules,
        median_rules,
        mean_rules,
        max_rules_all: all_max,
        total_rules: total,
        tags_used: installer.tags_in_use(),
        swap_rules,
        delivered,
        classes_max,
        classes_total,
    })
}

/// Calls `f` with every path of a configuration, in install order: its
/// station and middlebox instances. Every call makes the same draws, so
/// a second pass meets the paths the first installed.
fn each_path(
    topo: &Topology,
    config: &Figure7Config,
    mut f: impl FnMut(BaseStationId, &[MiddleboxId]) -> Result<()>,
) -> Result<()> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let kinds = topo.middlebox_kinds().count();
    for _clause in 0..config.n_clauses {
        let instances = random_chain(&mut rng, topo, config.m_chain);
        // A discarded draw of `m` distinct kinds (a partial Fisher–Yates
        // over the kinds): a deleted nearest-instance mode drew them
        // here, and every recorded Figure 7 row and the `figure7_counts`
        // pins come from the RNG stream with this draw in it. Dropping
        // it would move them all.
        for i in 0..config.m_chain.min(kinds) {
            rng.gen_range(i..kinds);
        }
        for bs in 0..topo.base_stations().len() {
            f(BaseStationId(bs as u32), &instances)?;
        }
    }
    Ok(())
}

/// An addressing scheme wide enough for the topology's station count.
pub fn scheme_for(topo: &Topology) -> Result<AddressingScheme> {
    AddressingScheme::sized_for(
        Ipv4Prefix::from_bits(0x0A00_0000, 8),
        topo.base_stations().len(),
        500,
    )
}

fn random_chain(rng: &mut StdRng, topo: &Topology, m: usize) -> Vec<MiddleboxId> {
    // "A policy path traverses m randomly chosen middlebox instances"
    // (§6.3): m distinct instances drawn from the full deployment.
    let total = topo.middlebox_count();
    let m = m.min(total);
    let mut idx: Vec<usize> = (0..total).collect();
    // partial Fisher–Yates for the first m
    for i in 0..m {
        let j = rng.gen_range(i..idx.len());
        idx.swap(i, j);
    }
    idx[..m].iter().map(|&i| MiddleboxId(i as u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down sweep used by tests (k=4 keeps runtime tiny).
    fn tiny(n: usize, m: usize) -> Figure7Config {
        Figure7Config {
            k: 4,
            n_clauses: n,
            m_chain: m,
            seed: 7,
            tag_capacity: u16::MAX,
        }
    }

    #[test]
    fn paths_install_and_tables_stay_small() {
        let r = run(tiny(20, 3)).unwrap();
        assert_eq!(r.base_stations, 160);
        assert_eq!(r.paths_installed, 20 * 160);
        assert!(r.max_rules > 0);
        // the headline property: per-switch state is a small fraction of
        // the path count even at this tiny, concentration-prone scale
        // (k=4 has only 33 fabric switches for 160 stations)
        assert!(
            r.max_rules < r.paths_installed / 5,
            "max {} vs paths {}",
            r.max_rules,
            r.paths_installed
        );
        assert!(r.median_rules <= r.max_rules);
    }

    #[test]
    fn table_size_grows_mildly_with_clauses() {
        let r1 = run(tiny(10, 3)).unwrap();
        let r2 = run(tiny(20, 3)).unwrap();
        assert!(r2.median_rules > r1.median_rules / 2, "grows with n");
        // linear-ish, not quadratic: doubling n at most ~triples tables
        assert!(
            r2.median_rules <= r1.median_rules * 3 + 10,
            "n=10 → {}, n=20 → {}",
            r1.median_rules,
            r2.median_rules
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(tiny(5, 3)).unwrap();
        let b = run(tiny(5, 3)).unwrap();
        assert_eq!(a.total_rules, b.total_rules);
        assert_eq!(a.tags_used, b.tags_used);
    }

    #[test]
    fn chain_has_distinct_instances() {
        let topo = CellularParams::paper(4).build().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let chain = random_chain(&mut rng, &topo, 3);
            let mut c = chain.clone();
            c.sort();
            c.dedup();
            assert_eq!(c.len(), chain.len(), "instances must be distinct");
        }
    }
}
