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
//! Instance interpretation (the paper's wording is ambiguous, and there
//! is no default): `fig7_simulation`, the ablation and the pinned
//! `figure7_counts` point all run [`InstanceChoice::PerClause`], `m`
//! random instances drawn once per clause and shared by every station
//! — "a policy path traverses m randomly chosen middlebox instances".
//! Two alternatives are kept for sensitivity analysis:
//! [`InstanceChoice::NearestPerStation`] draws `m` random *kinds* per
//! clause and lets each station use the nearest instance of each kind
//! (Fig. 3(c)'s regional dispatch, the controller's latency-minimizing
//! selection of §2.2), and [`InstanceChoice::PerStation`] draws fresh
//! instances per station.
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
use softcell_types::{
    AddressingScheme, BaseStationId, Ipv4Prefix, MiddleboxId, MiddleboxKind, Result,
};

/// How middlebox instances are assigned to a clause's paths.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum InstanceChoice {
    /// Each clause names `m` random middlebox *kinds*; every station
    /// uses the nearest instance of each kind, walked greedily from its
    /// access switch (Fig. 3(c)'s regional dispatch, clause traffic of
    /// AS1/AS2 to Transcoder1 and AS3/AS4 to Transcoder2, and the
    /// controller's own latency-minimizing selection of §2.2).
    NearestPerStation,
    /// `m` concrete instances drawn once per clause, shared by all
    /// stations network-wide: what every Figure 7 row runs.
    PerClause,
    /// Fresh random instances per (clause, station) — a stress variant.
    PerStation,
}

/// One Figure 7 data point's configuration.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Figure7Config {
    /// Topology parameter (10k³/4 base stations).
    pub k: usize,
    /// Number of service-policy clauses.
    pub n_clauses: usize,
    /// Middleboxes per policy path.
    pub m_chain: usize,
    /// Instance assignment mode.
    pub choice: InstanceChoice,
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
    // power-of-two blocks (see [`aligned_prefixes`]) looks attractive
    // but *defeats* aggregation — measured 30x worse hot-switch tables —
    // because the padding gaps leave sibling pairs forever incomplete.
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
    each_path(topo, &mut sp, &config, |sp, origin, instances| {
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
    each_path(topo, &mut sp, &config, |_, origin, instances| {
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
    sp: &mut ShortestPaths,
    config: &Figure7Config,
    mut f: impl FnMut(&mut ShortestPaths, BaseStationId, &[MiddleboxId]) -> Result<()>,
) -> Result<()> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let kinds: Vec<MiddleboxKind> = MiddleboxKind::enumerate(topo.middlebox_kinds().count());
    for _clause in 0..config.n_clauses {
        let clause_instances = random_chain(&mut rng, topo, &kinds, config.m_chain);
        let clause_kinds = random_kinds(&mut rng, &kinds, config.m_chain);
        for bs in 0..topo.base_stations().len() {
            let origin = BaseStationId(bs as u32);
            let drawn;
            let instances = match config.choice {
                InstanceChoice::PerClause => &clause_instances,
                InstanceChoice::NearestPerStation => {
                    drawn = nearest_chain(topo, sp, origin, &clause_kinds);
                    &drawn
                }
                InstanceChoice::PerStation => {
                    drawn = random_chain(&mut rng, topo, &kinds, config.m_chain);
                    &drawn
                }
            };
            f(sp, origin, instances)?;
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

/// Power-of-two-padded station prefixes — kept as a documented
/// *negative result*. The intuition (paper §3.1's "operators align IP
/// prefixes with the topology") suggests padding each cluster/pod to a
/// power-of-two id block so every dispatch level is one prefix; in
/// practice the padding gaps mean sibling pairs never complete and
/// upward merging stalls at the sub-cluster level, measuring ~30x worse
/// hot-switch tables than dense cluster-contiguous numbering (which is
/// itself topology-aligned — the generator numbers stations in cluster
/// and pod order). See EXPERIMENTS.md.
pub fn aligned_prefixes(params: &CellularParams) -> Result<(AddressingScheme, Vec<Ipv4Prefix>)> {
    let cluster_stride = params.bs_per_cluster.next_power_of_two();
    let clusters_per_pod = (params.k / 2) * (params.k / 2);
    let pod_stride = (clusters_per_pod * cluster_stride).next_power_of_two();
    let id_space = params.k * pod_stride;

    // the padded id space needs more station bits; UE-id width is not
    // exercised by the rule-count experiments, so give it the minimum
    let carrier = Ipv4Prefix::from_bits(0x0A00_0000, 8);
    let bs_bits = (usize::BITS - (id_space.max(2) - 1).leading_zeros()) as u8;
    let ue_bits = 32 - carrier.len() - bs_bits;
    let scheme = AddressingScheme::new(carrier, bs_bits, ue_bits)?;

    let mut prefixes = Vec::with_capacity(params.base_station_count());
    for bs in 0..params.base_station_count() {
        let cluster = bs / params.bs_per_cluster;
        let pos = bs % params.bs_per_cluster;
        let pod = cluster / clusters_per_pod;
        let cluster_in_pod = cluster % clusters_per_pod;
        let padded = pod * pod_stride + cluster_in_pod * cluster_stride + pos;
        prefixes.push(scheme.base_station_prefix(softcell_types::BaseStationId(padded as u32))?);
    }
    Ok((scheme, prefixes))
}

/// `m` random distinct middlebox kinds.
fn random_kinds(rng: &mut StdRng, kinds: &[MiddleboxKind], m: usize) -> Vec<MiddleboxKind> {
    let m = m.min(kinds.len());
    let mut idx: Vec<usize> = (0..kinds.len()).collect();
    for i in 0..m {
        let j = rng.gen_range(i..idx.len());
        idx.swap(i, j);
    }
    idx[..m].iter().map(|&i| kinds[i]).collect()
}

/// The greedy nearest-instance chain for one station: for each kind in
/// order, the instance closest to the current path cursor.
fn nearest_chain(
    topo: &Topology,
    sp: &mut ShortestPaths,
    origin: BaseStationId,
    kinds: &[MiddleboxKind],
) -> Vec<MiddleboxId> {
    let mut cursor = topo.base_station(origin).access_switch;
    kinds
        .iter()
        .map(|&kind| {
            let mb = *topo
                .instances_of(kind)
                .iter()
                .min_by_key(|&&mb| {
                    sp.distance(cursor, topo.middlebox(mb).switch)
                        .unwrap_or(u32::MAX)
                })
                .expect("every kind is deployed");
            cursor = topo.middlebox(mb).switch;
            mb
        })
        .collect()
}

fn random_chain(
    rng: &mut StdRng,
    topo: &Topology,
    _kinds: &[MiddleboxKind],
    m: usize,
) -> Vec<MiddleboxId> {
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
            choice: InstanceChoice::PerClause,
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
    fn per_station_choice_costs_more() {
        let shared = run(tiny(10, 3)).unwrap();
        let per_station = run(Figure7Config {
            choice: InstanceChoice::PerStation,
            ..tiny(10, 3)
        })
        .unwrap();
        assert!(
            per_station.total_rules > shared.total_rules,
            "random per-station instances defeat sharing: {} vs {}",
            per_station.total_rules,
            shared.total_rules
        );
    }

    #[test]
    fn every_choice_delivers_every_path() {
        // the walk's second pass must draw the instances the install did
        for choice in [
            InstanceChoice::PerClause,
            InstanceChoice::NearestPerStation,
            InstanceChoice::PerStation,
        ] {
            let r = run(Figure7Config {
                choice,
                ..tiny(6, 3)
            })
            .unwrap();
            assert_eq!(r.delivered, r.paths_installed, "{choice:?}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(tiny(5, 3)).unwrap();
        let b = run(tiny(5, 3)).unwrap();
        assert_eq!(a.total_rules, b.total_rules);
        assert_eq!(a.tags_used, b.tags_used);
    }

    #[test]
    fn aligned_prefixes_are_disjoint_and_cluster_blocked() {
        let params = CellularParams::paper(4);
        let (scheme, prefixes) = aligned_prefixes(&params).unwrap();
        assert_eq!(prefixes.len(), params.base_station_count());
        // pairwise disjoint (spot-check adjacent and cross-cluster pairs)
        for w in prefixes.windows(2) {
            assert!(!w[0].overlaps(&w[1]), "{} overlaps {}", w[0], w[1]);
        }
        // the first cluster occupies a 16-id block: station 0 and the
        // first station of cluster 2 differ in the block bits
        let span0 = prefixes[0].network();
        let span_next = prefixes[params.bs_per_cluster].network();
        assert_ne!(span0, span_next);
        let _ = scheme;
    }

    #[test]
    fn chain_has_distinct_instances() {
        let topo = CellularParams::paper(4).build().unwrap();
        let kinds: Vec<MiddleboxKind> = MiddleboxKind::enumerate(topo.middlebox_kinds().count());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let chain = random_chain(&mut rng, &topo, &kinds, 3);
            let mut c = chain.clone();
            c.sort();
            c.dedup();
            assert_eq!(c.len(), chain.len(), "instances must be distinct");
        }
    }
}
