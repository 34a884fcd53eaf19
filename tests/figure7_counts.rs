//! Figure 7's counts, pinned: one small data point of the §6.3 sweep
//! (`PerClause` instances, the binary's seed) must give exactly these
//! rule, tag and swap counts. Algorithm 1's tag choice and rule
//! placement decide every one of them, so a change that moves any rule
//! anywhere fails here — in a debug build, in seconds, where the full
//! `fig7_simulation` sweep takes minutes in release.
//!
//! Only a change that means to re-baseline Figure 7 may edit the
//! numbers below, and it re-runs `fig7_simulation` and the ablation and
//! records what moved in EXPERIMENTS.md. Type 2 defaults in
//! port-qualified tables (taken where nothing else of the tag crosses
//! the switch: its unqualified table is empty and it has not deferred
//! there) are the latest: median 65 → 61, max 1 434 → 688, total
//! 11 860 → 7 485, swap rules 12 995 → 3 523.
//!
//! Counts alone would pass tables made small by making them wrong, so
//! every installed path must also still deliver once all are in: walked
//! through the finished tables from the gateway, it reaches its station
//! through its middleboxes.

use softcell::sim::figure7::{run, Figure7Config};

#[test]
fn a_small_figure7_point_keeps_its_counts() {
    let r = run(Figure7Config {
        k: 6,
        n_clauses: 60,
        m_chain: 5,
        seed: 2013,
        tag_capacity: u16::MAX,
    })
    .expect("figure 7 point");
    let counts = (
        r.paths_installed,
        r.median_rules,
        r.max_rules,
        r.total_rules,
        r.tags_used,
        r.swap_rules,
    );
    // (paths, median, max, total rules, tags, swap rules)
    assert_eq!(counts, (32_400, 61, 688, 7_485, 72, 3_523));
    assert_eq!(
        r.delivered, r.paths_installed,
        "every installed path delivers"
    );
    // the class split partitions the rules it splits
    assert_eq!(r.classes_total.total(), r.total_rules);
    assert_eq!(r.classes_max.total(), r.max_rules);
}
