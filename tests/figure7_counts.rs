//! Figure 7's counts, pinned: one small data point of the §6.3 sweep
//! (`PerClause` instances, the binary's seed) must give exactly these
//! rule, tag and swap counts. Algorithm 1's tag choice and rule
//! placement decide every one of them, so a change that moves any rule
//! anywhere fails here — in a debug build, in seconds, where the full
//! `fig7_simulation` sweep takes minutes in release.
//!
//! Only a change that means to re-baseline Figure 7 may edit the
//! numbers below, and it re-runs `fig7_simulation` and the ablation and
//! records what moved in EXPERIMENTS.md. The location stage (§7's
//! Type 3 rules on each path's last leg) is the latest: median 159 →
//! 65, total 43 190 → 13 549.
//!
//! Counts alone would pass tables made small by making them wrong, so
//! every installed path must also still deliver once all are in: walked
//! through the finished tables from the gateway, it reaches its station
//! through its middleboxes.

use softcell::sim::figure7::{run, Figure7Config, InstanceChoice};

#[test]
fn a_small_figure7_point_keeps_its_counts() {
    let r = run(Figure7Config {
        k: 6,
        n_clauses: 60,
        m_chain: 5,
        choice: InstanceChoice::PerClause,
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
    assert_eq!(counts, (32_400, 65, 1_726, 13_549, 72, 13_175));
    assert_eq!(
        r.delivered, r.paths_installed,
        "every installed path delivers"
    );
}
