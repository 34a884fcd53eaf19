//! Model test for [`FlowTable`]: random interleavings of install, remove,
//! remove_where, remove_matching and lookup against what a table
//! promises — `lookup` is "first match in `iter()` order", hit counters
//! follow rule *ids* (the model is a map keyed by id) however rules shift
//! position underneath them, `remove_matching(&m)` is
//! `remove_where(|r| r.matcher == m)`, and the private fingerprint column
//! stays in step with the rules (seen from outside: every installed
//! matcher is still found through it).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use softcell_dataplane::matcher::Direction;
use softcell_dataplane::{Action, FlowTable, LookupKey, Match, RuleId};
use softcell_packet::{build_flow_packet, FiveTuple, HeaderView, Protocol};
use softcell_types::{Ipv4Prefix, PolicyTag, PortEmbedding, PortNo};

/// Few priorities, so equal-priority neighbours are the common case.
const PRIORITIES: [u16; 3] = [10, 20, 30];
const PREFIXES: [&str; 3] = ["10.0.0.0/8", "10.0.0.0/23", "10.0.2.0/23"];
const ADDRS: [Ipv4Addr; 4] = [
    Ipv4Addr::new(10, 0, 0, 5),
    Ipv4Addr::new(10, 0, 2, 5),
    Ipv4Addr::new(10, 9, 0, 1),
    Ipv4Addr::new(11, 0, 0, 1),
];

/// Decodes a matcher from a small domain (so lookups often hit several
/// rules): `ANY`, tag, prefix or tag+prefix, optionally in-port-qualified
/// and/or version-gated.
fn matcher(bits: u32) -> Match {
    let e = PortEmbedding::default_embedding();
    let dir = if bits & 1 == 0 {
        Direction::Uplink
    } else {
        Direction::Downlink
    };
    let tag = PolicyTag((bits >> 1) as u16 % 3 + 1);
    let prefix: Ipv4Prefix = PREFIXES[(bits >> 3) as usize % 3].parse().unwrap();
    let mut m = match (bits >> 5) % 4 {
        0 => Match::ANY,
        1 => Match::tag(dir, tag, &e),
        2 => Match::prefix(dir, prefix),
        _ => Match::tag_and_prefix(dir, tag, prefix, &e),
    };
    if (bits >> 7).is_multiple_of(3) {
        m = m.from_port(PortNo((bits >> 9) as u16 % 2 + 1));
    }
    if (bits >> 10).is_multiple_of(3) {
        m = m.with_version((bits >> 12) % 2);
    }
    m
}

fn key(bits: u32) -> LookupKey {
    let e = PortEmbedding::default_embedding();
    let port = |b: u32| e.encode(PolicyTag(b as u16 % 4 + 1), 3).unwrap();
    let tuple = FiveTuple {
        src: ADDRS[bits as usize % 4],
        dst: ADDRS[(bits >> 2) as usize % 4],
        src_port: port(bits >> 4),
        dst_port: port(bits >> 6),
        proto: Protocol::Tcp,
    };
    LookupKey {
        in_port: PortNo((bits >> 8) as u16 % 3 + 1),
        view: HeaderView::parse(&build_flow_packet(tuple, 64, 0, &[])).unwrap(),
        version: (bits >> 10) % 3,
    }
}

proptest! {
    #[test]
    fn prop_lookup_is_first_match_and_counters_follow_ids(
        ops in proptest::collection::vec((0u8..9, any::<u32>(), any::<u32>()), 1..120),
    ) {
        let mut table = FlowTable::new();
        // every id ever issued -> expected counter; `None` once removed
        let mut model: HashMap<RuleId, Option<u64>> = HashMap::new();
        for (op, a, b) in ops {
            match op {
                0..=2 => {
                    let id = table
                        .install(PRIORITIES[b as usize % 3], matcher(a), Action::Forward(PortNo(b as u16)))
                        .unwrap();
                    prop_assert!(model.insert(id, Some(0)).is_none(), "rule id reused");
                }
                3 => {
                    let live: Vec<RuleId> = table.iter().map(|r| r.id).collect();
                    if live.is_empty() {
                        prop_assert!(table.remove(RuleId(u64::from(a))).is_err());
                    } else {
                        let id = live[a as usize % live.len()];
                        prop_assert_eq!(table.remove(id).unwrap().id, id);
                        prop_assert!(table.remove(id).is_err(), "removed twice");
                        model.insert(id, None);
                    }
                }
                4 => {
                    // by exact matcher, as `RuleOp::Remove` does: the same
                    // table — ids, order, counters, keys — and the same
                    // count as the predicate form leaves on a clone
                    let gone = matcher(a);
                    let doomed: Vec<RuleId> =
                        table.iter().filter(|r| r.matcher == gone).map(|r| r.id).collect();
                    let mut twin = table.clone();
                    prop_assert_eq!(twin.remove_where(|r| r.matcher == gone), doomed.len());
                    prop_assert_eq!(table.remove_matching(&gone), doomed.len());
                    prop_assert_eq!(format!("{table:?}"), format!("{twin:?}"));
                    for id in doomed {
                        model.insert(id, None);
                    }
                }
                5 => {
                    // by a predicate that is not a matcher comparison
                    let priority = PRIORITIES[a as usize % 3];
                    let doomed: Vec<RuleId> =
                        table.iter().filter(|r| r.priority == priority).map(|r| r.id).collect();
                    prop_assert_eq!(table.remove_where(|r| r.priority == priority), doomed.len());
                    for id in doomed {
                        model.insert(id, None);
                    }
                }
                _ => {
                    let k = key(a);
                    let expected = table.iter().find(|r| r.matcher.matches(&k)).copied();
                    prop_assert_eq!(table.peek(&k).copied(), expected);
                    prop_assert_eq!(table.lookup(&k), expected);
                    if let Some(rule) = expected {
                        *model.get_mut(&rule.id).unwrap().as_mut().unwrap() += 1;
                    }
                }
            }
            // priority order, ties to the earlier install
            let order: Vec<(u16, RuleId)> = table.iter().map(|r| (r.priority, r.id)).collect();
            prop_assert!(order.windows(2).all(|w| w[0].0 > w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1)));
            prop_assert_eq!(order.len(), model.values().flatten().count());
            prop_assert_eq!(table.len(), order.len());
            // only the winner's counter moved; a removed rule reads 0
            for (id, hits) in &model {
                prop_assert_eq!(table.counter(*id), hits.unwrap_or(0), "counter of {:?}", id);
            }
            // keys in step: whatever the step moved, each rule is still
            // found through its key, at every priority it sits at
            for rule in table.iter() {
                let same = table.iter().filter(|r| r.matcher == rule.matcher).count();
                prop_assert_eq!(table.clone().remove_matching(&rule.matcher), same);
            }
        }
    }
}
