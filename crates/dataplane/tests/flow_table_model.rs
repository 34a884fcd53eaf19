//! Model test for [`FlowTable`]: random interleavings of install, remove,
//! remove_where, remove_matching and lookup against what a table
//! promises — `lookup` is "first match in `iter()` order" under
//! [`Match::matches`] (the reference for the compiled words `lookup`
//! scans), hit counters follow rule *ids* (the model is a map keyed by
//! id) however rules shift position underneath them,
//! `remove_matching(&m)` is `remove_where(|r| r.matcher == m)`, and the
//! private fingerprint column stays in step with the rules (seen from
//! outside: every installed matcher is still found through it). Every
//! step ends with a lookup, so each mutator runs on a table whose
//! compiled column is filled and is followed by a lookup that reads it.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use softcell_dataplane::matcher::Direction;
use softcell_dataplane::{Action, FlowTable, LookupKey, Match, RuleId};
use softcell_packet::{build_flow_packet, FiveTuple, HeaderView, Protocol};
use softcell_types::{Ipv4Prefix, PolicyTag, PortEmbedding, PortNo};

/// Few priorities, so equal-priority neighbours are the common case.
const PRIORITIES: [u16; 3] = [10, 20, 30];
/// /0 and /32 among them, the /32 on one of `ADDRS`.
const PREFIXES: [&str; 5] = [
    "0.0.0.0/0",
    "10.0.0.0/8",
    "10.0.0.0/23",
    "10.0.2.0/23",
    "10.0.0.5/32",
];
const ADDRS: [Ipv4Addr; 4] = [
    Ipv4Addr::new(10, 0, 0, 5),
    Ipv4Addr::new(10, 0, 2, 5),
    Ipv4Addr::new(10, 9, 0, 1),
    Ipv4Addr::new(11, 0, 0, 1),
];
/// The flow slot of every key's ports: odd, so bit 0 is set.
const SLOT: u16 = 3;

/// Reads one random draw as mixed-radix digits.
struct Draw(u64);

impl Draw {
    /// The next digit, in `0..n`.
    fn pick(&mut self, n: u64) -> u64 {
        let digit = self.0 % n;
        self.0 /= n;
        digit
    }

    fn proto(&mut self) -> Protocol {
        [Protocol::Tcp, Protocol::Udp][self.pick(2) as usize]
    }
}

/// Decodes a matcher from a small domain (so lookups often hit several
/// rules): `ANY`, tag, prefix or tag+prefix, optionally with the other
/// side's prefix too, a port value with a bit outside its mask (such a
/// match fires on nothing), a protocol, an in-port and a version.
fn matcher(bits: u64) -> Match {
    let e = PortEmbedding::default_embedding();
    let mut d = Draw(bits);
    let dir = [Direction::Uplink, Direction::Downlink][d.pick(2) as usize];
    let tag = PolicyTag(d.pick(3) as u16 + 1);
    let prefix = |d: &mut Draw| -> Ipv4Prefix { PREFIXES[d.pick(5) as usize].parse().unwrap() };
    let mut m = match d.pick(4) {
        0 => Match::ANY,
        1 => Match::tag(dir, tag, &e),
        2 => Match::prefix(dir, prefix(&mut d)),
        _ => Match::tag_and_prefix(dir, tag, prefix(&mut d), &e),
    };
    if d.pick(3) == 0 {
        let other = Some(prefix(&mut d));
        match dir {
            Direction::Uplink => m.dst_prefix = other,
            Direction::Downlink => m.src_prefix = other,
        }
    }
    if d.pick(8) == 0 {
        // bit 0 lies outside the tag mask, and every key has it set
        let (value, mask) = e.tag_match(tag);
        assert_eq!(mask & 1, 0);
        let stray = Some((value | 1, mask));
        match d.pick(2) {
            0 => m.src_port = stray,
            _ => m.dst_port = stray,
        }
    }
    if d.pick(3) == 0 {
        m.proto = Some(d.proto());
    }
    if d.pick(3) == 0 {
        m = m.from_port(PortNo(d.pick(2) as u16 + 1));
    }
    if d.pick(3) == 0 {
        m = m.with_version(d.pick(2) as u32);
    }
    m
}

/// A TCP or UDP key over `ADDRS`, tagged ports, three in-ports and three
/// versions.
fn key(bits: u64) -> LookupKey {
    let e = PortEmbedding::default_embedding();
    let mut d = Draw(bits);
    let port = |d: &mut Draw| e.encode(PolicyTag(d.pick(4) as u16 + 1), SLOT).unwrap();
    let tuple = FiveTuple {
        src: ADDRS[d.pick(4) as usize],
        dst: ADDRS[d.pick(4) as usize],
        src_port: port(&mut d),
        dst_port: port(&mut d),
        proto: d.proto(),
    };
    LookupKey {
        in_port: PortNo(d.pick(3) as u16 + 1),
        view: HeaderView::parse(&build_flow_packet(tuple, 64, 0, &[])).unwrap(),
        // the third agrees with version 1 in its low 16 bits only
        version: [0, 1, 0x1_0001][d.pick(3) as usize],
    }
}

proptest! {
    #[test]
    fn prop_lookup_is_first_match_and_counters_follow_ids(
        ops in proptest::collection::vec((0u8..7, any::<u64>(), any::<u64>()), 1..120),
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
                        prop_assert!(table.remove(RuleId(a)).is_err());
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
                _ => {} // lookups only
            }
            // a lookup after every step: the compiled scan against
            // `Match::matches`, on whatever the step left behind
            for k in [key(a), key(b)] {
                let expected = table.iter().find(|r| r.matcher.matches(&k)).copied();
                prop_assert_eq!(table.peek(&k).copied(), expected);
                prop_assert_eq!(table.lookup(&k), expected);
                if let Some(rule) = expected {
                    *model.get_mut(&rule.id).unwrap().as_mut().unwrap() += 1;
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
