//! Model test for [`FlowTable`]: random runs of install,
//! remove_matching, peek and lookup against a reference table that
//! keeps its rules in priority order on every write — inserted after
//! the last rule of equal or higher priority, removed by a predicate —
//! which is what `FlowTable` promises from outside while its own
//! columns stay unordered between lookups. `iter()` is priority
//! descending, ties by `RuleId` ascending; `peek` and `lookup` return
//! the first match in that order under [`Match::matches`] (the
//! reference for the compiled words `lookup` scans); hit counters follow
//! rule *ids* (the model is keyed by id) however a re-sort moves rules
//! underneath them; and the private fingerprint column stays in step
//! with the rules (seen from outside: every installed matcher is still
//! found through it). A step looks up only when its draw says so, so
//! runs of writes meet the next lookup unsorted, and removals take the
//! first, the last or a middle rule.

use std::net::Ipv4Addr;

use proptest::prelude::*;
use softcell_dataplane::matcher::Direction;
use softcell_dataplane::{Action, FlowRule, FlowTable, LookupKey, Match, RuleId};
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

/// The reference: rules in priority order, ties in install order (the
/// layout `FlowTable` kept on every write before its writes became
/// pushes and swap-removals), each with its hit counter.
#[derive(Default)]
struct Model {
    rules: Vec<(FlowRule, u64)>,
}

impl Model {
    fn install(&mut self, rule: FlowRule) {
        let at = self
            .rules
            .partition_point(|(r, _)| r.priority >= rule.priority);
        self.rules.insert(at, (rule, 0));
    }

    /// Removes every rule `pred` holds for; returns the removed ids.
    fn remove_where(&mut self, pred: impl Fn(&FlowRule) -> bool) -> Vec<RuleId> {
        let gone = self
            .rules
            .iter()
            .filter(|(r, _)| pred(r))
            .map(|(r, _)| r.id)
            .collect();
        self.rules.retain(|(r, _)| !pred(r));
        gone
    }

    /// The first match in priority order, counted when `hit`.
    fn lookup(&mut self, key: &LookupKey, hit: bool) -> Option<FlowRule> {
        let (rule, hits) = self
            .rules
            .iter_mut()
            .find(|(r, _)| r.matcher.matches(key))?;
        *hits += u64::from(hit);
        Some(*rule)
    }
}

/// Both tables agree after a step: the same rules in the same order,
/// strictly priority descending then id ascending, the same counters
/// (0 for every id removed), and every matcher still found through its
/// key.
fn assert_agree(table: &FlowTable, model: &Model, issued: u64) -> Result<(), TestCaseError> {
    let order: Vec<(u16, RuleId)> = table.iter().map(|r| (r.priority, r.id)).collect();
    prop_assert!(
        order
            .windows(2)
            .all(|w| w[0].0 > w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1)),
        "iter() out of order: {:?}",
        order
    );
    let rules: Vec<FlowRule> = table.iter().copied().collect();
    let expected: Vec<FlowRule> = model.rules.iter().map(|(r, _)| *r).collect();
    prop_assert_eq!(rules, expected);
    prop_assert_eq!(table.len(), order.len());
    for id in (0..issued).map(RuleId) {
        let hits = model
            .rules
            .iter()
            .find(|(r, _)| r.id == id)
            .map_or(0, |(_, h)| *h);
        prop_assert_eq!(table.counter(id), hits, "counter of {:?}", id);
    }
    for rule in table.iter() {
        let same = table.iter().filter(|r| r.matcher == rule.matcher).count();
        prop_assert_eq!(table.clone().remove_matching(&rule.matcher), same);
    }
    Ok(())
}

#[test]
fn a_counter_follows_its_rule_through_a_re_sort() {
    let mut table = FlowTable::new();
    let k = key(0);
    let low = table.install(10, Match::ANY, Action::Drop).unwrap();
    assert_eq!(table.lookup(&k).map(|r| r.id), Some(low));
    // higher-priority rules that `k` misses are pushed behind `low`, and
    // the next lookup sorts them in front of it
    let stray = Match::ANY.with_version(7);
    let high: Vec<RuleId> = (0..3)
        .map(|_| table.install(30, stray, Action::Drop).unwrap())
        .collect();
    assert_eq!(table.lookup(&k).map(|r| r.id), Some(low));
    let ids: Vec<RuleId> = table.iter().map(|r| r.id).collect();
    assert_eq!(ids, [high[0], high[1], high[2], low]);
    assert_eq!(table.counter(low), 2);
    assert!(high.iter().all(|id| table.counter(*id) == 0));
    // a swap-removal moves `low` again; its count goes with it
    assert_eq!(table.remove_matching(&stray), 3);
    assert_eq!(table.counter(low), 2);
    assert_eq!(table.lookup(&k).map(|r| r.id), Some(low));
    assert_eq!(table.counter(low), 3);
}

proptest! {
    #[test]
    fn prop_lookup_is_first_match_and_counters_follow_ids(
        ops in proptest::collection::vec((0u8..7, any::<u64>(), any::<u64>(), any::<bool>()), 1..120),
    ) {
        let mut table = FlowTable::new();
        let mut model = Model::default();
        let mut issued = 0;
        for (op, a, b, look) in ops {
            match op {
                0..=2 => {
                    let (priority, matcher) = (PRIORITIES[b as usize % 3], matcher(a));
                    let action = Action::Forward(PortNo(b as u16));
                    let id = table.install(priority, matcher, action).unwrap();
                    prop_assert_eq!(id, RuleId(issued), "ids are issued in install order");
                    issued += 1;
                    model.install(FlowRule { id, priority, matcher, action });
                }
                3 | 4 => {
                    // the matcher of the first, the last or a middle rule
                    // in priority order: right after a lookup that is its
                    // place in the columns too, so the swap-removal takes
                    // the first, the last or a middle slot
                    let live: Vec<Match> = table.iter().map(|r| r.matcher).collect();
                    let gone = match (live.len(), a % 3) {
                        (0, _) => matcher(a),
                        (_, 0) => live[0],
                        (n, 1) => live[n - 1],
                        (n, _) => live[n / 2],
                    };
                    let doomed = model.remove_where(|r| r.matcher == gone);
                    prop_assert_eq!(table.remove_matching(&gone), doomed.len());
                }
                5 => {
                    // by a matcher drawn from the domain: often absent
                    let gone = matcher(b);
                    let doomed = model.remove_where(|r| r.matcher == gone);
                    prop_assert_eq!(table.remove_matching(&gone), doomed.len());
                }
                _ => {} // lookups only
            }
            // `peek` after every step, sorted or not; `lookup` (which
            // sorts) only when the step's draw says so
            for k in [key(a), key(b)] {
                let expected = model.lookup(&k, false);
                prop_assert_eq!(table.peek(&k).copied(), expected);
                if look || op == 6 {
                    prop_assert_eq!(table.lookup(&k), model.lookup(&k, true));
                }
            }
            assert_agree(&table, &model, issued)?;
        }
    }
}
