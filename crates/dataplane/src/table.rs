//! The priority-ordered flow table.
//!
//! One logical table holds all three §7 entry types; priority bands keep
//! Type 1 > Type 2 > Type 3 exactly as the paper's multi-table layout
//! would. [`TableStats`] reports per-type occupancy — the scarce resource
//! Figure 7 measures is TCAM (Type 1) entries, while Type 2/3 can live in
//! cheaper exact-match/LPM memories.

use serde::Serialize;
use std::cmp::Reverse;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault};

use softcell_types::{FxHasher, Result};

use crate::matcher::{LookupKey, Match, RuleType, TcamEntry};
use crate::rule::{Action, FlowRule, RuleId};

/// A switch flow table: rules in priority order, with match counters.
///
/// Writes are O(1) besides the key scan of a removal: `install` pushes
/// and `remove_matching` swap-removes, so the columns below are in no
/// order after a write. The first `lookup` after writes sorts them back
/// in place and compiles the column it scans.
#[derive(Clone, Default)]
pub struct FlowTable {
    /// The rules; by [`rank`] whenever `compiled` is filled.
    rules: Vec<FlowRule>,
    /// `hits[i]` is the match counter of `rules[i]`: kept beside the rule,
    /// not keyed by id, so counting a hit is an indexed add.
    hits: Vec<u64>,
    /// `keys[i]` is [`fingerprint`] of `rules[i].matcher`: removal by
    /// matcher scans these 8 bytes a rule, not the 72-byte rules. Written
    /// only where `rules` and `hits` are (`install`, `remove_matching` and
    /// the sort); lookups never read it.
    keys: Vec<u64>,
    /// Either empty or `compiled[i]` is [`TcamEntry::of`] `rules[i].matcher`
    /// with the columns sorted: the software TCAM `lookup` scans. Every
    /// write only clears it (O(1), so a write-out of many rule ops pays
    /// nothing for it); only `lookup` fills it, on its first call after a
    /// write.
    compiled: Vec<TcamEntry>,
    next_id: u64,
}

/// The columns as stored — in rank order only if a lookup has run since
/// the last write — without the derived `compiled` one.
impl fmt::Debug for FlowTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowTable")
            .field("rules", &self.rules)
            .field("hits", &self.hits)
            .field("keys", &self.keys)
            .field("next_id", &self.next_id)
            .finish_non_exhaustive()
    }
}

/// The Fx hash of a matcher. Collisions are allowed: a key hit is always
/// confirmed with the full `==`.
fn fingerprint(matcher: &Match) -> u64 {
    BuildHasherDefault::<FxHasher>::default().hash_one(matcher)
}

/// A rule's place in priority order: higher priority first, ties to the
/// earlier install (ids are issued in install order). Unique per table.
fn rank(rule: &FlowRule) -> (Reverse<u16>, RuleId) {
    (Reverse(rule.priority), rule.id)
}

/// Occupancy statistics by rule type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct TableStats {
    /// Type 1 (tag+prefix, TCAM) entries.
    pub tag_and_prefix: usize,
    /// Type 2 (tag only, exact match) entries.
    pub tag_only: usize,
    /// Type 3 (prefix only, LPM) entries.
    pub prefix_only: usize,
    /// Everything else.
    pub other: usize,
}

impl TableStats {
    /// Total entries.
    pub fn total(&self) -> usize {
        self.tag_and_prefix + self.tag_only + self.prefix_only + self.other
    }
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Installs a rule, returning its id. The table is unbounded, so this
    /// never fails.
    pub fn install(&mut self, priority: u16, matcher: Match, action: Action) -> Result<RuleId> {
        let id = RuleId(self.next_id);
        self.next_id += 1;
        self.rules.push(FlowRule {
            id,
            priority,
            matcher,
            action,
        });
        self.hits.push(0);
        self.keys.push(fingerprint(&matcher));
        self.compiled.clear();
        let m = crate::metrics::metrics();
        m.rule_installs.inc();
        m.table_occupancy_hwm.record_max(self.rules.len() as u64);
        Ok(id)
    }

    /// Removes every rule whose matcher equals `matcher`, finding them
    /// through `keys`, and returns the count. Each goes by a swap with
    /// the last rule.
    pub fn remove_matching(&mut self, matcher: &Match) -> usize {
        let key = fingerprint(matcher);
        let (mut at, mut removed) = (0, 0);
        while let Some(hit) = self.keys[at..].iter().position(|&k| k == key) {
            at += hit;
            if self.rules[at].matcher == *matcher {
                // the last rule moves here: look at `at` again
                self.rules.swap_remove(at);
                self.hits.swap_remove(at);
                self.keys.swap_remove(at);
                removed += 1;
            } else {
                at += 1;
            }
        }
        self.compiled.clear();
        crate::metrics::metrics().rule_removals.add(removed as u64);
        removed
    }

    /// Finds the highest-priority matching rule without bumping counters.
    pub fn peek(&self, key: &LookupKey) -> Option<&FlowRule> {
        self.rules
            .iter()
            .filter(|r| r.matcher.matches(key))
            .min_by_key(|r| rank(r))
    }

    /// Looks up a packet, bumping the winning rule's counter: the key is
    /// packed once and the compiled column scanned, after sorting the
    /// columns and compiling it if a write cleared it.
    pub fn lookup(&mut self, key: &LookupKey) -> Option<FlowRule> {
        if self.compiled.is_empty() {
            self.sort();
            let compiled = self.rules.iter().map(|r| TcamEntry::of(&r.matcher));
            self.compiled.extend(compiled);
        }
        debug_assert_eq!(
            self.compiled.len(),
            self.rules.len(),
            "a write left the column"
        );
        let words = key.words();
        let pos = self.compiled.iter().position(|e| e.matches(&words));
        debug_assert_eq!(
            pos,
            self.rules.iter().position(|r| r.matcher.matches(key)),
            "compiled scan and `Match::matches` disagree on {key:?}"
        );
        let pos = pos?;
        self.hits[pos] += 1;
        Some(self.rules[pos])
    }

    /// Puts the three columns in [`rank`] order, in place and without
    /// allocating: an insertion sort, so after a few writes to a sorted
    /// table only the rules they moved are shifted.
    fn sort(&mut self) {
        for i in 1..self.rules.len() {
            let r = rank(&self.rules[i]);
            if rank(&self.rules[i - 1]) < r {
                continue;
            }
            let at = self.rules[..i].partition_point(|p| rank(p) < r);
            self.rules[at..=i].rotate_right(1);
            self.hits[at..=i].rotate_right(1);
            self.keys[at..=i].rotate_right(1);
        }
    }

    /// A rule's match counter (0 for a rule that is not installed).
    pub fn counter(&self, id: RuleId) -> u64 {
        self.rules
            .iter()
            .position(|r| r.id == id)
            .map_or(0, |pos| self.hits[pos])
    }

    /// Iterates rules in priority order, ties to the earlier install.
    /// The columns may be unsorted (a write since the last lookup), so
    /// each step picks the next rule by rank: O(n) a rule, for dumps and
    /// checks, not per packet.
    pub fn iter(&self) -> impl Iterator<Item = &FlowRule> {
        let mut last = None;
        std::iter::from_fn(move || {
            let next = self
                .rules
                .iter()
                .filter(|r| last.is_none_or(|l| rank(r) > l))
                .min_by_key(|r| rank(r))?;
            last = Some(rank(next));
            Some(next)
        })
    }

    /// Per-type occupancy.
    pub fn stats(&self) -> TableStats {
        let mut s = TableStats::default();
        for r in &self.rules {
            match RuleType::of(&r.matcher) {
                RuleType::TagAndPrefix => s.tag_and_prefix += 1,
                RuleType::TagOnly => s.tag_only += 1,
                RuleType::PrefixOnly => s.prefix_only += 1,
                RuleType::Other => s.other += 1,
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{conventional_priority, Direction};
    use softcell_packet::{build_flow_packet, FiveTuple, HeaderView, Protocol};
    use softcell_types::{Ipv4Prefix, PolicyTag, PortEmbedding, PortNo};
    use std::net::Ipv4Addr;

    fn key_to(dst: Ipv4Addr, dst_port: u16) -> LookupKey {
        let t = FiveTuple {
            src: Ipv4Addr::new(198, 51, 100, 1),
            dst,
            src_port: 80,
            dst_port,
            proto: Protocol::Tcp,
        };
        let buf = build_flow_packet(t, 64, 0, &[]);
        LookupKey {
            in_port: PortNo(1),
            view: HeaderView::parse(&buf).unwrap(),
            version: 0,
        }
    }

    #[test]
    fn higher_priority_wins() {
        let mut t = FlowTable::new();
        t.install(10, Match::ANY, Action::Drop).unwrap();
        t.install(20, Match::ANY, Action::Forward(PortNo(2)))
            .unwrap();
        let k = key_to(Ipv4Addr::new(10, 0, 0, 1), 80);
        assert_eq!(t.lookup(&k).unwrap().action, Action::Forward(PortNo(2)));
    }

    #[test]
    fn ties_break_to_earlier_install() {
        let mut t = FlowTable::new();
        let first = t.install(10, Match::ANY, Action::Drop).unwrap();
        t.install(10, Match::ANY, Action::ToController).unwrap();
        let k = key_to(Ipv4Addr::new(10, 0, 0, 1), 80);
        assert_eq!(t.lookup(&k).unwrap().id, first);
    }

    #[test]
    fn type_priority_bands_give_paper_semantics() {
        // Install a Type 3 (prefix), Type 2 (tag), Type 1 (tag+prefix) for
        // overlapping traffic and check §7 resolution order.
        let e = PortEmbedding::default_embedding();
        let pref: Ipv4Prefix = "10.0.0.0/23".parse().unwrap();
        let mut t = FlowTable::new();
        let m3 = Match::prefix(Direction::Downlink, pref);
        let m2 = Match::tag(Direction::Downlink, PolicyTag(4), &e);
        let m1 = Match::tag_and_prefix(Direction::Downlink, PolicyTag(4), pref, &e);
        t.install(conventional_priority(&m3), m3, Action::Forward(PortNo(3)))
            .unwrap();
        t.install(conventional_priority(&m2), m2, Action::Forward(PortNo(2)))
            .unwrap();
        t.install(conventional_priority(&m1), m1, Action::Forward(PortNo(1)))
            .unwrap();

        let tagged_port = e.encode(PolicyTag(4), 0).unwrap();
        // matches all three → Type 1 wins
        let k = key_to(Ipv4Addr::new(10, 0, 0, 5), tagged_port);
        assert_eq!(t.lookup(&k).unwrap().action, Action::Forward(PortNo(1)));
        // tag matches, prefix doesn't → Type 2
        let k = key_to(Ipv4Addr::new(10, 0, 2, 5), tagged_port);
        assert_eq!(t.lookup(&k).unwrap().action, Action::Forward(PortNo(2)));
        // prefix matches, tag doesn't → Type 3
        let other_port = e.encode(PolicyTag(9), 0).unwrap();
        let k = key_to(Ipv4Addr::new(10, 0, 0, 5), other_port);
        assert_eq!(t.lookup(&k).unwrap().action, Action::Forward(PortNo(3)));
    }

    #[test]
    fn lpm_within_type3() {
        let mut t = FlowTable::new();
        let short = Match::prefix(Direction::Downlink, "10.0.0.0/16".parse().unwrap());
        let long = Match::prefix(Direction::Downlink, "10.0.0.0/24".parse().unwrap());
        t.install(
            conventional_priority(&short),
            short,
            Action::Forward(PortNo(1)),
        )
        .unwrap();
        t.install(
            conventional_priority(&long),
            long,
            Action::Forward(PortNo(2)),
        )
        .unwrap();
        let k = key_to(Ipv4Addr::new(10, 0, 0, 9), 80);
        assert_eq!(t.lookup(&k).unwrap().action, Action::Forward(PortNo(2)));
        let k = key_to(Ipv4Addr::new(10, 0, 5, 9), 80);
        assert_eq!(t.lookup(&k).unwrap().action, Action::Forward(PortNo(1)));
    }

    #[test]
    fn counters_count_hits() {
        let mut t = FlowTable::new();
        let id = t.install(10, Match::ANY, Action::Drop).unwrap();
        let k = key_to(Ipv4Addr::new(1, 1, 1, 1), 80);
        assert_eq!(t.counter(id), 0);
        t.lookup(&k);
        t.lookup(&k);
        assert_eq!(t.counter(id), 2);
        t.peek(&k);
        assert_eq!(t.counter(id), 2, "peek must not bump counters");
    }

    #[test]
    fn remove_matching_takes_every_rule_of_the_matcher() {
        let mut t = FlowTable::new();
        t.install(10, Match::ANY, Action::Drop).unwrap();
        let m = Match::prefix(Direction::Downlink, "10.0.0.0/8".parse().unwrap());
        t.install(20, m, Action::Forward(PortNo(1))).unwrap();
        t.install(5, m, Action::Drop).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.remove_matching(&m), 2);
        assert_eq!(t.remove_matching(&m), 0);
        assert_eq!(t.remove_matching(&Match::ANY), 1);
        assert!(t.is_empty());
    }

    /// The parallel columns are in step: same length, every key is the
    /// fingerprint of the rule beside it. A write left the compiled
    /// column empty; a lookup after it sorts the columns by rank and
    /// leaves the compiled column in step.
    fn assert_in_step(t: &mut FlowTable) {
        assert_eq!(t.hits.len(), t.rules.len());
        let keys: Vec<u64> = t.rules.iter().map(|r| fingerprint(&r.matcher)).collect();
        assert_eq!(t.keys, keys);
        assert!(t.compiled.is_empty(), "a write kept a stale column");
        t.lookup(&key_to(Ipv4Addr::new(10, 0, 0, 1), 80));
        assert!(t.rules.windows(2).all(|w| rank(&w[0]) < rank(&w[1])));
        let keys: Vec<u64> = t.rules.iter().map(|r| fingerprint(&r.matcher)).collect();
        assert_eq!(t.keys, keys, "the sort moved a key without its rule");
        let compiled: Vec<TcamEntry> = t.rules.iter().map(|r| TcamEntry::of(&r.matcher)).collect();
        assert_eq!(t.compiled, compiled);
    }

    #[test]
    fn columns_stay_in_step_with_rules_through_every_write() {
        let pref = |s: &str| Match::prefix(Direction::Downlink, s.parse().unwrap());
        let (a, b, c) = (pref("10.0.0.0/8"), pref("10.0.0.0/23"), Match::ANY);
        let mut t = FlowTable::new();
        let mut ids = Vec::new();
        for (priority, m) in [(10, a), (30, b), (20, c), (30, a), (10, b), (20, a)] {
            ids.push(t.install(priority, m, Action::Drop).unwrap());
            assert_in_step(&mut t);
        }
        // every priority of one matcher goes, the rules between stay put
        assert_eq!(t.remove_matching(&a), 3);
        assert_in_step(&mut t);
        assert_eq!(
            t.iter().map(|r| r.id).collect::<Vec<_>>(),
            [ids[1], ids[2], ids[4]]
        );
        assert_eq!(t.remove_matching(&a), 0);
        assert_in_step(&mut t);
        assert_eq!(t.remove_matching(&b), 2);
        assert_in_step(&mut t);
        assert_eq!(t.iter().map(|r| r.id).collect::<Vec<_>>(), [ids[2]]);
    }

    #[test]
    fn a_fingerprint_collision_removes_only_the_equal_matcher() {
        let a = Match::prefix(Direction::Uplink, "10.0.0.0/8".parse().unwrap());
        let b = Match::prefix(Direction::Downlink, "10.0.0.0/8".parse().unwrap());
        let mut t = FlowTable::new();
        let ids: Vec<RuleId> = [b, a, b, a]
            .iter()
            .map(|m| t.install(10, *m, Action::Drop).unwrap())
            .collect();
        // forge the collision: `b`'s rules carry `a`'s key
        t.keys = vec![fingerprint(&a); 4];
        let hit = t.lookup(&key_to(Ipv4Addr::new(10, 0, 0, 1), 80)).unwrap();
        assert_eq!(hit.id, ids[0]);
        assert_eq!(t.remove_matching(&a), 2);
        assert_eq!(t.iter().map(|r| r.id).collect::<Vec<_>>(), [ids[0], ids[2]]);
        assert_eq!((t.counter(ids[0]), t.counter(ids[2])), (1, 0));
        assert_eq!((t.hits.len(), t.keys.len()), (2, 2));
    }

    #[test]
    fn stats_by_type() {
        let e = PortEmbedding::default_embedding();
        let pref: Ipv4Prefix = "10.0.0.0/23".parse().unwrap();
        let mut t = FlowTable::new();
        t.install(
            1,
            Match::tag_and_prefix(Direction::Downlink, PolicyTag(1), pref, &e),
            Action::Drop,
        )
        .unwrap();
        t.install(
            1,
            Match::tag(Direction::Downlink, PolicyTag(1), &e),
            Action::Drop,
        )
        .unwrap();
        t.install(1, Match::prefix(Direction::Downlink, pref), Action::Drop)
            .unwrap();
        t.install(1, Match::ANY, Action::Drop).unwrap();
        let s = t.stats();
        assert_eq!(
            (s.tag_and_prefix, s.tag_only, s.prefix_only, s.other),
            (1, 1, 1, 1)
        );
        assert_eq!(s.total(), 4);
    }
}
