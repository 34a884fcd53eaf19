//! The controller's shadow of every switch's forwarding state.
//!
//! Algorithm 1 needs three primitives per switch (paper §3.2):
//! `getNextHop(tag, prefix)`, `canAggregate(tag, prefix, nexthop)` and
//! rule installation with contiguous-prefix merging. The planner asks the
//! first two together, once per table, as [`ShadowSwitch::probe`];
//! [`ShadowSwitch`] provides them over a per-tag structure:
//!
//! * a **default** next hop per tag — a Type 2 (tag-only, exact match)
//!   rule;
//! * **per-prefix** next hops per tag — Type 1 (tag+prefix, TCAM) rules,
//!   longest-prefix-wins within the tag, automatically merged with their
//!   sibling when both carry the same next hop (the paper's "aggregate
//!   two rules if and only if their location prefixes are contiguous");
//! * separate tables per [`Entry`] context, because a rule for traffic
//!   returning from a middlebox matches on the input port (§3.1
//!   footnote) and therefore lives in its own namespace;
//! * a **location stage** below every tag rule — Type 3 (prefix-only,
//!   LPM) rules of §7 — keyed by aligned station-prefix blocks and
//!   tag-agnostic: downlink traffic of any tag that no tag rule matches
//!   follows it. Algorithm 1 leaves a path's last leg to it
//!   ([`ShadowSwitch::defer`]). Its entries are immutable: one is only
//!   added, or merged with an aligned sibling carrying the same next
//!   hop, so what it answers never changes. A tag whose unqualified
//!   table has deferred a prefix takes no Type 2 default on that switch
//!   from then on, which would capture the deferred traffic. A Type 1
//!   rule covers only the prefixes written to it, and the deferred
//!   prefix's station claims the tag, so no later path writes one over
//!   it (`install.rs`).
//!
//! The shadow is the controller's source of truth; deltas stream to the
//! physical switches through [`crate::ops`].

use serde::Serialize;
use std::collections::hash_map::Entry as MapEntry;

use softcell_types::{FxHashMap, Ipv4Prefix, MiddleboxId, PolicyTag, SwitchId};

/// How traffic arrived at the switch — part of the rule key, realized as
/// an input-port qualifier on the physical rule. Rules in a qualified
/// entry ([`Entry::FromMb`], [`Entry::FromSwitch`]) take priority over
/// unqualified [`Entry::Ingress`] rules, mirroring the input-port
/// disambiguation of paper §3.1 (middlebox returns) and §3.2 (loops
/// entering a switch through different links).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub enum Entry {
    /// Arrived from anywhere (no input-port qualifier).
    Ingress,
    /// Arrived back from a middlebox hosted on this switch.
    FromMb(MiddleboxId),
    /// Arrived on the link from a specific neighbor switch (loop
    /// disambiguation by input port).
    FromSwitch(SwitchId),
}

/// Where a rule sends traffic next (logical; ports are resolved when the
/// delta is lowered to a physical rule).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub enum NextHop {
    /// To an adjacent switch.
    Switch(SwitchId),
    /// Into a middlebox hosted on this switch.
    Middlebox(MiddleboxId),
    /// Out the Internet uplink (gateway) — uplink direction.
    Uplink,
    /// Rewrite the packet's tag to the given value, then forward to the
    /// adjacent switch — the loop-disambiguation swap rule (§3.2).
    SwapTag(PolicyTag, SwitchId),
    /// Rewrite the packet's tag, then divert into a middlebox on this
    /// switch (swap landing directly on a middlebox leg).
    SwapTagMb(PolicyTag, MiddleboxId),
}

/// Per-(entry, tag) forwarding state.
#[derive(Clone, Debug, Default, Serialize)]
struct TagTable {
    /// The Type 2 (tag-only) rule, if installed.
    default: Option<NextHop>,
    /// Type 1 (tag+prefix) rules; longest prefix wins.
    prefixes: FxHashMap<Ipv4Prefix, NextHop>,
    /// Shortest prefix length present (lookup walk lower bound).
    min_len: u8,
}

impl TagTable {
    /// The longest Type 1 rule covering `prefix`, and the prefix it
    /// matches on.
    fn longest_match(&self, prefix: Ipv4Prefix) -> Option<(Ipv4Prefix, NextHop)> {
        if self.prefixes.is_empty() {
            return None;
        }
        let mut p = prefix;
        loop {
            if let Some(nh) = self.prefixes.get(&p) {
                return Some((p, *nh));
            }
            if p.len() <= self.min_len {
                return None;
            }
            p = p.parent()?;
        }
    }

    fn lookup(&self, prefix: Ipv4Prefix) -> Option<NextHop> {
        self.longest_match(prefix)
            .map(|(_, nh)| nh)
            .or(self.default)
    }

    /// `lookup(prefix)` and the rule cost of making it answer `nh`, from
    /// one longest-prefix walk.
    fn probe(&self, prefix: Ipv4Prefix, nh: NextHop) -> (Option<NextHop>, Option<usize>) {
        let hit = self.longest_match(prefix);
        let current = hit.map(|(_, cur)| cur).or(self.default);
        let cost = match (current, hit) {
            (Some(cur), _) if cur == nh => Some(0),
            // an exact-prefix rule sends this traffic elsewhere, and
            // nothing more specific can override it
            (_, Some((at, _))) if at == prefix => None,
            (None, _) => Some(1), // the table's first rule
            // a Type 1 override, free when it merges into its sibling
            (Some(_), _) => {
                let merges = prefix
                    .sibling()
                    .is_some_and(|sib| self.prefixes.get(&sib) == Some(&nh));
                Some(usize::from(!merges))
            }
        };
        (current, cost)
    }
}

/// A table's key in one word, so a probe hashes and compares a `u64`:
/// entry kind, then its id, then the tag, ordered as `(Entry, PolicyTag)`.
fn table_key(entry: Entry, tag: PolicyTag) -> u64 {
    let (kind, id) = match entry {
        Entry::Ingress => (0u64, 0u32),
        Entry::FromMb(mb) => (1, mb.0),
        Entry::FromSwitch(sw) => (2, sw.0),
    };
    kind << 48 | u64::from(id) << 16 | u64::from(tag.0)
}

/// The `(Entry, PolicyTag)` pair [`table_key`] packed.
fn unpack_key(key: u64) -> (Entry, PolicyTag) {
    let id = (key >> 16) as u32;
    let entry = match key >> 48 {
        0 => Entry::Ingress,
        1 => Entry::FromMb(MiddleboxId(id)),
        _ => Entry::FromSwitch(SwitchId(id)),
    };
    (entry, PolicyTag(key as u16))
}

/// The shadow of one switch's flow table.
#[derive(Clone, Debug, Default, Serialize)]
pub struct ShadowSwitch {
    /// Keyed by [`table_key`].
    tables: FxHashMap<u64, TagTable>,
    /// Tags in first-installation order — candidate enumeration must be
    /// deterministic for reproducible experiments.
    tag_order: Vec<PolicyTag>,
    /// The location stage: disjoint blocks, in address order, each with
    /// the switch its traffic goes to next.
    location: Vec<(Ipv4Prefix, SwitchId)>,
    /// Tags whose unqualified table has left a prefix to the location
    /// stage, sorted: they take no Type 2 default here.
    deferred: Vec<PolicyTag>,
    rule_count: usize,
}

/// A change the shadow applied, to be mirrored on the physical switch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ShadowDelta {
    /// A Type 2 (tag-only) rule appeared.
    SetDefault {
        /// Rule context.
        entry: Entry,
        /// Tag.
        tag: PolicyTag,
        /// Next hop.
        nh: NextHop,
    },
    /// A Type 1 (tag+prefix) rule appeared.
    AddPrefix {
        /// Rule context.
        entry: Entry,
        /// Tag.
        tag: PolicyTag,
        /// Matched prefix.
        prefix: Ipv4Prefix,
        /// Next hop.
        nh: NextHop,
    },
    /// A Type 1 rule disappeared (consumed by aggregation or torn down).
    RemovePrefix {
        /// Rule context.
        entry: Entry,
        /// Tag.
        tag: PolicyTag,
        /// Matched prefix.
        prefix: Ipv4Prefix,
    },
    /// A Type 3 (location-only) rule appeared: traffic for `block` that
    /// no tag rule matches goes to `next`, whatever its tag.
    AddLocation {
        /// Matched station-prefix block.
        block: Ipv4Prefix,
        /// Next switch.
        next: SwitchId,
    },
    /// A Type 3 rule disappeared, merged into its parent block.
    RemoveLocation {
        /// Matched station-prefix block.
        block: Ipv4Prefix,
    },
}

/// How one rule slot disagrees between a shadow and a replica of it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum DivergenceKind {
    /// The authoritative shadow has the rule; the replica lacks it.
    Missing {
        /// Next hop the authoritative rule forwards to.
        expected: NextHop,
    },
    /// The replica has a rule the authoritative shadow never installed.
    Extra {
        /// Next hop the replica's spurious rule forwards to.
        found: NextHop,
    },
    /// Both sides hold the rule but forward differently.
    Mismatch {
        /// Next hop on the authoritative side.
        expected: NextHop,
        /// Next hop on the replica.
        found: NextHop,
    },
}

impl DivergenceKind {
    /// How one slot's next hops disagree, if they do.
    fn of(expected: Option<NextHop>, found: Option<NextHop>) -> Option<DivergenceKind> {
        match (expected, found) {
            (Some(e), Some(f)) if e != f => Some(DivergenceKind::Mismatch {
                expected: e,
                found: f,
            }),
            (Some(e), None) => Some(DivergenceKind::Missing { expected: e }),
            (None, Some(f)) => Some(DivergenceKind::Extra { found: f }),
            _ => None,
        }
    }
}

/// A rule's place in a switch's shadow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum RuleSlot {
    /// A tag rule: the Type 1 rule for `prefix`, or the tag's Type 2
    /// default when `prefix` is `None`.
    Tag {
        /// Rule context.
        entry: Entry,
        /// Tag.
        tag: PolicyTag,
        /// Matched prefix, or `None` for the tag default.
        prefix: Option<Ipv4Prefix>,
    },
    /// The location stage's (Type 3) rule for a block.
    Location(Ipv4Prefix),
}

/// One rule-level disagreement found by [`ShadowSwitch::diff`].
///
/// Replica divergence must be *reported*, never silently absorbed: a
/// replica whose log replay reconstructed different forwarding state
/// would install different physical rules after failover, so the
/// recovery path asserts `diff` is empty before promoting.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Divergence {
    /// The rule the two sides disagree on.
    pub slot: RuleSlot,
    /// What kind of disagreement.
    pub kind: DivergenceKind,
}

/// What one `(entry, tag)` table says about forwarding `prefix` to a
/// wanted next hop — the answer of [`ShadowSwitch::probe`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Probe {
    /// Whether the table holds any rule. A non-empty qualified table
    /// shadows unqualified rules for traffic arriving that way, so the
    /// installer must place its rule there.
    pub present: bool,
    /// `getNextHop`: what the table does with the prefix now.
    pub current: Option<NextHop>,
    /// The incremental rule cost of making it forward as wanted:
    /// `None` — infeasible (an exact-prefix rule disagrees); `Some(0)` —
    /// already does, or a sibling merge absorbs the rule; `Some(1)` —
    /// one new rule.
    pub cost: Option<usize>,
}

impl ShadowSwitch {
    /// An empty shadow.
    pub fn new() -> Self {
        ShadowSwitch::default()
    }

    /// Total rules this switch would hold (Type 1 + Type 2 + Type 3) —
    /// the quantity Figure 7 reports.
    pub fn rule_count(&self) -> usize {
        self.rule_count
    }

    /// `getNextHop(t, prefix)` of Algorithm 1: what the switch currently
    /// does with `tag`-tagged traffic for `prefix` arriving via `entry`.
    pub fn next_hop(&self, entry: Entry, tag: PolicyTag, prefix: Ipv4Prefix) -> Option<NextHop> {
        self.tables.get(&table_key(entry, tag))?.lookup(prefix)
    }

    /// What the switch's pipeline does with `tag`-tagged traffic for
    /// `prefix` arriving via `entry`: the arrival's qualified table, then
    /// the unqualified one, then the location stage.
    pub fn resolve(&self, entry: Entry, tag: PolicyTag, prefix: Ipv4Prefix) -> Option<NextHop> {
        let qualified = match entry {
            Entry::Ingress => None,
            _ => self.next_hop(entry, tag, prefix),
        };
        qualified
            .or_else(|| self.next_hop(Entry::Ingress, tag, prefix))
            .or_else(|| self.location(prefix).map(NextHop::Switch))
    }

    /// Whether `(Ingress, tag)` has left a prefix to the location stage.
    pub(crate) fn has_deferred(&self, tag: PolicyTag) -> bool {
        self.deferred.binary_search(&tag).is_ok()
    }

    /// Where the location stage sends traffic for `prefix`, if anywhere.
    pub fn location(&self, prefix: Ipv4Prefix) -> Option<SwitchId> {
        let at = self.location_at(prefix);
        self.covering(at, prefix)
    }

    /// The index of the first location entry above `prefix`. The
    /// entries are disjoint and in address order, so the one before it
    /// is the only one that can cover `prefix`.
    fn location_at(&self, prefix: Ipv4Prefix) -> usize {
        self.location.partition_point(|&(block, _)| block <= prefix)
    }

    /// The next hop of the entry just below index `at`, if it covers
    /// `prefix`.
    fn covering(&self, at: usize, prefix: Ipv4Prefix) -> Option<SwitchId> {
        let &(block, next) = self.location.get(at.checked_sub(1)?)?;
        block.covers(&prefix).then_some(next)
    }

    /// The location stage's answer for `prefix` and, when it has none,
    /// the rule cost of an entry sending it to `next`: 0 when the entry
    /// merges into its sibling block, 1 otherwise. One binary search:
    /// the sibling sits just below or just above `prefix`.
    pub(crate) fn probe_location(
        &self,
        prefix: Ipv4Prefix,
        next: SwitchId,
    ) -> (Option<SwitchId>, usize) {
        let at = self.location_at(prefix);
        if let Some(answer) = self.covering(at, prefix) {
            return (Some(answer), 0);
        }
        let merges = prefix.sibling().is_some_and(|sib| {
            let near = [at.checked_sub(1), Some(at)];
            near.into_iter()
                .flatten()
                .any(|k| self.location.get(k) == Some(&(sib, next)))
        });
        (None, usize::from(!merges))
    }

    /// Leaves `tag`'s unqualified traffic for `prefix` to the location
    /// stage, which sends it to `next`: records that `(Ingress, tag)`
    /// deferred (it takes no Type 2 default from now on), and unless the
    /// stage answers `prefix` already, adds its entry, merged upward with
    /// aligned sibling blocks that carry the same next hop. Hands each
    /// delta to `emit` in application order.
    ///
    /// # Panics
    /// Debug-panics when the unqualified table answers `prefix` or the
    /// stage answers it otherwise — the planner must have checked both.
    pub(crate) fn defer(
        &mut self,
        tag: PolicyTag,
        prefix: Ipv4Prefix,
        next: SwitchId,
        mut emit: impl FnMut(ShadowDelta),
    ) {
        debug_assert!(
            self.next_hop(Entry::Ingress, tag, prefix).is_none(),
            "deferral of a prefix tag {tag} answers ({prefix})"
        );
        if let Err(at) = self.deferred.binary_search(&tag) {
            self.deferred.insert(at, tag);
            // the tag's traffic passes here, so it is a candidate for
            // paths here, as if it had a rule
            if !self.tag_order.contains(&tag) {
                self.tag_order.push(tag);
            }
        }
        let mut at = self.location_at(prefix);
        if let Some(answer) = self.covering(at, prefix) {
            debug_assert_eq!(
                answer, next,
                "the location stage answers {prefix} otherwise"
            );
            return;
        }
        let mut block = prefix;
        while let Some(sib) = block.sibling() {
            let below = sib < block;
            let k = if below { at.wrapping_sub(1) } else { at };
            if self.location.get(k) != Some(&(sib, next)) {
                break;
            }
            self.location.remove(k);
            self.rule_count -= 1;
            emit(ShadowDelta::RemoveLocation { block: sib });
            at -= usize::from(below);
            block = block.parent().expect("sibling exists, so parent does");
        }
        self.location.insert(at, (block, next));
        self.rule_count += 1;
        emit(ShadowDelta::AddLocation { block, next });
    }

    /// `getNextHop` and `canAggregate` of Algorithm 1 in one table lookup
    /// and one longest-prefix walk: what `(entry, tag)` does with `prefix`
    /// now, and what making it forward to `nh` would cost.
    pub fn probe(&self, entry: Entry, tag: PolicyTag, prefix: Ipv4Prefix, nh: NextHop) -> Probe {
        match self.tables.get(&table_key(entry, tag)) {
            None => Probe {
                present: false,
                current: None,
                cost: Some(1),
            },
            Some(t) => {
                let (current, cost) = t.probe(prefix, nh);
                Probe {
                    present: t.default.is_some() || !t.prefixes.is_empty(),
                    current,
                    cost,
                }
            }
        }
    }

    /// [`ShadowSwitch::install_with`], collecting the deltas.
    pub fn install(
        &mut self,
        entry: Entry,
        tag: PolicyTag,
        prefix: Ipv4Prefix,
        nh: NextHop,
    ) -> Vec<ShadowDelta> {
        let mut deltas = Vec::new();
        self.install_with(entry, tag, prefix, nh, |d| deltas.push(d));
        deltas
    }

    /// Installs `(entry, tag, prefix) -> nh`, preferring the cheapest
    /// representation: no-op if the lookup already agrees, a tag default
    /// (Type 2) when the tag has none, otherwise a Type 1 prefix rule
    /// merged upward with contiguous siblings. Hands each delta to `emit`
    /// in application order.
    ///
    /// # Panics
    /// Debug-panics on exact conflicts — the tag-selection phase must
    /// have filtered those (`probe` returned no cost).
    pub fn install_with(
        &mut self,
        entry: Entry,
        tag: PolicyTag,
        prefix: Ipv4Prefix,
        nh: NextHop,
        emit: impl FnMut(ShadowDelta),
    ) {
        // already correct?
        if self.next_hop(entry, tag, prefix) != Some(nh) {
            self.write_probed(entry, tag, prefix, nh, emit);
        }
    }

    /// [`ShadowSwitch::install_with`] for a caller that has probed the
    /// slot: `(entry, tag)` must not already answer `nh` for `prefix`
    /// (debug-asserted, with the conflict check), so the write skips the
    /// "already correct?" walk, and after the merge loop walks only if a
    /// merge happened — otherwise the answer at `prefix` is the caller's.
    pub(crate) fn write_probed(
        &mut self,
        entry: Entry,
        tag: PolicyTag,
        prefix: Ipv4Prefix,
        nh: NextHop,
        mut emit: impl FnMut(ShadowDelta),
    ) {
        debug_assert!(
            {
                let p = self.probe(entry, tag, prefix, nh);
                p.cost.is_some() && p.current != Some(nh)
            },
            "write of a conflicting or present rule (tag {tag}, {prefix})"
        );
        let table = match self.tables.entry(table_key(entry, tag)) {
            MapEntry::Occupied(e) => e.into_mut(),
            MapEntry::Vacant(e) => {
                // only a tag's first table on this switch scans the order
                if !self.tag_order.contains(&tag) {
                    self.tag_order.push(tag);
                }
                e.insert(TagTable::default())
            }
        };
        // A Type 2 (tag-only) default is only safe in tables that cannot
        // shadow other traffic: the unqualified Ingress table (defaults
        // there are the aggregation win of Fig. 3c) and middlebox-return
        // tables (only traffic this controller itself diverted into the
        // middlebox can arrive there). A default in a FromSwitch table
        // would capture *every* prefix arriving on that link, hijacking
        // paths that relied on unqualified rules.
        // Nor in an Ingress table that has left a prefix to the location
        // stage: the default would capture that traffic.
        let default_ok = match entry {
            Entry::Ingress => self.deferred.binary_search(&tag).is_err(),
            Entry::FromMb(_) => true,
            Entry::FromSwitch(_) => false,
        };
        if default_ok && table.default.is_none() && table.prefixes.is_empty() {
            table.default = Some(nh);
            self.rule_count += 1;
            emit(ShadowDelta::SetDefault { entry, tag, nh });
            return;
        }
        // Type 1 rule with upward aggregation. Invariant maintained by the
        // loop: the range of `p` is entirely meant to forward to `nh`
        // (initially: `p = prefix`, the rule being installed; after each
        // promotion: the union of two fully-`nh` children). Therefore any
        // entry found *at* `p` during promotion is fully shadowed and is
        // removed rather than left to mask the final coarser rule.
        let mut p = prefix;
        while let Some(sib) = p.sibling() {
            if table.prefixes.get(&sib) != Some(&nh) {
                break;
            }
            table.prefixes.remove(&sib);
            self.rule_count -= 1;
            emit(ShadowDelta::RemovePrefix {
                entry,
                tag,
                prefix: sib,
            });
            p = p.parent().expect("sibling exists, so parent does");
            if table.prefixes.remove(&p).is_some() {
                self.rule_count -= 1;
                emit(ShadowDelta::RemovePrefix {
                    entry,
                    tag,
                    prefix: p,
                });
            }
        }
        // If a merge made the covering lookup yield nh (parent rule or
        // default with the same hop), no rule is needed at all.
        if p != prefix && table.lookup(p) == Some(nh) {
            return;
        }
        let prev = table.prefixes.insert(p, nh);
        debug_assert!(prev.is_none(), "promotion sweep removed entries at p");
        self.rule_count += 1;
        if table.prefixes.len() == 1 {
            table.min_len = p.len();
        } else {
            table.min_len = table.min_len.min(p.len());
        }
        emit(ShadowDelta::AddPrefix {
            entry,
            tag,
            prefix: p,
            nh,
        });
    }

    /// Tags present on this switch (the per-switch contribution to
    /// `candTag`): those with a rule here and those that left a prefix
    /// to the location stage here, in deterministic first-installed
    /// order, most recent first (recent tags are the likeliest reuse
    /// candidates).
    pub fn tags(&self) -> impl Iterator<Item = PolicyTag> + '_ {
        self.tag_order.iter().rev().copied()
    }

    /// Iterates every installed rule as the delta that installs it
    /// ([`ShadowDelta::SetDefault`], [`ShadowDelta::AddPrefix`] or
    /// [`ShadowDelta::AddLocation`]). Order is unspecified; used for
    /// full-table lowering (offline recompute migrations).
    pub fn iter_rules(&self) -> impl Iterator<Item = ShadowDelta> + '_ {
        let tag_rules = self.tables.iter().flat_map(|(&key, table)| {
            let (entry, tag) = unpack_key(key);
            let default =
                (table.default.iter()).map(move |&nh| ShadowDelta::SetDefault { entry, tag, nh });
            let prefixes = table.prefixes.iter();
            default.chain(prefixes.map(move |(&prefix, &nh)| ShadowDelta::AddPrefix {
                entry,
                tag,
                prefix,
                nh,
            }))
        });
        let location = self.location.iter();
        tag_rules.chain(location.map(|&(block, next)| ShadowDelta::AddLocation { block, next }))
    }

    /// Compares this (authoritative) shadow against a `replica` of it,
    /// reporting every rule-level disagreement in deterministic
    /// [`RuleSlot`] order: tag rules by `(entry, tag, prefix)`, then the
    /// location stage by block. Empty iff the two shadows encode
    /// identical forwarding behaviour rule-for-rule.
    pub fn diff(&self, replica: &ShadowSwitch) -> Vec<Divergence> {
        let mut keys: Vec<u64> = self
            .tables
            .keys()
            .chain(replica.tables.keys())
            .copied()
            .collect();
        // packed keys sort as their (entry, tag) pairs
        keys.sort_unstable();
        keys.dedup();
        let empty = TagTable::default();
        let mut out = Vec::new();
        for key in keys {
            let (entry, tag) = unpack_key(key);
            let ours = self.tables.get(&key).unwrap_or(&empty);
            let theirs = replica.tables.get(&key).unwrap_or(&empty);
            let mut slots: Vec<Option<Ipv4Prefix>> = ours
                .prefixes
                .keys()
                .chain(theirs.prefixes.keys())
                .copied()
                .map(Some)
                .collect();
            slots.sort_unstable();
            slots.dedup();
            slots.insert(0, None); // the Type 2 default slot
            for prefix in slots {
                let expected = match prefix {
                    None => ours.default,
                    Some(p) => ours.prefixes.get(&p).copied(),
                };
                let found = match prefix {
                    None => theirs.default,
                    Some(p) => theirs.prefixes.get(&p).copied(),
                };
                if let Some(kind) = DivergenceKind::of(expected, found) {
                    let slot = RuleSlot::Tag { entry, tag, prefix };
                    out.push(Divergence { slot, kind });
                }
            }
        }
        let mut blocks: Vec<Ipv4Prefix> = (self.location.iter())
            .chain(&replica.location)
            .map(|&(block, _)| block)
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        let next = |stage: &[(Ipv4Prefix, SwitchId)], block| {
            let at = stage.binary_search_by_key(&block, |&(b, _)| b).ok()?;
            Some(NextHop::Switch(stage[at].1))
        };
        for block in blocks {
            let (expected, found) = (next(&self.location, block), next(&replica.location, block));
            if let Some(kind) = DivergenceKind::of(expected, found) {
                let slot = RuleSlot::Location(block);
                out.push(Divergence { slot, kind });
            }
        }
        out
    }

    /// Per-type occupancy: `(type1_prefix_rules, type2_default_rules,
    /// type3_location_rules)`.
    pub fn occupancy(&self) -> (usize, usize, usize) {
        let mut t1 = 0;
        let mut t2 = 0;
        for t in self.tables.values() {
            t1 += t.prefixes.len();
            t2 += usize::from(t.default.is_some());
        }
        (t1, t2, self.location.len())
    }
}

/// The shadow of the whole network, indexed by switch.
#[derive(Clone, Debug, Default, Serialize)]
pub struct ShadowTables {
    switches: Vec<ShadowSwitch>,
}

impl ShadowTables {
    /// Shadows for `n` switches.
    pub fn new(n: usize) -> Self {
        ShadowTables {
            switches: vec![ShadowSwitch::new(); n],
        }
    }

    /// The shadow of one switch.
    pub fn switch(&self, id: SwitchId) -> &ShadowSwitch {
        &self.switches[id.index()]
    }

    /// Mutable shadow of one switch.
    pub fn switch_mut(&mut self, id: SwitchId) -> &mut ShadowSwitch {
        &mut self.switches[id.index()]
    }

    /// Number of switches.
    pub fn len(&self) -> usize {
        self.switches.len()
    }

    /// Whether there are no switches.
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty()
    }

    /// Rule counts of every switch — the Figure 7 measurement.
    pub fn rule_counts(&self) -> Vec<usize> {
        self.switches.iter().map(|s| s.rule_count()).collect()
    }

    /// Whether traffic entering switch `from` from outside the fabric
    /// with `tag`, for `prefix`, reaches switch `to` through exactly the
    /// middleboxes of `chain`, in order, as the tables forward it: each
    /// switch's pipeline ([`ShadowSwitch::resolve`]), following tag
    /// swaps. A miss, an exit, a middlebox out of turn or a walk longer
    /// than `chain.len() + 1` loop-free legs (a forwarding loop) fails.
    pub fn delivers(
        &self,
        from: SwitchId,
        mut tag: PolicyTag,
        prefix: Ipv4Prefix,
        to: SwitchId,
        chain: &[MiddleboxId],
    ) -> bool {
        let (mut at, mut entry, mut passed) = (from, Entry::Ingress, 0);
        let steps = (chain.len() + 1) * (self.switches.len() + 1);
        for _ in 0..steps {
            if at == to && passed == chain.len() {
                return true;
            }
            let (mb, next) = match self.switch(at).resolve(entry, tag, prefix) {
                Some(NextHop::Switch(next)) => (None, next),
                Some(NextHop::Middlebox(mb)) => (Some(mb), at),
                Some(NextHop::SwapTag(to, next)) => {
                    tag = to;
                    (None, next)
                }
                Some(NextHop::SwapTagMb(to, mb)) => {
                    tag = to;
                    (Some(mb), at)
                }
                Some(NextHop::Uplink) | None => return false,
            };
            entry = match mb {
                Some(mb) if chain.get(passed) == Some(&mb) => {
                    passed += 1;
                    Entry::FromMb(mb)
                }
                Some(_) => return false,
                None => Entry::FromSwitch(at),
            };
            at = next;
        }
        false
    }

    /// Compares this (authoritative) network shadow against a `replica`,
    /// attributing every rule-level disagreement to its switch. A
    /// replica with more or fewer switches diverges too: rules on the
    /// unmatched switches surface as [`DivergenceKind::Missing`] /
    /// [`DivergenceKind::Extra`] against an empty shadow.
    pub fn diff(&self, replica: &ShadowTables) -> Vec<(SwitchId, Divergence)> {
        let empty = ShadowSwitch::new();
        let n = self.switches.len().max(replica.switches.len());
        (0..n)
            .flat_map(|i| {
                let ours = self.switches.get(i).unwrap_or(&empty);
                let theirs = replica.switches.get(i).unwrap_or(&empty);
                let id = SwitchId::from_index(i);
                ours.diff(theirs).into_iter().map(move |d| (id, d))
            })
            .collect()
    }
}

/// The primitives [`ShadowSwitch::probe`] fuses, as Algorithm 1 names
/// them: the reference the probe (here) and the bounded planner
/// (`install.rs`) are tested against.
#[cfg(test)]
impl ShadowSwitch {
    /// Whether installing `(tag, prefix) -> nh` would *conflict* with an
    /// existing rule: an exact-prefix entry already sends this traffic
    /// elsewhere and a more-specific override is impossible.
    pub(crate) fn conflicts(
        &self,
        entry: Entry,
        tag: PolicyTag,
        prefix: Ipv4Prefix,
        nh: NextHop,
    ) -> bool {
        match self.tables.get(&table_key(entry, tag)) {
            None => false,
            Some(t) => matches!(t.prefixes.get(&prefix), Some(other) if *other != nh),
        }
    }

    /// `canAggregate` of Algorithm 1: a new `(tag, prefix) -> nh` rule
    /// merges with an existing sibling rule carrying the same next hop.
    pub(crate) fn can_aggregate(
        &self,
        entry: Entry,
        tag: PolicyTag,
        prefix: Ipv4Prefix,
        nh: NextHop,
    ) -> bool {
        let Some(t) = self.tables.get(&table_key(entry, tag)) else {
            return false;
        };
        let Some(sib) = prefix.sibling() else {
            return false;
        };
        t.prefixes.get(&sib) == Some(&nh)
    }

    /// The incremental rule cost of making `(entry, tag, prefix)` forward
    /// to `nh`: `None` infeasible, `Some(0)` free, `Some(1)` one rule.
    pub(crate) fn rule_cost(
        &self,
        entry: Entry,
        tag: PolicyTag,
        prefix: Ipv4Prefix,
        nh: NextHop,
    ) -> Option<usize> {
        if self.conflicts(entry, tag, prefix, nh) {
            return None;
        }
        match self.next_hop(entry, tag, prefix) {
            Some(cur) if cur == nh => Some(0),
            None => Some(1), // becomes the tag default (Type 2)
            Some(_) if self.can_aggregate(entry, tag, prefix, nh) => Some(0),
            Some(_) => Some(1), // a Type 1 override
        }
    }

    /// The rule cost of a location entry sending `prefix` to `next`
    /// where the stage does not answer it: 0 when it merges with its
    /// sibling block.
    pub(crate) fn location_cost(&self, prefix: Ipv4Prefix, next: SwitchId) -> usize {
        let merges = (prefix.sibling()).is_some_and(|sib| self.location.contains(&(sib, next)));
        usize::from(!merges)
    }

    /// Whether any rule exists for `(entry, tag)`.
    pub(crate) fn has_table(&self, entry: Entry, tag: PolicyTag) -> bool {
        self.tables
            .get(&table_key(entry, tag))
            .map(|t| t.default.is_some() || !t.prefixes.is_empty())
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    const T: PolicyTag = PolicyTag(1);
    const IN: Entry = Entry::Ingress;
    const NH1: NextHop = NextHop::Switch(SwitchId(10));
    const NH2: NextHop = NextHop::Switch(SwitchId(20));
    const NH3: NextHop = NextHop::Switch(SwitchId(30));

    #[test]
    fn first_install_becomes_type2_default() {
        let mut s = ShadowSwitch::new();
        let d = s.install(IN, T, p("10.0.0.0/23"), NH1);
        assert_eq!(
            d,
            vec![ShadowDelta::SetDefault {
                entry: IN,
                tag: T,
                nh: NH1
            }]
        );
        assert_eq!(s.rule_count(), 1);
        // every prefix under the tag now follows the default
        assert_eq!(s.next_hop(IN, T, p("10.0.8.0/23")), Some(NH1));
        assert_eq!(s.occupancy(), (0, 1, 0));
    }

    #[test]
    fn second_nexthop_becomes_type1_override() {
        let mut s = ShadowSwitch::new();
        s.install(IN, T, p("10.0.0.0/23"), NH1);
        let d = s.install(IN, T, p("10.0.8.0/23"), NH2);
        assert_eq!(
            d,
            vec![ShadowDelta::AddPrefix {
                entry: IN,
                tag: T,
                prefix: p("10.0.8.0/23"),
                nh: NH2
            }]
        );
        assert_eq!(s.rule_count(), 2);
        assert_eq!(s.next_hop(IN, T, p("10.0.8.0/23")), Some(NH2));
        assert_eq!(s.next_hop(IN, T, p("10.0.0.0/23")), Some(NH1));
        assert_eq!(s.occupancy(), (1, 1, 0));
    }

    #[test]
    fn contiguous_prefixes_aggregate() {
        let mut s = ShadowSwitch::new();
        s.install(IN, T, p("10.0.0.0/23"), NH1); // default
        s.install(IN, T, p("10.0.8.0/23"), NH2); // type 1
        assert_eq!(s.probe(IN, T, p("10.0.10.0/23"), NH2).cost, Some(0));
        let d = s.install(IN, T, p("10.0.10.0/23"), NH2); // sibling of 10.0.8/23
                                                          // merge: remove 10.0.8.0/23, add 10.0.8.0/22
        assert!(d.contains(&ShadowDelta::RemovePrefix {
            entry: IN,
            tag: T,
            prefix: p("10.0.8.0/23")
        }));
        assert!(d.contains(&ShadowDelta::AddPrefix {
            entry: IN,
            tag: T,
            prefix: p("10.0.8.0/22"),
            nh: NH2
        }));
        assert_eq!(s.rule_count(), 2, "merge keeps the count flat");
        assert_eq!(s.next_hop(IN, T, p("10.0.10.0/23")), Some(NH2));
        assert_eq!(s.next_hop(IN, T, p("10.0.8.0/23")), Some(NH2));
    }

    #[test]
    fn aggregation_cascades_upward() {
        let mut s = ShadowSwitch::new();
        s.install(IN, T, p("10.0.0.0/8"), NH1); // default owner
                                                // four /24s forming a /22 under NH2, installed in sibling order
        s.install(IN, T, p("10.1.0.0/24"), NH2);
        s.install(IN, T, p("10.1.1.0/24"), NH2); // -> /23
        s.install(IN, T, p("10.1.2.0/24"), NH2);
        let before = s.rule_count();
        s.install(IN, T, p("10.1.3.0/24"), NH2); // -> /23 -> /22
        assert_eq!(s.rule_count(), before - 1, "cascade merges two levels");
        assert_eq!(s.next_hop(IN, T, p("10.1.2.0/24")), Some(NH2));
        assert_eq!(s.occupancy().0, 1, "a single /22 remains");
    }

    #[test]
    fn idempotent_install_costs_nothing() {
        let mut s = ShadowSwitch::new();
        s.install(IN, T, p("10.0.0.0/23"), NH1);
        let probe = s.probe(IN, T, p("10.0.0.0/23"), NH1);
        assert_eq!((probe.current, probe.cost), (Some(NH1), Some(0)));
        assert!(s.install(IN, T, p("10.0.0.0/23"), NH1).is_empty());
        assert_eq!(s.rule_count(), 1);
    }

    #[test]
    fn probe_cost_matches_install_behaviour() {
        let mut s = ShadowSwitch::new();
        let cost = |s: &ShadowSwitch, prefix: &str, nh| s.probe(IN, T, p(prefix), nh).cost;
        assert_eq!(cost(&s, "10.0.0.0/23", NH1), Some(1));
        assert!(!s.probe(IN, T, p("10.0.0.0/23"), NH1).present);
        s.install(IN, T, p("10.0.0.0/23"), NH1);
        assert!(s.probe(IN, T, p("10.0.0.0/23"), NH1).present);
        // different next hop for another prefix: +1 (type 1)
        assert_eq!(cost(&s, "10.0.8.0/23", NH2), Some(1));
        s.install(IN, T, p("10.0.8.0/23"), NH2);
        // its sibling with the same hop: 0 (aggregates)
        assert_eq!(cost(&s, "10.0.10.0/23", NH2), Some(0));
        // exact conflict: infeasible, and the probe still says where the
        // traffic goes now
        let conflict = s.probe(IN, T, p("10.0.8.0/23"), NH1);
        assert_eq!((conflict.current, conflict.cost), (Some(NH2), None));
    }

    #[test]
    fn packed_keys_round_trip_and_sort_as_pairs() {
        let pairs = [
            (IN, PolicyTag(7)),
            (IN, PolicyTag(u16::MAX)),
            (Entry::FromMb(MiddleboxId(0)), PolicyTag(0)),
            (Entry::FromMb(MiddleboxId(u32::MAX)), T),
            (Entry::FromSwitch(SwitchId(3)), T),
            (Entry::FromSwitch(SwitchId(u32::MAX)), PolicyTag(u16::MAX)),
        ];
        for a in pairs {
            assert_eq!(unpack_key(table_key(a.0, a.1)), a);
            for b in pairs {
                let packed = table_key(a.0, a.1).cmp(&table_key(b.0, b.1));
                assert_eq!(packed, a.cmp(&b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn entries_are_separate_namespaces() {
        let mut s = ShadowSwitch::new();
        let mb = Entry::FromMb(MiddleboxId(3));
        s.install(IN, T, p("10.0.0.0/23"), NH1);
        s.install(mb, T, p("10.0.0.0/23"), NH2);
        assert_eq!(s.next_hop(IN, T, p("10.0.0.0/23")), Some(NH1));
        assert_eq!(s.next_hop(mb, T, p("10.0.0.0/23")), Some(NH2));
        assert_eq!(s.rule_count(), 2);
    }

    #[test]
    fn tags_are_separate_namespaces() {
        let mut s = ShadowSwitch::new();
        s.install(IN, PolicyTag(1), p("10.0.0.0/23"), NH1);
        s.install(IN, PolicyTag(2), p("10.0.0.0/23"), NH2);
        assert_eq!(s.next_hop(IN, PolicyTag(1), p("10.0.0.0/23")), Some(NH1));
        assert_eq!(s.next_hop(IN, PolicyTag(2), p("10.0.0.0/23")), Some(NH2));
        let mut tags: Vec<_> = s.tags().collect();
        tags.sort();
        assert_eq!(tags, vec![PolicyTag(1), PolicyTag(2)]);
    }

    #[test]
    fn longest_prefix_wins_within_tag() {
        let mut s = ShadowSwitch::new();
        s.install(IN, T, p("10.0.0.0/16"), NH1);
        s.install(IN, T, p("10.0.0.0/24"), NH2);
        assert_eq!(s.next_hop(IN, T, p("10.0.0.0/24")), Some(NH2));
        assert_eq!(s.next_hop(IN, T, p("10.0.1.0/24")), Some(NH1));
    }

    #[test]
    fn deferral_adds_location_entries_that_merge_upward() {
        let mut s = ShadowSwitch::new();
        let (a, b) = (SwitchId(10), SwitchId(20));
        let mut deltas = Vec::new();
        s.defer(T, p("10.0.0.0/23"), a, |d| deltas.push(d));
        assert_eq!(
            deltas,
            vec![ShadowDelta::AddLocation {
                block: p("10.0.0.0/23"),
                next: a
            }]
        );
        // its sibling with the same next hop merges for free; with
        // another it costs a rule
        assert_eq!(s.probe_location(p("10.0.2.0/23"), a), (None, 0));
        assert_eq!(s.probe_location(p("10.0.2.0/23"), b), (None, 1));
        deltas.clear();
        s.defer(PolicyTag(2), p("10.0.2.0/23"), a, |d| deltas.push(d));
        assert_eq!(
            deltas,
            vec![
                ShadowDelta::RemoveLocation {
                    block: p("10.0.0.0/23")
                },
                ShadowDelta::AddLocation {
                    block: p("10.0.0.0/22"),
                    next: a
                },
            ]
        );
        // a covered prefix is answered, for any tag, and costs nothing
        assert_eq!(s.probe_location(p("10.0.2.0/23"), a), (Some(a), 0));
        assert_eq!(
            s.resolve(IN, PolicyTag(7), p("10.0.2.0/23")),
            Some(NextHop::Switch(a))
        );
        deltas.clear();
        s.defer(PolicyTag(3), p("10.0.2.0/23"), a, |d| deltas.push(d));
        assert!(deltas.is_empty(), "an answered prefix adds no entry");
        // the sibling block above, at a /22, merges the pair to a /21
        s.defer(T, p("10.0.6.0/23"), a, |_| {});
        s.defer(T, p("10.0.4.0/23"), a, |_| {});
        assert_eq!(s.occupancy(), (0, 0, 1));
        assert_eq!(s.location(p("10.0.6.0/23")), Some(a));
        assert_eq!(s.location(p("10.0.8.0/23")), None);
        assert_eq!(s.rule_count(), 1);
    }

    #[test]
    fn a_deferring_table_takes_no_default() {
        let mut s = ShadowSwitch::new();
        let mb = Entry::FromMb(MiddleboxId(3));
        s.defer(T, p("10.0.0.0/23"), SwitchId(10), |_| {});
        // the tag's first unqualified rule is a Type 1 rule, so the
        // deferred prefix still falls through to the location stage
        let d = s.install(IN, T, p("10.0.8.0/23"), NH2);
        assert!(matches!(d[..], [ShadowDelta::AddPrefix { .. }]), "{d:?}");
        assert_eq!(s.resolve(IN, T, p("10.0.0.0/23")), Some(NH1));
        // other tags and other tables keep their defaults
        let d = s.install(IN, PolicyTag(2), p("10.0.8.0/23"), NH2);
        assert!(matches!(d[..], [ShadowDelta::SetDefault { .. }]), "{d:?}");
        let d = s.install(mb, T, p("10.0.8.0/23"), NH2);
        assert!(matches!(d[..], [ShadowDelta::SetDefault { .. }]), "{d:?}");
        assert_eq!(s.occupancy(), (1, 2, 1));
    }

    #[test]
    fn resolve_follows_the_pipeline() {
        let mut s = ShadowSwitch::new();
        let from = Entry::FromSwitch(SwitchId(5));
        s.defer(T, p("10.0.0.0/23"), SwitchId(10), |_| {});
        assert_eq!(s.resolve(from, T, p("10.0.0.0/23")), Some(NH1));
        s.install(IN, PolicyTag(2), p("10.0.0.0/23"), NH2);
        assert_eq!(s.resolve(from, PolicyTag(2), p("10.0.0.0/23")), Some(NH2));
        s.install(from, PolicyTag(2), p("10.0.0.0/23"), NH3);
        assert_eq!(s.resolve(from, PolicyTag(2), p("10.0.0.0/23")), Some(NH3));
        assert_eq!(s.resolve(IN, PolicyTag(2), p("10.0.0.0/23")), Some(NH2));
        assert_eq!(s.resolve(IN, T, p("10.0.8.0/23")), None);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A flat reference model: the exact (prefix -> nh) writes in
        /// order, no aggregation, longest-prefix-wins + default.
        #[derive(Default)]
        struct FlatModel {
            default: Option<NextHop>,
            writes: Vec<(Ipv4Prefix, NextHop)>,
        }

        impl FlatModel {
            fn install(&mut self, prefix: Ipv4Prefix, nh: NextHop) {
                if self.default.is_none() && self.writes.is_empty() {
                    self.default = Some(nh);
                } else if let Some(w) = self.writes.iter_mut().find(|(p, _)| *p == prefix) {
                    w.1 = nh;
                } else {
                    self.writes.push((prefix, nh));
                }
            }

            fn lookup(&self, addr: std::net::Ipv4Addr) -> Option<NextHop> {
                self.writes
                    .iter()
                    .filter(|(p, _)| p.contains(addr))
                    .max_by_key(|(p, _)| p.len())
                    .map(|(_, nh)| *nh)
                    .or(self.default)
            }
        }

        /// Installs at the /23 station-prefix granularity the real
        /// system uses (disjoint-or-equal prefixes, the installer's
        /// discipline).
        fn arb_installs() -> impl Strategy<Value = Vec<(u32, u8)>> {
            proptest::collection::vec((0u32..64, 0u8..3), 1..80)
        }

        proptest! {
            #[test]
            fn prop_aggregation_preserves_lookup_semantics(installs in arb_installs()) {
                let mut shadow = ShadowSwitch::new();
                let mut flat = FlatModel::default();
                for (station, hop) in installs {
                    let prefix = Ipv4Prefix::from_bits(0x0A00_0000 | (station << 9), 23);
                    let nh = NextHop::Switch(SwitchId(hop as u32));
                    // mirror the installer's discipline: skip writes the
                    // cost model rejects (exact conflicts)
                    if shadow.probe(IN, T, prefix, nh).cost.is_none() {
                        continue;
                    }
                    shadow.install(IN, T, prefix, nh);
                    flat.install(prefix, nh);
                }
                for station in 0u32..64 {
                    let addr = std::net::Ipv4Addr::from(0x0A00_0000 | (station << 9) | 3);
                    let prefix = Ipv4Prefix::from_bits(0x0A00_0000 | (station << 9), 23);
                    prop_assert_eq!(
                        shadow.next_hop(IN, T, prefix),
                        flat.lookup(addr),
                        "station {} diverged", station
                    );
                }
            }

            #[test]
            fn prop_rule_count_never_exceeds_flat(installs in arb_installs()) {
                let mut shadow = ShadowSwitch::new();
                let mut distinct: std::collections::HashSet<Ipv4Prefix> =
                    std::collections::HashSet::new();
                for (station, hop) in installs {
                    let prefix = Ipv4Prefix::from_bits(0x0A00_0000 | (station << 9), 23);
                    let nh = NextHop::Switch(SwitchId(hop as u32));
                    if shadow.probe(IN, T, prefix, nh).cost.is_none() {
                        continue;
                    }
                    shadow.install(IN, T, prefix, nh);
                    distinct.insert(prefix);
                }
                // aggregation is a pure win: never more entries than the
                // unaggregated write set (+1 for the default)
                prop_assert!(shadow.rule_count() <= distinct.len() + 1);
            }

            /// The incremental delta stream is a faithful encoding of
            /// re-aggregation: replaying only the emitted `ShadowDelta`s
            /// into a dumb rule store reconstructs the table
            /// rule-for-rule — so a consumer of the op stream (physical
            /// switches, replicas) converges on exactly the aggregated
            /// state a from-scratch recomputation would build, merges and
            /// cascades included, the location stage's too.
            #[test]
            fn prop_delta_stream_reconstructs_tables(installs in arb_installs()) {
                use std::collections::HashMap;
                let mut shadow = ShadowSwitch::new();
                // (entry, tag) -> (default, prefix rules), and the
                // location stage: no aggregation logic of their own, they
                // just obey the deltas
                type MirrorSlot = (Option<NextHop>, HashMap<Ipv4Prefix, NextHop>);
                let mut mirror: HashMap<(Entry, PolicyTag), MirrorSlot> = HashMap::new();
                let mut stage: HashMap<Ipv4Prefix, SwitchId> = HashMap::new();
                for (station, hop) in installs {
                    // spread across entries, tags and the location stage
                    // so namespace separation is exercised too
                    let entry = if station % 2 == 0 {
                        IN
                    } else {
                        Entry::FromMb(MiddleboxId(1))
                    };
                    let tag = if station % 3 == 0 { PolicyTag(9) } else { T };
                    let prefix = Ipv4Prefix::from_bits(0x0A00_0000 | (station << 9), 23);
                    let next = SwitchId(u32::from(hop));
                    let nh = NextHop::Switch(next);
                    let mut deltas = Vec::new();
                    let stage_agrees = shadow.location(prefix).is_none_or(|n| n == next);
                    if station % 4 == 2 && stage_agrees && shadow.next_hop(IN, tag, prefix).is_none() {
                        shadow.defer(tag, prefix, next, |d| deltas.push(d));
                    } else if shadow.probe(entry, tag, prefix, nh).cost.is_some() {
                        deltas = shadow.install(entry, tag, prefix, nh);
                    }
                    for delta in deltas {
                        match delta {
                            ShadowDelta::SetDefault { entry, tag, nh } => {
                                mirror.entry((entry, tag)).or_default().0 = Some(nh);
                            }
                            ShadowDelta::AddPrefix { entry, tag, prefix, nh } => {
                                mirror.entry((entry, tag)).or_default().1.insert(prefix, nh);
                            }
                            ShadowDelta::RemovePrefix { entry, tag, prefix } => {
                                let removed = mirror
                                    .entry((entry, tag))
                                    .or_default()
                                    .1
                                    .remove(&prefix);
                                prop_assert!(
                                    removed.is_some(),
                                    "delta removed a rule the stream never added: \
                                     {:?}/{:?}/{}", entry, tag, prefix
                                );
                            }
                            ShadowDelta::AddLocation { block, next } => {
                                prop_assert!(stage.insert(block, next).is_none());
                            }
                            ShadowDelta::RemoveLocation { block } => {
                                prop_assert!(stage.remove(&block).is_some());
                            }
                        }
                    }
                }
                let mut live: Vec<ShadowDelta> = shadow.iter_rules().collect();
                let mut replayed: Vec<ShadowDelta> = mirror
                    .iter()
                    .flat_map(|(&(entry, tag), (default, prefixes))| {
                        default
                            .iter()
                            .map(move |&nh| ShadowDelta::SetDefault { entry, tag, nh })
                            .chain(prefixes.iter().map(move |(&prefix, &nh)| {
                                ShadowDelta::AddPrefix { entry, tag, prefix, nh }
                            }))
                            .collect::<Vec<_>>()
                    })
                    .chain(stage.iter().map(|(&block, &next)| ShadowDelta::AddLocation { block, next }))
                    .collect();
                live.sort_unstable();
                replayed.sort_unstable();
                prop_assert_eq!(live, replayed, "delta replay diverged from the table");
                prop_assert_eq!(shadow.rule_count(), shadow.iter_rules().count());
            }

            /// The fused probe is the composition it replaced
            /// (`getNextHop`, the conflict test, `canAggregate`), table
            /// by table, and its cost forecasts the install that
            /// follows: exactly for a plain install, an upper bound for
            /// a merge (priced 0, or 1 where the table has no covering
            /// answer yet), which never grows the table.
            #[test]
            fn prop_probe_matches_primitives_and_install(
                installs in proptest::collection::vec((0u32..64, 0u8..3, 0u8..3), 1..120),
            ) {
                let mut shadow = ShadowSwitch::new();
                for (station, hop, table) in installs {
                    let entry = match table {
                        0 => IN,
                        1 => Entry::FromMb(MiddleboxId(1)),
                        _ => Entry::FromSwitch(SwitchId(4)),
                    };
                    let tag = if station % 5 == 0 { PolicyTag(9) } else { T };
                    let prefix = Ipv4Prefix::from_bits(0x0A00_0000 | (station << 9), 23);
                    let nh = NextHop::Switch(SwitchId(hop as u32));
                    let probe = shadow.probe(entry, tag, prefix, nh);
                    prop_assert_eq!(probe.present, shadow.has_table(entry, tag));
                    prop_assert_eq!(probe.current, shadow.next_hop(entry, tag, prefix));
                    prop_assert_eq!(probe.cost, shadow.rule_cost(entry, tag, prefix, nh));
                    prop_assert_eq!(
                        probe.cost.is_none(),
                        shadow.conflicts(entry, tag, prefix, nh)
                    );
                    let Some(cost) = probe.cost else {
                        continue; // `install` would debug-panic
                    };
                    let before = shadow.rule_count() as i64;
                    let deltas = shadow.install(entry, tag, prefix, nh);
                    let added = shadow.rule_count() as i64 - before;
                    let removed = deltas
                        .iter()
                        .filter(|d| matches!(d, ShadowDelta::RemovePrefix { .. }))
                        .count();
                    if removed == 0 {
                        prop_assert_eq!(added, cost as i64);
                    } else {
                        prop_assert!(
                            added <= 0 && added <= cost as i64,
                            "cost {} but added {}", cost, added
                        );
                    }
                }
            }

            /// The location stage is immutable: a prefix it answers keeps
            /// its answer through every later deferral, whatever merges
            /// it makes; and its probe forecasts a deferral's rule count,
            /// exactly without a merge and as an upper bound with one.
            #[test]
            fn prop_location_answers_never_change(
                defers in proptest::collection::vec((0u32..64, 0u32..3), 1..120),
            ) {
                let prefix = |station: u32| Ipv4Prefix::from_bits(0x0A00_0000 | (station << 9), 23);
                let mut s = ShadowSwitch::new();
                let mut answered: Vec<(u32, SwitchId)> = Vec::new();
                for (station, hop) in defers {
                    let next = SwitchId(hop);
                    let (answer, cost) = s.probe_location(prefix(station), next);
                    prop_assert_eq!(answer, s.location(prefix(station)));
                    if answer.is_none() {
                        prop_assert_eq!(cost, s.location_cost(prefix(station), next));
                    }
                    if answer.is_some_and(|a| a != next) {
                        continue;
                    }
                    let before = s.rule_count() as i64;
                    let mut merges = 0;
                    s.defer(T, prefix(station), next, |d| {
                        merges += usize::from(matches!(d, ShadowDelta::RemoveLocation { .. }));
                    });
                    let added = s.rule_count() as i64 - before;
                    match (answer, merges) {
                        (Some(_), _) => prop_assert_eq!(added, 0),
                        (None, 0) => prop_assert_eq!(added, cost as i64),
                        (None, _) => prop_assert!(added <= 0 && added <= cost as i64),
                    }
                    answered.push((station, next));
                    for &(st, n) in &answered {
                        prop_assert_eq!(s.location(prefix(st)), Some(n), "station {}", st);
                    }
                }
                prop_assert_eq!(s.occupancy().2, s.rule_count());
            }
        }
    }

    #[test]
    fn faithful_replica_reports_no_divergence() {
        // Replaying the same install sequence (not cloning) must
        // reconstruct rule-for-rule identical state, including the
        // aggregation structure.
        let installs = [
            (IN, T, "10.0.0.0/8", NH1),
            (IN, T, "10.1.0.0/24", NH2),
            (IN, T, "10.1.1.0/24", NH2), // merges to /23
            (Entry::FromMb(MiddleboxId(3)), T, "10.2.0.0/23", NH2),
            (IN, PolicyTag(9), "10.3.0.0/23", NH1),
        ];
        let mut primary = ShadowSwitch::new();
        let mut replica = ShadowSwitch::new();
        for (entry, tag, prefix, nh) in installs {
            primary.install(entry, tag, p(prefix), nh);
            replica.install(entry, tag, p(prefix), nh);
        }
        assert_eq!(primary.diff(&replica), vec![]);
        assert_eq!(replica.diff(&primary), vec![]);
    }

    #[test]
    fn divergent_replica_is_detected_and_reported() {
        let mb = Entry::FromMb(MiddleboxId(3));
        let mut primary = ShadowSwitch::new();
        primary.install(IN, T, p("10.0.0.0/8"), NH1); // default
        primary.install(IN, T, p("10.1.0.0/24"), NH2);
        primary.install(mb, T, p("10.4.0.0/23"), NH2); // replica will drop this
                                                       // A deliberately divergent replica: its log replay lost one
                                                       // record, invented another, and flipped a next hop.
        let mut replica = ShadowSwitch::new();
        replica.install(IN, T, p("10.0.0.0/8"), NH1); // default agrees
        replica.install(IN, T, p("10.1.0.0/24"), NH3); // flipped hop
        replica.install(IN, T, p("10.9.0.0/24"), NH2); // invented rule
        let report = primary.diff(&replica);
        assert_eq!(
            report,
            vec![
                Divergence {
                    slot: RuleSlot::Tag {
                        entry: IN,
                        tag: T,
                        prefix: Some(p("10.1.0.0/24"))
                    },
                    kind: DivergenceKind::Mismatch {
                        expected: NH2,
                        found: NH3
                    },
                },
                Divergence {
                    slot: RuleSlot::Tag {
                        entry: IN,
                        tag: T,
                        prefix: Some(p("10.9.0.0/24"))
                    },
                    kind: DivergenceKind::Extra { found: NH2 },
                },
                // the mb install landed as the tag's Type 2 default
                Divergence {
                    slot: RuleSlot::Tag {
                        entry: mb,
                        tag: T,
                        prefix: None
                    },
                    kind: DivergenceKind::Missing { expected: NH2 },
                },
            ],
            "every divergence must be surfaced, not silently absorbed"
        );
        // The report is directional: from the replica's point of view
        // the missing/extra roles swap.
        let reverse = replica.diff(&primary);
        assert_eq!(reverse.len(), 3);
        assert!(reverse
            .iter()
            .any(|d| matches!(d.kind, DivergenceKind::Extra { found: NH2 })
                && matches!(d.slot, RuleSlot::Tag { entry, .. } if entry == mb)));
    }

    #[test]
    fn default_rule_divergence_is_reported() {
        let mut primary = ShadowSwitch::new();
        primary.install(IN, T, p("10.0.0.0/8"), NH1);
        let replica = ShadowSwitch::new(); // never saw the install
        assert_eq!(
            primary.diff(&replica),
            vec![Divergence {
                slot: RuleSlot::Tag {
                    entry: IN,
                    tag: T,
                    prefix: None
                },
                kind: DivergenceKind::Missing { expected: NH1 },
            }]
        );
    }

    #[test]
    fn location_divergence_is_reported() {
        let mut primary = ShadowSwitch::new();
        primary.defer(T, p("10.0.0.0/23"), SwitchId(10), |_| {});
        primary.defer(T, p("10.0.4.0/23"), SwitchId(10), |_| {});
        let mut replica = ShadowSwitch::new();
        replica.defer(T, p("10.0.0.0/23"), SwitchId(10), |_| {});
        replica.defer(T, p("10.0.4.0/23"), SwitchId(20), |_| {});
        replica.defer(T, p("10.0.8.0/23"), SwitchId(10), |_| {});
        let at = |block: &str, kind| Divergence {
            slot: RuleSlot::Location(p(block)),
            kind,
        };
        assert_eq!(
            primary.diff(&replica),
            vec![
                at(
                    "10.0.4.0/23",
                    DivergenceKind::Mismatch {
                        expected: NH1,
                        found: NH2
                    }
                ),
                at("10.0.8.0/23", DivergenceKind::Extra { found: NH1 }),
            ]
        );
        assert_eq!(ShadowSwitch::new().diff(&ShadowSwitch::new()), vec![]);
    }

    #[test]
    fn network_diff_attributes_divergence_to_switch() {
        let mut primary = ShadowTables::new(3);
        let mut replica = ShadowTables::new(3);
        for t in [&mut primary, &mut replica] {
            t.switch_mut(SwitchId(0))
                .install(IN, T, p("10.0.0.0/23"), NH1);
        }
        primary
            .switch_mut(SwitchId(2))
            .install(IN, T, p("10.0.8.0/23"), NH2);
        let report = primary.diff(&replica);
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].0, SwitchId(2));
        assert_eq!(report[0].1.kind, DivergenceKind::Missing { expected: NH2 });
        // A replica that lost a whole switch diverges on every rule of
        // that switch, not just on the shared ones.
        let short = ShadowTables::new(1);
        let mut shorter = ShadowTables::new(1);
        shorter
            .switch_mut(SwitchId(0))
            .install(IN, T, p("10.0.0.0/23"), NH1);
        let report = primary.diff(&short);
        assert_eq!(report.len(), 2, "switch 0 default + switch 2 default");
        assert!(primary
            .diff(&shorter)
            .iter()
            .all(|(id, _)| *id == SwitchId(2)));
    }

    #[test]
    fn shadow_tables_indexing() {
        let mut t = ShadowTables::new(3);
        assert_eq!(t.len(), 3);
        t.switch_mut(SwitchId(1))
            .install(IN, T, p("10.0.0.0/23"), NH1);
        assert_eq!(t.rule_counts(), vec![0, 1, 0]);
        assert_eq!(t.switch(SwitchId(1)).rule_count(), 1);
    }
}
