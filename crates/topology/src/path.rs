//! Shortest paths and policy-path routing.
//!
//! SoftCell computes a **policy path** for each (service-policy clause,
//! base station) pair: access switch → middlebox₁ → … → middleboxₘ →
//! gateway (paper §3.2, Algorithm 1 input). Routing between consecutive
//! waypoints uses deterministic BFS shortest paths. Determinism matters
//! twice over: experiments are reproducible, and paths from different
//! base stations to the same waypoint *converge* (BFS trees share
//! suffixes), which is what gives multi-dimensional aggregation its
//! leverage.
//!
//! [`ShortestPaths`] lazily builds one BFS tree per waypoint root and
//! caches it, so routing a million policy paths costs one tree per
//! middlebox/gateway plus O(path length) per path.

use std::collections::VecDeque;

use softcell_types::{BaseStationId, Error, FxHashMap, MiddleboxId, Result, SwitchId};

use crate::graph::Topology;

/// One hop of a policy path: arrive at `switch`, optionally divert through
/// a middlebox attached to it, then continue towards the next hop.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Hop {
    /// The switch this hop occupies.
    pub switch: SwitchId,
    /// A middlebox (hosted on `switch`) the traffic must traverse before
    /// moving on. Traffic leaves to the middlebox port and re-enters on
    /// the same port; the re-entry rule matches on input port (paper §3.1
    /// footnote).
    pub mb_after: Option<MiddleboxId>,
}

/// Element-wise view of a policy path used in pretty-printing and tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PathElement {
    /// A switch hop.
    Switch(SwitchId),
    /// A middlebox traversal.
    Middlebox(MiddleboxId),
}

/// A fully-routed policy path from an access switch to a gateway.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PolicyPath {
    /// The base station this path originates from.
    pub origin: BaseStationId,
    /// Hops from the access switch (first) to the gateway switch (last).
    pub hops: Vec<Hop>,
}

impl PolicyPath {
    /// The access switch (first hop).
    pub fn access_switch(&self) -> SwitchId {
        self.hops[0].switch
    }

    /// The gateway switch (last hop).
    pub fn gateway_switch(&self) -> SwitchId {
        self.hops[self.hops.len() - 1].switch
    }

    /// The middlebox instances traversed, in order.
    pub fn middleboxes(&self) -> Vec<MiddleboxId> {
        self.hops.iter().filter_map(|h| h.mb_after).collect()
    }

    /// Flattened element sequence (switches and middleboxes interleaved).
    pub fn elements(&self) -> Vec<PathElement> {
        let mut out = Vec::with_capacity(self.hops.len() * 2);
        for h in &self.hops {
            out.push(PathElement::Switch(h.switch));
            if let Some(mb) = h.mb_after {
                out.push(PathElement::Middlebox(mb));
            }
        }
        out
    }

    /// Number of switch-to-switch forwarding steps.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Whether the path has no hops (never true for validated paths).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Validates the path against a topology:
    /// * consecutive hops are adjacent switches (or the same switch when
    ///   the earlier hop diverts through a middlebox);
    /// * every `mb_after` names a middlebox hosted on that hop's switch;
    /// * the path starts at the origin's access switch.
    ///
    /// The terminal may be a gateway (Internet-bound paths) or another
    /// access switch (mobile-to-mobile paths, paper §7). A station or
    /// middlebox the topology lacks is `NotFound`.
    pub fn validate(&self, topo: &Topology) -> Result<()> {
        if self.hops.is_empty() {
            return Err(Error::InvalidState("empty policy path".into()));
        }
        let access = station(topo, self.origin)?.access_switch;
        if self.access_switch() != access {
            return Err(Error::InvalidState(format!(
                "path starts at {} but {}'s access switch is {}",
                self.access_switch(),
                self.origin,
                access
            )));
        }
        let terminal = self.gateway_switch();
        let terminal_ok = topo.gateways().iter().any(|g| g.switch == terminal)
            || topo.base_station_at(terminal).is_some();
        if !terminal_ok {
            return Err(Error::InvalidState(format!(
                "path ends at {terminal}, which is neither a gateway nor an access switch"
            )));
        }
        for (i, h) in self.hops.iter().enumerate() {
            if let Some(mb) = h.mb_after {
                let host = host(topo, mb)?;
                if host != h.switch {
                    return Err(Error::InvalidState(format!(
                        "{mb} is hosted on {host} but hop {i} is {}",
                        h.switch
                    )));
                }
            }
            if i + 1 < self.hops.len() {
                let next = self.hops[i + 1].switch;
                if h.switch == next {
                    // staying put is only allowed to chain middleboxes on
                    // one switch
                    if h.mb_after.is_none() {
                        return Err(Error::InvalidState(format!(
                            "hop {i} repeats {} without a middlebox traversal",
                            h.switch
                        )));
                    }
                } else if topo.port_towards(h.switch, next).is_none() {
                    return Err(Error::InvalidState(format!(
                        "hops {i}->{} are not adjacent ({} -> {next})",
                        i + 1,
                        h.switch
                    )));
                }
            }
        }
        Ok(())
    }
}

/// A BFS tree rooted at one switch: parents point towards the root.
#[derive(Clone, Debug)]
pub struct BfsTree {
    root: SwitchId,
    parent: Vec<Option<SwitchId>>,
    dist: Vec<u32>,
}

impl BfsTree {
    fn build(topo: &Topology, root: SwitchId) -> BfsTree {
        let n = topo.switch_count();
        let mut parent = vec![None; n];
        let mut dist = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        dist[root.index()] = 0;
        queue.push_back(root);
        while let Some(sw) = queue.pop_front() {
            let d = dist[sw.index()];
            for &(next, _, _) in topo.neighbors(sw) {
                if dist[next.index()] == u32::MAX {
                    dist[next.index()] = d + 1;
                    parent[next.index()] = Some(sw);
                    queue.push_back(next);
                }
            }
        }
        BfsTree { root, parent, dist }
    }

    /// The root switch.
    pub fn root(&self) -> SwitchId {
        self.root
    }

    /// Hop distance from `from` to the root (`None` if unreachable).
    pub fn distance(&self, from: SwitchId) -> Option<u32> {
        let d = self.dist[from.index()];
        (d != u32::MAX).then_some(d)
    }

    /// The switch after `from` on its way to the root (its parent
    /// pointer): `None` at the root or where the root is unreachable.
    pub fn next_hop(&self, from: SwitchId) -> Option<SwitchId> {
        self.parent[from.index()]
    }

    /// The switch sequence `from .. root` inclusive, or `None` if
    /// unreachable.
    pub fn path_to_root(&self, from: SwitchId) -> Option<Vec<SwitchId>> {
        self.distance(from)?;
        let mut path = Vec::with_capacity(self.dist[from.index()] as usize + 1);
        let mut cur = from;
        path.push(cur);
        while cur != self.root {
            cur = self.parent[cur.index()].expect("reachable node has parent chain");
            path.push(cur);
        }
        Some(path)
    }
}

/// Lazy, cached BFS shortest paths over a topology, plus the waypoint
/// routing that produces [`PolicyPath`]s.
pub struct ShortestPaths {
    topo: Topology,
    trees: FxHashMap<SwitchId, BfsTree>,
}

impl ShortestPaths {
    /// Creates an empty cache over `topo`, holding its own handle.
    pub fn new(topo: &Topology) -> Self {
        ShortestPaths {
            topo: topo.clone(),
            trees: FxHashMap::default(),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The BFS tree rooted at `root`, computing it on first use.
    pub fn tree(&mut self, root: SwitchId) -> &BfsTree {
        self.trees
            .entry(root)
            .or_insert_with(|| BfsTree::build(&self.topo, root))
    }

    /// Number of cached trees (for capacity planning in benches).
    pub fn cached_trees(&self) -> usize {
        self.trees.len()
    }

    /// Shortest switch sequence from `src` to `dst` inclusive.
    pub fn path(&mut self, src: SwitchId, dst: SwitchId) -> Result<Vec<SwitchId>> {
        self.tree(dst)
            .path_to_root(src)
            .ok_or_else(|| Error::NoPath(format!("{src} cannot reach {dst}")))
    }

    /// Hop distance from `src` to `dst`.
    pub fn distance(&mut self, src: SwitchId, dst: SwitchId) -> Option<u32> {
        self.tree(dst).distance(src)
    }

    /// Routes a policy path: origin base station → the given middlebox
    /// instances in order → the given gateway switch. A station,
    /// middlebox or terminal the topology lacks is `NotFound`. One pass
    /// sizes the hop list from the trees, the next walks their parent
    /// pointers into it.
    pub fn route_policy_path(
        &mut self,
        origin: BaseStationId,
        middleboxes: &[MiddleboxId],
        gateway: SwitchId,
    ) -> Result<PolicyPath> {
        let access = station(&self.topo, origin)?.access_switch;
        if gateway.index() >= self.topo.switch_count() {
            return Err(Error::NotFound(format!("switch {gateway}")));
        }
        // one hop per switch stepped onto, plus one per middlebox that
        // chains onto a hop already diverting
        let mut len = 1 + middleboxes.len();
        let mut cursor = access;
        for &mb in middleboxes {
            let host = host(&self.topo, mb)?;
            len += self.leg_len(cursor, host)?;
            cursor = host;
        }
        len += self.leg_len(cursor, gateway)?;

        let mut hops = Vec::with_capacity(len);
        hops.push(Hop {
            switch: access,
            mb_after: None,
        });
        for &mb in middleboxes {
            let host = self.topo.middlebox(mb).switch;
            self.walk_leg(&mut hops, host);
            // mark the middlebox traversal on the (single) host hop
            let last = hops.last_mut().expect("a path has its access hop");
            if last.mb_after.is_some() {
                // chaining two middleboxes on one switch: add another hop
                // on the same switch
                hops.push(Hop {
                    switch: host,
                    mb_after: Some(mb),
                });
            } else {
                last.mb_after = Some(mb);
            }
        }
        self.walk_leg(&mut hops, gateway);
        debug_assert!(hops.len() <= len, "the hop list never regrows");

        let path = PolicyPath { origin, hops };
        debug_assert!(path.validate(&self.topo).is_ok());
        Ok(path)
    }

    /// Hops from `from` to `to`, building `to`'s tree if needed.
    fn leg_len(&mut self, from: SwitchId, to: SwitchId) -> Result<usize> {
        let d = self.tree(to).distance(from).map(|d| d as usize);
        d.ok_or_else(|| Error::NoPath(format!("{from} cannot reach {to}")))
    }

    /// Appends the switches after the hop list's last one up to `to`,
    /// following `to`'s tree (built and checked by [`Self::leg_len`]).
    fn walk_leg(&self, hops: &mut Vec<Hop>, to: SwitchId) {
        let tree = &self.trees[&to];
        let mut cur = hops.last().expect("a path has its access hop").switch;
        while cur != to {
            cur = tree.parent[cur.index()].expect("reachable node has parent chain");
            hops.push(Hop {
                switch: cur,
                mb_after: None,
            });
        }
    }
}

/// A base station, or `NotFound` when the topology lacks it.
fn station(topo: &Topology, id: BaseStationId) -> Result<&crate::graph::BaseStation> {
    let found = topo.base_stations().get(id.index());
    found.ok_or_else(|| Error::NotFound(format!("base station {id}")))
}

/// A middlebox's host switch, or `NotFound` when the topology lacks it.
fn host(topo: &Topology, mb: MiddleboxId) -> Result<SwitchId> {
    let found = topo.middleboxes().get(mb.index()).map(|m| m.switch);
    found.ok_or_else(|| Error::NotFound(format!("middlebox {mb}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{SwitchRole, TopologyBuilder};
    use softcell_types::MiddleboxKind;

    /// A diamond fabric:
    ///
    /// ```text
    ///        gw(0)
    ///       /     \
    ///   c1(1)     c2(2)     fw on c1, tc on c2, ids on c1
    ///       \     /
    ///        agg(3)
    ///       /     \
    ///  acc1(4)   acc2(5)
    /// ```
    fn diamond() -> (Topology, Vec<MiddleboxId>) {
        let mut b = TopologyBuilder::new();
        let gw = b.add_switch(SwitchRole::Gateway);
        let c1 = b.add_switch(SwitchRole::Core);
        let c2 = b.add_switch(SwitchRole::Core);
        let agg = b.add_switch(SwitchRole::Aggregation);
        let a1 = b.add_switch(SwitchRole::Access);
        let a2 = b.add_switch(SwitchRole::Access);
        b.link(gw, c1).unwrap();
        b.link(gw, c2).unwrap();
        b.link(c1, agg).unwrap();
        b.link(c2, agg).unwrap();
        b.link(agg, a1).unwrap();
        b.link(agg, a2).unwrap();
        let fw = b.attach_middlebox(MiddleboxKind::Firewall, c1).unwrap();
        let tc = b.attach_middlebox(MiddleboxKind::Transcoder, c2).unwrap();
        let ids = b
            .attach_middlebox(MiddleboxKind::IntrusionDetection, c1)
            .unwrap();
        b.attach_base_station(a1).unwrap();
        b.attach_base_station(a2).unwrap();
        b.attach_gateway(gw).unwrap();
        (b.build().unwrap(), vec![fw, tc, ids])
    }

    #[test]
    fn bfs_tree_distances_and_paths() {
        let (t, _) = diamond();
        let mut sp = ShortestPaths::new(&t);
        assert_eq!(sp.distance(SwitchId(4), SwitchId(0)), Some(3));
        assert_eq!(sp.distance(SwitchId(0), SwitchId(0)), Some(0));
        let path = sp.path(SwitchId(4), SwitchId(0)).unwrap();
        assert_eq!(path.len(), 4);
        assert_eq!(path[0], SwitchId(4));
        assert_eq!(*path.last().unwrap(), SwitchId(0));
        // consecutive switches adjacent
        for w in path.windows(2) {
            assert!(t.port_towards(w[0], w[1]).is_some());
        }
    }

    #[test]
    fn trees_are_cached() {
        let (t, _) = diamond();
        let mut sp = ShortestPaths::new(&t);
        sp.path(SwitchId(4), SwitchId(0)).unwrap();
        sp.path(SwitchId(5), SwitchId(0)).unwrap();
        assert_eq!(sp.cached_trees(), 1);
    }

    #[test]
    fn paths_to_same_root_share_suffix() {
        // The aggregation property: two stations' paths to the gateway
        // converge at agg and share agg->...->gw.
        let (t, _) = diamond();
        let mut sp = ShortestPaths::new(&t);
        let p1 = sp.path(SwitchId(4), SwitchId(0)).unwrap();
        let p2 = sp.path(SwitchId(5), SwitchId(0)).unwrap();
        assert_eq!(p1[1..], p2[1..], "suffixes after the access hop coincide");
    }

    #[test]
    fn route_through_one_middlebox() {
        let (t, mbs) = diamond();
        let fw = mbs[0];
        let mut sp = ShortestPaths::new(&t);
        let path = sp
            .route_policy_path(BaseStationId(0), &[fw], SwitchId(0))
            .unwrap();
        path.validate(&t).unwrap();
        assert_eq!(path.access_switch(), SwitchId(4));
        assert_eq!(path.gateway_switch(), SwitchId(0));
        assert_eq!(path.middleboxes(), vec![fw]);
        // fw is on c1: acc1 -> agg -> c1(fw) -> gw
        let switches: Vec<SwitchId> = path.hops.iter().map(|h| h.switch).collect();
        assert_eq!(
            switches,
            vec![SwitchId(4), SwitchId(3), SwitchId(1), SwitchId(0)]
        );
        assert_eq!(path.hops[2].mb_after, Some(fw));
    }

    #[test]
    fn route_through_two_middleboxes_on_different_switches() {
        let (t, mbs) = diamond();
        let (fw, tc) = (mbs[0], mbs[1]);
        let mut sp = ShortestPaths::new(&t);
        let path = sp
            .route_policy_path(BaseStationId(0), &[fw, tc], SwitchId(0))
            .unwrap();
        path.validate(&t).unwrap();
        assert_eq!(path.middleboxes(), vec![fw, tc]);
        // fw on c1, tc on c2: path must go acc1,agg,c1(fw), then c1->? c2:
        // c1-c2 not adjacent; shortest c1->c2 via gw or agg (both len 2).
        let switches: Vec<SwitchId> = path.hops.iter().map(|h| h.switch).collect();
        assert_eq!(switches[..3], [SwitchId(4), SwitchId(3), SwitchId(1)]);
        assert_eq!(*switches.last().unwrap(), SwitchId(0));
    }

    #[test]
    fn route_chains_middleboxes_on_same_switch() {
        let (t, mbs) = diamond();
        let (fw, ids) = (mbs[0], mbs[2]); // both on c1
        let mut sp = ShortestPaths::new(&t);
        let path = sp
            .route_policy_path(BaseStationId(0), &[fw, ids], SwitchId(0))
            .unwrap();
        path.validate(&t).unwrap();
        assert_eq!(path.middleboxes(), vec![fw, ids]);
        // c1 appears twice, once per middlebox
        let c1_hops: Vec<&Hop> = path
            .hops
            .iter()
            .filter(|h| h.switch == SwitchId(1))
            .collect();
        assert_eq!(c1_hops.len(), 2);
        assert_eq!(c1_hops[0].mb_after, Some(fw));
        assert_eq!(c1_hops[1].mb_after, Some(ids));
    }

    #[test]
    fn route_with_no_middleboxes_is_plain_shortest_path() {
        let (t, _) = diamond();
        let mut sp = ShortestPaths::new(&t);
        let path = sp
            .route_policy_path(BaseStationId(1), &[], SwitchId(0))
            .unwrap();
        path.validate(&t).unwrap();
        assert!(path.middleboxes().is_empty());
        assert_eq!(path.len(), 4);
    }

    #[test]
    fn validate_rejects_corrupted_paths() {
        let (t, mbs) = diamond();
        let mut sp = ShortestPaths::new(&t);
        let good = sp
            .route_policy_path(BaseStationId(0), &[mbs[0]], SwitchId(0))
            .unwrap();

        // non-adjacent hops
        let mut bad = good.clone();
        bad.hops.remove(1);
        assert!(bad.validate(&t).is_err());

        // middlebox on wrong switch
        let mut bad = good.clone();
        bad.hops[1].mb_after = Some(mbs[0]); // fw hosted on c1, hop1 is agg
        assert!(bad.validate(&t).is_err());

        // wrong origin
        let mut bad = good.clone();
        bad.origin = BaseStationId(1);
        assert!(bad.validate(&t).is_err());

        // ends mid-fabric (neither gateway nor access switch)
        let mut bad = good;
        bad.hops.pop();
        assert!(bad.validate(&t).is_err());
    }

    #[test]
    fn routing_to_or_from_ids_outside_the_topology_is_not_found() {
        let (t, mbs) = diamond();
        let mut sp = ShortestPaths::new(&t);
        let requests = [
            (BaseStationId(9), mbs[0], SwitchId(0)),
            (BaseStationId(0), MiddleboxId(99), SwitchId(0)),
            (BaseStationId(0), mbs[0], SwitchId(99)),
        ];
        for (origin, mb, terminal) in requests {
            let r = sp.route_policy_path(origin, &[mb], terminal);
            assert!(
                matches!(r, Err(Error::NotFound(_))),
                "{origin} via {mb} to {terminal}: {r:?}"
            );
        }
    }

    #[test]
    fn validate_refuses_ids_outside_the_topology() {
        let (t, mbs) = diamond();
        let mut sp = ShortestPaths::new(&t);
        let good = sp
            .route_policy_path(BaseStationId(0), &[mbs[0]], SwitchId(0))
            .unwrap();
        let mut origin = good.clone();
        origin.origin = BaseStationId(9);
        let mut mb = good;
        mb.hops[2].mb_after = Some(MiddleboxId(99));
        for bad in [origin, mb] {
            let r = bad.validate(&t);
            assert!(matches!(r, Err(Error::NotFound(_))), "{bad:?}: {r:?}");
        }
    }

    #[test]
    fn elements_interleave_switches_and_middleboxes() {
        let (t, mbs) = diamond();
        let mut sp = ShortestPaths::new(&t);
        let path = sp
            .route_policy_path(BaseStationId(0), &[mbs[0]], SwitchId(0))
            .unwrap();
        let elems = path.elements();
        assert!(matches!(elems[0], PathElement::Switch(_)));
        assert!(elems.contains(&PathElement::Middlebox(mbs[0])));
    }
}
