//! Cluster harness: killable links, fail-over, and agent re-homing.
//!
//! [`Cluster`] runs N [`ControllerServer`]s, one per seat, and wires
//! their seats ([`ReplicaNode`]) into a full mesh of in-process
//! loopback links wrapped in [`Killable`]: every link watches the
//! *kill switch* of both endpoint seats, so flipping one seat's switch
//! severs all its links at once — the in-process equivalent of
//! `kill -9`, with no goodbye frames and no graceful teardown. The dead
//! seat's `Arc` state is frozen, which is exactly what the recovery
//! test wants: a readable pre-kill oracle. Agents reach a seat through
//! its server's serve loop, over a link that dies with the seat.
//!
//! Peer links can also be *cut* (partitioned): sends fail and delivery
//! stops, but the serve loops stay alive, so healing the cut restores
//! the link. Cuts are how the fencing test isolates a leader without
//! destroying it — the paper-level scenario of a controller that is
//! alive but on the wrong side of a partition. A cut separates seats
//! from one another, not from their agents.
//!
//! Fail-over ([`Cluster::fail_over`]) is deliberately deterministic:
//! the initiating survivor advances the membership ring (epoch + 1),
//! broadcasts the view, then exchanges logs with every survivor — the
//! side holding the lower-ranked log adopts the other's and replays it —
//! so all survivors end on one log, even if the dead leader's final
//! records reached only some of them and the initiator missed records
//! others hold. The new view's leader is its first live seat. Agents
//! detect leader death by probe failure and re-home (`rehome_agent`)
//! to it, replaying their UEs with `resync`: the engine answers an
//! attach at a UE's own location with its live record.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use softcell_controller::agent::LocalAgent;
use softcell_controller::server::ControllerServer;
use softcell_controller::wire::ChannelController;
use softcell_controller::{ReplicaConfig, ReplicaNode};
use softcell_ctlchan::{loopback_pair, ChannelCounters, CtlChannel, Loopback, Transport};
use softcell_policy::{ServicePolicy, SubscriberAttributes};
use softcell_telemetry::Registry;
use softcell_types::{BaseStationId, ControllerId, Error, Membership, Result, SimTime};

/// How often a blocked [`Killable`] recv re-checks its kill and cut
/// flags.
const POLL: Duration = Duration::from_millis(10);

/// A transport wrapper that models `kill -9` and network partitions.
///
/// * **Kill** (any watched kill switch set): sends fail, recv reports a
///   clean close (`Ok(None)`) so serve loops exit. Permanent.
/// * **Cut** (any watched cut flag set): sends fail and delivery
///   pauses, but recv keeps polling — clearing the flag restores the
///   link with its serve loop intact. Recoverable.
pub struct Killable<T: Transport> {
    inner: T,
    kills: Vec<Arc<AtomicBool>>,
    cuts: Vec<Arc<AtomicBool>>,
    user_deadline: Option<Duration>,
}

impl<T: Transport> Killable<T> {
    /// Wraps `inner`, watching the given kill switches and cut flags.
    pub(crate) fn new(
        inner: T,
        kills: Vec<Arc<AtomicBool>>,
        cuts: Vec<Arc<AtomicBool>>,
    ) -> Killable<T> {
        Killable {
            inner,
            kills,
            cuts,
            user_deadline: None,
        }
    }

    fn killed(&self) -> bool {
        // Acquire pairs with the Release store in Cluster::kill: state
        // written before the kill is visible to whoever observes it.
        self.kills.iter().any(|k| k.load(Ordering::Acquire))
    }

    fn cut(&self) -> bool {
        self.cuts.iter().any(|c| c.load(Ordering::Acquire))
    }
}

impl<T: Transport> Transport for Killable<T> {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        if self.killed() {
            return Err(Error::InvalidState("link endpoint killed".into()));
        }
        if self.cut() {
            return Err(Error::Timeout("link partitioned".into()));
        }
        self.inner.send(frame)
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>> {
        let started = Instant::now();
        loop {
            if self.killed() {
                // kill -9: the connection just ends; serve loops exit
                // cleanly with no goodbye traffic
                return Ok(None);
            }
            let budget = match self.user_deadline {
                Some(d) => {
                    let remaining = d.saturating_sub(started.elapsed());
                    if remaining.is_zero() {
                        return Err(Error::Timeout("deadline elapsed on killable link".into()));
                    }
                    remaining.min(POLL)
                }
                None => POLL,
            };
            if self.cut() {
                // partitioned: nothing is delivered, but the loop (and
                // with it the peer's serve thread) stays alive
                std::thread::sleep(budget);
                continue;
            }
            self.inner.set_deadline(Some(budget))?;
            match self.inner.recv() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_timeout() => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn counters(&self) -> Arc<ChannelCounters> {
        self.inner.counters()
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<()> {
        self.user_deadline = deadline;
        Ok(())
    }
}

/// The link type every cluster connection uses.
pub type Link = Killable<Loopback>;

/// An N-controller cluster over an in-process full mesh.
pub struct Cluster {
    servers: Vec<ControllerServer>,
    kills: Vec<Arc<AtomicBool>>,
    cuts: Vec<Arc<AtomicBool>>,
    threads: Mutex<Vec<JoinHandle<Result<()>>>>,
}

impl Cluster {
    /// Starts `n` controllers — one server of one domain per seat — with
    /// the given commit quorum. Every seat gets the same policy and
    /// subscriber registry; seat 0 leads the bootstrap view.
    pub fn start(
        n: usize,
        quorum: usize,
        policy: &ServicePolicy,
        subscribers: &[SubscriberAttributes],
        peer_deadline: Duration,
    ) -> Result<Cluster> {
        let membership = Membership::bootstrap(n)?;
        let kills: Vec<Arc<AtomicBool>> =
            (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect();
        let cuts: Vec<Arc<AtomicBool>> = (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect();
        let subs: HashMap<_, _> = subscribers.iter().map(|s| (s.imsi, *s)).collect();

        // Build every directed link client-end first so nodes can be
        // created with their full peer vectors, keeping the server ends
        // for serve threads spawned after.
        let mut client_ends: Vec<Vec<Option<Link>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut server_ends: Vec<(usize, Link)> = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let (a, b) = loopback_pair();
                let watch_kills = vec![Arc::clone(&kills[i]), Arc::clone(&kills[j])];
                let watch_cuts = vec![Arc::clone(&cuts[i]), Arc::clone(&cuts[j])];
                client_ends[i][j] = Some(Killable::new(a, watch_kills.clone(), watch_cuts.clone()));
                server_ends.push((j, Killable::new(b, watch_kills, watch_cuts)));
            }
        }

        let mut servers = Vec::with_capacity(n);
        for (i, ends) in client_ends.into_iter().enumerate() {
            let peers = ends
                .into_iter()
                .map(|t| t.map(|t| CtlChannel::new(Box::new(t) as Box<dyn Transport>)))
                .collect();
            let cfg = ReplicaConfig {
                id: ControllerId(i as u32),
                quorum,
                peer_deadline,
                policy: policy.clone(),
                subscribers: subs.clone(),
            };
            let seat = ReplicaNode::new(cfg, membership.clone(), peers)?;
            servers.push(ControllerServer::start(seat, 1)?);
        }

        let mut threads = Vec::with_capacity(server_ends.len());
        for (owner, transport) in server_ends {
            threads.push(servers[owner].seat().serve_peer(transport));
        }
        Ok(Cluster {
            servers,
            kills,
            cuts,
            threads: Mutex::new(threads),
        })
    }

    /// The seat of the server at `seat`.
    pub fn node(&self, seat: usize) -> &Arc<ReplicaNode> {
        self.servers[seat].seat()
    }

    /// Number of seats.
    pub fn seats(&self) -> usize {
        self.servers.len()
    }

    /// Whether `seat` has been killed.
    pub fn is_killed(&self, seat: usize) -> bool {
        self.kills[seat].load(Ordering::Acquire)
    }

    /// `kill -9` for `seat`: every link touching it dies instantly, no
    /// goodbye frames, no teardown. The node's in-memory state freezes
    /// — read it through the `Arc` as the pre-kill oracle.
    pub fn kill(&self, seat: usize) {
        // Release pairs with Killable::killed's Acquire load.
        self.kills[seat].store(true, Ordering::Release);
        Registry::global()
            .tracer()
            .instant("controller_killed", seat as u64);
    }

    /// Partitions `seat`: all its links stop carrying traffic but stay
    /// alive. Recoverable with [`heal`](Self::heal).
    pub fn cut(&self, seat: usize) {
        self.cuts[seat].store(true, Ordering::Release);
    }

    /// Heals a [`cut`](Self::cut) partition.
    pub fn heal(&self, seat: usize) {
        self.cuts[seat].store(false, Ordering::Release);
    }

    /// The newest membership view any seat that is not killed holds. A
    /// cut seat is alive but may be deposed; its older view must not
    /// route agents.
    pub fn membership(&self) -> Result<Membership> {
        (0..self.seats())
            .filter(|&s| !self.is_killed(s))
            .map(|s| self.node(s).membership())
            .max_by_key(Membership::epoch)
            .ok_or_else(|| Error::InvalidState("no live seat".into()))
    }

    fn first_live(&self) -> Option<usize> {
        (0..self.seats()).find(|&s| !self.is_killed(s))
    }

    /// Declares `dead` seats down and drives the deterministic
    /// fail-over: the first live survivor advances the ring, broadcasts
    /// the epoch change, and exchanges logs so every survivor holds the
    /// highest-ranked one. Returns the new view. Fails when the exchange
    /// reaches no quorum: the view stands, and its leader retries the
    /// exchange before its first proposal. Duration lands in the
    /// `softcell_replica_recovery_time_us` histogram.
    pub fn fail_over(&self, dead: &[ControllerId]) -> Result<Membership> {
        let initiator = self
            .first_live()
            .ok_or_else(|| Error::InvalidState("no live seat to run fail-over".into()))?;
        self.fail_over_from(initiator, dead)
    }

    /// [`fail_over`](Self::fail_over) with an explicit initiating seat.
    /// Partition tests need this: a cut seat is alive (not killed), so
    /// `first_live` would pick the isolated leader itself — the
    /// fail-over must instead run on the majority side of the cut.
    pub fn fail_over_from(&self, initiator: usize, dead: &[ControllerId]) -> Result<Membership> {
        let started = Instant::now();
        if self.is_killed(initiator) {
            return Err(Error::InvalidState(format!(
                "initiator seat {initiator} is dead"
            )));
        }
        let node = self.node(initiator);
        let view = node.membership().advance(dead)?;
        node.adopt_membership(view.clone());
        node.broadcast_epoch_change()?;
        node.push_snapshot()?;
        let reg = Registry::global();
        reg.histogram("softcell_replica_recovery_time_us")
            .record(started.elapsed().as_micros() as u64);
        reg.tracer().instant("fail_over", view.epoch());
        Ok(view)
    }

    /// Opens an agent-facing transport to `seat`, spawning its server's
    /// serve thread on the controller side. The link dies with the
    /// seat; a cut leaves it up.
    pub fn agent_transport(&self, seat: usize) -> Result<Link> {
        if self.is_killed(seat) {
            return Err(Error::InvalidState(format!("seat {seat} is dead")));
        }
        let (a, b) = loopback_pair();
        let watch_kills = vec![Arc::clone(&self.kills[seat])];
        let server = Killable::new(b, watch_kills.clone(), Vec::new());
        self.threads.lock().push(self.servers[seat].serve(server));
        Ok(Killable::new(a, watch_kills, Vec::new()))
    }

    /// Connects an agent proxy for `bs` to the current leader.
    pub fn connect_agent(&self, bs: BaseStationId) -> Result<ChannelController<Link>> {
        let leader = self
            .membership()?
            .leader()
            .ok_or_else(|| Error::InvalidState("no live leader".into()))?;
        ChannelController::connect(self.agent_transport(leader.seat())?, bs)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for k in &self.kills {
            k.store(true, Ordering::Release);
        }
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
        for server in self.servers.drain(..) {
            server.shutdown();
        }
    }
}

/// Re-homes an agent whose controller died: looks up the leader of the
/// (post-fail-over) membership view, reconnects there, and replays the
/// agent's UEs with `resync` — each attach at the UE's own location
/// gets its live record back, so addresses survive. Returns the new
/// leader's seat.
pub(crate) fn rehome_agent(
    cluster: &Cluster,
    ctl: &mut ChannelController<Link>,
    agent: &mut LocalAgent,
    now: SimTime,
) -> Result<ControllerId> {
    let bs = ctl.base_station();
    let leader = cluster
        .membership()?
        .leader()
        .ok_or_else(|| Error::InvalidState("no live leader to re-home to".into()))?;
    ctl.reconnect(cluster.agent_transport(leader.seat())?)?;
    ctl.resync(agent, now)?;
    let reg = Registry::global();
    reg.counter("softcell_replica_rehomes_total").inc();
    reg.tracer().instant("rehome", u64::from(bs.0));
    Ok(leader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{attach, input, subscribers, SUBSCRIBERS};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use softcell_controller::core::PathTags;
    use softcell_controller::input::Output;
    use softcell_controller::install::Direction;
    use softcell_controller::{Log, State};
    use softcell_ctlchan::{Frame, Message, PacketIn};
    use softcell_policy::clause::ClauseId;
    use softcell_types::{AddressingScheme, PortEmbedding, PortNo, UeId, UeImsi};
    use std::mem::discriminant;

    fn cluster(n: usize, quorum: usize) -> Cluster {
        Cluster::start(
            n,
            quorum,
            &ServicePolicy::example_carrier_a(1),
            &subscribers(),
            Duration::from_millis(400),
        )
        .unwrap()
    }

    fn agent_for(bs: BaseStationId) -> LocalAgent {
        LocalAgent::new(
            bs,
            PortNo(2),
            AddressingScheme::default_scheme(),
            PortEmbedding::default_embedding(),
        )
    }

    /// Sends `pi` over `chan` and returns the reply frame.
    fn ask_over(chan: &mut CtlChannel<Link>, pi: PacketIn) -> Message<'static> {
        let raw = chan.request(&Message::PacketIn(pi)).unwrap();
        let frame = Frame::new_checked(raw.as_slice()).unwrap();
        frame.message().unwrap().into_static()
    }

    /// Sends `pi` to `seat`'s server over a fresh agent connection and
    /// returns the reply frame.
    fn ask(c: &Cluster, seat: usize, pi: PacketIn) -> Message<'static> {
        let mut chan = CtlChannel::new(c.agent_transport(seat).unwrap());
        chan.hello(0).unwrap();
        ask_over(&mut chan, pi)
    }

    /// Every seat of `seats` holds the same log.
    fn assert_one_log(c: &Cluster, seats: &[usize]) {
        let log = c.node(seats[0]).log_bytes();
        for &seat in seats {
            assert_eq!(
                c.node(seat).log_bytes(),
                log,
                "seat {seat} holds another log"
            );
        }
    }

    #[test]
    fn quorum_commit_applies_on_all_replicas() {
        let c = cluster(3, 2);
        assert_eq!(c.node(0).propose(attach(1)).unwrap().index, 1);
        for seat in 0..3 {
            assert_eq!(c.node(seat).applied(), 1, "seat {seat}");
            assert!(c.node(seat).ue(UeImsi(1)).is_some());
        }
        assert_one_log(&c, &[0, 1, 2]);
        assert_eq!(c.node(0).commit_index(), 1);
        // only the view's leader proposes
        let err = c.node(1).propose(attach(2)).unwrap_err();
        assert!(err.to_string().contains("does not lead"), "got: {err}");
    }

    #[test]
    fn refused_attaches_append_nothing() {
        let c = cluster(3, 2);
        c.node(0).propose(attach(1)).unwrap();
        // an attach at another station while attached, and one by an
        // IMSI nobody provisioned
        let elsewhere = PacketIn::Attach {
            imsi: UeImsi(1),
            bs: BaseStationId(2),
            ue_id: UeId(1),
            now: SimTime(9),
        };
        let unknown = PacketIn::Attach {
            imsi: UeImsi(SUBSCRIBERS),
            bs: BaseStationId(0),
            ue_id: UeId(1),
            now: SimTime(9),
        };
        let before = c.node(0).log_bytes();
        let err = c.node(0).propose(elsewhere).unwrap_err();
        assert!(matches!(err, Error::InvalidState(_)), "got: {err}");
        let err = c.node(0).propose(unknown).unwrap_err();
        assert!(matches!(err, Error::NotFound(_)), "got: {err}");
        for seat in 0..3 {
            assert_eq!(c.node(seat).applied(), 1, "seat {seat}");
            assert_eq!(c.node(seat).log_bytes(), before, "seat {seat}");
            assert_eq!(c.node(seat).ue(UeImsi(1)).unwrap().bs, BaseStationId(1));
        }
    }

    #[test]
    fn fenced_stale_leader_cannot_commit_or_release_flowmods() {
        let c = cluster(3, 2);
        c.node(0).propose(attach(1)).unwrap();

        // Partition seat 0 (alive, but unreachable) and fail it over.
        c.cut(0);
        let view = c.fail_over_from(1, &[ControllerId(0)]).unwrap();
        assert_eq!(view.epoch(), 2);
        assert!(!view.is_live(ControllerId(0)));

        // The partition heals; seat 0 still believes in epoch 1 and
        // tries to lead.
        c.heal(0);
        let reg = Registry::global();
        let rejections = reg.counter("softcell_replica_stale_epoch_rejections_total");
        let before = rejections.get();
        let err = c.node(0).propose(attach(2)).unwrap_err();
        assert!(
            err.to_string().contains("fenced"),
            "stale proposal must be fenced, got: {err}"
        );
        // The survivors rejected the record without appending it...
        assert!(rejections.get() > before);
        assert_eq!(c.node(1).applied(), 1);
        assert_eq!(c.node(2).applied(), 1);
        // ...and the rejection taught seat 0 the newer epoch.
        assert_eq!(c.node(0).current_epoch(), 2);
        assert_eq!(c.node(0).commit_index(), 1, "nothing new committed");

        // The agent-facing path is equally dead: a path request on the
        // stale leader yields an error, never a flow-mod — commit-gated
        // release means a fenced leader cannot program the network.
        let path = PacketIn::PathRequest {
            bs: BaseStationId(3),
            clause: ClauseId(0),
        };
        let reply = ask(&c, 0, path);
        assert!(
            reply.as_error().is_some(),
            "fenced leader must not emit a flow-mod, got {reply:?}"
        );

        // A second attempt is refused by the local fence alone (no
        // network round needed once the fence is raised).
        let err2 = c.node(0).propose(attach(3)).unwrap_err();
        assert!(err2.to_string().contains("fenced"));
    }

    #[test]
    fn gap_heals_via_snapshot_transfer() {
        let c = cluster(3, 2);
        // Seat 2 misses two committed records while partitioned.
        c.cut(2);
        c.node(0).propose(attach(1)).unwrap();
        c.node(0).propose(attach(2)).unwrap();
        assert_eq!(c.node(2).applied(), 0, "partitioned");
        c.heal(2);

        let reg = Registry::global();
        let snapshots = reg.counter("softcell_replica_snapshots_total");
        let before = snapshots.get();
        // Seat 2 cannot append the next record behind entries it lacks,
        // so it is handed the leader's log and replays it.
        c.node(0).propose(attach(3)).unwrap();
        assert!(snapshots.get() > before, "log catch-up must run");
        assert_eq!(c.node(2).applied(), 3, "fully caught up");
        assert!(c.node(2).ue(UeImsi(2)).is_some());
        assert_one_log(&c, &[0, 1, 2]);
    }

    #[test]
    fn missed_quorum_entry_commits_with_the_next_proposal() {
        // Quorum 3: one cut peer makes a proposal miss quorum.
        let c = cluster(3, 3);
        c.cut(2);
        let path = PacketIn::PathRequest {
            bs: BaseStationId(3),
            clause: ClauseId(0),
        };
        c.node(0).propose(path).unwrap_err();
        // The record stays in the logs that took it, uncommitted.
        let held = (0..3).map(|s| c.node(s).applied()).collect::<Vec<_>>();
        assert_eq!(held, [1, 1, 0]);
        assert_eq!(c.node(0).commit_index(), 0);

        // Seat 2 is handed the log for the next record, and that record
        // commits with the stuck one beneath it.
        c.heal(2);
        assert_eq!(c.node(0).propose(attach(1)).unwrap().index, 2);
        assert_eq!(c.node(0).commit_index(), 2);
        assert_one_log(&c, &[0, 1, 2]);
        assert!(c.node(2).path(BaseStationId(3), ClauseId(0)).is_some());
    }

    #[test]
    fn agent_attach_and_path_commit_before_reply() {
        let c = cluster(3, 2);
        let bs = BaseStationId(3);
        let mut ctl = c.connect_agent(bs).unwrap();
        let mut agent = agent_for(bs);

        let rec = agent
            .handle_attach(UeImsi(4), &mut ctl, SimTime(10))
            .unwrap();
        // By the time the agent holds its grant, the attach is on every
        // replica (reply release is commit-gated).
        for seat in 0..3 {
            let e = c.node(seat).ue(UeImsi(4)).expect("replicated");
            assert_eq!(e.bs, bs);
            assert_eq!(e.permanent_ip, rec.permanent_ip, "seat {seat}");
        }

        let path = PacketIn::PathRequest {
            bs,
            clause: ClauseId(0),
        };
        let reply = ask_over(ctl.channel(), path);
        // the one flow-mod frame: (shard, seq) = (leader seat, the
        // record's index), one barrier-fenced group
        let Message::FlowModBatch { shard, seq, groups } = &reply else {
            panic!("expected FlowModBatch, got {reply:?}");
        };
        assert_eq!(*shard, 0, "answered by the leader");
        assert_eq!(u64::from(*seq), c.node(0).commit_index());
        assert_eq!(groups.len(), 1);
        assert!(groups[0].barrier);
        assert_eq!(groups[0].bs, bs);
        let tags = PathTags::from(groups[0].mods[0].tags);
        for seat in 0..3 {
            let got = c.node(seat).path(bs, ClauseId(0));
            assert_eq!(got, Some(tags), "path replicated to seat {seat}");
        }
        // Re-asking is one more input: the committed tags, a later seq.
        let again = ask_over(ctl.channel(), path);
        let Message::FlowModBatch {
            seq: seq2,
            groups: groups2,
            ..
        } = &again
        else {
            panic!("expected FlowModBatch, got {again:?}");
        };
        assert_eq!(PathTags::from(groups2[0].mods[0].tags), tags);
        assert!(seq2 > seq, "seq never runs backwards");

        agent.handle_detach(UeImsi(4), &mut ctl).unwrap();
        for seat in 0..3 {
            assert!(c.node(seat).ue(UeImsi(4)).is_none(), "seat {seat}");
        }
    }

    #[test]
    fn agent_rehomes_to_deterministic_successor_after_kill() {
        let c = cluster(3, 2);
        let successor = c
            .membership()
            .unwrap()
            .advance(&[ControllerId(0)])
            .unwrap()
            .leader()
            .unwrap();
        let bs = BaseStationId(3);
        let mut ctl = c.connect_agent(bs).unwrap();
        let mut agent = agent_for(bs);
        let r5 = agent
            .handle_attach(UeImsi(5), &mut ctl, SimTime(10))
            .unwrap();
        let r6 = agent
            .handle_attach(UeImsi(6), &mut ctl, SimTime(11))
            .unwrap();

        // kill -9 the leader; the agent notices via probe.
        c.kill(0);
        assert!(
            ctl.channel().probe(Duration::from_millis(100)).is_err(),
            "probe must fail against a dead controller"
        );
        c.fail_over(&[ControllerId(0)]).unwrap();

        let reg = Registry::global();
        let rehomes = reg.counter("softcell_replica_rehomes_total");
        let before = rehomes.get();
        let new_home = rehome_agent(&c, &mut ctl, &mut agent, SimTime(20)).unwrap();
        assert_eq!(new_home, successor, "re-home is deterministic");
        assert!(rehomes.get() > before);

        // The resync re-attaches got the live records: same permanent
        // IPs, one log.
        for seat in [1usize, 2] {
            let e5 = c.node(seat).ue(UeImsi(5)).expect("ue5 survives");
            let e6 = c.node(seat).ue(UeImsi(6)).expect("ue6 survives");
            assert_eq!(e5.permanent_ip, r5.permanent_ip);
            assert_eq!(e6.permanent_ip, r6.permanent_ip);
        }
        assert_one_log(&c, &[1, 2]);
        // And the agent can keep working against the new home.
        agent
            .handle_attach(UeImsi(7), &mut ctl, SimTime(21))
            .unwrap();
        assert!(c.node(successor.seat()).ue(UeImsi(7)).is_some());
    }

    #[test]
    fn fail_over_adopts_the_newer_log() {
        let c = cluster(3, 2);
        // Seat 1 is cut while the leader commits a record on {0, 2}.
        c.cut(1);
        c.node(0).propose(attach(1)).unwrap();
        assert_eq!((c.node(1).applied(), c.node(2).applied()), (0, 1));
        c.heal(1);

        // The leader dies; seat 1 — which never saw the record —
        // initiates the fail-over. Seat 2's log ranks higher, so seat 1
        // adopts it rather than erasing the committed record.
        c.kill(0);
        let view = c.fail_over(&[ControllerId(0)]).unwrap();
        assert_eq!(view.leader(), Some(ControllerId(1)));
        for seat in [1usize, 2] {
            assert!(
                c.node(seat).ue(UeImsi(1)).is_some(),
                "seat {seat} must keep the committed record"
            );
        }
        assert_one_log(&c, &[1, 2]);
    }

    #[test]
    fn fail_over_without_a_quorum_exchange_keeps_committed_records() {
        let c = cluster(3, 2);
        c.node(0).propose(attach(1)).unwrap();
        // Seat 1 misses a record the leader commits with seat 2.
        c.cut(1);
        let index = c.node(0).propose(attach(2)).unwrap().index;
        c.heal(1);

        // The leader dies while seat 2 is cut off: the fail-over on seat
        // 1 reaches no other seat, so it fails...
        c.cut(2);
        c.kill(0);
        let err = c.fail_over_from(1, &[ControllerId(0)]).unwrap_err();
        assert!(err.is_timeout(), "got: {err}");
        // ...and seat 1, which leads the new view, appends nothing until
        // its log has been exchanged with a quorum.
        let err = c.node(1).propose(attach(3)).unwrap_err();
        assert!(err.to_string().contains("exchanged logs"), "got: {err}");
        assert_eq!(c.node(1).applied(), 1);

        // Seat 2 is back: the first proposal levels seat 1's log with
        // seat 2's, which holds the committed record, then appends.
        c.heal(2);
        assert_eq!(c.node(1).propose(attach(3)).unwrap().index, index + 1);
        for seat in [1usize, 2] {
            let node = c.node(seat);
            assert!(node.ue(UeImsi(2)).is_some(), "seat {seat} kept the record");
            assert!(node.ue(UeImsi(3)).is_some(), "seat {seat}");
        }
        assert_one_log(&c, &[1, 2]);
    }

    #[test]
    fn a_history_longer_than_a_frame_catches_up_and_fails_over() {
        let c = cluster(3, 2);
        // Seat 2 misses more attach records (39 bytes each) than one
        // frame could carry as a list.
        c.cut(2);
        let n = softcell_ctlchan::MAX_FRAME as u64 / 39 + 1;
        for i in 0..n {
            c.node(0).propose(attach(i % 4)).unwrap();
        }
        c.heal(2);
        c.node(0).propose(attach(5)).unwrap();
        assert_eq!(c.node(2).applied(), n + 1, "caught up");
        assert_one_log(&c, &[0, 1, 2]);
        let image = c.node(2).log_bytes().len();
        assert!(image < softcell_ctlchan::MAX_FRAME / 8, "{image} bytes");

        c.kill(0);
        c.fail_over(&[ControllerId(0)]).unwrap();
        c.node(1).propose(attach(6)).unwrap();
        assert_one_log(&c, &[1, 2]);
    }

    #[test]
    fn membership_is_the_newest_view_after_a_partition_fail_over() {
        let c = cluster(3, 2);
        c.cut(0);
        c.fail_over_from(1, &[ControllerId(0)]).unwrap();
        // Seat 0 is cut, not killed, and still holds epoch 1; agents
        // must be routed by the survivors' epoch 2.
        let view = c.membership().unwrap();
        assert_eq!(view.epoch(), 2);
        assert_eq!(view.leader(), Some(ControllerId(1)));

        c.heal(0);
        let bs = BaseStationId(3);
        let mut ctl = c.connect_agent(bs).unwrap();
        let mut agent = agent_for(bs);
        agent
            .handle_attach(UeImsi(4), &mut ctl, SimTime(10))
            .unwrap();
        assert!(c.node(1).ue(UeImsi(4)).is_some());
    }

    #[test]
    fn epoch_broadcast_fences_on_strictly_newer_peer_view() {
        let c = cluster(3, 2);
        let v1 = c.membership().unwrap();
        // Seat 1 already holds epoch 3 (say, a faster fail-over).
        let v3 = v1.advance(&[]).unwrap().advance(&[]).unwrap();
        c.node(1).adopt_membership(v3);
        // Seat 0 broadcasts epoch 2. The strictly newer reply is a
        // fencing signal, not an adoption: the broadcast must fail and
        // seat 0 must adopt the newer view instead of proceeding with
        // a fail-over under the stale one.
        let v2 = v1.advance(&[]).unwrap();
        c.node(0).adopt_membership(v2);
        let err = c.node(0).broadcast_epoch_change().unwrap_err();
        assert!(err.to_string().contains("fenced"), "got: {err}");
        assert_eq!(c.node(0).current_epoch(), 3, "fence raised to 3");
        assert_eq!(c.node(0).membership().epoch(), 3, "newer view adopted");
    }

    #[test]
    fn record_from_newer_epoch_with_revived_origin_is_accepted() {
        let c = cluster(3, 2);
        // Seats 1 and 2 hold the epoch-2 view that declares seat 0
        // dead; seat 0 (cut off from that broadcast) never saw it.
        let v1 = c.membership().unwrap();
        let v2 = v1.advance(&[ControllerId(0)]).unwrap();
        c.node(1).adopt_membership(v2);
        c.node(1).broadcast_epoch_change().unwrap();
        assert_eq!(c.node(2).membership().epoch(), 2);
        assert_eq!(c.node(0).membership().epoch(), 1, "seat 0 skipped");

        // Epoch 3 revives seat 0, which leads it; only seat 0 has seen
        // it so far (its broadcast is still in flight). Its record
        // reaches receivers whose *stale* view names another leader —
        // that view must not reject a record from a newer epoch.
        let v3 = Membership::from_parts(3, vec![true, true, true]).unwrap();
        c.node(0).adopt_membership(v3);
        c.node(0).propose(attach(1)).unwrap();
        for seat in 1..3 {
            assert_eq!(c.node(seat).applied(), 1, "seat {seat}");
            assert_eq!(
                c.node(seat).current_epoch(),
                3,
                "seat {seat} fence raised by the accepted record"
            );
        }
    }

    /// Whether two engine answers agree: the record and the classifier
    /// entries of a grant, the detached record, all five path tags.
    fn same(a: &Output, b: &Output) -> bool {
        match (a, b) {
            (Output::Attached(a), Output::Attached(b)) => {
                a.record == b.record && a.classifier.entries() == b.classifier.entries()
            }
            (Output::Detached(a), Output::Detached(b)) => a == b,
            (Output::Path(a), Output::Path(b)) => a == b,
            _ => false,
        }
    }

    /// What a run released: each committed answer by its index, and each
    /// refused input with the index it was refused after.
    #[derive(Default)]
    struct Released {
        answers: HashMap<u64, Output>,
        refused: Vec<(u64, PacketIn, Error)>,
    }

    impl Released {
        /// Proposes `n` seeded inputs on the view's leader.
        fn run(&mut self, c: &Cluster, rng: &mut StdRng, n: usize) {
            let leader = c.membership().unwrap().leader().unwrap().seat();
            let node = c.node(leader);
            for _ in 0..n {
                let (op, before) = (input(rng), node.applied());
                match node.propose(op) {
                    Ok(done) => assert!(self.answers.insert(done.index, done.out).is_none()),
                    Err(e) => {
                        assert_eq!(node.applied(), before, "{op:?} refused with {e}, appended");
                        self.refused.push((before, op, e));
                    }
                }
            }
        }
    }

    /// The replay gate: a seeded three-seat run through a cut, a heal
    /// with catch-up, a kill and a fail-over. Each survivor's committed
    /// records, fed through a fresh engine, give every released answer
    /// and every refusal again, and the same engine.
    #[test]
    fn every_survivor_replays_to_the_answers_it_released() {
        let c = cluster(3, 2);
        let mut rng = StdRng::seed_from_u64(40);
        let mut run = Released::default();
        run.run(&c, &mut rng, 80);
        c.cut(2);
        run.run(&c, &mut rng, 40);
        c.heal(2);
        run.run(&c, &mut rng, 40);
        c.kill(0);
        c.fail_over(&[ControllerId(0)]).unwrap();
        run.run(&c, &mut rng, 60);
        let paths = run.answers.values();
        assert!(paths.filter(|o| matches!(o, Output::Path(_))).count() > 20);
        assert!(run.refused.len() > 20, "{} refused", run.refused.len());

        for seat in [1, 2] {
            let node = c.node(seat);
            let log = Log::decode(&node.log_bytes(), node.config()).unwrap();
            let mut fresh = State::new(node.config()).unwrap();
            for index in 0..=log.last_index() {
                if let Some(r) = log.get(index) {
                    let (out, _) = fresh.apply(&r.op).unwrap();
                    let released = run.answers.get(&index);
                    assert!(released.is_none_or(|a| same(a, &out)), "index {index}");
                }
                for (_, op, err) in run.refused.iter().filter(|r| r.0 == index) {
                    let got = fresh.apply(op).unwrap_err();
                    assert_eq!(discriminant(&got), discriminant(err), "{op:?}: {got}");
                }
            }
            assert!(run.answers.keys().all(|i| *i <= log.last_index()));

            assert_eq!(node.image(), fresh.image(), "seat {seat}");
            let fresh = fresh.engine();
            for bs in (0..8).map(BaseStationId) {
                for clause in [0, 1, 2, 3, 5].map(ClauseId) {
                    assert_eq!(node.path(bs, clause), fresh.path_tags(bs, clause));
                }
            }
            node.read(|mine| {
                for dir in [Direction::Uplink, Direction::Downlink] {
                    let mine = mine.installer().shadows(dir);
                    assert!(fresh.installer().shadows(dir).diff(mine).is_empty());
                    assert!(mine.diff(fresh.installer().shadows(dir)).is_empty());
                }
            });
        }
    }
}
