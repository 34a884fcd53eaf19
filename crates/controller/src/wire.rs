//! The controller's wire front-end and the agent's channel-backed proxy.
//!
//! [`ControllerServer::serve`] runs one connection's dispatch loop on its
//! own thread: each packet-in goes to its domain (served on this very
//! thread when that domain is free), is proposed on the server's seat,
//! and the committed answer goes back under the request's xid in its
//! one reply shape (`reply`): a classifier reply or a flow-mod batch.
//! [`ChannelController`] is the other end: a
//! [`ControllerApi`] the unchanged [`crate::agent::LocalAgent`] runs
//! against, in process, over a loopback queue or over TCP.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, Sender};

use softcell_ctlchan::{
    CtlChannel, Message, PacketIn, RetryPolicy, Transport, WireBatchGroup, WireClassifier,
    WireFlowMod, WirePathTags, WireUeRecord,
};
use softcell_policy::clause::ClauseId;
use softcell_policy::UeClassifier;
use softcell_telemetry::{Registry, ReqTrace, TraceContext};
use softcell_types::{BaseStationId, Error, Result, SimTime, UeId, UeImsi};

use crate::agent::ControllerApi;
use crate::core::{AttachGrant, PathTags};
use crate::input::Output;
use crate::node::Committed;
use crate::server::{ControllerServer, RequestRouter};
use crate::state::UeRecord;

impl From<UeRecord> for WireUeRecord {
    fn from(r: UeRecord) -> WireUeRecord {
        WireUeRecord {
            imsi: r.imsi,
            permanent_ip: r.permanent_ip,
            bs: r.bs,
            ue_id: r.ue_id,
            since: r.since,
        }
    }
}

impl From<WireUeRecord> for UeRecord {
    fn from(r: WireUeRecord) -> UeRecord {
        UeRecord {
            imsi: r.imsi,
            permanent_ip: r.permanent_ip,
            bs: r.bs,
            ue_id: r.ue_id,
            since: r.since,
        }
    }
}

impl From<PathTags> for WirePathTags {
    fn from(t: PathTags) -> WirePathTags {
        WirePathTags {
            uplink_entry: t.uplink_entry,
            uplink_exit: t.uplink_exit,
            downlink_final: t.downlink_final,
            access_out_port: t.access_out_port,
            qos: t.qos,
        }
    }
}

impl From<WirePathTags> for PathTags {
    fn from(t: WirePathTags) -> PathTags {
        PathTags {
            uplink_entry: t.uplink_entry,
            uplink_exit: t.uplink_exit,
            downlink_final: t.downlink_final,
            access_out_port: t.access_out_port,
            qos: t.qos,
        }
    }
}

/// Flattens a classifier for the wire.
pub fn classifier_to_wire(c: &UeClassifier) -> WireClassifier {
    WireClassifier {
        entries: c.entries().to_vec(),
        fallback: c.fallback(),
    }
}

/// Rebuilds a classifier from its wire form.
pub fn classifier_from_wire(w: WireClassifier) -> UeClassifier {
    UeClassifier::from_parts(w.entries, w.fallback)
}

impl ControllerServer {
    /// Serves one agent connection over `transport` on a dedicated
    /// thread: each packet-in goes to its domain, is proposed on the
    /// seat, and the committed answer goes back in the one reply shape.
    /// Returns when the agent disconnects. Spawn once per connection —
    /// concurrency across agents comes from one serve thread each, all
    /// feeding the same domains. This is the controller's one
    /// agent-facing serve loop.
    pub fn serve<T: Transport + 'static>(&self, transport: T) -> JoinHandle<Result<()>> {
        let router = self.router();
        let shared = Arc::clone(&self.shared);
        let seat = shared.seat.id().0 as u16;
        std::thread::spawn(move || {
            // One reply pair, reused across requests: the serve loop
            // keeps at most one request outstanding.
            let (tx, rx) = bounded(1);
            shared.active_connections.add(1);
            let served = {
                let shared = Arc::clone(&shared);
                move || shared.served.get()
            };
            let shared_for_exit = Arc::clone(&shared);
            let result = softcell_ctlchan::serve(transport, served, move |msg, ctx| {
                let Message::PacketIn(pi) = msg else {
                    return None;
                };
                let trace = ReqTrace::at_enqueue(ctx);
                let reply = route_packet_in(&router, &shared, *pi, tx.clone(), trace, &rx)
                    .and_then(|c| reply(seat, *pi, c, ctx));
                Some(reply.unwrap_or_else(|e| Message::from_error(&e)))
            });
            // Slot accounting: a dead agent frees its serve slot whether
            // it closed cleanly or tore the connection mid-frame, and the
            // server keeps accepting (re-)registrations on fresh
            // transports. The error is surfaced, not swallowed.
            shared_for_exit.active_connections.sub(1);
            shared_for_exit.disconnects.inc();
            if result.is_err() {
                shared_for_exit.connection_errors.inc();
            }
            result
        })
    }
}

/// The one reply shape: the frame answering packet-in `op`, which
/// `seat` committed as `c`. A grant is a classifier reply with the
/// classifier, a detached record one without, and a path's tags the
/// one flow-mod frame: a batch stamped `(seat, record index)` holding
/// one barrier-fenced group for the station. Indices only grow, across
/// leaders too, so one seat's batches arrive in rising `seq`.
pub(crate) fn reply(
    seat: u16,
    op: PacketIn,
    c: Committed,
    ctx: TraceContext,
) -> Result<Message<'static>> {
    Ok(match (op, c.out) {
        (_, Output::Attached(grant)) => Message::ClassifierReply {
            record: grant.record.into(),
            classifier: Some(classifier_to_wire(&grant.classifier)),
        },
        (_, Output::Detached(record)) => Message::ClassifierReply {
            record: record.into(),
            classifier: None,
        },
        (PacketIn::PathRequest { bs, clause }, Output::Path(tags)) => {
            let seq = c.index as u32;
            let mut batch_sp = Registry::global().tracer().span_in(ctx, "flow_mod_batch");
            batch_sp.set_shard(usize::from(seat));
            batch_sp.set_label(u64::from(seq));
            Message::FlowModBatch {
                shard: seat,
                seq,
                groups: vec![WireBatchGroup {
                    bs,
                    barrier: true,
                    mods: vec![WireFlowMod {
                        bs,
                        clause,
                        tags: tags.into(),
                    }],
                }],
            }
        }
        (op, out) => {
            let what = format!("{op:?} answered with {out:?}");
            return Err(Error::InvalidState(what));
        }
    })
}

/// Routes a packet-in and takes its answer off the reply pair's `rx`,
/// never waiting on a full domain queue: that sheds the request —
/// counted in `server_queue_rejected` and answered with an error the
/// agent can retry — instead of stalling this connection's barrier and
/// echo traffic behind the backlog.
fn route_packet_in(
    router: &RequestRouter,
    shared: &crate::server::Shared,
    op: PacketIn,
    reply: Sender<Result<Committed>>,
    trace: ReqTrace,
    rx: &Receiver<Result<Committed>>,
) -> Result<Committed> {
    if router.submit(op, reply, trace, false)? {
        let gone = |_| Error::InvalidState("controller worker pool gone".into());
        return rx.recv().map_err(gone)?;
    }
    shared.queue_rejected.inc();
    // rate-limited operator warning: the first shed request logs, then
    // one line per 4096 to keep a sustained overload from flooding
    // stderr (process-wide, deliberately coarse)
    static SHED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    // softcell-lint: allow(atomics-order) -- pure counter: only rate-limits a log line, no thread reads it for ordering
    let n = SHED.fetch_add(1, Ordering::Relaxed);
    if n.is_multiple_of(4096) {
        eprintln!(
            "softcell-controller: request queue full; shedding packet-in (seen {} since start)",
            n + 1
        );
    }
    Err(Error::Exhausted("controller request queue full".into()))
}

/// A [`ControllerApi`] that reaches the controller over a control
/// channel — the agent side of the southbound protocol. Each call is one
/// framed request/reply round trip.
///
/// With a [`RetryPolicy`] set, every request runs under a per-attempt
/// deadline and is retried (same xid, exponential backoff) on timeout;
/// the server's xid dedup window answers a retransmission from its cache,
/// so nothing is applied twice.
pub struct ChannelController<T: Transport> {
    chan: CtlChannel<T>,
    bs: BaseStationId,
    retry: Option<RetryPolicy>,
    /// Whether the last request got a reply frame.
    answered: bool,
}

impl<T: Transport> ChannelController<T> {
    /// Performs the hello handshake over `transport` and returns the
    /// connected proxy. `bs` identifies this agent to the controller.
    pub fn connect(transport: T, bs: BaseStationId) -> Result<ChannelController<T>> {
        let mut chan = CtlChannel::new(transport);
        chan.hello(bs.0)?;
        Ok(ChannelController {
            chan,
            bs,
            retry: None,
            answered: true,
        })
    }

    /// The underlying channel (barrier, echo, stats, counters).
    pub fn channel(&mut self) -> &mut CtlChannel<T> {
        &mut self.chan
    }

    /// The base station this proxy registered as.
    pub fn base_station(&self) -> BaseStationId {
        self.bs
    }

    /// Enables (or, with `None`, disables) timeout + retry on every
    /// subsequent request.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        self.retry = policy;
    }

    /// Replaces a dead transport with a freshly connected one, redoing
    /// the hello handshake. Correlation state restarts clean: stashed
    /// replies from the old connection are discarded with it.
    pub fn reconnect(&mut self, transport: T) -> Result<()> {
        let mut chan = CtlChannel::new(transport);
        chan.hello(self.bs.0)?;
        self.chan = chan;
        // agent-side lifecycle: reconnects happen wherever the agent
        // runs, so they land on the process-global registry
        let reg = softcell_telemetry::Registry::global();
        reg.counter("softcell_controller_reconnects_total").inc();
        reg.tracer().instant("reconnect", u64::from(self.bs.0));
        Ok(())
    }

    /// Re-registers everything `agent` holds after a reconnect: each UE
    /// is re-attached over the wire at its own location (the engine
    /// returns its live record), the classifier set is re-fetched, the agent
    /// rebuilt from the fresh grants via the failover machinery
    /// ([`crate::agent::LocalAgent::restart_from`]), and the agent-side
    /// microflow snapshot (per-UE flow records) re-adopted so ongoing
    /// connections survive the resync. Returns the number of UEs
    /// re-registered.
    pub fn resync(&mut self, agent: &mut crate::agent::LocalAgent, now: SimTime) -> Result<usize> {
        let snapshot: Vec<(UeImsi, UeId, Vec<crate::agent::AgentFlow>)> = agent
            .attached()
            .map(|ue| (ue.imsi, ue.ue_id, ue.flows.clone()))
            .collect();
        let bs = self.bs;
        let mut grants = Vec::with_capacity(snapshot.len());
        for (imsi, ue_id, _) in &snapshot {
            let grant = self.attach_ue(*imsi, bs, *ue_id, now)?;
            grants.push((grant.record, grant.classifier));
        }
        // no handoff crosses the wire, so no location is reserved here
        let n = agent.restart_from(grants, [])?;
        for (imsi, _, flows) in snapshot {
            if !flows.is_empty() {
                agent.adopt_flows(imsi, flows)?;
            }
        }
        let reg = softcell_telemetry::Registry::global();
        reg.counter("softcell_controller_resyncs_total").inc();
        reg.tracer().instant("resync", u64::from(bs.0));
        Ok(n)
    }

    fn round_trip(&mut self, pi: PacketIn) -> Result<Message<'static>> {
        // Each agent operation is a trace root: when sampled, the
        // channel ships this context on the request frame and the
        // controller's serve/worker spans land in the same trace.
        let kind = match pi {
            PacketIn::Attach { .. } => "agent_attach",
            PacketIn::PathRequest { .. } => "agent_path_request",
            PacketIn::Detach { .. } => "agent_detach",
        };
        let sp = Registry::global().tracer().root(kind);
        self.chan.set_trace(sp.ctx());
        self.answered = false;
        let result = (|| {
            let msg = Message::PacketIn(pi);
            let raw = match &self.retry {
                Some(policy) => self.chan.request_with_retry(&msg, policy)?,
                None => self.chan.request(&msg)?,
            };
            let frame = softcell_ctlchan::Frame::new_checked(raw.as_slice())?;
            let msg = frame.message()?;
            self.answered = true;
            if let Some(e) = msg.as_error() {
                return Err(e);
            }
            Ok(msg.into_static())
        })();
        self.chan.set_trace(TraceContext::NONE);
        drop(sp);
        result
    }
}

impl<T: Transport> ControllerApi for ChannelController<T> {
    fn attach_ue(
        &mut self,
        imsi: UeImsi,
        bs: BaseStationId,
        ue_id: UeId,
        now: SimTime,
    ) -> Result<AttachGrant> {
        match self.round_trip(PacketIn::Attach {
            imsi,
            bs,
            ue_id,
            now,
        })? {
            Message::ClassifierReply {
                record,
                classifier: Some(c),
            } => Ok(AttachGrant {
                record: record.into(),
                classifier: classifier_from_wire(c),
            }),
            other => Err(softcell_ctlchan::channel::unexpected(
                "classifier reply",
                &other,
            )),
        }
    }

    fn request_policy_path(&mut self, bs: BaseStationId, clause: ClauseId) -> Result<PathTags> {
        let groups = match self.round_trip(PacketIn::PathRequest { bs, clause })? {
            Message::FlowModBatch { groups, .. } => groups,
            other => Err(softcell_ctlchan::channel::unexpected("flow mod", &other))?,
        };
        groups
            .iter()
            .filter(|g| g.bs == bs)
            .flat_map(|g| &g.mods)
            .find(|m| m.bs == bs && m.clause == clause)
            .map(|m| m.tags.into())
            .ok_or_else(|| {
                Error::InvalidState(format!(
                    "flow-mod batch missing entry for ({bs}, {clause:?})"
                ))
            })
    }

    fn detach_ue(&mut self, imsi: UeImsi) -> Result<UeRecord> {
        match self.round_trip(PacketIn::Detach { imsi })? {
            Message::ClassifierReply {
                record,
                classifier: None,
            } => Ok(record.into()),
            other => Err(softcell_ctlchan::channel::unexpected(
                "detach reply",
                &other,
            )),
        }
    }

    fn answered(&self) -> bool {
        self.answered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softcell_ctlchan::loopback_pair;
    use softcell_policy::{ServicePolicy, SubscriberAttributes};
    use softcell_types::PortNo;
    use std::net::Ipv4Addr;

    fn subscribers(n: u64) -> Vec<SubscriberAttributes> {
        (0..n)
            .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
            .collect()
    }

    #[test]
    fn attach_detach_over_the_wire() {
        let server =
            ControllerServer::start_sharded(ServicePolicy::example_carrier_a(1), subscribers(4), 2)
                .unwrap();
        let (agent_end, controller_end) = loopback_pair();
        let serve = server.serve(controller_end);

        let mut ctl = ChannelController::connect(agent_end, BaseStationId(0)).unwrap();
        let grant = ctl
            .attach_ue(UeImsi(1), BaseStationId(0), UeId(0), SimTime::ZERO)
            .unwrap();
        assert_eq!(grant.record.imsi, UeImsi(1));
        assert!(!grant.classifier.entries().is_empty());

        // an attach in place returns the live record, address and all
        let again = ctl
            .attach_ue(UeImsi(1), BaseStationId(0), UeId(0), SimTime(50))
            .unwrap();
        assert_eq!(again.record, grant.record);

        // an attach elsewhere is a move, which is a handoff: refused,
        // and the engine is left as it was
        let state = || server.seat().read(|c| serde_json::to_string(c.state()));
        let before = state().unwrap();
        let err = ctl
            .attach_ue(UeImsi(1), BaseStationId(1), UeId(3), SimTime(60))
            .unwrap_err();
        assert!(matches!(err, Error::InvalidState(_)), "got {err:?}");
        assert_eq!(state().unwrap(), before);

        let rec = ctl.detach_ue(UeImsi(1)).unwrap();
        assert_eq!(rec.permanent_ip, grant.record.permanent_ip);
        assert_eq!(
            ctl.detach_ue(UeImsi(1)).unwrap_err(),
            Error::NotFound("imsi1 not attached".into())
        );

        drop(ctl);
        serve.join().unwrap().unwrap();
        server.shutdown();
    }

    #[test]
    fn unknown_subscriber_error_crosses_the_wire() {
        let server =
            ControllerServer::start_sharded(ServicePolicy::example_carrier_a(1), subscribers(1), 1)
                .unwrap();
        let (agent_end, controller_end) = loopback_pair();
        let serve = server.serve(controller_end);
        let mut ctl = ChannelController::connect(agent_end, BaseStationId(0)).unwrap();
        let err = ctl
            .attach_ue(UeImsi(99), BaseStationId(0), UeId(0), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, Error::NotFound(_)), "got {err:?}");
        drop(ctl);
        serve.join().unwrap().unwrap();
        server.shutdown();
    }

    #[test]
    fn path_request_returns_stable_tags() {
        let server =
            ControllerServer::start_sharded(ServicePolicy::example_carrier_a(1), subscribers(1), 4)
                .unwrap();
        let (agent_end, controller_end) = loopback_pair();
        let serve = server.serve(controller_end);
        let mut ctl = ChannelController::connect(agent_end, BaseStationId(2)).unwrap();
        let t1 = ctl
            .request_policy_path(BaseStationId(2), ClauseId(5))
            .unwrap();
        let t2 = ctl
            .request_policy_path(BaseStationId(2), ClauseId(5))
            .unwrap();
        assert_eq!(t1, t2, "idempotent per (bs, clause)");
        drop(ctl);
        serve.join().unwrap().unwrap();
        server.shutdown();
    }

    #[test]
    fn agent_runs_unchanged_over_the_wire() {
        use crate::agent::{FlowSetup, LocalAgent};
        use softcell_dataplane::Switch;
        use softcell_packet::{build_flow_packet, FiveTuple, HeaderView, Protocol};
        use softcell_types::{AddressingScheme, PortEmbedding, SwitchId};

        let server =
            ControllerServer::start_sharded(ServicePolicy::example_carrier_a(1), subscribers(4), 2)
                .unwrap();
        let (agent_end, controller_end) = loopback_pair();
        let serve = server.serve(controller_end);
        let mut ctl = ChannelController::connect(agent_end, BaseStationId(0)).unwrap();

        let mut agent = LocalAgent::new(
            BaseStationId(0),
            PortNo(2),
            AddressingScheme::default_scheme(),
            PortEmbedding::default_embedding(),
        );
        let mut switch = Switch::access(SwitchId(0));
        let rec = agent
            .handle_attach(UeImsi(0), &mut ctl, SimTime::ZERO)
            .unwrap();
        let tuple = FiveTuple {
            src: rec.permanent_ip,
            dst: Ipv4Addr::new(93, 184, 216, 34),
            src_port: 50_000,
            dst_port: 443,
            proto: Protocol::Tcp,
        };
        let view = HeaderView::parse(&build_flow_packet(tuple, 64, 0, &[])).unwrap();
        let setup = agent
            .handle_new_flow(&view, &mut ctl, &mut switch, SimTime::ZERO)
            .unwrap();
        assert!(
            matches!(
                setup,
                FlowSetup::Allowed {
                    cache_hit: false,
                    ..
                }
            ),
            "first flow escalates over the wire: {setup:?}"
        );
        // transport counters saw the attach and the path request
        let stats = ctl.channel().stats().unwrap();
        assert!(stats.rx_msgs >= 3, "hello + attach + path + stats");
        drop(ctl);
        serve.join().unwrap().unwrap();
        server.shutdown();
    }

    #[test]
    fn sharded_server_replies_with_flow_mod_batches() {
        use crate::agent::{FlowSetup, LocalAgent};
        use softcell_dataplane::Switch;
        use softcell_packet::{build_flow_packet, FiveTuple, HeaderView, Protocol};
        use softcell_types::{AddressingScheme, PortEmbedding, SwitchId};

        let server =
            ControllerServer::start_sharded(ServicePolicy::example_carrier_a(1), subscribers(8), 4)
                .unwrap();

        // raw channel: a path request must come back as the ticketed
        // flow_mod_batch form, one barrier-fenced group for the station
        let (agent_end, controller_end) = loopback_pair();
        let serve = server.serve(controller_end);
        let mut chan = CtlChannel::new(agent_end);
        chan.hello(0).unwrap();
        let raw = chan
            .request(&Message::PacketIn(PacketIn::PathRequest {
                bs: BaseStationId(0),
                clause: ClauseId(2),
            }))
            .unwrap();
        let frame = softcell_ctlchan::Frame::new_checked(raw.as_slice()).unwrap();
        let Message::FlowModBatch { shard, seq, groups } = frame.message().unwrap() else {
            panic!("sharded server must answer flow_mod_batch");
        };
        // stamped (answering seat, record index): a one-seat server's
        // seat is 0, and the request is its first record
        assert_eq!((shard, seq), (0, 1));
        assert_eq!(server.seat().applied(), 1);
        assert_eq!(groups.len(), 1);
        assert!(groups[0].barrier);
        assert_eq!(groups[0].bs, BaseStationId(0));
        assert_eq!(groups[0].mods.len(), 1);
        assert_eq!(groups[0].mods[0].clause, ClauseId(2));
        drop(chan);
        serve.join().unwrap().unwrap();

        // and the unchanged agent consumes those replies transparently
        let (agent_end, controller_end) = loopback_pair();
        let serve = server.serve(controller_end);
        let mut ctl = ChannelController::connect(agent_end, BaseStationId(1)).unwrap();
        let mut agent = LocalAgent::new(
            BaseStationId(1),
            PortNo(2),
            AddressingScheme::default_scheme(),
            PortEmbedding::default_embedding(),
        );
        let mut switch = Switch::access(SwitchId(1));
        let rec = agent
            .handle_attach(UeImsi(3), &mut ctl, SimTime::ZERO)
            .unwrap();
        let tuple = FiveTuple {
            src: rec.permanent_ip,
            dst: Ipv4Addr::new(93, 184, 216, 34),
            src_port: 50_000,
            dst_port: 443,
            proto: Protocol::Tcp,
        };
        let view = HeaderView::parse(&build_flow_packet(tuple, 64, 0, &[])).unwrap();
        let setup = agent
            .handle_new_flow(&view, &mut ctl, &mut switch, SimTime::ZERO)
            .unwrap();
        assert!(
            matches!(
                setup,
                FlowSetup::Allowed {
                    cache_hit: false,
                    ..
                }
            ),
            "first flow escalates over the wire: {setup:?}"
        );
        let again = agent
            .handle_new_flow(&view, &mut ctl, &mut switch, SimTime(1))
            .is_err();
        assert!(!again, "repeat flow must not fail");
        drop(ctl);
        serve.join().unwrap().unwrap();
        server.shutdown();
    }

    #[test]
    fn non_batch_reply_to_a_path_request_is_unexpected() {
        // a peer that answers every packet-in with a detach-style reply
        let wrong = || Message::ClassifierReply {
            record: WireUeRecord {
                imsi: UeImsi(1),
                permanent_ip: Ipv4Addr::new(100, 64, 0, 1),
                bs: BaseStationId(2),
                ue_id: UeId(0),
                since: SimTime::ZERO,
            },
            classifier: None,
        };
        let (agent_end, controller_end) = loopback_pair();
        let peer = std::thread::spawn(move || {
            softcell_ctlchan::serve(
                controller_end,
                || 0,
                |msg, _ctx| matches!(msg, Message::PacketIn(_)).then(wrong),
            )
        });
        let mut ctl = ChannelController::connect(agent_end, BaseStationId(2)).unwrap();
        assert_eq!(
            ctl.request_policy_path(BaseStationId(2), ClauseId(5))
                .unwrap_err(),
            softcell_ctlchan::channel::unexpected("flow mod", &wrong())
        );
        drop(ctl);
        peer.join().unwrap().unwrap();
    }

    #[test]
    fn server_survives_midframe_disconnect_and_accepts_reregistration() {
        use softcell_ctlchan::{FaultConfig, FaultTransport};

        let server =
            ControllerServer::start_sharded(ServicePolicy::example_carrier_a(1), subscribers(4), 2)
                .unwrap();
        let (agent_end, controller_end) = loopback_pair();
        let serve = server.serve(controller_end);

        // the third frame this agent sends is cut mid-frame
        let faulty = FaultTransport::new(
            agent_end,
            FaultConfig {
                disconnect_every: Some(3),
                ..FaultConfig::default()
            },
        );
        let mut ctl = ChannelController::connect(faulty, BaseStationId(0)).unwrap();
        let grant = ctl
            .attach_ue(UeImsi(1), BaseStationId(0), UeId(0), SimTime::ZERO)
            .unwrap();
        assert_eq!(server.active_connections(), 1);

        // hello + attach used two sends; this one injects the cut
        let err = ctl.detach_ue(UeImsi(1)).unwrap_err();
        assert!(matches!(err, Error::InvalidState(_)), "got {err:?}");

        // the serve thread exits with a clean error (torn frame), the
        // slot is freed, and the counters record an errored disconnect
        assert!(serve.join().unwrap().is_err());
        assert_eq!(server.active_connections(), 0);
        assert_eq!(server.disconnects(), 1);
        assert_eq!(server.connection_errors(), 1);

        // re-registration on a fresh transport: same identity, state kept
        let (agent_end, controller_end) = loopback_pair();
        let serve2 = server.serve(controller_end);
        ctl.reconnect(FaultTransport::new(agent_end, FaultConfig::default()))
            .unwrap();
        let again = ctl
            .attach_ue(UeImsi(1), BaseStationId(0), UeId(0), SimTime(9))
            .unwrap();
        assert_eq!(again.record, grant.record);
        let elsewhere = ctl.attach_ue(UeImsi(1), BaseStationId(2), UeId(5), SimTime(9));
        assert!(matches!(elsewhere, Err(Error::InvalidState(_))));
        assert_eq!(server.active_connections(), 1);

        drop(ctl);
        serve2.join().unwrap().unwrap();
        assert_eq!(server.disconnects(), 2);
        assert_eq!(server.connection_errors(), 1, "clean close is not an error");
        server.shutdown();
    }

    #[test]
    fn resync_replays_agent_state_after_reconnect() {
        use crate::agent::LocalAgent;
        use softcell_dataplane::Switch;
        use softcell_packet::{build_flow_packet, FiveTuple, HeaderView, Protocol};
        use softcell_types::{AddressingScheme, PortEmbedding, SwitchId};

        let server =
            ControllerServer::start_sharded(ServicePolicy::example_carrier_a(1), subscribers(4), 2)
                .unwrap();
        let (agent_end, controller_end) = loopback_pair();
        let serve = server.serve(controller_end);
        let mut ctl = ChannelController::connect(agent_end, BaseStationId(0)).unwrap();

        let mut agent = LocalAgent::new(
            BaseStationId(0),
            PortNo(2),
            AddressingScheme::default_scheme(),
            PortEmbedding::default_embedding(),
        );
        let mut switch = Switch::access(SwitchId(0));
        let rec0 = agent
            .handle_attach(UeImsi(0), &mut ctl, SimTime::ZERO)
            .unwrap();
        let _rec1 = agent
            .handle_attach(UeImsi(1), &mut ctl, SimTime::ZERO)
            .unwrap();
        let tuple = FiveTuple {
            src: rec0.permanent_ip,
            dst: Ipv4Addr::new(93, 184, 216, 34),
            src_port: 50_000,
            dst_port: 443,
            proto: Protocol::Tcp,
        };
        let view = HeaderView::parse(&build_flow_packet(tuple, 64, 0, &[])).unwrap();
        agent
            .handle_new_flow(&view, &mut ctl, &mut switch, SimTime::ZERO)
            .unwrap();
        let flows_before = agent.flows_of(UeImsi(0)).unwrap().to_vec();
        assert!(!flows_before.is_empty());

        // the connection dies; the server survives and the agent comes
        // back on a new transport and replays its state (reconnect drops
        // the old channel, which the first serve thread observes as a
        // clean close)
        let (agent_end, controller_end) = loopback_pair();
        let serve2 = server.serve(controller_end);
        ctl.reconnect(agent_end).unwrap();
        let n = ctl.resync(&mut agent, SimTime(100)).unwrap();
        assert_eq!(n, 2, "both UEs re-registered");

        // agent state is intact: same UEs, same flow records
        assert_eq!(agent.attached().count(), 2);
        assert_eq!(agent.flows_of(UeImsi(0)).unwrap(), &flows_before[..]);
        // controller state is intact: the record survived resync
        let ue_id = agent.ue(UeImsi(0)).unwrap().ue_id;
        let again = ctl
            .attach_ue(UeImsi(0), BaseStationId(0), ue_id, SimTime(101))
            .unwrap();
        assert_eq!(again.record, rec0);

        drop(ctl);
        let _ = serve.join().unwrap();
        serve2.join().unwrap().unwrap();
        server.shutdown();
    }

    #[test]
    fn a_lost_attach_is_retried_at_its_own_location() {
        use crate::agent::LocalAgent;
        use softcell_ctlchan::{FaultConfig, FaultTransport};
        use softcell_types::{AddressingScheme, PortEmbedding};

        let server =
            ControllerServer::start_sharded(ServicePolicy::example_carrier_a(1), subscribers(5), 2)
                .unwrap();
        let bs = BaseStationId(0);
        let mut agent = LocalAgent::new(
            bs,
            PortNo(2),
            AddressingScheme::default_scheme(),
            PortEmbedding::default_embedding(),
        );
        let (agent_end, controller_end) = loopback_pair();
        let mut serving = vec![server.serve(controller_end)];
        let mut ctl = ChannelController::connect(agent_end, bs).unwrap();
        for imsi in 0..3 {
            agent
                .handle_attach(UeImsi(imsi), &mut ctl, SimTime::ZERO)
                .unwrap();
        }
        // ids 0 and 2 come free, 2 on top
        agent.handle_detach(UeImsi(0), &mut ctl).unwrap();
        agent.handle_detach(UeImsi(2), &mut ctl).unwrap();

        // the server's second send on this connection, its attach reply
        // after the hello, is cut: the engine holds imsi3 at id 2, the
        // agent has no answer
        let (agent_end, controller_end) = loopback_pair();
        let cut = FaultConfig {
            disconnect_every: Some(2),
            ..FaultConfig::default()
        };
        serving.push(server.serve(FaultTransport::new(controller_end, cut)));
        ctl.reconnect(agent_end).unwrap();
        assert!(agent
            .handle_attach(UeImsi(3), &mut ctl, SimTime(1))
            .is_err());
        assert!(!ctl.answered());
        let held = server.seat().ue(UeImsi(3));
        assert_eq!(held.map(|r| (r.bs, r.ue_id)), Some((bs, UeId(2))));

        // the resync rebuilds the id pool, lowest free id first; the
        // retry still lands on id 2 and gets the live record
        let (agent_end, controller_end) = loopback_pair();
        serving.push(server.serve(controller_end));
        ctl.reconnect(agent_end).unwrap();
        assert_eq!(ctl.resync(&mut agent, SimTime(2)).unwrap(), 1);
        let rec = agent
            .handle_attach(UeImsi(3), &mut ctl, SimTime(3))
            .unwrap();
        assert_eq!((rec.bs, rec.ue_id, rec.since), (bs, UeId(2), SimTime(1)));
        // and the next UE takes the free id 0, not the lost one
        let rec = agent
            .handle_attach(UeImsi(4), &mut ctl, SimTime(4))
            .unwrap();
        assert_eq!(rec.ue_id, UeId(0));

        // a refused attach frees its id at once
        assert!(agent
            .handle_attach(UeImsi(99), &mut ctl, SimTime(5))
            .is_err());
        assert!(ctl.answered());
        let rec = agent
            .handle_attach(UeImsi(0), &mut ctl, SimTime(6))
            .unwrap();
        assert_eq!(rec.ue_id, UeId(3));

        drop(ctl);
        let results: Vec<_> = serving.into_iter().map(|s| s.join().unwrap()).collect();
        assert!(results[0].is_ok() && results[1].is_err() && results[2].is_ok());
        server.shutdown();
    }

    #[test]
    fn requests_at_an_unknown_station_are_error_frames() {
        let server =
            ControllerServer::start_sharded(ServicePolicy::example_carrier_a(1), subscribers(1), 2)
                .unwrap();
        let (agent_end, controller_end) = loopback_pair();
        let serve = server.serve(controller_end);
        let mut ctl = ChannelController::connect(agent_end, BaseStationId(0)).unwrap();
        let far = BaseStationId(9_999);
        let err = ctl
            .attach_ue(UeImsi(0), far, UeId(0), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, Error::NotFound(_)), "got {err:?}");
        let err = ctl.request_policy_path(far, ClauseId(5)).unwrap_err();
        assert!(matches!(err, Error::NotFound(_)), "got {err:?}");

        // the connection keeps serving
        ctl.attach_ue(UeImsi(0), BaseStationId(0), UeId(0), SimTime::ZERO)
            .unwrap();
        ctl.request_policy_path(BaseStationId(0), ClauseId(5))
            .unwrap();
        drop(ctl);
        serve.join().unwrap().unwrap();
        assert_eq!(server.connection_errors(), 0);
        server.shutdown();
    }

    /// Frames one or more connections carried, in order, each marked
    /// sent (`true`) or received by the agent's end.
    type Wiretap = Arc<parking_lot::Mutex<Vec<(bool, Vec<u8>)>>>;

    /// A loopback end that logs every frame it carries.
    struct Tap {
        inner: softcell_ctlchan::Loopback,
        log: Wiretap,
    }

    impl Transport for Tap {
        fn send(&mut self, frame: &[u8]) -> Result<()> {
            self.log.lock().push((true, frame.to_vec()));
            self.inner.send(frame)
        }

        fn recv(&mut self) -> Result<Option<Vec<u8>>> {
            let frame = self.inner.recv()?;
            if let Some(f) = &frame {
                self.log.lock().push((false, f.clone()));
            }
            Ok(frame)
        }

        fn counters(&self) -> Arc<softcell_ctlchan::ChannelCounters> {
            self.inner.counters()
        }
    }

    #[test]
    fn a_wire_run_replays_through_one_engine() {
        // Two agents on two connections, driven in turn from this one
        // thread, so the seat's log holds their calls in the order the
        // wiretap logs them.
        use crate::agent::LocalAgent;
        use crate::core::CentralController;
        use crate::install::Direction;
        use crate::log::Log;
        use crate::store::State;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use softcell_ctlchan::Frame;
        use softcell_dataplane::Switch;
        use softcell_packet::{build_flow_packet, FiveTuple, HeaderView, Protocol};
        use softcell_types::{AddressingScheme, PortEmbedding, SwitchId};

        /// Subscribers per agent; the second agent's follow the first's.
        const UES: u64 = 12;
        /// web, video, VoIP: three permitted clauses for a home subscriber.
        const FLOWS: [(u16, Protocol); 3] = [
            (443, Protocol::Tcp),
            (554, Protocol::Tcp),
            (5060, Protocol::Udp),
        ];
        let policy = || ServicePolicy::example_carrier_a(1);
        let server = ControllerServer::start_sharded(policy(), subscribers(2 * UES), 4).unwrap();
        let log = Wiretap::default();
        let tap = |inner| Tap {
            inner,
            log: Arc::clone(&log),
        };
        let stations = [BaseStationId(3), BaseStationId(7)];
        let mut serving = Vec::new();
        let mut ends: Vec<_> = stations
            .iter()
            .enumerate()
            .map(|(i, &bs)| {
                let (agent_end, controller_end) = loopback_pair();
                serving.push(server.serve(controller_end));
                let ctl = ChannelController::connect(tap(agent_end), bs).unwrap();
                let agent = LocalAgent::new(
                    bs,
                    PortNo(2),
                    AddressingScheme::default_scheme(),
                    PortEmbedding::default_embedding(),
                );
                (ctl, agent, Switch::access(SwitchId(i as u32)))
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(39);
        let mut src_port = 40_000u16;
        for step in 0..400u64 {
            let a = (step % 2) as usize;
            let now = SimTime(step);
            let imsi = UeImsi(a as u64 * UES + rng.gen_range(0..UES));
            let (ctl, agent, switch) = &mut ends[a];
            match agent.ue(imsi).map(|ue| ue.permanent_ip) {
                Err(_) => drop(agent.handle_attach(imsi, ctl, now).unwrap()),
                Ok(_) if rng.gen_bool(0.2) => agent.handle_detach(imsi, ctl).unwrap(),
                Ok(src) => {
                    // a new flow with the tag cache cleared: a path request
                    let (dst_port, proto) = FLOWS[rng.gen_range(0..FLOWS.len())];
                    src_port += 1;
                    let tuple = FiveTuple {
                        src,
                        dst: Ipv4Addr::new(93, 184, 216, 34),
                        src_port,
                        dst_port,
                        proto,
                    };
                    let view = HeaderView::parse(&build_flow_packet(tuple, 64, 0, &[])).unwrap();
                    agent.clear_tag_cache();
                    agent.handle_new_flow(&view, ctl, switch, now).unwrap();
                    agent.flow_finished(imsi, &tuple).unwrap();
                }
            }
            match step {
                100 => assert!(agent.handle_attach(UeImsi(999), ctl, now).is_err()),
                200 => {
                    let (ue, id) = (agent.attached().next().unwrap().imsi, UeId(900));
                    let elsewhere = ends[1 - a].0.attach_ue(ue, stations[1 - a], id, now);
                    assert!(matches!(elsewhere, Err(Error::InvalidState(_))));
                }
                300 => {
                    let (agent_end, controller_end) = loopback_pair();
                    serving.push(server.serve(controller_end));
                    ctl.reconnect(tap(agent_end)).unwrap();
                    ctl.resync(agent, now).unwrap();
                }
                _ => {}
            }
        }
        drop(ends);
        for s in serving {
            s.join().unwrap().unwrap();
        }

        // each packet-in the agents sent, with the reply it got
        let mut calls = Vec::new();
        let mut asked = None;
        for (sent, frame) in log.lock().iter() {
            let msg = Frame::new_checked(frame.as_slice()).unwrap();
            match (sent, msg.message().unwrap().into_static()) {
                (true, Message::PacketIn(pi)) => asked = Some(pi),
                (false, reply) => calls.extend(asked.take().map(|pi| (pi, reply))),
                _ => {}
            }
        }
        assert!(calls.len() >= 200, "{} engine calls", calls.len());

        // The seat's log holds exactly the answered packet-ins, in the
        // order they were answered; replayed record by record through a
        // fresh engine it gives every answer again, in its one reply
        // shape, and every refusal, and it ends on the seat's engine.
        let seat = server.seat();
        let records = Log::decode(&seat.log_bytes(), seat.config()).unwrap();
        let mut fresh = State::new(seat.config()).unwrap();
        let (mut index, mut refused, mut clauses) = (0, 0, std::collections::BTreeSet::new());
        for (pi, got) in &calls {
            if let Some(served) = got.as_error() {
                let e = fresh.apply(pi).unwrap_err();
                let variant = std::mem::discriminant;
                assert_eq!(variant(&e), variant(&served), "{pi:?}: {e:?} vs {served:?}");
                refused += 1;
                continue;
            }
            index += 1;
            let record = records
                .get(index)
                .expect("an answered packet-in is a record");
            assert_eq!(record.op, *pi, "record {index}");
            let (out, queued) = fresh.apply(pi).unwrap();
            let again = reply(0, *pi, Committed { index, out, queued }, TraceContext::NONE);
            assert_eq!(again.unwrap(), *got, "record {index}");
            if let PacketIn::PathRequest { clause, .. } = pi {
                clauses.insert(*clause);
            }
        }
        assert_eq!(index, records.last_index(), "every record was answered");
        assert!(refused >= 2, "the stranger and the attach elsewhere");
        assert!(clauses.len() >= 3, "path requests over {clauses:?}");

        let fingerprint = |c: &CentralController| {
            let dirs = [Direction::Uplink, Direction::Downlink];
            let rules: usize = dirs
                .iter()
                .flat_map(|d| c.installer().shadows(*d).rule_counts())
                .sum();
            let state = serde_json::to_string(c.state()).unwrap();
            (state, c.installer().tags_in_use(), rules)
        };
        assert_eq!(seat.read(fingerprint), fingerprint(fresh.engine()));
        assert_eq!(seat.image(), fresh.image());
        let (_, replayed) = Log::replay(&seat.log_bytes(), seat.config()).unwrap();
        assert_eq!(replayed.image(), fresh.image());
        server.shutdown();
    }
}
