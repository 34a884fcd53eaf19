//! Recovery gates for the replicated control plane.
//!
//! * [`softcell_scenario::controller_kill_drill`] — the leader killed
//!   mid-storm of moves, fail-over, agent re-homing, the storm resumed,
//!   and survivors checked byte-for-byte against the pre-kill log — then
//!   what only this process's global registry shows: the recovery
//!   duration lands in the exported telemetry report, and the lifecycle
//!   instants are in order.
//! * A seeded schedule sweep: a 3-seat, quorum-2 cluster driven through
//!   random agent inputs — each sent to the leader's server over an
//!   agent connection — mixed with cuts, heals, at most one kill and one
//!   fail-over — a cut and the kill may overlap, so the fail-over may
//!   reach no quorum. Every reply the cluster released must be in every
//!   survivor's engine, the survivors' logs must be byte-identical, and
//!   nothing may panic. It is the reference for the one-log ordering.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use softcell::controller::core::PathTags;
use softcell_ctlchan::{CtlChannel, Frame, Message, PacketIn};
use softcell_policy::clause::ClauseId;
use softcell_policy::{ServicePolicy, SubscriberAttributes};
use softcell_scenario::{controller_kill_drill, Cluster, Link};
use softcell_telemetry::Registry;
use softcell_types::{BaseStationId, ControllerId, SimTime, UeId, UeImsi};

/// Held by each test: the sweep kills and fails over too, and its
/// instants must not interleave with the drill's.
static ONE_CLUSTER_AT_A_TIME: Mutex<()> = Mutex::new(());

#[test]
fn leader_kill_mid_handoff_storm_leaves_zero_residue() {
    let _one = ONE_CLUSTER_AT_A_TIME.lock();
    let started = softcell_telemetry::trace::now_us();
    controller_kill_drill().expect("kill -9 drill converges");

    // The recovery-time histogram is populated and lands in the
    // exported telemetry report.
    let snap = Registry::global().snapshot();
    let hist = snap
        .histogram("softcell_replica_recovery_time_us")
        .expect("recovery histogram registered");
    assert!(hist.count >= 1, "fail-over duration recorded");
    assert!(
        snap.report().contains("softcell_replica_recovery_time_us"),
        "recovery histogram missing from the telemetry report"
    );

    // The drill's lifecycle instants sit in the one span ring, on the
    // one trace clock, so their order is readable from one snapshot:
    // the kill precedes the fail-over, which precedes the first re-home.
    let first = |kind: &str| {
        snap.spans
            .iter()
            .filter(|s| s.kind == kind && s.start_us >= started)
            .map(|s| s.start_us)
            .min()
            .unwrap_or_else(|| panic!("no {kind:?} instant in the snapshot"))
    };
    let (killed, failed_over, rehomed) = (
        first("controller_killed"),
        first("fail_over"),
        first("rehome"),
    );
    assert!(
        killed <= failed_over && failed_over <= rehomed,
        "lifecycle out of order: killed@{killed} fail_over@{failed_over} rehome@{rehomed}"
    );
}

/// Schedules swept, steps in each, and the IMSIs they attach.
const SEEDS: u64 = 32;
const STEPS: u64 = 80;
const UES: u64 = 12;

/// What the replies a schedule released promised.
#[derive(Default)]
struct Promised {
    /// The agent's connection to each seat's server it has sent to.
    chans: HashMap<usize, CtlChannel<Link>>,
    /// `Some((address, station))` after a released attach, `None` after
    /// a released detach.
    ues: HashMap<UeImsi, Option<(Ipv4Addr, BaseStationId)>>,
    /// IMSIs whose latest input was not released: it may still commit,
    /// so their state is not checked.
    unsure: HashSet<UeImsi>,
    paths: HashMap<(BaseStationId, ClauseId), PathTags>,
    /// The last released flow-mod `seq`.
    seq: u32,
}

impl Promised {
    /// Sends `pi` to the view's leader, through its server, and records
    /// what its reply, if released, promised. Returns whether it was
    /// released.
    fn send(&mut self, c: &Cluster, pi: PacketIn) -> bool {
        let leader = c.membership().unwrap().leader().unwrap().seat();
        let chan = self.chans.entry(leader).or_insert_with(|| {
            let mut chan = CtlChannel::new(c.agent_transport(leader).unwrap());
            chan.hello(0).unwrap();
            chan
        });
        let raw = chan
            .request(&Message::PacketIn(pi))
            .expect("agent inputs are answered");
        let frame = Frame::new_checked(raw.as_slice()).unwrap();
        match (pi, frame.message().unwrap()) {
            (PacketIn::Attach { imsi, bs, .. }, Message::ClassifierReply { record, .. }) => {
                if let (false, Some(Some((ip, _)))) =
                    (self.unsure.contains(&imsi), self.ues.get(&imsi))
                {
                    assert_eq!(record.permanent_ip, *ip, "{imsi} keeps its address");
                }
                self.ues.insert(imsi, Some((record.permanent_ip, bs)));
                self.unsure.remove(&imsi);
            }
            (PacketIn::Detach { imsi }, Message::ClassifierReply { .. }) => {
                self.ues.insert(imsi, None);
                self.unsure.remove(&imsi);
            }
            (PacketIn::PathRequest { bs, clause }, Message::FlowModBatch { seq, groups, .. }) => {
                // all five fields: both tag pairs, the port and the class
                let tags = PathTags::from(groups[0].mods[0].tags);
                let kept = *self.paths.entry((bs, clause)).or_insert(tags);
                assert_eq!(kept, tags, "the path of {bs} keeps its tags");
                assert!(seq > self.seq, "seq {seq} after {}", self.seq);
                self.seq = seq;
            }
            (PacketIn::Attach { imsi, .. } | PacketIn::Detach { imsi }, Message::Error { .. }) => {
                self.unsure.insert(imsi);
                return false;
            }
            (PacketIn::PathRequest { .. }, Message::Error { .. }) => return false,
            (pi, other) => panic!("{pi:?} answered with {other:?}"),
        }
        true
    }

    /// Checks every released reply against `seat`'s engine.
    fn check(&self, c: &Cluster, seat: usize, seed: u64) {
        let node = c.node(seat);
        for (imsi, want) in &self.ues {
            if !self.unsure.contains(imsi) {
                let got = node.ue(*imsi).map(|e| (e.permanent_ip, e.bs));
                assert_eq!(got, *want, "seed {seed}: seat {seat} lost {imsi}'s input");
            }
        }
        for (&(bs, clause), tags) in &self.paths {
            let got = node.path(bs, clause);
            assert_eq!(
                got,
                Some(*tags),
                "seed {seed}: seat {seat} lost {bs}'s path"
            );
        }
    }
}

/// Declares `dead` down, from the lowest seat that is not killed. The
/// fail-over fails when that seat is cut off from the third.
fn fail_over(c: &Cluster, dead: usize) -> bool {
    let from = (0..c.seats())
        .find(|&s| s != dead && !c.is_killed(s))
        .expect("a survivor");
    c.fail_over_from(from, &[ControllerId(dead as u32)]).is_ok()
}

/// Runs one seeded schedule and checks the survivors at its end. A cut
/// and a kill may overlap, so a fail-over may reach no quorum; at most
/// one fail-over runs before the settle.
fn run_schedule(seed: u64) {
    let subscribers: Vec<_> = (0..UES)
        .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
        .collect();
    let c = Cluster::start(
        3,
        2,
        &ServicePolicy::example_carrier_a(1),
        &subscribers,
        Duration::from_millis(200),
    )
    .expect("cluster starts");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Promised::default();
    let (mut cut, mut killed, mut failed_over) = (None::<usize>, None::<usize>, false);
    for step in 0..STEPS {
        let view = c.membership().expect("a seat is up");
        let in_view = |s: &usize| view.is_live(ControllerId(*s as u32));
        let down = killed.filter(in_view).or(cut.filter(in_view));
        match rng.gen_range(0..10u32) {
            0 if cut.is_none() => {
                let s = rng.gen_range(0..3usize);
                if killed != Some(s) {
                    c.cut(s);
                    cut = Some(s);
                }
            }
            1 => {
                if let Some(s) = cut.take() {
                    c.heal(s);
                }
            }
            // kill -9 the leader, which may hold records a cut seat lacks
            2 if killed.is_none() && !failed_over => {
                if let Some(s) = view.leader().map(|l| l.seat()).filter(|&s| cut != Some(s)) {
                    c.kill(s);
                    killed = Some(s);
                }
            }
            3 if !failed_over => {
                if let Some(dead) = down {
                    fail_over(&c, dead);
                    failed_over = true;
                }
            }
            // an agent cannot reach a killed leader
            _ if view.leader().is_some_and(|l| c.is_killed(l.seat())) => {}
            _ => {
                // each IMSI attaches at a location of its own
                let i = rng.gen_range(0..UES);
                let imsi = UeImsi(i);
                let bs = BaseStationId((i % 4) as u32);
                let pi = match rng.gen_range(0..3u32) {
                    0 => PacketIn::Attach {
                        imsi,
                        bs,
                        ue_id: UeId((i / 4 + 1) as u16),
                        now: SimTime(step),
                    },
                    1 => PacketIn::Detach { imsi },
                    _ => PacketIn::PathRequest {
                        bs,
                        clause: ClauseId(rng.gen_range(0..2u16)),
                    },
                };
                p.send(&c, pi);
            }
        }
    }

    // Settle: heal the cut, fail a killed seat still in the view over,
    // then one input reaches every survivor and hands a lagging one the
    // log.
    if let Some(s) = cut.take() {
        c.heal(s);
    }
    let view = c.membership().unwrap();
    if let Some(k) = killed.filter(|k| view.is_live(ControllerId(*k as u32))) {
        assert!(
            fail_over(&c, k),
            "seed {seed}: the settling fail-over failed"
        );
    }
    let settle = PacketIn::PathRequest {
        bs: BaseStationId(0),
        clause: ClauseId(0),
    };
    assert!(p.send(&c, settle), "seed {seed}: the settling input failed");

    let view = c.membership().unwrap();
    let survivors: Vec<usize> = (0..3)
        .filter(|&s| !c.is_killed(s) && view.is_live(ControllerId(s as u32)))
        .collect();
    let log = c.node(survivors[0]).log_bytes();
    for &seat in &survivors {
        assert_eq!(
            c.node(seat).log_bytes(),
            log,
            "seed {seed}: seat {seat} holds another log"
        );
        p.check(&c, seat, seed);
    }
}

#[test]
fn seeded_schedules_keep_every_released_input_on_every_survivor() {
    let _one = ONE_CLUSTER_AT_A_TIME.lock();
    static PANICS: AtomicUsize = AtomicUsize::new(0);
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        report(info);
    }));
    for seed in 0..SEEDS {
        run_schedule(seed);
    }
    assert_eq!(PANICS.load(Ordering::SeqCst), 0, "a thread panicked");
}
