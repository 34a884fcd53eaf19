//! The engine is a deterministic function of its input log.
//!
//! Seeded sequences of `Input`s — attaches, detaches, path requests
//! (some opening flows the way an agent would), m2m paths, handoffs
//! with and without flows, shortcuts, expiry ticks and offline passes,
//! failures included — are generated against one fresh engine and
//! replayed through `CentralController::apply` on a second. After every
//! input the two must agree byte for byte: the `Output`, the drained
//! rule ops, the released locations and the `ControllerState`. An input
//! that fails must queue no rule op.

mod common;

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use common::{engine, SERVER};
use softcell::controller::agent::microflow_pair;
use softcell::controller::mobility::FlowRecord;
use softcell::controller::{CentralController, ControllerConfig, Input, Output};
use softcell::ctlchan::PacketIn;
use softcell::packet::{FiveTuple, Protocol};
use softcell::policy::clause::ClauseId;
use softcell::topology::{small_topology, Topology};
use softcell::types::{BaseStationId, LocIp, SimDuration, SimTime, SwitchId, UeId, UeImsi};

/// Subscribers provisioned; IMSIs up to `UES + 1` are drawn, so some
/// inputs name a stranger.
const UES: u64 = 6;
const STEPS: usize = 160;

/// The downlink a shortcut names for a UE without flows.
const STRAY: FiveTuple = FiveTuple {
    src: SERVER,
    dst: SERVER,
    src_port: 443,
    dst_port: 40_000,
    proto: Protocol::Tcp,
};

/// What one input did, in comparable form.
#[derive(Debug, PartialEq)]
struct Effect {
    output: String,
    ops: String,
    released: String,
    state: String,
}

/// Applies `input`; returns its output and its whole effect.
fn effect(ctl: &mut CentralController, input: &Input) -> (Option<Output>, Effect) {
    let output = ctl.apply(input);
    let ops = ctl.drain_ops();
    if output.is_err() {
        assert!(ops.is_empty(), "{input:?} failed and queued {ops:?}");
    }
    let effect = Effect {
        output: format!("{output:?}"),
        ops: format!("{ops:?}"),
        released: format!("{:?}", ctl.drain_released_locations()),
        state: serde_json::to_string(ctl.state()).expect("state serializes"),
    };
    (output.ok(), effect)
}

/// The agents' view the generator keeps: each attached UE's live flows
/// and the next flow slot it may use, and each station's next local id.
#[derive(Default)]
struct Agents {
    flows: HashMap<UeImsi, (Vec<FlowRecord>, u16)>,
    next_id: HashMap<BaseStationId, u16>,
}

impl Agents {
    fn fresh_id(&mut self, bs: BaseStationId) -> UeId {
        let next = self.next_id.entry(bs).or_default();
        *next += 1;
        UeId(*next)
    }
}

/// Draws the next input from the generating engine's state.
fn next_input(
    rng: &mut StdRng,
    topo: &Topology,
    ctl: &CentralController,
    agents: &mut Agents,
    now: SimTime,
) -> Input {
    let stations = topo.base_stations().len() as u32;
    let station = |rng: &mut StdRng| BaseStationId(rng.gen_range(0..stations));
    let imsi = UeImsi(rng.gen_range(0..UES + 2));
    let attached = ctl.state().ue(imsi).ok().copied();
    let clause = ClauseId(rng.gen_range(0..6));
    match rng.gen_range(0..10u32) {
        0 | 1 => {
            let bs = station(rng);
            let ue_id = agents.fresh_id(bs);
            Input::Agent(PacketIn::Attach {
                imsi,
                bs,
                ue_id,
                now,
            })
        }
        2 => Input::Agent(PacketIn::Detach { imsi }),
        3 | 4 => {
            let bs = attached.map_or_else(|| station(rng), |rec| rec.bs);
            Input::Agent(PacketIn::PathRequest { bs, clause })
        }
        5 => Input::M2mPath {
            from: station(rng),
            to: station(rng),
            clause,
        },
        6 | 7 => {
            let to = station(rng);
            let flows = match rng.gen_bool(0.7) {
                true => agents.flows.get(&imsi).map(|f| f.0.clone()),
                false => None,
            };
            Input::Handoff {
                imsi,
                to,
                new_id: agents.fresh_id(to),
                flows: flows.unwrap_or_default(),
                now,
            }
        }
        8 => {
            // the anchor's catch-all path stands in for the flow's own
            let flow = agents.flows.get(&imsi).and_then(|f| f.0.first().copied());
            let downlink = flow.map_or(STRAY, |f| f.downlink_original);
            let anchor = ctl.config().scheme.decode(downlink.dst).ok();
            let route = anchor.and_then(|loc| ctl.routed_path(loc.base_station, ClauseId(5)));
            let old_path: Vec<SwitchId> =
                route.map_or_else(Vec::new, |p| p.hops.iter().map(|h| h.switch).collect());
            Input::Shortcut {
                imsi,
                old_path,
                downlink,
                now,
            }
        }
        _ if rng.gen_bool(0.8) => Input::Expire { now },
        _ => Input::Reoptimize,
    }
}

/// Updates the agents' view after `input` answered `output`: a path
/// request at an attached UE's station opens a flow there (its first
/// packet missed the tag cache), a handoff carries the flows its plan
/// says, a detach forgets them.
fn observe(
    topo: &Topology,
    ctl: &CentralController,
    agents: &mut Agents,
    input: &Input,
    output: &Output,
) {
    let cfg = ControllerConfig::simulation();
    match (input, output) {
        (Input::Agent(PacketIn::Attach { imsi, .. }), Output::Attached(_))
        | (Input::Agent(PacketIn::Detach { imsi }), Output::Detached(_)) => {
            agents.flows.remove(imsi);
        }
        (Input::Agent(PacketIn::PathRequest { bs, .. }), Output::Path(tags)) => {
            let Some(rec) = ctl.state().attached().find(|r| r.bs == *bs).copied() else {
                return;
            };
            let (flows, slot) = agents.flows.entry(rec.imsi).or_default();
            if flows.len() == 6 || *slot == 64 {
                return;
            }
            let loc = cfg.scheme.encode(LocIp::new(rec.bs, rec.ue_id)).unwrap();
            let radio = topo.base_station(rec.bs).radio_port;
            let tuple = FiveTuple {
                src: rec.permanent_ip,
                dst: SERVER,
                src_port: 40_000 + *slot,
                dst_port: 443,
                proto: Protocol::Tcp,
            };
            let pair = microflow_pair(&cfg.ports, tags, loc, rec.permanent_ip, radio, tuple, *slot);
            flows.push(pair.unwrap());
            *slot += 1;
        }
        (Input::Handoff { imsi, .. }, Output::HandedOff(plan)) => {
            let slot = agents.flows.get(imsi).map_or(0, |f| f.1);
            agents
                .flows
                .insert(*imsi, (plan.carried_records().collect(), slot));
        }
        _ => {}
    }
}

/// What kind of input succeeded, for the coverage check.
fn kind(input: &Input, e: &Effect) -> &'static str {
    match input {
        Input::Expire { .. } | Input::Reoptimize if e.ops == "[]" => "idle",
        Input::Agent(PacketIn::Attach { .. }) => "attach",
        Input::Agent(PacketIn::Detach { .. }) => "detach",
        Input::Agent(PacketIn::PathRequest { .. }) => "path",
        Input::M2mPath { .. } => "m2m",
        Input::Handoff { flows, .. } if flows.is_empty() => "handoff",
        Input::Handoff { .. } => "handoff with flows",
        Input::Shortcut { .. } => "shortcut",
        Input::Expire { .. } => "expire",
        Input::Reoptimize => "reoptimize",
    }
}

#[test]
fn a_replayed_input_log_gives_byte_identical_results() {
    let topo = small_topology();
    let mut succeeded: HashMap<&str, usize> = HashMap::new();
    let mut failed = 0;
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut first, mut agents) = (engine(&topo, UES), Agents::default());
        let mut log = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..STEPS {
            now += SimDuration::from_secs(rng.gen_range(0..40));
            let input = next_input(&mut rng, &topo, &first, &mut agents, now);
            let (output, e) = effect(&mut first, &input);
            match &output {
                Some(output) => {
                    observe(&topo, &first, &mut agents, &input, output);
                    *succeeded.entry(kind(&input, &e)).or_default() += 1;
                }
                None => failed += 1,
            }
            log.push((input, e));
        }

        let mut second = engine(&topo, UES);
        for (step, (input, e)) in log.iter().enumerate() {
            let (_, again) = effect(&mut second, input);
            assert_eq!(&again, e, "seed {seed}, step {step}: {input:?}");
        }
    }
    for kind in [
        "attach",
        "detach",
        "path",
        "m2m",
        "handoff",
        "handoff with flows",
        "shortcut",
        "expire",
        "reoptimize",
    ] {
        assert!(
            succeeded.get(kind).is_some_and(|n| *n > 0),
            "no {kind} succeeded: {succeeded:?}"
        );
    }
    assert!(failed > 0, "no input failed");
}
