//! The campaign driver: one simulated day, micro + macro tiers,
//! composable overlays, continuously checked invariants.
//!
//! See the crate docs for the model. The driver is deterministic in its
//! [`CampaignConfig`]: the trace, the overlay schedule, the macro-tier
//! Poisson draws and every tie-break derive from the config's seed
//! alone (the seed-stability contract in `crates/workload/src/lib.rs`),
//! so a [`Violation`]'s `(scenario, seed, virtual_time_us)` triple is a
//! complete replay recipe.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use softcell_packet::Protocol;
use softcell_policy::{ServicePolicy, SubscriberAttributes};
use softcell_sim::{ConsistencyAuditor, MiddleboxTracker, SimWorld};
use softcell_telemetry::Registry;
use softcell_topology::{CellularParams, Topology};
use softcell_types::{BaseStationId, Error, Result, SimDuration, SimTime, UeId, UeImsi};
use softcell_workload::diurnal::DiurnalShape;
use softcell_workload::{EventKind, EventStream, EventStreamConfig, TraceEvent};

use crate::invariants::Violation;
use crate::overlay::OverlayKind;
use crate::report::{
    MacroStats, MicroStats, OverlayStats, ProbeStats, QuiesceStats, ScenarioReport,
};

/// A fixed Internet endpoint for every campaign flow.
const INTERNET: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

/// Connections older than this are never replayed (compressed virtual
/// gaps dwarf the 30 s microflow idle timeout; a stale echo would
/// rightly fail).
const FRESH_WINDOW: SimDuration = SimDuration::from_secs(25);

/// Paper Fig. 6a: 99.999th-pct attach rate at 1M UEs, events/s.
const PEAK_ATTACHES_PER_S_AT_1M: f64 = 214.0;
/// Paper Fig. 6a: 99.999th-pct handoff rate at 1M UEs, events/s.
const PEAK_HANDOFFS_PER_S_AT_1M: f64 = 280.0;

/// The flow mix the micro tier and warmup both exercise (port, is-UDP);
/// mirrors the workload generator's application table.
const APP_PORTS: [(u16, bool); 7] = [
    (443, false),
    (80, false),
    (554, false),
    (5060, true),
    (53, true),
    (993, false),
    (8883, false),
];

/// At most this many violations are recorded per scenario (the first
/// one carries the replay coordinates; the rest are colour).
const MAX_VIOLATIONS: usize = 64;

/// One scenario run, fully specified.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Scenario name (reported, and part of the replay recipe).
    pub name: String,
    /// Fabric shape.
    pub topology: CellularParams,
    /// Modeled UE population (macro tier accounts for all of it).
    pub ues: u64,
    /// Cap on the cohort driven through the real stack.
    pub cohort_cap: u64,
    /// Virtual day length.
    pub virtual_day: SimDuration,
    /// Time compression: the dense source trace spans
    /// `virtual_day / compress` and is diurnally warped onto the day.
    pub compress: u64,
    /// Invariant-probe cadence (virtual time between slice boundaries).
    pub slice: SimDuration,
    /// Campaign seed — the replay key.
    pub seed: u64,
    /// Overlays stacked on the base diurnal cycle.
    pub overlays: Vec<OverlayKind>,
    /// Capture the final fabric dump in the outcome (determinism
    /// comparisons); the FNV digest is computed either way.
    pub capture_fabric_dump: bool,
}

/// What a scenario run produced.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The run artifact.
    pub report: ScenarioReport,
    /// Final fabric dump, when
    /// [`CampaignConfig::capture_fabric_dump`] was set.
    pub fabric_dump: Option<String>,
}

impl CampaignConfig {
    /// The metro-scale preset: the paper's `k = 2` pod fabric
    /// (20 stations), a 24 h virtual day compressed 288× (5 min of
    /// dense traffic warped over the day), probes every virtual minute.
    pub fn metro(name: &str, overlays: Vec<OverlayKind>) -> CampaignConfig {
        CampaignConfig {
            name: name.to_string(),
            // paper(2) with one extra middlebox kind: the carrier-A
            // policy chains firewall, transcoder AND echo-canceller,
            // so all three kinds must be deployed for every
            // application class to have a feasible path.
            topology: CellularParams {
                mb_kinds: 3,
                ..CellularParams::paper(2)
            },
            ues: 10_000,
            cohort_cap: 768,
            virtual_day: SimDuration::from_secs(86_400),
            compress: 288,
            slice: SimDuration::from_secs(60),
            seed: 2013,
            overlays,
            capture_fabric_dump: false,
        }
    }

    /// A reduced preset for tests: 4 stations, a one-hour virtual day,
    /// the whole kilo-UE population in the cohort.
    pub fn small(name: &str, overlays: Vec<OverlayKind>) -> CampaignConfig {
        CampaignConfig {
            name: name.to_string(),
            topology: CellularParams {
                k: 2,
                bs_per_cluster: 2,
                mb_kinds: 3,
                seed: 2013,
            },
            ues: 1_000,
            cohort_cap: 1_000,
            virtual_day: SimDuration::from_secs(3_600),
            compress: 60,
            slice: SimDuration::from_secs(30),
            seed: 2013,
            overlays,
            capture_fabric_dump: false,
        }
    }

    /// The metro preset for a named scenario (`None` if unknown).
    pub fn scenario(name: &str) -> Option<CampaignConfig> {
        Some(CampaignConfig::metro(
            name,
            crate::overlay::overlays_for(name)?,
        ))
    }

    /// Cohort actually driven through the stack.
    pub fn cohort(&self) -> u64 {
        self.ues.min(self.cohort_cap)
    }

    /// Runs the scenario to completion.
    pub fn run(&self) -> Result<ScenarioOutcome> {
        let wall = Instant::now();
        let topo = self.topology.build()?;
        let mut w = SimWorld::new(&topo, ServicePolicy::example_carrier_a(1));

        let cohort = self.cohort();
        let crowd = if self.overlays.contains(&OverlayKind::FlashCrowd) {
            (cohort / 4).min(256)
        } else {
            0
        };
        for imsi in 0..cohort + crowd + 2 {
            // cohort, crowd, ghost, warmup — all home subscribers, so
            // the catch-all allow clause guarantees no flow is denied.
            w.provision(SubscriberAttributes::default_home(UeImsi(imsi)));
        }

        let n = topo.base_stations().len() as u32;
        let day_us = self.virtual_day.as_micros().max(1);
        let mut d = Driver {
            cfg: self,
            n,
            day_us,
            crowd_base: cohort,
            crowd,
            ghost: UeImsi(cohort + crowd),
            warmup_ue: UeImsi(cohort + crowd + 1),
            asleep: vec![false; n as usize],
            ledger: BTreeMap::new(),
            auditor: ConsistencyAuditor::new(),
            violations: Vec::new(),
            outage: false,
            parity_flagged: false,
            micro: MicroStats::default(),
            overlay: OverlayStats::default(),
            macro_tier: MacroStats {
                modeled_ues: self.ues,
                ..MacroStats::default()
            },
            probes: ProbeStats::default(),
            shape: DiurnalShape::default(),
            rng: StdRng::seed_from_u64(self.seed ^ 0x5CE2_AE10_CA3B_A162),
            baseline_rules: 0,
            baseline_tags: 0,
            counters: Counters::new(&self.name),
        };

        // Pin the residue baseline: one reserved UE walks a flow of
        // every application class at every station, so every
        // (station, clause) path — rules and tags — exists before the
        // snapshot and the day can't legitimately grow the rule set.
        d.warmup(&mut w)?;
        d.rebaseline(&w);

        // The dense source trace, diurnally warped onto the day.
        let dense = SimDuration::from_micros((day_us / self.compress.max(1)).max(1_000_000));
        let trace = EventStream::generate(&EventStreamConfig {
            base_stations: n,
            ues: cohort,
            duration: dense,
            mean_session: SimDuration::from_micros(dense.as_micros() / 4),
            mean_gap: SimDuration::from_micros(dense.as_micros() / 5),
            mean_flow_gap: SimDuration::from_micros(dense.as_micros() / 20),
            mean_handoff_gap: SimDuration::from_micros(dense.as_micros() / 6),
            seed: self.seed,
        })
        .warp_diurnal(&d.shape, dense, self.virtual_day);

        let schedule = d.schedule();
        let slice_us = self.slice.as_micros().max(1);
        let mut next_action = 0usize;
        let mut next_slice = slice_us;
        for ev in trace.events() {
            let t = ev.time.as_micros().min(day_us);
            d.catch_up(&mut w, t, &schedule, &mut next_action, &mut next_slice)?;
            advance_to(&mut w, t);
            d.apply_event(&mut w, ev);
        }
        d.catch_up(&mut w, day_us, &schedule, &mut next_action, &mut next_slice)?;
        advance_to(&mut w, day_us);

        d.drain(&mut w)?;
        let quiesce = d.quiesce(&w);

        let dump = fabric_dump(&topo, &w);
        let report = ScenarioReport {
            scenario: self.name.clone(),
            seed: self.seed,
            ues: self.ues,
            cohort,
            stations: n as u64,
            virtual_day_s: self.virtual_day.as_micros() / 1_000_000,
            compress: self.compress,
            micro: d.micro,
            overlay: d.overlay,
            macro_tier: d.macro_tier,
            probes: d.probes,
            quiesce,
            violations: d.violations,
            fabric_digest: fnv1a_hex(&dump),
            wall_ms: wall.elapsed().as_millis() as u64,
        };
        Ok(ScenarioOutcome {
            report,
            fabric_dump: self.capture_fabric_dump.then_some(dump),
        })
    }
}

/// A connection the driver still considers in-flight (accounting only;
/// replay happens at creation and around handoffs, never later).
struct LiveConn {
    opened: SimTime,
}

/// Driver-side truth about one attached UE.
struct UeState {
    bs: BaseStationId,
    conns: Vec<LiveConn>,
}

/// Scheduled overlay actions (virtual fire time, what).
#[derive(Clone, Copy, Debug)]
enum Action {
    TrainStorm,
    Sleep,
    Wake,
    GatewayKill,
    GatewayRecover,
    ControllerKill,
    FlashCrowd,
    FlashDrain,
    InjectGhost,
}

struct Counters {
    events: std::sync::Arc<softcell_telemetry::Counter>,
    overlay_actions: std::sync::Arc<softcell_telemetry::Counter>,
    probe_runs: std::sync::Arc<softcell_telemetry::Counter>,
    violations: std::sync::Arc<softcell_telemetry::Counter>,
}

impl Counters {
    fn new(scenario: &str) -> Counters {
        let reg = Registry::global();
        let label = format!("scenario={scenario}");
        Counters {
            events: reg.counter_with("softcell_scenario_events_total", &label),
            overlay_actions: reg.counter_with("softcell_scenario_overlay_actions_total", &label),
            probe_runs: reg.counter_with("softcell_scenario_probe_runs_total", &label),
            violations: reg.counter_with("softcell_scenario_violations_total", &label),
        }
    }
}

struct Driver<'c> {
    cfg: &'c CampaignConfig,
    n: u32,
    day_us: u64,
    crowd_base: u64,
    crowd: u64,
    ghost: UeImsi,
    warmup_ue: UeImsi,
    asleep: Vec<bool>,
    ledger: BTreeMap<UeImsi, UeState>,
    auditor: ConsistencyAuditor,
    violations: Vec<Violation>,
    outage: bool,
    parity_flagged: bool,
    micro: MicroStats,
    overlay: OverlayStats,
    macro_tier: MacroStats,
    probes: ProbeStats,
    shape: DiurnalShape,
    rng: StdRng,
    baseline_rules: usize,
    baseline_tags: usize,
    counters: Counters,
}

impl Driver<'_> {
    // ---- invariant bookkeeping ------------------------------------

    fn violate(&mut self, w: &SimWorld, invariant: &str, event: &str, detail: String) {
        self.counters.violations.inc();
        if self.violations.len() >= MAX_VIOLATIONS {
            return;
        }
        self.violations.push(Violation {
            scenario: self.cfg.name.clone(),
            invariant: invariant.to_string(),
            virtual_time_us: w.now().as_micros(),
            seed: self.cfg.seed,
            event: event.to_string(),
            detail,
        });
    }

    // ---- micro-tier event application -----------------------------

    fn apply_event(&mut self, w: &mut SimWorld, ev: &TraceEvent) {
        self.counters.events.inc();
        // Trace root per cohort event: controller/agent spans opened
        // while handling it nest under the thread-local context. With
        // sampling disarmed this is one atomic load.
        let mut root = Registry::global().tracer().root(match ev.kind {
            EventKind::Attach { .. } => "scenario_attach",
            EventKind::NewFlow { .. } => "scenario_new_flow",
            EventKind::Handoff { .. } => "scenario_handoff",
            EventKind::Detach { .. } => "scenario_detach",
        });
        root.set_label(ev.imsi.0);
        match ev.kind {
            EventKind::Attach { bs } => self.do_attach(w, ev.imsi, bs, false),
            EventKind::NewFlow { dst_port, udp, .. } => self.do_flow(w, ev.imsi, dst_port, udp),
            EventKind::Handoff { to, .. } => self.do_handoff(w, ev.imsi, to),
            EventKind::Detach { .. } => self.do_detach(w, ev.imsi),
        }
    }

    /// First awake station at or after `want` (sleeping cells redirect).
    fn awake_target(&self, want: BaseStationId) -> BaseStationId {
        for d in 0..self.n {
            let c = BaseStationId((want.0 + d) % self.n);
            if !self.asleep[c.index()] {
                return c;
            }
        }
        want
    }

    fn do_attach(&mut self, w: &mut SimWorld, imsi: UeImsi, bs: BaseStationId, crowd: bool) {
        if self.ledger.contains_key(&imsi) {
            self.micro.skipped += 1;
            return;
        }
        let target = self.awake_target(bs);
        if target != bs {
            self.micro.redirected += 1;
        }
        match w.attach(imsi, target) {
            Ok(()) => {
                self.ledger.insert(
                    imsi,
                    UeState {
                        bs: target,
                        conns: Vec::new(),
                    },
                );
                self.micro.attaches += 1;
                if crowd {
                    self.overlay.crowd_attaches += 1;
                }
            }
            Err(Error::Exhausted(_)) => self.micro.rejected += 1,
            Err(e) => self.violate(
                w,
                "event-application",
                &format!("attach {imsi} at {target}"),
                e.to_string(),
            ),
        }
    }

    fn do_flow(&mut self, w: &mut SimWorld, imsi: UeImsi, dst_port: u16, udp: bool) {
        if !self.ledger.contains_key(&imsi) {
            self.micro.skipped += 1;
            return;
        }
        if self.outage {
            self.micro.outage_skipped += 1;
            return;
        }
        let proto = if udp { Protocol::Udp } else { Protocol::Tcp };
        let conn = match w.start_connection(imsi, INTERNET, dst_port, proto) {
            Ok(c) => c,
            Err(e) => {
                self.violate(
                    w,
                    "event-application",
                    &format!("flow {imsi}:{dst_port}"),
                    e.to_string(),
                );
                return;
            }
        };
        match w.round_trip(conn) {
            Ok(()) => {
                self.micro.flows += 1;
                self.micro.round_trips += 1;
                let opened = w.now();
                if let Some(st) = self.ledger.get_mut(&imsi) {
                    st.conns.push(LiveConn { opened });
                }
            }
            Err(Error::Exhausted(_)) => self.micro.rejected += 1,
            Err(e) => self.violate(
                w,
                "policy-path",
                &format!("flow {imsi}:{dst_port}"),
                e.to_string(),
            ),
        }
    }

    /// A handoff carries a live flow across the move: a fresh
    /// connection round-trips at the old cell, the UE moves, and the
    /// *same* connection round-trips again — downlink now riding the
    /// mobility tunnel (§5.1). A broken post-move path is a violation.
    fn do_handoff(&mut self, w: &mut SimWorld, imsi: UeImsi, to: BaseStationId) {
        let Some(cur) = self.ledger.get(&imsi).map(|s| s.bs) else {
            self.micro.skipped += 1;
            return;
        };
        let mut target = self.awake_target(to);
        if target == cur {
            // redirect landed on the current cell; try its neighbour
            target = self.awake_target(BaseStationId((target.0 + 1) % self.n));
        }
        if target == cur {
            self.micro.skipped += 1;
            return;
        }
        if target != to {
            self.micro.redirected += 1;
        }
        let carried = if self.outage {
            None
        } else {
            match w.start_connection(imsi, INTERNET, 443, Protocol::Tcp) {
                Ok(c) => match w.round_trip(c) {
                    Ok(()) => {
                        self.micro.round_trips += 1;
                        Some(c)
                    }
                    Err(Error::Exhausted(_)) => {
                        self.micro.rejected += 1;
                        None
                    }
                    Err(e) => {
                        self.violate(
                            w,
                            "policy-path",
                            &format!("pre-handoff flow {imsi}"),
                            e.to_string(),
                        );
                        None
                    }
                },
                Err(_) => None,
            }
        };
        match w.handoff(imsi, target) {
            Ok(()) => {
                if let Some(st) = self.ledger.get_mut(&imsi) {
                    st.bs = target;
                }
                self.micro.handoffs += 1;
            }
            Err(Error::Exhausted(_)) => {
                self.micro.rejected += 1;
                return;
            }
            Err(e) => {
                self.violate(
                    w,
                    "event-application",
                    &format!("handoff {imsi} {cur}->{target}"),
                    e.to_string(),
                );
                return;
            }
        }
        if let Some(c) = carried {
            match w.round_trip(c) {
                Ok(()) => {
                    self.micro.round_trips += 1;
                    let opened = w.now();
                    if let Some(st) = self.ledger.get_mut(&imsi) {
                        st.conns.push(LiveConn { opened });
                    }
                }
                Err(e) => self.violate(
                    w,
                    "policy-path",
                    &format!("post-handoff flow {imsi} at {target}"),
                    format!("tunnel path broke: {e}"),
                ),
            }
        }
    }

    fn do_detach(&mut self, w: &mut SimWorld, imsi: UeImsi) {
        if self.ledger.remove(&imsi).is_none() {
            self.micro.skipped += 1;
            return;
        }
        match w.detach(imsi) {
            Ok(()) => self.micro.detaches += 1,
            Err(e) => self.violate(
                w,
                "event-application",
                &format!("detach {imsi}"),
                e.to_string(),
            ),
        }
    }

    // ---- warmup & baseline ----------------------------------------

    /// Attaches the reserved warmup UE at every station (sleep state is
    /// a driver fiction — the fabric stays warm) and walks one flow of
    /// every application class, so every (station, clause) policy path
    /// exists before the residue baseline is pinned.
    fn warmup(&mut self, w: &mut SimWorld) -> Result<()> {
        for bs in 0..self.n {
            w.attach(self.warmup_ue, BaseStationId(bs))?;
            for (port, udp) in APP_PORTS {
                let proto = if udp { Protocol::Udp } else { Protocol::Tcp };
                let c = w.start_connection(self.warmup_ue, INTERNET, port, proto)?;
                w.round_trip(c)?;
            }
            w.detach(self.warmup_ue)?;
        }
        Ok(())
    }

    /// Pins the residue baseline (its tags: [`tag_baseline`]).
    fn rebaseline(&mut self, w: &SimWorld) {
        self.baseline_rules = w.net.total_rules();
        self.baseline_tags = tag_baseline(w);
    }

    // ---- overlay schedule -----------------------------------------

    /// Fire times as fractions of the virtual day, so a compressed test
    /// day exercises the same relative schedule as a full 24 h run.
    fn schedule(&self) -> Vec<(u64, Action)> {
        let at = |num: u64, den: u64| self.day_us / den * num;
        let mut s: Vec<(u64, Action)> = Vec::new();
        for ov in &self.cfg.overlays {
            match ov {
                OverlayKind::TrainStorm => {
                    s.push((at(8, 24), Action::TrainStorm)); // morning rush
                    s.push((at(18, 24), Action::TrainStorm)); // evening rush
                }
                OverlayKind::SleepWake => {
                    s.push((at(3, 48), Action::Sleep)); // 01:30 trough
                    s.push((at(11, 48), Action::Wake)); // 05:30
                }
                OverlayKind::GatewayFlap => {
                    s.push((at(11, 24), Action::GatewayKill)); // 11:00
                    s.push((at(23, 48), Action::GatewayRecover)); // 11:30
                }
                OverlayKind::ControllerKill => {
                    s.push((at(73, 96), Action::ControllerKill)); // 18:15
                }
                OverlayKind::FlashCrowd => {
                    s.push((at(5, 6), Action::FlashCrowd)); // 20:00 peak
                    s.push((at(7, 8), Action::FlashDrain)); // 21:00
                }
                OverlayKind::InjectViolation => {
                    s.push((at(1, 2), Action::InjectGhost));
                }
            }
        }
        s.sort_by_key(|(t, _)| *t);
        s
    }

    /// Fires every schedule action and slice boundary due at or before
    /// virtual time `t`, in time order (actions before probes on ties,
    /// so probes see post-action state).
    fn catch_up(
        &mut self,
        w: &mut SimWorld,
        t: u64,
        schedule: &[(u64, Action)],
        next_action: &mut usize,
        next_slice: &mut u64,
    ) -> Result<()> {
        loop {
            let action_due = schedule
                .get(*next_action)
                .map(|(at, _)| *at)
                .filter(|at| *at <= t);
            let slice_due = (*next_slice <= t).then_some(*next_slice);
            match (action_due, slice_due) {
                (Some(at), sl) if sl.is_none_or(|sl| at <= sl) => {
                    let (_, a) = schedule[*next_action];
                    *next_action += 1;
                    advance_to(w, at);
                    self.fire(w, a)?;
                }
                (_, Some(sl)) => {
                    *next_slice += self.cfg.slice.as_micros().max(1);
                    advance_to(w, sl);
                    self.slice_boundary(w)?;
                }
                _ => return Ok(()),
            }
        }
    }

    fn fire(&mut self, w: &mut SimWorld, a: Action) -> Result<()> {
        self.overlay.actions += 1;
        self.counters.overlay_actions.inc();
        match a {
            Action::TrainStorm => self.train_storm(w),
            Action::Sleep => self.sleep(w),
            Action::Wake => {
                self.asleep.iter_mut().for_each(|s| *s = false);
            }
            Action::GatewayKill => self.gateway_kill(),
            Action::GatewayRecover => self.gateway_recover(w)?,
            Action::ControllerKill => self.controller_kill(w),
            Action::FlashCrowd => self.flash_crowd(w),
            Action::FlashDrain => self.flash_drain(w),
            Action::InjectGhost => self.inject_ghost(w),
        }
        Ok(())
    }

    /// A commuter train: a line of four adjacent cells; each rider
    /// hands off along every stop with a live flow carried across each
    /// move.
    fn train_storm(&mut self, w: &mut SimWorld) {
        let start = self.rng.gen_range(0..self.n);
        let line: Vec<BaseStationId> = (0..4u32)
            .map(|i| BaseStationId((start + i) % self.n))
            .collect();
        let mut pool: Vec<UeImsi> = self.ledger.keys().copied().collect();
        if pool.is_empty() {
            return;
        }
        let riders = (pool.len() / 8).clamp(1, 64);
        for _ in 0..riders {
            let imsi = pool.swap_remove(self.rng.gen_range(0..pool.len()));
            for stop in &line {
                self.do_handoff(w, imsi, *stop);
            }
            self.overlay.storm_rides += 1;
            if pool.is_empty() {
                return;
            }
        }
    }

    /// HyCell trough: every third station sleeps; its UEs are handed
    /// off (flows carried along) to the nearest awake neighbour.
    fn sleep(&mut self, w: &mut SimWorld) {
        for i in 0..self.n {
            if i % 3 == 1 {
                self.asleep[i as usize] = true;
                self.overlay.stations_slept += 1;
            }
        }
        let evacuees: Vec<UeImsi> = self
            .ledger
            .iter()
            .filter(|(_, st)| self.asleep[st.bs.index()])
            .map(|(imsi, _)| *imsi)
            .collect();
        for imsi in evacuees {
            let cur = self.ledger[&imsi].bs;
            // do_handoff redirects away from the sleeping current cell
            self.do_handoff(w, imsi, cur);
            self.overlay.evacuated += 1;
        }
    }

    fn gateway_kill(&mut self) {
        self.outage = true;
        for st in self.ledger.values_mut() {
            self.overlay.outage_dropped += st.conns.len() as u64;
            st.conns.clear();
        }
    }

    /// Recovery runs the §3.2 offline reroute: the rule set is swapped
    /// and every tag cache flushed, which starts a fresh
    /// policy-consistency epoch — the tracker's `ConnKey` slots recycle
    /// across the swap, so the auditor's references must be dropped
    /// with it, and the residue baseline re-pinned after a re-warmup.
    fn gateway_recover(&mut self, w: &mut SimWorld) -> Result<()> {
        self.outage = false;
        for st in self.ledger.values_mut() {
            self.overlay.outage_dropped += st.conns.len() as u64;
            st.conns.clear();
        }
        if let Err(e) = w.apply_reoptimization() {
            self.violate(w, "event-application", "gateway-recover", e.to_string());
            return Ok(());
        }
        let cfg = *w.controller.config();
        w.net.middleboxes = MiddleboxTracker::new(cfg.scheme, cfg.ports);
        self.auditor.reset();
        if let Err(e) = self.warmup(w) {
            self.violate(w, "event-application", "post-recover warmup", e.to_string());
        }
        self.rebaseline(w);
        Ok(())
    }

    /// Runs the replicated-control-plane `kill -9` drill out-of-band
    /// (its cluster is a control-plane twin; the data-plane world keeps
    /// running). Non-convergence is a campaign violation.
    fn controller_kill(&mut self, w: &mut SimWorld) {
        self.overlay.controller_kills += 1;
        match softcell_replica::controller_kill_drill() {
            Ok(()) => self.overlay.drills_converged += 1,
            Err(e) => self.violate(w, "replica-convergence", "controller-kill", e.to_string()),
        }
    }

    fn flash_crowd(&mut self, w: &mut SimWorld) {
        if self.crowd == 0 {
            return;
        }
        let cell = BaseStationId(self.rng.gen_range(0..self.n));
        for j in 0..self.crowd {
            let imsi = UeImsi(self.crowd_base + j);
            self.do_attach(w, imsi, cell, true);
            if self.ledger.contains_key(&imsi) {
                self.do_flow(w, imsi, 443, false);
            }
        }
    }

    fn flash_drain(&mut self, w: &mut SimWorld) {
        for j in 0..self.crowd {
            let imsi = UeImsi(self.crowd_base + j);
            if self.ledger.contains_key(&imsi) {
                self.do_detach(w, imsi);
            }
        }
    }

    /// The seeded violation: a ghost attach injected straight into the
    /// controller, bypassing the agents and the driver's ledger. The
    /// attached-parity probe must catch it at the next slice.
    fn inject_ghost(&mut self, w: &mut SimWorld) {
        let bs = BaseStationId(0);
        let max = w.controller.config().scheme.max_ues_per_station();
        let free = (0..max)
            .map(|i| UeId(i as u16))
            .find(|id| w.controller.state().location_available(bs, *id, self.ghost));
        let Some(id) = free else { return };
        let now = w.now();
        if w.controller.attach_ue(self.ghost, bs, id, now).is_ok() {
            let ops = w.controller.drain_ops();
            let _ = w.net.apply_all(&ops);
        }
    }

    // ---- slice boundaries: housekeeping, probes, macro tier -------

    fn slice_boundary(&mut self, w: &mut SimWorld) -> Result<()> {
        self.housekeeping(w)?;
        self.probe(w);
        self.macro_tick(w.now().as_micros());
        Ok(())
    }

    fn housekeeping(&mut self, w: &mut SimWorld) -> Result<()> {
        let now = w.now();
        w.expire_transitions()?;
        for sw in w.net.switches_mut() {
            sw.microflow.expire_idle(now);
        }
        self.probes.flows_retired += w.retire_expired_flows() as u64;
        for st in self.ledger.values_mut() {
            st.conns.retain(|c| now.since(c.opened) <= FRESH_WINDOW);
        }
        Ok(())
    }

    fn probe(&mut self, w: &mut SimWorld) {
        self.probes.runs += 1;
        self.counters.probe_runs.inc();

        // Attached-population parity: driver ledger vs controller.
        let ctl = w.controller.state().attached_count() as u64;
        let ours = self.ledger.len() as u64;
        if ctl != ours && !self.parity_flagged {
            self.parity_flagged = true;
            self.violate(
                w,
                "attached-parity",
                "slice-probe",
                format!("controller holds {ctl} attached UEs, driver ledger holds {ours}"),
            );
        }

        // Policy consistency over the new tracker-log slice.
        if let Err(e) = self.auditor.audit(&w.net.middleboxes) {
            self.violate(w, "policy-consistency", "slice-probe", e.to_string());
        }
        self.probes.chain_segments = self.auditor.segments_checked();

        // Once mobility quiesces, no tunnel/tag/reservation residue.
        if w.controller.mobility().transitions_active() == 0 {
            let tunnels = w.controller.mobility().tunnel_count();
            let reserved = w.controller.state().reserved_count();
            if tunnels != 0 || reserved != 0 {
                self.violate(
                    w,
                    "mobility-residue",
                    "slice-probe",
                    format!(
                        "no transitions active but {tunnels} tunnels, {reserved} reserved locations"
                    ),
                );
            }
            let tags = w.controller.installer().tags_in_use();
            if tags > self.baseline_tags {
                self.violate(
                    w,
                    "tag-residue",
                    "slice-probe",
                    format!("{tags} tags in use, warmup baseline {}", self.baseline_tags),
                );
            }
        }

        // Microflow occupancy stays bounded by the attached population.
        let mut per_station: BTreeMap<BaseStationId, u64> = BTreeMap::new();
        for st in self.ledger.values() {
            *per_station.entry(st.bs).or_default() += 1;
        }
        for bs in w.controller.topology().base_stations() {
            let len = w.net.switch(bs.access_switch).microflow.len() as u64;
            self.probes.microflow_peak = self.probes.microflow_peak.max(len);
            let attached = per_station.get(&bs.id).copied().unwrap_or(0);
            let bound = attached * 64 * 4 + 64;
            if len > bound {
                self.violate(
                    w,
                    "microflow-occupancy",
                    "slice-probe",
                    format!("{}: {len} microflow entries, bound {bound}", bs.id),
                );
            }
        }
    }

    /// Statistical accounting for the modeled population beyond the
    /// cohort: seeded Poisson arrivals against the paper's published
    /// peak rates, shaped by the diurnal factor.
    fn macro_tick(&mut self, t_us: u64) {
        let scale = self.cfg.ues as f64 / 1e6;
        let sod = ((t_us as u128 * 86_400 / self.day_us as u128) as u64).min(86_399);
        let f = self.shape.factor(sod);
        let slice_s = self.cfg.slice.as_micros().max(1) as f64 / 1e6;
        let attaches = poisson(
            &mut self.rng,
            PEAK_ATTACHES_PER_S_AT_1M * scale * f * slice_s,
        );
        let handoffs = poisson(
            &mut self.rng,
            PEAK_HANDOFFS_PER_S_AT_1M * scale * f * slice_s,
        );
        let flows = poisson(
            &mut self.rng,
            PEAK_ATTACHES_PER_S_AT_1M * 6.0 * scale * f * slice_s,
        );
        self.macro_tier.attaches += attaches;
        self.macro_tier.handoffs += handoffs;
        self.macro_tier.flows += flows;
        self.macro_tier.peak_attach_per_s = self
            .macro_tier
            .peak_attach_per_s
            .max(attaches as f64 / slice_s);
        self.macro_tier.peak_handoff_per_s = self
            .macro_tier
            .peak_handoff_per_s
            .max(handoffs as f64 / slice_s);
    }

    // ---- end of day -----------------------------------------------

    /// Detaches everyone still attached, lets every TTL lapse, and runs
    /// a final housekeeping + audit pass.
    fn drain(&mut self, w: &mut SimWorld) -> Result<()> {
        let everyone: Vec<UeImsi> = self.ledger.keys().copied().collect();
        for imsi in everyone {
            self.do_detach(w, imsi);
        }
        w.advance(SimDuration::from_secs(10_000)); // > all TTLs
        self.housekeeping(w)?;
        if let Err(e) = self.auditor.audit(&w.net.middleboxes) {
            self.violate(w, "policy-consistency", "drain", e.to_string());
        }
        Ok(())
    }

    /// End-of-day residue check against the warmup baseline.
    fn quiesce(&mut self, w: &SimWorld) -> QuiesceStats {
        let q = QuiesceStats {
            attached: w.controller.state().attached_count() as u64,
            reserved: w.controller.state().reserved_count() as u64,
            transitions: w.controller.mobility().transitions_active() as u64,
            tunnels: w.controller.mobility().tunnel_count() as u64,
            rules_delta: w.net.total_rules() as i64 - self.baseline_rules as i64,
            tags_delta: w.controller.installer().tags_in_use() as i64 - self.baseline_tags as i64,
            microflow_entries: w
                .controller
                .topology()
                .switches()
                .iter()
                .map(|sw| w.net.switch(sw.id).microflow.len() as u64)
                .sum(),
        };
        let residue = q.attached != 0
            || q.reserved != 0
            || q.transitions != 0
            || q.tunnels != 0
            || q.rules_delta != 0
            || q.tags_delta != 0
            || q.microflow_entries != 0;
        if residue {
            self.counters.violations.inc();
            if self.violations.len() < MAX_VIOLATIONS {
                self.violations.push(Violation {
                    scenario: self.cfg.name.clone(),
                    invariant: "quiesce-residue".to_string(),
                    virtual_time_us: w.now().as_micros(),
                    seed: self.cfg.seed,
                    event: "end-of-day".to_string(),
                    detail: format!(
                        "attached={} reserved={} transitions={} tunnels={} rules_delta={} \
                         tags_delta={} microflow={}",
                        q.attached,
                        q.reserved,
                        q.transitions,
                        q.tunnels,
                        q.rules_delta,
                        q.tags_delta,
                        q.microflow_entries
                    ),
                });
            }
        }
        q
    }
}

fn advance_to(w: &mut SimWorld, t_us: u64) {
    let now = w.now().as_micros();
    if t_us > now {
        w.advance(SimDuration::from_micros(t_us - now));
    }
}

/// Seeded Poisson sampler: Knuth for small means, a normal
/// approximation (Irwin–Hall sum of 12 uniforms) beyond.
fn poisson(rng: &mut StdRng, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean < 32.0 {
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0f64;
        loop {
            p *= rng.gen_range(0.0..1.0);
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
    let mut s = 0.0f64;
    for _ in 0..12 {
        s += rng.gen_range(0.0..1.0);
    }
    let z = s - 6.0;
    (mean + z * mean.sqrt()).round().max(0.0) as u64
}

/// Dumps every switch's rule table — the determinism oracle. (The
/// integration-test helper in `tests/common` is not a crate; this is
/// the same format.)
fn fabric_dump(topo: &Topology, w: &SimWorld) -> String {
    let mut s = String::new();
    for sw in topo.switches() {
        let _ = writeln!(s, "== {:?}", sw.id);
        for r in w.net.switch(sw.id).table.iter() {
            let _ = writeln!(s, "{r:?}");
        }
    }
    s
}

/// 64-bit FNV-1a, hex-encoded.
fn fnv1a_hex(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The tags in use less the mobility tag, held while any tunnel lives:
/// it goes back to the pool when the last tunnel is collected, and the
/// offline pass keeps holding it across a recovery.
fn tag_baseline(w: &SimWorld) -> usize {
    let ctl = &w.controller;
    let mobility = usize::from(ctl.mobility().mobility_tag().is_some());
    ctl.installer().tags_in_use() - mobility
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::overlays_for;

    #[test]
    fn the_tag_baseline_holds_while_tunnels_share_the_mobility_tag() {
        // A→B, A→C, B→C and C→A: four live tunnels under the one
        // mobility tag
        let topo = softcell_topology::small_topology();
        let mut w = SimWorld::new(&topo, ServicePolicy::example_carrier_a(1));
        let [a, b, c] = [0, 1, 2].map(BaseStationId);
        let moves = [(a, b), (a, c), (b, c), (c, a)];
        for (i, &(from, _)) in moves.iter().enumerate() {
            let imsi = UeImsi(i as u64);
            w.provision(SubscriberAttributes::default_home(imsi));
            w.attach(imsi, from).unwrap();
            let conn = w
                .start_connection(imsi, INTERNET, 443, Protocol::Tcp)
                .unwrap();
            w.round_trip(conn).unwrap();
        }
        let baseline = tag_baseline(&w);
        assert_eq!(baseline, w.controller.installer().tags_in_use());
        for (i, &(_, to)) in moves.iter().enumerate() {
            w.handoff(UeImsi(i as u64), to).unwrap();
        }
        let mobility = w.controller.mobility();
        let held = usize::from(mobility.mobility_tag().is_some());
        assert_eq!((mobility.tunnel_count(), held), (4, 1));
        assert_eq!(tag_baseline(&w), baseline);
    }

    /// A fast sub-small config for unit tests.
    fn tiny(name: &str) -> CampaignConfig {
        let mut c = CampaignConfig::small(name, overlays_for(name).unwrap());
        c.ues = 48;
        c.cohort_cap = 48;
        c.virtual_day = SimDuration::from_secs(600);
        c.compress = 10;
        c.slice = SimDuration::from_secs(30);
        c
    }

    #[test]
    fn diurnal_tiny_day_is_clean() {
        let out = tiny("diurnal").run().unwrap();
        assert!(
            out.report.clean(),
            "violations: {:?}",
            out.report.violations
        );
        assert!(out.report.micro.attaches > 0);
        assert!(out.report.micro.flows > 0);
        assert!(out.report.probes.runs >= 10);
        assert_eq!(out.report.quiesce.microflow_entries, 0);
    }

    #[test]
    fn overlays_compose_on_a_tiny_day() {
        for name in ["train-storm", "sleep-wake", "flash-crowd"] {
            let out = tiny(name).run().unwrap();
            assert!(
                out.report.clean(),
                "{name} violations: {:?}",
                out.report.violations
            );
        }
    }

    #[test]
    fn seeded_violation_is_caught_with_replay_coordinates() {
        let out = tiny("seeded-violation").run().unwrap();
        assert!(!out.report.clean(), "the ghost attach must be caught");
        let v = &out.report.violations[0];
        assert_eq!(v.invariant, "attached-parity");
        assert_eq!(v.seed, 2013);
        assert!(v.virtual_time_us > 0);
        assert!(v.replay_coordinates().contains("--seed 2013"));
    }

    #[test]
    fn same_config_same_digest() {
        let mut cfg = tiny("train-storm");
        cfg.capture_fabric_dump = true;
        let a = cfg.run().unwrap();
        let b = cfg.run().unwrap();
        assert_eq!(a.report.fabric_digest, b.report.fabric_digest);
        assert_eq!(a.fabric_dump, b.fabric_dump);
        assert_eq!(a.report.micro.attaches, b.report.micro.attaches);
        assert_eq!(a.report.macro_tier.attaches, b.report.macro_tier.attaches);
    }

    #[test]
    fn poisson_matches_mean_roughly() {
        let mut rng = StdRng::seed_from_u64(7);
        for mean in [0.5, 4.0, 40.0, 400.0] {
            let n = 400;
            let total: u64 = (0..n).map(|_| poisson(&mut rng, mean)).sum();
            let avg = total as f64 / n as f64;
            assert!(
                (avg - mean).abs() < mean.max(1.0) * 0.25,
                "mean {mean}, got {avg}"
            );
        }
    }
}
