//! Concrete per-UE event streams.
//!
//! Where [`crate::model`] samples aggregate counts for the metro-scale
//! Fig 6 statistics, this module generates an explicit, time-ordered
//! trace of attach / new-flow / handoff / detach events for a bounded UE
//! population — the input to the end-to-end simulator and the local-agent
//! benchmarks. Sessions are exponential, flows within a session arrive
//! as a Poisson process, and handoffs move the UE between neighbouring
//! stations (cellular mobility is local).
//!
//! A generated trace is homogeneous in time; [`EventStream::warp_diurnal`]
//! rescales it onto a day-shaped intensity (see
//! [`crate::diurnal::DiurnalShape`]) via the classic inhomogeneous-Poisson
//! time-rescaling construction, preserving per-UE causal order exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::diurnal::DiurnalShape;
use softcell_types::{BaseStationId, SimDuration, SimTime, UeImsi};

/// What happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum EventKind {
    /// UE powers on / attaches at a station.
    Attach {
        /// The station.
        bs: BaseStationId,
    },
    /// UE starts a new flow; `dst_port`/`udp` sketch the application.
    NewFlow {
        /// Station the UE is currently at.
        bs: BaseStationId,
        /// Destination port (drives application classification).
        dst_port: u16,
        /// UDP instead of TCP.
        udp: bool,
    },
    /// UE moves between stations.
    Handoff {
        /// Station it leaves.
        from: BaseStationId,
        /// Station it enters.
        to: BaseStationId,
    },
    /// UE detaches.
    Detach {
        /// Station it leaves.
        bs: BaseStationId,
    },
}

/// One trace event.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub struct TraceEvent {
    /// When.
    pub time: SimTime,
    /// Which UE.
    pub imsi: UeImsi,
    /// What.
    pub kind: EventKind,
}

/// Event-stream parameters.
#[derive(Clone, Copy, Debug)]
pub struct EventStreamConfig {
    /// Stations in the (simulated) network.
    pub base_stations: u32,
    /// UE population.
    pub ues: u64,
    /// Trace duration.
    pub duration: SimDuration,
    /// Mean attached-session length.
    pub mean_session: SimDuration,
    /// Mean gap between sessions of one UE.
    pub mean_gap: SimDuration,
    /// Mean flow inter-arrival while attached.
    pub mean_flow_gap: SimDuration,
    /// Mean time between handoffs while attached (mobility).
    pub mean_handoff_gap: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl EventStreamConfig {
    /// A busy small-cell scenario for simulations and tests.
    pub fn busy(base_stations: u32, ues: u64, seed: u64) -> Self {
        EventStreamConfig {
            base_stations,
            ues,
            duration: SimDuration::from_secs(600),
            mean_session: SimDuration::from_secs(180),
            mean_gap: SimDuration::from_secs(120),
            mean_flow_gap: SimDuration::from_secs(15),
            mean_handoff_gap: SimDuration::from_secs(90),
            seed,
        }
    }
}

/// A generated, time-sorted trace.
#[derive(Clone, Debug)]
pub struct EventStream {
    events: Vec<TraceEvent>,
}

/// Common application destination ports, weighted towards web traffic
/// (drives the policy classifier in simulations).
const APP_PORTS: [(u16, bool, u32); 7] = [
    (443, false, 50), // web
    (80, false, 20),  // web
    (554, false, 10), // video
    (5060, true, 8),  // voip
    (53, true, 6),    // dns
    (993, false, 3),  // email
    (8883, false, 3), // mqtt
];

impl EventStream {
    /// Generates the trace.
    pub fn generate(cfg: &EventStreamConfig) -> EventStream {
        assert!(cfg.base_stations > 0, "need at least one station");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut events = Vec::new();
        let horizon = cfg.duration.as_micros();
        let total_weight: u32 = APP_PORTS.iter().map(|(_, _, w)| w).sum();

        for ue in 0..cfg.ues {
            let imsi = UeImsi(ue);
            let home = BaseStationId(rng.gen_range(0..cfg.base_stations));
            // stagger initial power-on through the first gap
            let mut t = exp_micros(&mut rng, cfg.mean_gap) % (horizon / 2).max(1);
            while t < horizon {
                // session starts: attach
                let mut bs = home;
                events.push(TraceEvent {
                    time: SimTime(t),
                    imsi,
                    kind: EventKind::Attach { bs },
                });
                let session_end = (t + exp_micros(&mut rng, cfg.mean_session)).min(horizon);

                // flows and handoffs interleave within the session; a
                // single-station network has nowhere to hand off to, so
                // mobility is disabled rather than emitting degenerate
                // `from == to` handoffs
                let mut next_flow = t + exp_micros(&mut rng, cfg.mean_flow_gap);
                let mut next_hof = if cfg.base_stations >= 2 {
                    t + exp_micros(&mut rng, cfg.mean_handoff_gap)
                } else {
                    u64::MAX
                };
                loop {
                    let next = next_flow.min(next_hof);
                    if next >= session_end {
                        break;
                    }
                    if next_flow <= next_hof {
                        let mut pick = rng.gen_range(0..total_weight);
                        let mut port = (443, false);
                        for &(p, udp, w) in &APP_PORTS {
                            if pick < w {
                                port = (p, udp);
                                break;
                            }
                            pick -= w;
                        }
                        events.push(TraceEvent {
                            time: SimTime(next_flow),
                            imsi,
                            kind: EventKind::NewFlow {
                                bs,
                                dst_port: port.0,
                                udp: port.1,
                            },
                        });
                        next_flow += exp_micros(&mut rng, cfg.mean_flow_gap);
                    } else {
                        // neighbouring-cell mobility: ±1 ring around the
                        // current station
                        let to = neighbour(&mut rng, bs, cfg.base_stations);
                        events.push(TraceEvent {
                            time: SimTime(next_hof),
                            imsi,
                            kind: EventKind::Handoff { from: bs, to },
                        });
                        bs = to;
                        next_hof += exp_micros(&mut rng, cfg.mean_handoff_gap);
                    }
                }

                if session_end < horizon {
                    events.push(TraceEvent {
                        time: SimTime(session_end),
                        imsi,
                        kind: EventKind::Detach { bs },
                    });
                }
                t = session_end + exp_micros(&mut rng, cfg.mean_gap);
            }
        }

        events.sort_by_key(|e| (e.time, e.imsi));
        EventStream { events }
    }

    /// The events in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count of events of a given coarse kind (diagnostics).
    pub fn count(&self, pred: impl Fn(&EventKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }

    /// The trace validity oracle: globally time-ordered, and causally
    /// well-formed per UE — attach precedes any flow/handoff/detach, no
    /// events while detached, handoffs chain `from → to` between
    /// *distinct* stations within bounds, flows and detaches name the
    /// UE's current station. The scenario campaign driver and the
    /// property tests both gate on this.
    pub fn check_well_formed(&self, base_stations: u32) -> softcell_types::Result<()> {
        use softcell_types::Error;
        use std::collections::HashMap;
        let err = |msg: String| Err(Error::InvalidState(msg));
        let mut last = SimTime::ZERO;
        let mut at: HashMap<UeImsi, Option<BaseStationId>> = HashMap::new();
        for (i, e) in self.events.iter().enumerate() {
            if e.time < last {
                return err(format!("event {i} at {:?} precedes {:?}", e.time, last));
            }
            last = e.time;
            let station_ok = |bs: BaseStationId| bs.0 < base_stations;
            let slot = at.entry(e.imsi).or_default();
            match e.kind {
                EventKind::Attach { bs } => {
                    if slot.is_some() {
                        return err(format!("event {i}: {} attach while attached", e.imsi));
                    }
                    if !station_ok(bs) {
                        return err(format!("event {i}: attach at out-of-range {bs}"));
                    }
                    *slot = Some(bs);
                }
                EventKind::NewFlow { bs, .. } => {
                    if *slot != Some(bs) {
                        return err(format!(
                            "event {i}: {} flow at {bs}, attached at {:?}",
                            e.imsi, slot
                        ));
                    }
                }
                EventKind::Handoff { from, to } => {
                    if from == to {
                        return err(format!("event {i}: degenerate handoff {from} -> {to}"));
                    }
                    if *slot != Some(from) {
                        return err(format!(
                            "event {i}: {} handoff from {from}, attached at {:?}",
                            e.imsi, slot
                        ));
                    }
                    if !station_ok(to) {
                        return err(format!("event {i}: handoff to out-of-range {to}"));
                    }
                    *slot = Some(to);
                }
                EventKind::Detach { bs } => {
                    if *slot != Some(bs) {
                        return err(format!(
                            "event {i}: {} detach at {bs}, attached at {:?}",
                            e.imsi, slot
                        ));
                    }
                    *slot = None;
                }
            }
        }
        Ok(())
    }

    /// Rescales the trace onto a day-shaped intensity: an event at
    /// fraction `u` of `source_horizon` lands at the virtual time `v`
    /// where the normalized cumulative diurnal intensity `Λ(v)/Λ(day)`
    /// equals `u` (inhomogeneous-Poisson time rescaling). The mapping is
    /// monotone, so global time order and per-UE causal order survive
    /// unchanged; event *density* on the virtual axis follows
    /// `shape.factor` — peak-hour seconds carry 1/floor× the trough
    /// load. `virtual_day / source_horizon` is the campaign's
    /// time-compression factor.
    ///
    /// The output is re-sorted by the canonical `(time, imsi)` key; the
    /// stable sort keeps each UE's equal-time events in causal order
    /// (see the seed-stability contract in the crate docs).
    pub fn warp_diurnal(
        &self,
        shape: &DiurnalShape,
        source_horizon: SimDuration,
        virtual_day: SimDuration,
    ) -> EventStream {
        let src = source_horizon.as_micros().max(1);
        let day = virtual_day.as_micros().max(1);
        // cumulative intensity sampled once per virtual minute (or at
        // least 256 samples for short virtual spans)
        let steps = ((day / 60_000_000).max(256) + 1) as usize;
        let dt = day as f64 / (steps - 1) as f64;
        let mut cum = Vec::with_capacity(steps);
        let mut acc = 0.0f64;
        cum.push(0.0);
        for i in 1..steps {
            let t_mid = (i as f64 - 0.5) * dt / 1e6; // seconds
            acc += shape.factor(t_mid as u64) * dt;
            cum.push(acc);
        }
        let total = acc.max(f64::MIN_POSITIVE);

        let mut events = self.events.clone();
        for e in &mut events {
            let u = (e.time.as_micros().min(src) as f64 / src as f64) * total;
            // binary search the cumulative table, then interpolate
            let hi = cum.partition_point(|&c| c < u).clamp(1, steps - 1);
            let lo = hi - 1;
            let span = (cum[hi] - cum[lo]).max(f64::MIN_POSITIVE);
            let frac = ((u - cum[lo]) / span).clamp(0.0, 1.0);
            let v = (lo as f64 + frac) * dt;
            e.time = SimTime((v as u64).min(day));
        }
        events.sort_by_key(|e| (e.time, e.imsi));
        EventStream { events }
    }
}

fn exp_micros(rng: &mut StdRng, mean: SimDuration) -> u64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (-u.ln() * mean.as_micros() as f64) as u64
}

fn neighbour(rng: &mut StdRng, bs: BaseStationId, n: u32) -> BaseStationId {
    if n == 1 {
        return bs;
    }
    let delta: i64 = if rng.gen_bool(0.5) { 1 } else { -1 };
    BaseStationId(((bs.0 as i64 + delta).rem_euclid(n as i64)) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> EventStreamConfig {
        EventStreamConfig::busy(10, 50, 1)
    }

    #[test]
    fn trace_is_time_sorted() {
        let s = EventStream::generate(&cfg());
        assert!(!s.is_empty());
        for w in s.events().windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn per_ue_lifecycle_is_consistent() {
        // attach → (flows/handoffs)* → detach, never a flow while
        // detached, handoff chains match stations
        let s = EventStream::generate(&cfg());
        use std::collections::HashMap;
        let mut at: HashMap<UeImsi, Option<BaseStationId>> = HashMap::new();
        for e in s.events() {
            let slot = at.entry(e.imsi).or_default();
            match e.kind {
                EventKind::Attach { bs } => {
                    assert!(slot.is_none(), "attach while attached");
                    *slot = Some(bs);
                }
                EventKind::NewFlow { bs, .. } => {
                    assert_eq!(*slot, Some(bs), "flow at the wrong station");
                }
                EventKind::Handoff { from, to } => {
                    assert_eq!(*slot, Some(from), "handoff from the wrong station");
                    *slot = Some(to);
                }
                EventKind::Detach { bs } => {
                    assert_eq!(*slot, Some(bs), "detach at the wrong station");
                    *slot = None;
                }
            }
        }
    }

    #[test]
    fn all_event_kinds_occur() {
        let s = EventStream::generate(&cfg());
        assert!(s.count(|k| matches!(k, EventKind::Attach { .. })) > 0);
        assert!(s.count(|k| matches!(k, EventKind::NewFlow { .. })) > 0);
        assert!(s.count(|k| matches!(k, EventKind::Handoff { .. })) > 0);
        assert!(s.count(|k| matches!(k, EventKind::Detach { .. })) > 0);
    }

    #[test]
    fn flows_dominate_other_events() {
        // flow arrivals are the common case (cache-hit path in Table 2)
        let s = EventStream::generate(&cfg());
        let flows = s.count(|k| matches!(k, EventKind::NewFlow { .. }));
        let handoffs = s.count(|k| matches!(k, EventKind::Handoff { .. }));
        assert!(flows > handoffs, "{flows} flows vs {handoffs} handoffs");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = EventStream::generate(&cfg());
        let b = EventStream::generate(&cfg());
        assert_eq!(a.events(), b.events());
        let c = EventStream::generate(&EventStreamConfig { seed: 2, ..cfg() });
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn single_station_trace_has_no_handoffs() {
        // base_stations == 1: mobility is disabled instead of emitting
        // degenerate `from == to` handoffs
        let s = EventStream::generate(&EventStreamConfig::busy(1, 50, 7));
        assert_eq!(s.count(|k| matches!(k, EventKind::Handoff { .. })), 0);
        s.check_well_formed(1).unwrap();
    }

    #[test]
    fn warp_preserves_causality_and_counts() {
        let c = cfg();
        let s = EventStream::generate(&c);
        let day = SimDuration::from_secs(24 * 3600);
        let w = s.warp_diurnal(&crate::diurnal::DiurnalShape::default(), c.duration, day);
        w.check_well_formed(c.base_stations).unwrap();
        assert_eq!(w.len(), s.len());
        for e in w.events() {
            assert!(e.time.as_micros() <= day.as_micros());
        }
        // density follows the day shape: the 4-hour window around the
        // evening peak carries more events than the one around 4 am
        let count_in = |lo: u64, hi: u64| {
            w.events()
                .iter()
                .filter(|e| {
                    let s = e.time.as_micros() / 1_000_000;
                    (lo..hi).contains(&s)
                })
                .count()
        };
        let peak = count_in(18 * 3600, 22 * 3600);
        let trough = count_in(2 * 3600, 6 * 3600);
        assert!(
            peak > trough * 2,
            "diurnal density missing: peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn warp_is_deterministic() {
        let c = cfg();
        let day = SimDuration::from_secs(24 * 3600);
        let shape = crate::diurnal::DiurnalShape::default();
        let a = EventStream::generate(&c).warp_diurnal(&shape, c.duration, day);
        let b = EventStream::generate(&c).warp_diurnal(&shape, c.duration, day);
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn events_stay_within_horizon_and_stations() {
        let c = cfg();
        let s = EventStream::generate(&c);
        for e in s.events() {
            assert!(e.time.as_micros() <= c.duration.as_micros());
            let bs = match e.kind {
                EventKind::Attach { bs }
                | EventKind::NewFlow { bs, .. }
                | EventKind::Detach { bs } => bs,
                EventKind::Handoff { from, to } => {
                    assert!(to.0 < c.base_stations);
                    from
                }
            };
            assert!(bs.0 < c.base_stations);
        }
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_trace_causally_well_formed(
            stations in 1u32..6,
            ues in 1u64..24,
            seed in 0u64..1_000_000,
            duration_s in 30u64..600,
            session_s in 5u64..300,
            gap_s in 1u64..200,
            flow_s in 1u64..40,
            hof_s in 1u64..90,
        ) {
            let cfg = EventStreamConfig {
                base_stations: stations,
                ues,
                duration: SimDuration::from_secs(duration_s),
                mean_session: SimDuration::from_secs(session_s),
                mean_gap: SimDuration::from_secs(gap_s),
                mean_flow_gap: SimDuration::from_secs(flow_s),
                mean_handoff_gap: SimDuration::from_secs(hof_s),
                seed,
            };
            let s = EventStream::generate(&cfg);
            if let Err(e) = s.check_well_formed(stations) {
                prop_assert!(false, "trace ill-formed for {cfg:?}: {e}");
            }
            for e in s.events() {
                prop_assert!(e.time.as_micros() <= cfg.duration.as_micros());
            }
        }

        #[test]
        fn prop_warp_preserves_well_formedness(
            stations in 2u32..6,
            ues in 1u64..16,
            seed in 0u64..1_000_000,
            compress in 2u64..1_000,
        ) {
            let cfg = EventStreamConfig::busy(stations, ues, seed);
            let s = EventStream::generate(&cfg);
            let day = SimDuration::from_secs(24 * 3600);
            let dense = SimDuration::from_micros(
                (day.as_micros() / compress).max(1),
            );
            let w = s.warp_diurnal(&DiurnalShape::default(), cfg.duration, dense)
                .warp_diurnal(&DiurnalShape::default(), dense, day);
            prop_assert_eq!(w.len(), s.len());
            if let Err(e) = w.check_well_formed(stations) {
                prop_assert!(false, "warped trace ill-formed (seed {seed}): {e}");
            }
        }
    }
}
