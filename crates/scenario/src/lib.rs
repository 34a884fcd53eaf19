//! Metro-at-scale scenario campaigns — "a day in the life of a million
//! UEs" as a regression-gated matrix (ROADMAP item 4; DESIGN.md §14).
//!
//! The paper's evaluation (§6.1) is sized by a real metro trace: ~1,500
//! base stations, ~1M devices, 99.999-pct 214 attaches/s and 280
//! handoffs/s. The pieces that reproduce those numbers already exist in
//! this workspace — the diurnal workload model, the end-to-end
//! simulator, fault injection, replication, telemetry — but each was
//! exercised in isolated one-off tests. This crate composes them into a
//! deterministic, time-compressed discrete-event campaign:
//!
//! * a **micro tier** (the *cohort*) of up to a few thousand UEs driven
//!   through the real stack — `sim::world` packet walks, agent
//!   classification, Algorithm-1 paths, mobility tunnels — along a
//!   diurnally-warped [`softcell_workload::EventStream`];
//! * a **macro tier** accounting statistically for the rest of the
//!   `--ues` population (seeded Poisson per slice against the paper's
//!   published peak rates), so a 1M-UE day is *modeled* at full scale
//!   while the packet-level fidelity rides the cohort;
//! * composable **overlays** ([`OverlayKind`]): commuter handoff storms
//!   along train lines, HyCell-style base-station sleep/wake, gateway
//!   failure + §3.2 reroute, `kill -9` of a replicated controller
//!   mid-storm, and flash crowds at a single cell;
//! * **continuously checked invariants** (every virtual
//!   [`CampaignConfig::slice`]): attached-population parity between the
//!   driver's ledger and the controller, policy consistency via the
//!   incremental [`softcell_sim::ConsistencyAuditor`], zero tag/tunnel
//!   residue once mobility quiesces, and microflow-table occupancy
//!   bounds — plus a byte-exact residue check against the warmup
//!   baseline at end of day.
//!
//! The first violating event is recorded as a [`Violation`] carrying
//! the scenario name, seed and virtual timestamp — the replay
//! coordinates: re-running the same [`CampaignConfig`] reproduces the
//! run byte-for-byte (see the seed-stability contract in
//! `crates/workload/src/lib.rs`). The run artifact is a per-scenario
//! telemetry/JSON report ([`ScenarioReport`]).
//!
//! Drive it from the command line with the `metro_campaign` binary in
//! `softcell-bench` (`--scenario`/`--ues`/`--compress`), or
//! programmatically via [`CampaignConfig::run`].
//!
//! The crate also holds the replicated control plane's crash harness.
//! The paper (§5) defers fault tolerance to "standard replication
//! techniques"; the controller crate has the technique (every
//! `ControllerServer` proposes on a seat, `softcell_controller::ReplicaNode`,
//! and a server on its own is a one-seat membership). This crate runs
//! several:
//!
//! * **Cluster + re-homing** ([`cluster`]) — N servers, one per seat,
//!   over an in-process mesh of peer links, `kill -9`-style link
//!   severance and partitions for crash testing, deterministic
//!   fail-over, and agent re-homing to the new leader's server with
//!   `resync` replay.
//! * **The `kill -9` drill** ([`drill`]) — the one recovery scenario,
//!   run by the recovery test and the campaign's `controller-kill`
//!   overlay.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cluster;
pub mod drill;
pub mod invariants;
pub mod overlay;
pub mod report;

pub use campaign::{CampaignConfig, ScenarioOutcome};
pub use cluster::{Cluster, Link};
pub use drill::controller_kill_drill;
pub use invariants::Violation;
pub use overlay::{overlays_for, OverlayKind, SCENARIOS};
pub use report::{CampaignReport, ScenarioReport};

#[cfg(test)]
mod testkit {
    //! What the cluster's tests share: subscribers that each attach at a
    //! location of their own, and a seeded input mix.

    use rand::rngs::StdRng;
    use rand::Rng;
    use softcell_ctlchan::PacketIn;
    use softcell_policy::clause::ClauseId;
    use softcell_policy::SubscriberAttributes;
    use softcell_types::{BaseStationId, SimTime, UeId, UeImsi};

    /// IMSIs `0..SUBSCRIBERS` are provisioned.
    pub(crate) const SUBSCRIBERS: u64 = 64;

    /// The clauses of `example_carrier_a(1)` whose paths install; clause
    /// 1 denies.
    pub(crate) const CLAUSES: [u16; 4] = [0, 2, 3, 5];

    pub(crate) fn subscribers() -> Vec<SubscriberAttributes> {
        (0..SUBSCRIBERS)
            .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
            .collect()
    }

    /// `imsi`'s attach at its own location: station `imsi % 4`, id
    /// `imsi / 4 + 1`.
    pub(crate) fn attach(imsi: u64) -> PacketIn {
        PacketIn::Attach {
            imsi: UeImsi(imsi),
            bs: BaseStationId((imsi % 4) as u32),
            ue_id: UeId((imsi / 4 + 1) as u16),
            now: SimTime(imsi),
        }
    }

    /// One input of a seeded mix: attaches at the subscriber's own
    /// location, detaches, path requests over the four clauses that
    /// install and the one that denies, and attaches the engine refuses
    /// (an unknown IMSI; a second station, refused once the UE is
    /// attached).
    pub(crate) fn input(rng: &mut StdRng) -> PacketIn {
        let imsi = rng.gen_range(0..32u64);
        match rng.gen_range(0..20u32) {
            0..=6 => attach(imsi),
            7..=9 => PacketIn::Detach { imsi: UeImsi(imsi) },
            10 => PacketIn::Attach {
                imsi: UeImsi(imsi + SUBSCRIBERS),
                bs: BaseStationId(0),
                ue_id: UeId(99),
                now: SimTime(imsi),
            },
            11 | 12 => PacketIn::Attach {
                imsi: UeImsi(imsi),
                bs: BaseStationId((imsi % 4 + 1) as u32),
                ue_id: UeId(200),
                now: SimTime(imsi),
            },
            13 => PacketIn::PathRequest {
                bs: BaseStationId(rng.gen_range(0..8u32)),
                clause: ClauseId(1),
            },
            _ => PacketIn::PathRequest {
                bs: BaseStationId(rng.gen_range(0..8u32)),
                clause: ClauseId(CLAUSES[rng.gen_range(0..4usize)]),
            },
        }
    }
}
