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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod invariants;
pub mod overlay;
pub mod report;

pub use campaign::{CampaignConfig, ScenarioOutcome};
pub use invariants::Violation;
pub use overlay::{overlays_for, OverlayKind, SCENARIOS};
pub use report::{CampaignReport, ScenarioReport};
