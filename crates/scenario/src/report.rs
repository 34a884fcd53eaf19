//! Per-scenario run artifacts.

use serde::Serialize;

use crate::invariants::Violation;

/// Micro-tier (cohort) event accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct MicroStats {
    /// Attaches applied through agents.
    pub attaches: u64,
    /// Handoffs applied through the controller's mobility plan.
    pub handoffs: u64,
    /// Flows opened (classification + microflow install + round trip).
    pub flows: u64,
    /// Detaches applied.
    pub detaches: u64,
    /// Full uplink+downlink round trips completed.
    pub round_trips: u64,
    /// Attaches/handoffs redirected away from a sleeping station.
    pub redirected: u64,
    /// Events skipped because the UE state made them no-ops (e.g. a
    /// handoff whose redirect target equals the current cell).
    pub skipped: u64,
    /// Attaches/handoffs refused by cell capacity (admission control).
    pub rejected: u64,
    /// Flow events suppressed while the gateway was down.
    pub outage_skipped: u64,
}

/// Overlay action accounting.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct OverlayStats {
    /// Scheduled overlay actions fired.
    pub actions: u64,
    /// Individual train-storm rides (one ride = one UE crossing the
    /// whole line with a live flow).
    pub storm_rides: u64,
    /// Stations put to sleep at the trough.
    pub stations_slept: u64,
    /// UEs evacuated (handed off) out of sleeping stations.
    pub evacuated: u64,
    /// Crowd UEs attached during the flash-crowd burst.
    pub crowd_attaches: u64,
    /// Connections dropped by the gateway failure.
    pub outage_dropped: u64,
    /// Replicated-controller kill drills executed.
    pub controller_kills: u64,
    /// Kill drills whose survivors converged byte-for-byte.
    pub drills_converged: u64,
}

/// Macro-tier (statistical) accounting for the modeled population
/// beyond the cohort.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct MacroStats {
    /// Total modeled UE population (the `--ues` figure).
    pub modeled_ues: u64,
    /// Sampled attaches across the day.
    pub attaches: u64,
    /// Sampled handoffs across the day.
    pub handoffs: u64,
    /// Sampled radio-bearer (flow) arrivals across the day.
    pub flows: u64,
    /// Peak sampled attach rate, events/s (paper Fig 6a: 214/s at 1M).
    pub peak_attach_per_s: f64,
    /// Peak sampled handoff rate, events/s (paper Fig 6a: 280/s at 1M).
    pub peak_handoff_per_s: f64,
}

/// Invariant-probe accounting.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct ProbeStats {
    /// Slice-boundary probe passes.
    pub runs: u64,
    /// Middlebox chain segments checked by the incremental auditor.
    pub chain_segments: u64,
    /// Peak microflow entries observed on any single access switch.
    pub microflow_peak: u64,
    /// Agent flow records retired after their microflow entries idled
    /// out (the slot-leak fix working).
    pub flows_retired: u64,
}

/// End-of-day residue check, after detaching every UE and expiring all
/// soft state. All-zero deltas mean the day left no residue.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct QuiesceStats {
    /// UEs the controller still considers attached (must be 0).
    pub attached: u64,
    /// Reserved (handoff-held) locations (must be 0).
    pub reserved: u64,
    /// Active mobility transitions (must be 0).
    pub transitions: u64,
    /// Live tunnels (must be 0).
    pub tunnels: u64,
    /// Fabric rules minus the post-warmup baseline (must be 0).
    pub rules_delta: i64,
    /// Tags in use minus the post-warmup baseline (must be 0).
    pub tags_delta: i64,
    /// Microflow entries remaining anywhere (must be 0).
    pub microflow_entries: u64,
}

/// The per-scenario run artifact.
#[derive(Clone, Debug, Serialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Campaign seed (replay key).
    pub seed: u64,
    /// Modeled UE population.
    pub ues: u64,
    /// Cohort size driven through the real stack.
    pub cohort: u64,
    /// Base stations in the simulated fabric.
    pub stations: u64,
    /// Virtual day length, seconds.
    pub virtual_day_s: u64,
    /// Time-compression factor (dense trace = day / compress).
    pub compress: u64,
    /// Micro-tier event accounting.
    pub micro: MicroStats,
    /// Overlay action accounting.
    pub overlay: OverlayStats,
    /// Macro-tier statistical accounting.
    pub macro_tier: MacroStats,
    /// Invariant-probe accounting.
    pub probes: ProbeStats,
    /// End-of-day residue check.
    pub quiesce: QuiesceStats,
    /// Violations, in detection order (empty on a green run).
    pub violations: Vec<Violation>,
    /// FNV-1a digest of the final fabric dump (hex) — the determinism
    /// oracle: same config ⇒ same digest.
    pub fabric_digest: String,
    /// Wall-clock runtime, milliseconds (excluded from determinism
    /// comparisons).
    pub wall_ms: u64,
}

impl ScenarioReport {
    /// Whether the run finished with zero violations.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// One summary line for terminal output.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<16} ues={:<8} cohort={:<5} ev={:<7} ho={:<6} storms={:<4} \
             probes={:<5} violations={:<3} peak_attach/s={:<7.1} {}  [{} ms]",
            self.scenario,
            self.ues,
            self.cohort,
            self.micro.attaches + self.micro.handoffs + self.micro.flows + self.micro.detaches,
            self.micro.handoffs,
            self.overlay.storm_rides,
            self.probes.runs,
            self.violations.len(),
            self.macro_tier.peak_attach_per_s,
            if self.clean() { "OK" } else { "VIOLATED" },
            self.wall_ms,
        )
    }
}

/// A whole campaign: one report per scenario.
#[derive(Clone, Debug, Serialize)]
pub struct CampaignReport {
    /// Per-scenario reports, in run order.
    pub scenarios: Vec<ScenarioReport>,
}

impl CampaignReport {
    /// Whether every scenario finished with zero violations.
    pub fn clean(&self) -> bool {
        self.scenarios.iter().all(ScenarioReport::clean)
    }

    /// Pretty JSON artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }
}
