//! Process-global telemetry handles for the data plane.
//!
//! Tables are plain `Clone` values, cloned freely by the simulator and
//! the sharded oracle, so they cannot carry `Arc`-backed metric handles
//! themselves. Instead every table instance feeds one
//! process-wide set of counters on [`Registry::global`]: totals across
//! all switches, plus high-water-mark gauges for occupancy.

use std::sync::{Arc, OnceLock};

use softcell_telemetry::{Counter, Gauge, Registry};

/// Interned handles, created once on first table mutation.
pub(crate) struct DataplaneMetrics {
    /// Flow-table rules installed (all switches, all rule types).
    pub rule_installs: Arc<Counter>,
    /// Flow-table rules removed (by id or predicate).
    pub rule_removals: Arc<Counter>,
    /// Largest single flow table seen (entries).
    pub table_occupancy_hwm: Arc<Gauge>,
    /// Microflow entries installed.
    pub microflow_installs: Arc<Counter>,
    /// Microflow entries evicted to make room in a full bounded table.
    pub microflow_evictions: Arc<Counter>,
    /// Microflow entries expired past their idle deadline.
    pub microflow_expirations: Arc<Counter>,
    /// Largest single microflow table seen (entries).
    pub microflow_occupancy_hwm: Arc<Gauge>,
}

pub(crate) fn metrics() -> &'static DataplaneMetrics {
    static METRICS: OnceLock<DataplaneMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        DataplaneMetrics {
            rule_installs: r.counter("softcell_dataplane_rule_installs_total"),
            rule_removals: r.counter("softcell_dataplane_rule_removals_total"),
            table_occupancy_hwm: r.gauge("softcell_dataplane_table_occupancy_hwm"),
            microflow_installs: r.counter("softcell_dataplane_microflow_installs_total"),
            microflow_evictions: r.counter("softcell_dataplane_microflow_evictions_total"),
            microflow_expirations: r.counter("softcell_dataplane_microflow_expirations_total"),
            microflow_occupancy_hwm: r.gauge("softcell_dataplane_microflow_occupancy_hwm"),
        }
    })
}
