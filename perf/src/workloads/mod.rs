//! The four workloads and what they share: seeded inputs, the
//! correctness ledger, slice bookkeeping.

pub mod fabric_forward;
pub mod metro_churn;
pub mod path_install_storm;
pub mod wire_flow_setup;

use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;
use softcell_controller::agent::ControllerApi;
use softcell_controller::core::{AttachGrant, PathTags};
use softcell_controller::state::UeRecord;
use softcell_dataplane::FlowTable;
use softcell_policy::attributes::{BillingPlan, DeviceType, Provider};
use softcell_policy::{ClauseId, SubscriberAttributes};
use softcell_sim::PhysicalNetwork;
use softcell_topology::{SwitchRole, Topology};
use softcell_types::{BaseStationId, Result, SimTime, UeId, UeImsi};

use crate::span::{coverage, Span, Tracer};
use crate::stats::{quiet_low, Summary};

/// What the driver (or `--all`) asks one run to do.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the timed part.
    pub seconds: f64,
    /// Traced run: layer metrics and spans instead of end-to-end metrics.
    pub trace: bool,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub summary: Summary,
}

impl Metric {
    pub fn sampled(name: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name,
            summary: Summary::of(samples),
        }
    }

    /// `value` as the workload estimated it from `samples`, which give
    /// the printed spread.
    pub fn estimated(name: &'static str, value: f64, samples: &[f64]) -> Metric {
        Metric {
            name,
            summary: Summary::estimated(value, samples),
        }
    }

    /// The quiet decile of repeated timings of the same work.
    pub fn quiet(name: &'static str, samples: &[f64]) -> Metric {
        Metric::estimated(name, quiet_low(samples), samples)
    }

    pub fn exact(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            summary: Summary::exact(value),
        }
    }
}

/// What one run produced.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    /// Empty unless the run was traced.
    pub spans: Vec<Span>,
}

/// The correctness ledger: every operation whose result the workload
/// verifies is attempted once and may fail once. `failed / attempted`
/// is the run's failed share; the first few reasons are kept to print.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Checks {
    const KEPT_REASONS: usize = 8;

    /// `n` operations whose results were all verified good.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, reason: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < Self::KEPT_REASONS {
            self.reasons.push(reason());
        }
    }

    /// `attempted` operations of which `failed` failed, for one reason.
    pub fn tally(&mut self, attempted: u64, failed: u64, reason: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.reasons.len() < Self::KEPT_REASONS {
            self.reasons.push(reason());
        }
    }

    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        if ok {
            self.passed(1);
        } else {
            self.fail(reason);
        }
    }

    /// Counts one operation, keeping its value when it succeeded.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.passed(1);
                Some(v)
            }
            Err(e) => {
                self.fail(|| format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = Self::KEPT_REASONS.saturating_sub(self.reasons.len());
        self.reasons.extend(other.reasons.into_iter().take(room));
    }
}

/// Runs `setup` `reps` times, pushing each repetition's wall time in
/// seconds onto `times`, and returns the last state. Each earlier state
/// is dropped before the next is built: two live copies would double
/// the run's peak RSS.
///
/// Called once per iteration of the timed part, not `n` times up front:
/// a run's first second is disturbed as a whole or not at all, and
/// `setup_s` is to be sampled like everything else, all through the run.
pub fn timed_setup<T>(reps: usize, times: &mut Vec<f64>, mut setup: impl FnMut() -> T) -> T {
    let mut state = None;
    for _ in 0..reps.max(1) {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    state.expect("at least one repetition")
}

/// Repeats `iteration` (which returns the seconds it measured) until
/// `seconds` of measured time have accumulated, rounding to the nearest
/// whole iteration; always runs at least two so quartiles exist.
pub fn iterate_for(seconds: f64, mut iteration: impl FnMut() -> f64) -> Vec<f64> {
    let mut times = Vec::new();
    let mut total = 0.0;
    while times.len() < 2 || total + 0.5 * total / (times.len() as f64) < seconds {
        let t = iteration();
        total += t;
        times.push(t);
    }
    times
}

/// Ops completed, and a bounded sample of their latencies, in each of
/// `n` equal windows of `[0, span_s)`. Fixed memory: a run's peak RSS
/// must not grow with its throughput.
pub struct Windows {
    width_s: f64,
    ops: Vec<u64>,
    latencies_us: Vec<Sampler>,
}

impl Windows {
    /// Latencies kept per window.
    const KEPT: usize = 128;

    pub fn new(span_s: f64, n: usize) -> Windows {
        Windows {
            width_s: span_s / n as f64,
            ops: vec![0; n],
            latencies_us: (0..n).map(|_| Sampler::new(Self::KEPT)).collect(),
        }
    }

    /// `k` ops completed `t` seconds in, some of them individually
    /// timed; completions at or past the end of the span are not
    /// counted.
    pub fn done(&mut self, t: f64, k: u64, latencies_us: &[f64]) {
        let w = (t / self.width_s) as usize;
        if let Some(slot) = self.ops.get_mut(w) {
            *slot += k;
            for &l in latencies_us {
                self.latencies_us[w].offer(l);
            }
        }
    }

    /// Adds another counter's ops and latencies, window by window
    /// (concurrent generators over the same span).
    pub fn merge(&mut self, other: Windows) {
        for (a, b) in self.ops.iter_mut().zip(&other.ops) {
            *a += b;
        }
        for (a, b) in self.latencies_us.iter_mut().zip(other.latencies_us) {
            a.kept.extend(b.kept);
        }
    }

    /// Ops per second, per window.
    pub fn rates(&self) -> Vec<f64> {
        self.ops.iter().map(|&k| k as f64 / self.width_s).collect()
    }

    /// Median latency of each window that timed anything.
    pub fn median_latencies_us(&self) -> Vec<f64> {
        self.latencies_us
            .iter()
            .filter(|s| !s.kept.is_empty())
            .map(|s| Summary::of(&s.kept).median)
            .collect()
    }
}

/// Repetitions of a pass that is cut into units, each unit the same
/// work every pass (the same 64 connections, the same clause): the
/// time of every unit, every pass. A disturbance lasts a few units or a
/// few thousand and hits a different part of each pass, so the pass is
/// judged unit by unit — each at its [`quiet_low`] over the passes.
/// Fixed memory, like [`Windows`]: of a long run's passes an even
/// spread is kept, the same passes for every unit.
pub struct UnitTimes {
    /// `s[u]`: seconds unit `u` took, pass by pass.
    s: Vec<Sampler>,
}

impl UnitTimes {
    /// Passes kept per unit.
    const KEPT: usize = 1024;

    pub fn new(units: usize) -> UnitTimes {
        UnitTimes {
            s: (0..units).map(|_| Sampler::new(Self::KEPT)).collect(),
        }
    }

    pub fn record(&mut self, unit: usize, seconds: f64) {
        self.s[unit].offer(seconds);
    }

    /// Each unit's quiet time, in seconds.
    pub fn quiet(&self) -> Vec<f64> {
        self.s.iter().map(|s| quiet_low(&s.kept)).collect()
    }

    /// Seconds of every kept, complete pass, for the printed spread.
    pub fn pass_times(&self) -> Vec<f64> {
        let passes = self.s.iter().map(|s| s.kept.len()).min().unwrap_or(0);
        (0..passes)
            .map(|p| self.s.iter().map(|u| u.kept[p]).sum())
            .collect()
    }
}

/// Keeps at most `cap` of the samples offered, spread evenly over the
/// run: when full it drops every other one and from then on keeps every
/// 2nd (then 4th, …) offered sample. Fixed memory, for the same reason
/// as [`Windows`].
pub struct Sampler {
    cap: usize,
    stride: u64,
    offered: u64,
    kept: Vec<f64>,
}

impl Sampler {
    pub fn new(cap: usize) -> Sampler {
        Sampler {
            cap,
            stride: 1,
            offered: 0,
            kept: Vec::with_capacity(cap),
        }
    }

    pub fn offer(&mut self, v: f64) {
        if self.offered.is_multiple_of(self.stride) {
            if self.kept.len() == self.cap {
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
            if self.offered.is_multiple_of(self.stride) {
                self.kept.push(v);
            }
        }
        self.offered += 1;
    }

    pub fn into_samples(self) -> Vec<f64> {
        self.kept
    }
}

/// `ControllerApi` with a span around each call, so an agent's own time
/// and the time it spends waiting for its controller separate. Wraps
/// the in-process controller and the wire proxy alike.
pub struct SpannedApi<'a> {
    inner: &'a mut dyn ControllerApi,
    tracer: &'a mut Tracer,
    request: u64,
    /// Span names for attach, path request, detach.
    names: [&'static str; 3],
}

impl<'a> SpannedApi<'a> {
    pub fn new(
        inner: &'a mut dyn ControllerApi,
        tracer: &'a mut Tracer,
        request: u64,
        names: [&'static str; 3],
    ) -> Self {
        SpannedApi {
            inner,
            tracer,
            request,
            names,
        }
    }
}

impl ControllerApi for SpannedApi<'_> {
    fn attach_ue(
        &mut self,
        imsi: UeImsi,
        bs: BaseStationId,
        ue_id: UeId,
        now: SimTime,
    ) -> Result<AttachGrant> {
        let inner = &mut *self.inner;
        self.tracer.scope(self.names[0], self.request, |_| {
            inner.attach_ue(imsi, bs, ue_id, now)
        })
    }

    fn request_policy_path(&mut self, bs: BaseStationId, clause: ClauseId) -> Result<PathTags> {
        let inner = &mut *self.inner;
        self.tracer.scope(self.names[1], self.request, |_| {
            inner.request_policy_path(bs, clause)
        })
    }

    fn detach_ue(&mut self, imsi: UeImsi) -> Result<UeRecord> {
        let inner = &mut *self.inner;
        self.tracer
            .scope(self.names[2], self.request, |_| inner.detach_ue(imsi))
    }
}

/// `n` subscribers, a quarter each of home-silver, roaming-partner, M2M
/// fleet tracker and home-gold — together they reach every allow clause
/// of the Table-1 policy. The kind goes by `imsi / stations`, so
/// subscribers homed round-robin (`imsi % stations`) put the same number
/// of each kind at every station.
pub fn subscriber_mix(n: u64, stations: u64) -> Vec<SubscriberAttributes> {
    (0..n)
        .map(|i| {
            let mut a = SubscriberAttributes::default_home(UeImsi(i));
            match (i / stations) % 4 {
                0 => {}
                1 => a.provider = Provider::Partner(1),
                2 => {
                    a.device = DeviceType::M2mFleetTracker;
                    a.plan = BillingPlan::M2m;
                }
                _ => a.plan = BillingPlan::Gold,
            }
            a
        })
        .collect()
}

/// Fisher–Yates with the workspace's seeded generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Rule-table sizes over a set of switches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleCounts {
    pub total: usize,
    pub max: usize,
    pub median: usize,
}

impl RuleCounts {
    pub fn of(mut sizes: Vec<usize>) -> RuleCounts {
        sizes.sort_unstable();
        RuleCounts {
            total: sizes.iter().sum(),
            max: sizes.last().copied().unwrap_or(0),
            median: sizes.get(sizes.len() / 2).copied().unwrap_or(0),
        }
    }
}

/// Flow-table sizes over the fabric (non-access) switches — the paper's
/// Fig. 7 statistic, on a live data plane.
pub fn fabric_rule_counts(topo: &Topology, net: &PhysicalNetwork) -> RuleCounts {
    RuleCounts::of(
        topo.switches()
            .iter()
            .filter(|sw| sw.role != SwitchRole::Access)
            .map(|sw| net.switch(sw.id).table.len())
            .collect(),
    )
}

/// Every fabric flow table, verbatim, for byte-level comparison.
pub fn fabric_dump(topo: &Topology, net: &PhysicalNetwork) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for sw in topo.switches() {
        writeln!(s, "== {:?}", sw.id).expect("write to String");
        let table: &FlowTable = &net.switch(sw.id).table;
        for r in table.iter() {
            writeln!(s, "{r:?}").expect("write to String");
        }
    }
    s
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines the calling thread, and every thread spawned from it
/// afterwards (a thread inherits its parent's mask), to the
/// highest-numbered CPU it may run on. Returns that CPU; `None` when the
/// kernel refuses, and then nothing has changed.
///
/// For a workload whose threads hand each request to one another: a
/// wake-up that crosses to an idle virtual CPU goes through the
/// hypervisor, costs several times the request's own work and varies
/// with the host's load, while on one CPU a hand-off is a context switch.
#[cfg(target_os = "linux")]
pub fn confine_to_one_cpu() -> Option<usize> {
    const WORDS: usize = 16; // 1024 CPUs, glibc's cpu_set_t
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is writable and as long as the size passed; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is readable and as long as the size passed.
    (unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn confine_to_one_cpu() -> Option<usize> {
    None
}

/// Times `f(i)` for `i` in `0..n` in batches of [`PROBE_BATCH`] calls
/// (one call is shorter than a clock read), returning each batch's ns
/// per call.
pub fn batched_ns(n: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..n.div_ceil(PROBE_BATCH))
        .map(|b| {
            let t = Instant::now();
            for i in 0..PROBE_BATCH {
                f(b * PROBE_BATCH + i);
            }
            t.elapsed().as_nanos() as f64 / PROBE_BATCH as f64
        })
        .collect()
}
pub const PROBE_BATCH: usize = 256;

/// The validity metrics of a traced run: what a clock read costs, what
/// the spans cost (`traced_over_plain`: how many times longer the traced
/// driver took than its untraced twin), how steady the untraced twin was
/// (`plain`), and how much of the traced time landed in a named layer.
pub fn harness_metrics(traced_over_plain: f64, plain: &Summary, spans: &[Span]) -> [Metric; 4] {
    [
        Metric::exact("harness.timer_overhead_ns", timer_overhead_ns()),
        Metric::exact(
            "harness.trace_overhead_pct",
            (traced_over_plain - 1.0) * 100.0,
        ),
        Metric::exact("harness.slice_iqr_pct", plain.iqr_share() * 100.0),
        Metric::exact("harness.trace_coverage_pct", coverage(spans) * 100.0),
    ]
}

/// Cost of one `Instant::now()` pair, in ns — what every span adds.
fn timer_overhead_ns() -> f64 {
    const N: u32 = 200_000;
    let t = Instant::now();
    for _ in 0..N {
        std::hint::black_box(Instant::now());
    }
    t.elapsed().as_nanos() as f64 / f64::from(N) * 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, b, c) = (
            metro_churn::setup(7),
            metro_churn::setup(7),
            metro_churn::setup(8),
        );
        assert_eq!(a.events.len(), b.events.len());
        assert!(a
            .events
            .iter()
            .zip(&b.events)
            .all(|(x, y)| format!("{x:?}") == format!("{y:?}")));
        assert_eq!(a.subscribers, b.subscribers);
        assert_ne!(
            a.events.len(),
            c.events.len(),
            "another seed, another trace"
        );
    }

    #[test]
    fn subscriber_mix_is_a_quarter_of_each_kind() {
        let mix = subscriber_mix(3_200, 160);
        let count = |f: &dyn Fn(&SubscriberAttributes) -> bool| mix.iter().filter(|a| f(a)).count();
        assert_eq!(count(&|a| a.provider == Provider::Partner(1)), 800);
        assert_eq!(count(&|a| a.device == DeviceType::M2mFleetTracker), 800);
        assert_eq!(count(&|a| a.plan == BillingPlan::Gold), 800);
        assert_eq!(
            count(&|a| a.plan == BillingPlan::Silver),
            1_600,
            "home + partner"
        );
        // homed round-robin, every station sees five of each kind
        for station in [0u64, 7, 159] {
            let gold = mix
                .iter()
                .filter(|a| a.imsi.0 % 160 == station && a.plan == BillingPlan::Gold)
                .count();
            assert_eq!(gold, 5);
        }
    }

    #[test]
    fn storm_order_and_counts_repeat_for_a_seed() {
        let s = path_install_storm::setup();
        let order = path_install_storm::arrival_order(&s.topo, 7);
        assert_eq!(order, path_install_storm::arrival_order(&s.topo, 7));
        let other = path_install_storm::arrival_order(&s.topo, 8);
        assert_ne!(order, other, "another seed, another arrival order");
        // the same paths either way: only their order differs
        let sorted = |mut o: Vec<(Vec<softcell_types::MiddleboxId>, usize)>| {
            o.iter_mut().for_each(|c| c.1 = 0);
            o.sort();
            o
        };
        assert_eq!(sorted(order.clone()), sorted(other));
        // a slice of the real install: debug builds are slow
        let install = || path_install_storm::install_counts(&s.topo, &order[..3]);
        assert_eq!(install(), install());
    }

    #[test]
    fn windows_bin_completions_and_merge() {
        // 4 windows of 0.5 s over [0, 2): ops land by completion time
        let mut w = Windows::new(2.0, 4);
        for (t, k, us) in [
            (0.1, 5, 30.0),
            (0.49, 5, 10.0),
            (0.5, 10, 7.0),
            (1.9, 20, 9.0),
            (2.0, 99, 1e6),
            (7.0, 99, 1e6),
        ] {
            w.done(t, k, &[us]);
        }
        assert_eq!(w.rates(), vec![20.0, 20.0, 0.0, 40.0]);
        let mut other = Windows::new(2.0, 4);
        other.done(1.2, 5, &[]);
        other.done(0.3, 1, &[20.0]);
        w.merge(other);
        assert_eq!(w.rates(), vec![22.0, 20.0, 10.0, 40.0]);
        // the third window timed nothing and has no median
        assert_eq!(w.median_latencies_us(), vec![20.0, 7.0, 9.0]);
    }

    #[test]
    fn unit_times_judge_a_pass_unit_by_unit() {
        // three units, ten passes; a disturbance doubles unit 0 in passes
        // 0-3, unit 1 in passes 3-6 and unit 2 in passes 6-9
        let mut u = UnitTimes::new(3);
        for pass in 0..10 {
            for unit in 0..3 {
                let hit = (unit * 3..unit * 3 + 4).contains(&pass);
                u.record(unit, (unit + 1) as f64 * if hit { 2.0 } else { 1.0 });
            }
        }
        // every pass was disturbed somewhere, no unit always
        assert!(u.pass_times().iter().all(|&t| t > 6.0));
        assert_eq!(u.quiet(), vec![1.0, 2.0, 3.0]);
        // an incomplete last pass is not a pass
        u.record(0, 1.0);
        assert_eq!(u.pass_times().len(), 10);

        // a long run keeps the same passes of every unit
        let mut u = UnitTimes::new(3);
        for pass in 0..5_000 {
            for unit in 0..3 {
                u.record(unit, f64::from(pass));
            }
        }
        let kept = u.pass_times();
        assert!(kept.len() > 500 && kept.len() <= 1024);
        assert!(kept.iter().all(|t| t % 3.0 == 0.0), "units of one pass");
        assert!(
            kept.windows(2).all(|w| w[1] - w[0] == kept[1] - kept[0]),
            "evenly spread"
        );
    }

    #[test]
    fn confining_leaves_one_cpu_and_is_inherited() {
        // on its own thread: the mask must not leak into other tests
        std::thread::spawn(|| {
            let Some(cpu) = confine_to_one_cpu() else {
                return; // not Linux, or the kernel refused
            };
            assert_eq!(
                confine_to_one_cpu(),
                Some(cpu),
                "one CPU left to choose from"
            );
            let inherited = std::thread::spawn(confine_to_one_cpu).join().unwrap();
            assert_eq!(inherited, Some(cpu));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn sampler_keeps_an_even_spread_in_fixed_memory() {
        let mut s = Sampler::new(8);
        for i in 0..100 {
            s.offer(f64::from(i));
        }
        // stride doubled 8 -> 16 on the way: every 16th sample survives
        assert_eq!(
            s.into_samples(),
            vec![0.0, 16.0, 32.0, 48.0, 64.0, 80.0, 96.0]
        );
        let mut s = Sampler::new(8);
        (0..8).for_each(|i| s.offer(f64::from(i)));
        assert_eq!(
            s.into_samples().len(),
            8,
            "under the cap nothing is dropped"
        );
    }

    #[test]
    fn iterate_for_rounds_to_the_nearest_iteration() {
        assert_eq!(iterate_for(10.0, || 3.0).len(), 3); // 9 s is nearer than 12 s
        assert_eq!(iterate_for(10.0, || 3.5).len(), 3); // 10.5 s is nearer than 7 s
        assert_eq!(iterate_for(0.1, || 5.0).len(), 2, "quartiles need two");
    }

    #[test]
    fn checks_count_attempts_and_keep_the_first_reasons() {
        let mut c = Checks::default();
        c.passed(10);
        c.check(true, || unreachable!());
        assert_eq!(c.ok("parse", "7".parse::<u8>()), Some(7));
        assert_eq!(c.ok("parse", "x".parse::<u8>()), None);
        c.tally(100, 3, || "three skipped".into());
        for i in 0..20 {
            c.fail(|| format!("failure {i}"));
        }
        assert_eq!((c.attempted, c.failed), (10 + 1 + 2 + 100 + 20, 1 + 3 + 20));
        assert_eq!(c.reasons.len(), 8);
        assert!(c.reasons[0].starts_with("parse:") && c.reasons[1] == "three skipped");
    }

    #[test]
    fn timed_setup_drops_every_state_before_building_the_next() {
        let live = std::cell::Cell::new(0);
        struct State<'a>(&'a std::cell::Cell<i32>, usize);
        impl Drop for State<'_> {
            fn drop(&mut self) {
                self.0.set(self.0.get() - 1);
            }
        }
        let mut times = vec![9.0];
        let mut built = 0;
        let last = timed_setup(5, &mut times, || {
            assert_eq!(live.get(), 0, "the previous state is gone");
            live.set(live.get() + 1);
            built += 1;
            State(&live, built)
        });
        assert_eq!((last.1, times.len(), times[0]), (5, 6, 9.0));
        drop(last);
        assert_eq!(timed_setup(0, &mut times, || 7), 7, "never fewer than one");
    }
}
