//! Low-overhead causal tracing with cross-layer context propagation
//! (DESIGN.md §15).
//!
//! Aggregates (counters, histograms) say *how much*; traces say *why
//! this one was slow* and *in what order things happened*. A trace is a
//! tree of [`SpanRecord`]s sharing one `trace_id`: the root is opened
//! where an operation enters the system (an agent round-trip, a replica
//! proposal, a campaign slice), children hang off it through every
//! layer the operation crosses — including across the wire, where the
//! context rides a 16-byte frame trailer (see `softcell-ctlchan`).
//!
//! Cost discipline:
//!
//! * Tracing is **off by default** ([`Tracer::set_sampling`] arms it).
//!   A disarmed root costs one relaxed load; a child under an inactive
//!   context costs one branch.
//! * Armed, roots are **sampled 1-in-N**; unsampled roots still read
//!   the clock and are recorded *alone* if they exceed the slow-outlier
//!   threshold, so tail latency is never invisible.
//! * Records land in a bounded ring (oldest evicted, eviction counted)
//!   — a day-long run cannot grow without bound.
//!
//! Spans are **RAII-only**: [`Span`] records itself on drop, so an
//! early return or panic cannot leak an open span, and the analyzer's
//! `span-guard` check rejects manual `span_start`/`span_end` pairing.
//! For intervals whose start happened on another thread (queue waits),
//! [`Tracer::record_span`] records a completed interval in one call —
//! a single call has nothing to leak. [`Tracer::instant`] is the same
//! single call for a rare lifecycle event (reconnect, fail-over,
//! re-home…): a zero-duration span on the same clock in the same ring.
//!
//! Context flows two ways: explicitly ([`Span::ctx`] into a frame
//! trailer or a queued request, adopted by [`Tracer::span_in`]) and
//! implicitly through a thread-local stack ([`current`]), so deep
//! synchronous call chains — the sharded engine under a worker span —
//! nest without threading a context through every signature.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::sync::OnceLock;
use std::time::Instant;

/// Default span-ring capacity: enough for several thousand sampled
/// operations' full span trees between snapshots.
pub const DEFAULT_TRACE_CAP: usize = 1 << 16;

/// Default slow-outlier threshold for unsampled roots, in microseconds.
pub const DEFAULT_SLOW_US: u64 = 5_000;

/// The causal identity a span hands to its children — what travels in
/// queued requests and on the wire. `trace_id == 0` means "not traced"
/// ([`TraceContext::NONE`]); `parent` is the span id the next span
/// should hang off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Trace this operation belongs to (0 = none).
    pub trace_id: u64,
    /// Span id to parent the next span under (0 = root).
    pub parent: u64,
}

impl TraceContext {
    /// The inactive context: not part of any trace.
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        parent: 0,
    };

    /// Whether this context carries a live trace.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.trace_id != 0
    }
}

/// Trace context plus enqueue timestamp, carried by queued requests so
/// the dequeuing worker can record the queue wait and parent its work
/// span correctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReqTrace {
    /// Causal identity of the enqueued operation.
    pub ctx: TraceContext,
    /// [`now_us`] at enqueue time (0 when untraced).
    pub enqueued_us: u64,
}

impl ReqTrace {
    /// An untraced request.
    pub const NONE: ReqTrace = ReqTrace {
        ctx: TraceContext::NONE,
        enqueued_us: 0,
    };

    /// Stamps `ctx` with the current clock; untraced contexts skip the
    /// clock read entirely.
    #[inline]
    pub fn at_enqueue(ctx: TraceContext) -> ReqTrace {
        if ctx.is_active() {
            ReqTrace {
                ctx,
                enqueued_us: now_us(),
            }
        } else {
            ReqTrace::NONE
        }
    }
}

/// One completed span: a named interval on the shared process timeline,
/// linked into its trace's tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (unique process-wide).
    pub span_id: u64,
    /// Parent span id (0 for roots).
    pub parent: u64,
    /// Static segment name, e.g. `"serve_frame"`.
    pub kind: &'static str,
    /// Microseconds since the process trace epoch.
    pub start_us: u64,
    /// End of the interval (≥ `start_us` by construction).
    pub end_us: u64,
    /// Shard the span ran on (-1 = not shard-bound).
    pub shard: i64,
    /// Free-form operand (switch id, peer seat, batch size, …).
    pub label: u64,
}

/// Microseconds since the process-wide trace epoch. All tracers share
/// one epoch, so spans recorded by different registries merge onto one
/// timeline.
#[inline]
pub fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let e = EPOCH.get_or_init(Instant::now);
    u64::try_from(e.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Process-wide id allocator for trace and span ids (never hands out 0).
#[inline]
fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // softcell-lint: allow(atomics-order) -- pure id counter, no thread reads it for ordering
    NEXT.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// Innermost live span's child context on this thread.
    static CURRENT: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
}

/// The innermost live span's child context on the calling thread, or
/// [`TraceContext::NONE`] outside any span.
#[inline]
pub fn current() -> TraceContext {
    CURRENT.with(|c| c.borrow().last().copied().unwrap_or(TraceContext::NONE))
}

#[derive(Debug)]
struct TracerInner {
    ring: VecDeque<SpanRecord>,
    cap: usize,
    dropped: u64,
}

/// A bounded ring of completed [`SpanRecord`]s plus the sampling
/// policy. One lives in every [`Registry`](crate::Registry);
/// instrumentation sites use the global registry's tracer so client-
/// and server-side spans of one process land in one ring.
#[derive(Debug)]
pub struct Tracer {
    inner: Mutex<TracerInner>,
    /// Sample 1 root in N (0 = tracing disabled).
    sample_every: AtomicU64,
    /// Unsampled roots slower than this still record (µs).
    slow_us: AtomicU64,
    /// Root arrival counter driving the 1-in-N decision.
    arrivals: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::with_capacity(DEFAULT_TRACE_CAP)
    }
}

impl Tracer {
    /// Creates a disabled tracer whose ring holds at most `cap` spans.
    pub fn with_capacity(cap: usize) -> Tracer {
        Tracer {
            inner: Mutex::new(TracerInner {
                ring: VecDeque::new(),
                cap: cap.max(1),
                dropped: 0,
            }),
            sample_every: AtomicU64::new(0),
            slow_us: AtomicU64::new(DEFAULT_SLOW_US),
            arrivals: AtomicU64::new(0),
        }
    }

    /// Arms tracing: sample one root in `every` (0 disarms), and record
    /// any unsampled root slower than `slow_us` microseconds.
    pub fn set_sampling(&self, every: u64, slow_us: u64) {
        // softcell-lint: allow(atomics-order) -- pure config cell, readers tolerate staleness
        self.slow_us.store(slow_us, Ordering::Relaxed);
        // softcell-lint: allow(atomics-order) -- pure config cell, readers tolerate staleness
        self.sample_every.store(every, Ordering::Relaxed);
    }

    /// Opens a root span: makes the 1-in-N sampling decision and, when
    /// unsampled but armed, arms the slow-outlier shadow capture.
    #[inline]
    pub fn root(&self, kind: &'static str) -> Span<'_> {
        // softcell-lint: allow(atomics-order) -- pure config cell, readers tolerate staleness
        let every = self.sample_every.load(Ordering::Relaxed);
        if every == 0 {
            return Span::disabled();
        }
        // softcell-lint: allow(atomics-order) -- pure counter, only sampled modulo matters
        let n = self.arrivals.fetch_add(1, Ordering::Relaxed);
        if n.is_multiple_of(every) {
            Span::open(self, kind, next_id(), 0, SpanMode::Sampled)
        } else {
            Span::open(self, kind, next_id(), 0, SpanMode::Shadow)
        }
    }

    /// Opens a child span under an explicit context (a frame trailer, a
    /// queued request). Inactive contexts yield a no-op span, so the
    /// sampling decision made at the root propagates for free.
    #[inline]
    pub fn span_in(&self, ctx: TraceContext, kind: &'static str) -> Span<'_> {
        if !ctx.is_active() {
            return Span::disabled();
        }
        Span::open_in(self, kind, ctx)
    }

    /// Opens a child span under the thread's current context (the
    /// innermost live [`Span`] on this thread).
    #[inline]
    pub fn span(&self, kind: &'static str) -> Span<'_> {
        self.span_in(current(), kind)
    }

    /// Records a completed interval in one call — for waits whose start
    /// was stamped on another thread (queue waits). Being a single call
    /// it cannot leak an open span, which is why it coexists with the
    /// `span-guard` analyzer check.
    #[inline]
    pub fn record_span(
        &self,
        ctx: TraceContext,
        kind: &'static str,
        start_us: u64,
        end_us: u64,
        shard: i64,
        label: u64,
    ) {
        if !ctx.is_active() {
            return;
        }
        self.push(SpanRecord {
            trace_id: ctx.trace_id,
            span_id: next_id(),
            parent: ctx.parent,
            kind,
            start_us,
            end_us: end_us.max(start_us),
            shard,
            label,
        });
    }

    /// Records a lifecycle instant — a zero-duration span on the
    /// process trace clock: a child of the calling thread's current
    /// context when one is live, otherwise a complete one-span trace of
    /// its own. Recorded whether or not sampling is armed, so it is for
    /// rare events only (reconnects, epoch changes, fail-over steps),
    /// never the per-request path. Like [`record_span`](Self::record_span)
    /// it is one call and cannot leave a span open.
    pub fn instant(&self, kind: &'static str, label: u64) {
        let ctx = current();
        let (trace_id, parent) = if ctx.is_active() {
            (ctx.trace_id, ctx.parent)
        } else {
            (next_id(), 0)
        };
        let now = now_us();
        self.push(SpanRecord {
            trace_id,
            span_id: next_id(),
            parent,
            kind,
            start_us: now,
            end_us: now,
            shard: -1,
            label,
        });
    }

    fn push(&self, rec: SpanRecord) {
        let mut inner = self.inner.lock().expect("tracer poisoned");
        if inner.ring.len() == inner.cap {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(rec);
    }

    /// The retained spans, oldest first.
    pub fn records(&self) -> Vec<SpanRecord> {
        let inner = self.inner.lock().expect("tracer poisoned");
        inner.ring.iter().copied().collect()
    }

    /// Spans evicted from the ring since creation.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("tracer poisoned").dropped
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpanMode {
    /// Records unconditionally; children propagate.
    Sampled,
    /// Unsampled root: records alone only if it crosses the slow
    /// threshold; children see an inactive context.
    Shadow,
}

/// An open span, recorded into its [`Tracer`] on drop (RAII — the only
/// way to close a span). While live it is the thread's [`current`]
/// context, so nested spans parent correctly without plumbing.
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct Span<'a> {
    live: Option<LiveSpan<'a>>,
}

struct LiveSpan<'a> {
    tracer: &'a Tracer,
    trace_id: u64,
    span_id: u64,
    parent: u64,
    kind: &'static str,
    start_us: u64,
    shard: i64,
    label: u64,
    mode: SpanMode,
    /// Whether this span pushed onto the thread-local context stack.
    pushed: bool,
}

impl<'a> Span<'a> {
    /// A span that records nothing and exposes an inactive context.
    #[inline]
    pub fn disabled() -> Span<'a> {
        Span { live: None }
    }

    fn open(
        tracer: &'a Tracer,
        kind: &'static str,
        trace_id: u64,
        parent: u64,
        mode: SpanMode,
    ) -> Span<'a> {
        let span_id = next_id();
        let pushed = mode == SpanMode::Sampled;
        if pushed {
            CURRENT.with(|c| {
                c.borrow_mut().push(TraceContext {
                    trace_id,
                    parent: span_id,
                })
            });
        }
        Span {
            live: Some(LiveSpan {
                tracer,
                trace_id,
                span_id,
                parent,
                kind,
                start_us: now_us(),
                shard: -1,
                label: 0,
                mode,
                pushed,
            }),
        }
    }

    fn open_in(tracer: &'a Tracer, kind: &'static str, ctx: TraceContext) -> Span<'a> {
        Span::open(tracer, kind, ctx.trace_id, ctx.parent, SpanMode::Sampled)
    }

    /// The context children of this span should adopt — what goes into
    /// a frame trailer or queued request. Inactive for disabled and
    /// shadow spans.
    #[inline]
    pub fn ctx(&self) -> TraceContext {
        match &self.live {
            Some(l) if l.mode == SpanMode::Sampled => TraceContext {
                trace_id: l.trace_id,
                parent: l.span_id,
            },
            _ => TraceContext::NONE,
        }
    }

    /// Whether this span will record unconditionally.
    #[inline]
    pub fn is_sampled(&self) -> bool {
        self.ctx().is_active()
    }

    /// Labels the span with the shard it ran on.
    #[inline]
    pub fn set_shard(&mut self, shard: usize) {
        if let Some(l) = &mut self.live {
            l.shard = shard as i64;
        }
    }

    /// Attaches the free-form operand (switch id, peer seat, count…).
    #[inline]
    pub fn set_label(&mut self, label: u64) {
        if let Some(l) = &mut self.live {
            l.label = label;
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(l) = self.live.take() {
            if l.pushed {
                CURRENT.with(|c| {
                    let mut stack = c.borrow_mut();
                    // Guards drop LIFO; pop defensively by identity in
                    // case a guard was moved across an unusual scope.
                    if let Some(pos) = stack.iter().rposition(|t| t.parent == l.span_id) {
                        stack.remove(pos);
                    }
                });
            }
            let end_us = now_us();
            let record = match l.mode {
                SpanMode::Sampled => true,
                SpanMode::Shadow => {
                    // softcell-lint: allow(atomics-order) -- pure config cell, readers tolerate staleness
                    let slow = l.tracer.slow_us.load(Ordering::Relaxed);
                    slow > 0 && end_us.saturating_sub(l.start_us) >= slow
                }
            };
            if record {
                l.tracer.push(SpanRecord {
                    trace_id: l.trace_id,
                    span_id: l.span_id,
                    parent: l.parent,
                    kind: l.kind,
                    start_us: l.start_us,
                    end_us: end_us.max(l.start_us),
                    shard: l.shard,
                    label: l.label,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_tracer_records_nothing() {
        let t = Tracer::default();
        {
            let sp = t.root("op");
            assert!(!sp.is_sampled());
            assert_eq!(sp.ctx(), TraceContext::NONE);
        }
        assert!(t.records().is_empty());
    }

    #[test]
    fn sampled_roots_nest_children_via_thread_context() {
        let t = Tracer::default();
        t.set_sampling(1, 0);
        let (root_ctx, child_ctx) = {
            let root = t.root("op");
            assert!(root.is_sampled());
            let rc = root.ctx();
            let child = t.span("inner");
            (rc, child.ctx())
        };
        let recs = t.records();
        assert_eq!(recs.len(), 2, "{recs:?}");
        // Children drop first: inner precedes the root in the ring.
        assert_eq!(recs[0].kind, "inner");
        assert_eq!(recs[1].kind, "op");
        assert_eq!(recs[0].trace_id, root_ctx.trace_id);
        assert_eq!(recs[0].parent, root_ctx.parent);
        assert_eq!(recs[1].parent, 0);
        assert_eq!(child_ctx.parent, recs[0].span_id);
        assert!(recs[0].start_us >= recs[1].start_us);
    }

    #[test]
    fn one_in_n_sampling_and_inactive_children() {
        let t = Tracer::default();
        t.set_sampling(4, 0);
        let mut sampled = 0;
        for _ in 0..8 {
            let sp = t.root("op");
            if sp.is_sampled() {
                sampled += 1;
            } else {
                // Children of an unsampled root must not record.
                let child = t.span("inner");
                assert!(!child.is_sampled());
            }
        }
        assert_eq!(sampled, 2);
        assert!(t.records().iter().all(|r| r.kind == "op"));
    }

    #[test]
    fn slow_shadow_roots_record_alone() {
        let t = Tracer::default();
        // only the first root samples; 1 ms threshold, so a `fast_op`
        // delayed a few µs by a busy host is still fast
        t.set_sampling(u64::MAX, 1_000);
        {
            let first = t.root("sampled_root");
            assert!(first.is_sampled(), "arrival 0 always samples");
        }
        {
            let sp = t.root("slow_op");
            assert!(!sp.is_sampled());
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _fast = t.root("fast_op");
        }
        let recs = t.records();
        assert_eq!(recs.len(), 2, "{recs:?}");
        let slow = recs.iter().find(|r| r.kind == "slow_op").expect("captured");
        assert!(slow.end_us - slow.start_us >= 1_000);
        assert!(!recs.iter().any(|r| r.kind == "fast_op"));
    }

    #[test]
    fn explicit_context_adoption_crosses_threads() {
        let t = std::sync::Arc::new(Tracer::default());
        t.set_sampling(1, 0);
        let ctx = {
            let root = t.root("rpc");
            root.ctx()
        };
        let t2 = t.clone();
        std::thread::spawn(move || {
            let mut sp = t2.span_in(ctx, "server_side");
            sp.set_shard(3);
        })
        .join()
        .expect("worker");
        let recs = t.records();
        let server = recs.iter().find(|r| r.kind == "server_side").expect("span");
        assert_eq!(server.trace_id, ctx.trace_id);
        assert_eq!(server.parent, ctx.parent);
        assert_eq!(server.shard, 3);
    }

    #[test]
    fn record_span_is_single_call_and_ring_bounds() {
        let t = Tracer::with_capacity(4);
        t.set_sampling(1, 0);
        let ctx = {
            let root = t.root("op");
            root.ctx()
        };
        for i in 0..10 {
            t.record_span(ctx, "queue_wait", i, i + 5, 2, i);
        }
        assert_eq!(t.records().len(), 4);
        assert_eq!(t.dropped(), 7, "root + 10 waits minus cap 4");
        // Inactive contexts record nothing.
        t.record_span(TraceContext::NONE, "queue_wait", 0, 1, 0, 0);
        assert_eq!(t.dropped(), 7);
    }

    #[test]
    fn instant_records_disarmed_and_nests_under_a_live_span() {
        let t = Tracer::default();
        // disarmed, outside any span: a complete one-span trace
        t.instant("reconnect", 7);
        let recs = t.records();
        assert_eq!(recs.len(), 1, "recorded although sampling is off");
        let lone = recs[0];
        assert_eq!((lone.kind, lone.label, lone.parent), ("reconnect", 7, 0));
        assert_eq!(lone.start_us, lone.end_us, "zero duration");
        assert_ne!(lone.trace_id, 0);

        // under a live sampled span: its child, in its trace
        t.set_sampling(1, 0);
        let root_ctx = {
            let root = t.root("drill");
            t.instant("fail_over", 2);
            root.ctx()
        };
        let recs = t.records();
        let inst = recs.iter().find(|r| r.kind == "fail_over").expect("kept");
        assert_eq!(inst.trace_id, root_ctx.trace_id);
        assert_eq!(inst.parent, root_ctx.parent);
        assert_ne!(
            inst.trace_id, lone.trace_id,
            "the lone instant stands alone"
        );
        assert!(lone.start_us <= inst.start_us, "one clock orders both");
    }

    #[test]
    fn req_trace_stamps_only_active_contexts() {
        assert_eq!(ReqTrace::at_enqueue(TraceContext::NONE), ReqTrace::NONE);
        let ctx = TraceContext {
            trace_id: 9,
            parent: 4,
        };
        let rt = ReqTrace::at_enqueue(ctx);
        assert_eq!(rt.ctx, ctx);
    }
}
