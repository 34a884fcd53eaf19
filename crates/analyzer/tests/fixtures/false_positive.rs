// Fixture: regression corpus — nothing here may produce a finding.
// try_recv under the sequencer guard (a drain that never waits), blocking
// after drop(engine), back-to-back temporary guards, unwrap_or[_else],
// vec!/attribute brackets, and SeqCst atomics.
use std::sync::atomic::{AtomicU64, Ordering};

struct S;

impl S {
    fn pump(&self) {
        let mut engine = self.coord.engine.lock();
        while let Ok(m) = self.rx.try_recv() {
            engine.apply(m);
        }
        drop(engine);
        let d = self.rx.recv();
        consume(d);
    }

    fn twice(&self) {
        self.stats.lock().push(1);
        self.stats.lock().push(2);
    }
}

fn decode(buf: &[u8]) -> u8 {
    let v: Vec<u8> = vec![0u8; 4];
    let n = buf.first().copied().unwrap_or(0);
    let m = buf.get(1).copied().unwrap_or_else(|| 0);
    n + m + v.len() as u8
}

fn handshake(seq: &AtomicU64) -> u64 {
    seq.load(Ordering::SeqCst)
}

// RAII tracing idioms: guard-scoped spans and the single-call
// cross-thread record are the sanctioned forms, not paired calls.
fn traced(tracer: &Tracer, ctx: TraceContext) {
    let mut sp = tracer.span("ticket_wait");
    sp.set_shard(0);
    let _child = tracer.span_in(ctx, "serve_frame");
    tracer.record_span(ctx, "queue_wait", 0, 1, -1, 0);
    let span_start = 7;
    consume(span_start);
}
