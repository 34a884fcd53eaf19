// Fixture: a hand-rolled wait under the sequencer guard — polling a
// reply queue with try_recv and yielding (or spinning) between polls
// waits on another thread exactly as recv does. The try_recv itself
// is fine; seq-block fires on the yield (line 13) and the spin hint
// (line 14).
struct S;

impl S {
    fn f(&self) -> u32 {
        let mut engine = self.coord.engine.lock();
        loop {
            if let Ok(r) = self.reply_rx.try_recv() { return engine.apply(r); }
            std::thread::yield_now();
            std::hint::spin_loop();
        }
    }
}
