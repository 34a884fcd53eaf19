// Fixture: the sequencer guard taken with `try_lock`, falling back to a
// blocking take in a helper. The guard is live until `drop(held)`, so
// seq-block fires on the yield at line 11; the one at line 13 is fine.
struct S;

impl S {
    fn f(&self) {
        let mut taken = 0;
        let mut held = self.coord.engine.try_lock().unwrap_or_else(|| self.take(&mut taken));
        held.apply();
        std::thread::yield_now();
        drop(held);
        std::thread::yield_now();
    }
}
