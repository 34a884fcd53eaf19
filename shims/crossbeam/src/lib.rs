//! Offline stand-in for `crossbeam`.
//!
//! Provides the `channel` module surface the workspace uses: MPMC
//! bounded/unbounded channels with cloneable senders *and* receivers
//! (std's mpsc receivers are not cloneable, so this is a from-scratch
//! implementation over `Mutex` + `Condvar`). Semantics match crossbeam
//! where the workspace relies on them: `send` on a bounded channel
//! blocks while full, `recv` blocks while empty, and both fail once the
//! other side is fully disconnected.

#![forbid(unsafe_code)]

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Threads parked on `not_empty` / `not_full`, counted under
        /// the state mutex around each wait. `notify_one` is a `futex`
        /// syscall whether or not anyone waits, so a push or pop
        /// notifies only when its count is non-zero.
        recv_waiting: usize,
        send_waiting: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        /// `None` = unbounded.
        cap: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// The sending half; cloneable across threads.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half; cloneable across threads (MPMC).
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// `send` failed because all receivers disconnected; returns the
    /// unsent message.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // like real crossbeam: Debug without requiring T: Debug
    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// `recv` failed because the channel is empty and all senders
    /// disconnected.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    /// `try_recv` failure modes.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel currently empty.
        Empty,
        /// Channel empty and all senders gone.
        Disconnected,
    }

    /// `recv_timeout` failure modes.
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Nothing arrived before the deadline.
        Timeout,
        /// Channel empty and all senders gone.
        Disconnected,
    }

    /// `send_timeout` failure modes; both return the unsent message.
    #[derive(PartialEq, Eq)]
    pub enum SendTimeoutError<T> {
        /// Bounded channel stayed full past the deadline.
        Timeout(T),
        /// All receivers gone.
        Disconnected(T),
    }

    impl<T> std::fmt::Debug for SendTimeoutError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                SendTimeoutError::Timeout(_) => write!(f, "Timeout(..)"),
                SendTimeoutError::Disconnected(_) => write!(f, "Disconnected(..)"),
            }
        }
    }

    /// `try_send` failure modes.
    #[derive(PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// Bounded channel at capacity; returns the unsent message.
        Full(T),
        /// All receivers gone; returns the unsent message.
        Disconnected(T),
    }

    impl<T> std::fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TrySendError::Full(_) => write!(f, "Full(..)"),
                TrySendError::Disconnected(_) => write!(f, "Disconnected(..)"),
            }
        }
    }

    impl<T> Chan<T> {
        /// Queues `msg` and wakes one parked receiver, if there is one.
        fn push(&self, mut state: MutexGuard<'_, State<T>>, msg: T) {
            state.queue.push_back(msg);
            let wake = state.recv_waiting > 0;
            drop(state);
            if wake {
                self.not_empty.notify_one();
            }
        }

        /// Takes the oldest message and wakes one parked sender, if
        /// there is one.
        fn pop<'a>(
            &self,
            mut state: MutexGuard<'a, State<T>>,
        ) -> Result<T, MutexGuard<'a, State<T>>> {
            let Some(msg) = state.queue.pop_front() else {
                return Err(state);
            };
            let wake = state.send_waiting > 0;
            drop(state);
            if wake {
                self.not_full.notify_one();
            }
            Ok(msg)
        }
    }

    fn new_channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                recv_waiting: 0,
                send_waiting: 0,
            }),
            cap,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_channel(None)
    }

    /// Creates a bounded channel. Capacity 0 (crossbeam's rendezvous
    /// channel) is approximated with capacity 1 — nothing in this
    /// workspace uses rendezvous semantics.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        new_channel(Some(cap.max(1)))
    }

    impl<T> Sender<T> {
        /// Sends, blocking while a bounded channel is full. Fails only
        /// when every receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut state = self.chan.state.lock().unwrap();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(msg));
                }
                match self.chan.cap {
                    Some(cap) if state.queue.len() >= cap => {
                        state.send_waiting += 1;
                        state = self.chan.not_full.wait(state).unwrap();
                        state.send_waiting -= 1;
                    }
                    _ => break,
                }
            }
            self.chan.push(state, msg);
            Ok(())
        }

        /// Sends, blocking at most `timeout` while a bounded channel is
        /// full. Fails with `Timeout` if no slot freed in time, or
        /// `Disconnected` once every receiver has been dropped.
        pub fn send_timeout(&self, msg: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
            let deadline = Instant::now() + timeout;
            let mut state = self.chan.state.lock().unwrap();
            loop {
                if state.receivers == 0 {
                    return Err(SendTimeoutError::Disconnected(msg));
                }
                match self.chan.cap {
                    Some(cap) if state.queue.len() >= cap => {
                        let left = deadline.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            return Err(SendTimeoutError::Timeout(msg));
                        }
                        state.send_waiting += 1;
                        let (guard, res) = self.chan.not_full.wait_timeout(state, left).unwrap();
                        state = guard;
                        state.send_waiting -= 1;
                        if res.timed_out()
                            && self.chan.cap.is_some_and(|c| state.queue.len() >= c)
                            && state.receivers > 0
                        {
                            return Err(SendTimeoutError::Timeout(msg));
                        }
                    }
                    _ => break,
                }
            }
            self.chan.push(state, msg);
            Ok(())
        }

        /// Non-blocking send.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let state = self.chan.state.lock().unwrap();
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if let Some(cap) = self.chan.cap {
                if state.queue.len() >= cap {
                    return Err(TrySendError::Full(msg));
                }
            }
            self.chan.push(state, msg);
            Ok(())
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.chan.state.lock().unwrap().queue.len()
        }

        /// Whether the queue is empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// Receives, blocking while empty. Fails only when the channel is
        /// empty and every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.chan.state.lock().unwrap();
            loop {
                state = match self.chan.pop(state) {
                    Ok(msg) => return Ok(msg),
                    Err(state) => state,
                };
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state.recv_waiting += 1;
                state = self.chan.not_empty.wait(state).unwrap();
                state.recv_waiting -= 1;
            }
        }

        /// Receives, blocking at most `timeout` while empty. Fails with
        /// `Timeout` if nothing arrived in time, or `Disconnected` when
        /// the channel is empty and every sender has been dropped.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.chan.state.lock().unwrap();
            loop {
                state = match self.chan.pop(state) {
                    Ok(msg) => return Ok(msg),
                    Err(state) => state,
                };
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                state.recv_waiting += 1;
                let (guard, res) = self.chan.not_empty.wait_timeout(state, left).unwrap();
                state = guard;
                state.recv_waiting -= 1;
                if res.timed_out() && state.queue.is_empty() && state.senders > 0 {
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            match self.chan.pop(self.chan.state.lock().unwrap()) {
                Ok(msg) => Ok(msg),
                Err(state) if state.senders == 0 => Err(TryRecvError::Disconnected),
                Err(_) => Err(TryRecvError::Empty),
            }
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.chan.state.lock().unwrap().queue.len()
        }

        /// Whether the queue is empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.state.lock().unwrap().senders += 1;
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.state.lock().unwrap().receivers += 1;
            Receiver {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.chan.state.lock().unwrap();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                // wake receivers so they observe the disconnect
                self.chan.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.chan.state.lock().unwrap();
            state.receivers -= 1;
            if state.receivers == 0 {
                drop(state);
                // wake senders blocked on a full queue
                self.chan.not_full.notify_all();
            }
        }
    }

    /// Wake-up tests: each one waits until the peer thread is counted
    /// as parked (so the notify, not a lucky schedule, is what lets it
    /// finish) and a lost wake-up shows as a hang.
    #[cfg(test)]
    mod tests {
        use super::*;

        /// Spins until exactly `recv` receivers and `send` senders are
        /// parked on `chan`.
        fn until_parked<T>(chan: &Chan<T>, recv: usize, send: usize) {
            loop {
                let state = chan.state.lock().unwrap();
                if (state.recv_waiting, state.send_waiting) == (recv, send) {
                    return;
                }
                drop(state);
                std::thread::yield_now();
            }
        }

        #[test]
        fn parked_recv_is_woken_by_send() {
            let (tx, rx) = bounded::<u32>(1);
            let plain = {
                let rx = rx.clone();
                std::thread::spawn(move || rx.recv())
            };
            until_parked(&tx.chan, 1, 0);
            tx.send(1).unwrap();
            assert_eq!(plain.join().unwrap(), Ok(1));

            let timed = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(60)));
            until_parked(&tx.chan, 1, 0);
            tx.try_send(2).unwrap();
            assert_eq!(timed.join().unwrap(), Ok(2));
            until_parked(&tx.chan, 0, 0);
        }

        #[test]
        fn parked_send_is_woken_by_recv() {
            let (tx, rx) = bounded::<u32>(1);
            tx.send(1).unwrap();
            let plain = {
                let tx = tx.clone();
                std::thread::spawn(move || tx.send(2))
            };
            until_parked(&rx.chan, 0, 1);
            assert_eq!(rx.recv(), Ok(1));
            plain.join().unwrap().unwrap();

            let timed = std::thread::spawn(move || tx.send_timeout(3, Duration::from_secs(60)));
            until_parked(&rx.chan, 0, 1);
            assert_eq!(rx.try_recv(), Ok(2));
            timed.join().unwrap().unwrap();
            assert_eq!(rx.recv(), Ok(3));
            until_parked(&rx.chan, 0, 0);
        }

        #[test]
        fn two_parked_receivers_each_get_a_wake_up() {
            let (tx, rx) = unbounded::<u32>();
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || rx.recv())
                })
                .collect();
            until_parked(&tx.chan, 2, 0);
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            let mut got: Vec<u32> = waiters
                .into_iter()
                .map(|w| w.join().unwrap().unwrap())
                .collect();
            got.sort_unstable();
            assert_eq!(got, [1, 2]);
        }

        #[test]
        fn last_peer_dropping_wakes_parked_threads() {
            let (tx, rx) = bounded::<u32>(1);
            let receiver = {
                let rx = rx.clone();
                std::thread::spawn(move || rx.recv())
            };
            until_parked(&tx.chan, 1, 0);
            drop(tx);
            assert_eq!(receiver.join().unwrap(), Err(RecvError));

            let (tx, rx) = bounded::<u32>(1);
            tx.send(1).unwrap();
            let sender = std::thread::spawn(move || tx.send(2));
            until_parked(&rx.chan, 0, 1);
            drop(rx);
            assert_eq!(sender.join().unwrap(), Err(SendError(2)));
        }

        #[test]
        fn timed_waits_still_time_out_and_uncount_themselves() {
            let (tx, rx) = bounded::<u32>(1);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(1).unwrap();
            assert!(matches!(
                tx.send_timeout(2, Duration::from_millis(10)),
                Err(SendTimeoutError::Timeout(2))
            ));
            until_parked(&tx.chan, 0, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{
        bounded, unbounded, RecvError, RecvTimeoutError, SendTimeoutError, TryRecvError,
        TrySendError,
    };
    use std::time::Duration;

    #[test]
    fn unbounded_round_trip_multi_consumer() {
        let (tx, rx) = unbounded::<u32>();
        let rx2 = rx.clone();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..5 {
            got.push(rx.recv().unwrap());
            got.push(rx2.recv().unwrap());
        }
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn disconnect_is_observed() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn bounded_applies_backpressure() {
        let (tx, rx) = bounded::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        // a blocked send completes once a slot frees up
        let t = {
            let tx = tx.clone();
            std::thread::spawn(move || tx.send(3).unwrap())
        };
        assert_eq!(rx.recv(), Ok(1));
        t.join().unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(9));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn send_timeout_times_out_when_full() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        assert!(matches!(
            tx.send_timeout(2, Duration::from_millis(10)),
            Err(SendTimeoutError::Timeout(2))
        ));
        assert_eq!(rx.recv(), Ok(1));
        tx.send_timeout(2, Duration::from_millis(10)).unwrap();
        drop(rx);
        assert!(matches!(
            tx.send_timeout(3, Duration::from_millis(10)),
            Err(SendTimeoutError::Disconnected(3))
        ));
    }
}
