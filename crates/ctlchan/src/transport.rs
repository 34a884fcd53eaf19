//! Frame transports: in-memory loopback and TCP.
//!
//! A [`Transport`] moves whole frames between a controller and one
//! agent. The loopback pair backs single-process benchmarks and tests
//! with the full encode → frame → decode path but no kernel in the
//! loop; [`TcpTransport`] carries the same frames over a socket with
//! length-delimited framing (the frame header's own length field drives
//! the read loop, like OpenFlow over TCP).
//!
//! Every transport keeps per-connection [`ChannelCounters`] — frames and
//! bytes in each direction — shared out as an `Arc` so the serve loop
//! can report them in stats replies while the transport is in use.
//!
//! Two fault-tolerance building blocks live here as well. Every
//! transport honours a *deadline* ([`Transport::set_deadline`]): with one
//! armed, `send`/`recv` return [`Error::Timeout`] instead of blocking
//! forever on a dead peer — socket read/write timeouts on TCP, bounded
//! condvar waits on the loopback. And [`FaultTransport`] wraps any
//! transport with seeded fault injection — dropped, duplicated and
//! delayed frames plus mid-frame disconnects — so the retry/reconnect
//! machinery can be exercised deterministically in tests.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, SendTimeoutError, Sender};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use softcell_types::{Error, Result};

use crate::codec::{checked_frame_len, HEADER_LEN};

/// Per-connection send/receive counters.
#[derive(Debug, Default)]
pub struct ChannelCounters {
    tx_msgs: AtomicU64,
    rx_msgs: AtomicU64,
    tx_bytes: AtomicU64,
    rx_bytes: AtomicU64,
}

/// A point-in-time copy of [`ChannelCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Frames sent.
    pub tx_msgs: u64,
    /// Frames received.
    pub rx_msgs: u64,
    /// Bytes sent.
    pub tx_bytes: u64,
    /// Bytes received.
    pub rx_bytes: u64,
}

impl ChannelCounters {
    fn sent(&self, frame: &[u8]) {
        self.tx_msgs.fetch_add(1, Ordering::Relaxed);
        self.tx_bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        let m = crate::metrics::metrics();
        m.frames_tx[crate::metrics::type_index(frame)].inc();
        if crate::metrics::frame_is_traced(frame) {
            m.traced_tx.inc();
        }
    }

    fn received(&self, frame: &[u8]) {
        self.rx_msgs.fetch_add(1, Ordering::Relaxed);
        self.rx_bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        let m = crate::metrics::metrics();
        m.frames_rx[crate::metrics::type_index(frame)].inc();
        if crate::metrics::frame_is_traced(frame) {
            m.traced_rx.inc();
        }
    }

    /// Reads all four counters.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            tx_msgs: self.tx_msgs.load(Ordering::Relaxed),
            rx_msgs: self.rx_msgs.load(Ordering::Relaxed),
            tx_bytes: self.tx_bytes.load(Ordering::Relaxed),
            rx_bytes: self.rx_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Moves whole encoded frames between two control-channel endpoints.
pub trait Transport: Send {
    /// Sends one frame. Fails if the peer is gone.
    fn send(&mut self, frame: &[u8]) -> Result<()>;

    /// Receives one frame, blocking until available. `Ok(None)` means
    /// the peer closed the connection cleanly.
    fn recv(&mut self) -> Result<Option<Vec<u8>>>;

    /// This endpoint's counters.
    fn counters(&self) -> Arc<ChannelCounters>;

    /// Bounds every subsequent `send`/`recv`: once armed, a call that
    /// would block longer than `deadline` fails with [`Error::Timeout`]
    /// instead of hanging on a dead peer. `None` restores unbounded
    /// blocking. Transports without a notion of waiting may ignore it.
    fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<()> {
        let _ = deadline;
        Ok(())
    }
}

/// A boxed transport is one: a table of peers of different kinds is a
/// `Vec` of `CtlChannel<Box<dyn Transport>>`.
impl<T: Transport + ?Sized> Transport for Box<T> {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        (**self).send(frame)
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>> {
        (**self).recv()
    }

    fn counters(&self) -> Arc<ChannelCounters> {
        (**self).counters()
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<()> {
        (**self).set_deadline(deadline)
    }
}

/// How many frames a loopback direction buffers before `send` blocks —
/// the same backpressure a TCP socket buffer provides.
pub const LOOPBACK_DEPTH: usize = 4096;

/// One end of an in-memory frame queue pair.
pub struct Loopback {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    counters: Arc<ChannelCounters>,
    deadline: Option<Duration>,
}

/// Creates a connected loopback pair: frames sent on one end arrive on
/// the other, in order, through bounded queues of [`LOOPBACK_DEPTH`].
pub fn loopback_pair() -> (Loopback, Loopback) {
    let (a_tx, b_rx) = bounded(LOOPBACK_DEPTH);
    let (b_tx, a_rx) = bounded(LOOPBACK_DEPTH);
    (
        Loopback {
            tx: a_tx,
            rx: a_rx,
            counters: Arc::new(ChannelCounters::default()),
            deadline: None,
        },
        Loopback {
            tx: b_tx,
            rx: b_rx,
            counters: Arc::new(ChannelCounters::default()),
            deadline: None,
        },
    )
}

impl Transport for Loopback {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        match self.deadline {
            None => self
                .tx
                .send(frame.to_vec())
                .map_err(|_| Error::InvalidState("control channel peer closed".into()))?,
            Some(d) => self
                .tx
                .send_timeout(frame.to_vec(), d)
                .map_err(|e| match e {
                    SendTimeoutError::Timeout(_) => {
                        Error::Timeout("loopback send deadline elapsed (queue full)".into())
                    }
                    SendTimeoutError::Disconnected(_) => {
                        Error::InvalidState("control channel peer closed".into())
                    }
                })?,
        }
        self.counters.sent(frame);
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>> {
        let got = match self.deadline {
            None => self.rx.recv().ok(),
            Some(d) => match self.rx.recv_timeout(d) {
                Ok(frame) => Some(frame),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(Error::Timeout("loopback recv deadline elapsed".into()))
                }
                Err(RecvTimeoutError::Disconnected) => None,
            },
        };
        match got {
            Some(frame) => {
                self.counters.received(&frame);
                Ok(Some(frame))
            }
            None => Ok(None),
        }
    }

    fn counters(&self) -> Arc<ChannelCounters> {
        Arc::clone(&self.counters)
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<()> {
        self.deadline = deadline;
        Ok(())
    }
}

/// A control channel over a TCP stream.
pub struct TcpTransport {
    stream: TcpStream,
    counters: Arc<ChannelCounters>,
    /// `buf[head..tail]`: bytes read off the socket and not yet returned
    /// as frames, so one `read` brings in a whole frame and what follows.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

/// Initial size of a connection's read buffer; it grows, up to
/// `MAX_FRAME`, only for a frame whose header has passed validation.
const READ_BUF: usize = 4096;

impl TcpTransport {
    /// Connects to a listening controller.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<TcpTransport> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| Error::InvalidState(format!("tcp connect: {e}")))?;
        Ok(TcpTransport::from_stream(stream))
    }

    /// Wraps an accepted stream (controller side). Control messages are
    /// small and latency-bound, so Nagle is disabled.
    pub fn from_stream(stream: TcpStream) -> TcpTransport {
        let _ = stream.set_nodelay(true);
        TcpTransport {
            stream,
            counters: Arc::new(ChannelCounters::default()),
            buf: vec![0; READ_BUF],
            head: 0,
            tail: 0,
        }
    }
}

fn is_io_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        self.stream.write_all(frame).map_err(|e| {
            if is_io_timeout(&e) {
                // a partial write may have left the stream mid-frame, so
                // a send-side timeout is NOT retryable — the connection
                // must be re-established
                Error::InvalidState("tcp send timed out; stream no longer frame-aligned".into())
            } else {
                Error::InvalidState(format!("tcp send: {e}"))
            }
        })?;
        self.counters.sent(frame);
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>> {
        // Length-delimited framing driven by the frame's own header: cut
        // the next frame out of the buffer, reading while it is incomplete.
        loop {
            let buffered = self.buf.get(self.head..self.tail).unwrap_or_default();
            let have = buffered.len();
            let len = (have >= HEADER_LEN)
                .then(|| checked_frame_len(buffered))
                .transpose()?;
            if let Some(frame) = len.and_then(|len| buffered.get(..len)) {
                let frame = frame.to_vec();
                self.head += frame.len();
                if self.head == self.tail {
                    (self.head, self.tail) = (0, 0);
                }
                self.counters.received(&frame);
                return Ok(Some(frame));
            }
            // Room for the rest of the frame (its header, until that is
            // in): slide it to the front, grow only by a validated length.
            let need = len.unwrap_or(HEADER_LEN);
            if self.buf.len() - self.head < need {
                self.buf.copy_within(self.head..self.tail, 0);
                (self.head, self.tail) = (0, have);
                if self.buf.len() < need {
                    self.buf.resize(need, 0);
                }
            }
            let part = if len.is_some() { "payload" } else { "header" };
            let torn = |how| Error::Malformed(format!("{how} mid-{part} ({have}/{need} bytes)"));
            // never empty: the frame is incomplete, so tail < head + need
            let space = self.buf.get_mut(self.tail..).unwrap_or_default();
            match self.stream.read(space) {
                // EOF on a frame boundary = clean close; EOF inside a
                // frame = truncated frame.
                Ok(0) if have == 0 => return Ok(None),
                Ok(0) => return Err(torn("connection closed")),
                Ok(n) => self.tail += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // a timeout before the first byte leaves the stream on a
                // frame boundary — recoverable, the caller may retry
                Err(e) if is_io_timeout(&e) && have == 0 => {
                    return Err(Error::Timeout("tcp recv deadline elapsed".into()))
                }
                Err(e) if is_io_timeout(&e) => return Err(torn("stream desynced: timed out")),
                Err(e) => return Err(Error::InvalidState(format!("tcp recv: {e}"))),
            }
        }
    }

    fn counters(&self) -> Arc<ChannelCounters> {
        Arc::clone(&self.counters)
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<()> {
        self.stream
            .set_read_timeout(deadline)
            .and_then(|()| self.stream.set_write_timeout(deadline))
            .map_err(|e| Error::InvalidState(format!("tcp set deadline: {e}")))
    }
}

/// Which faults a [`FaultTransport`] injects, and how often.
///
/// Probabilities are per sent frame and evaluated in the order drop →
/// delay → duplicate from one deterministic seeded stream, so a given
/// `(seed, config)` always injects the same fault schedule.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Seed for the fault schedule (deterministic per seed).
    pub seed: u64,
    /// Probability a sent frame is silently dropped.
    pub drop: f64,
    /// Probability a sent frame is sent twice (duplicate delivery).
    pub duplicate: f64,
    /// Probability a sent frame is held back and delivered (in order)
    /// just before the *next* sent frame — a one-send delay. A held
    /// frame is lost if nothing further is sent, like a stuck socket
    /// buffer on a dying connection.
    pub delay: f64,
    /// If `Some(n)`, every n-th send is cut mid-frame: the peer receives
    /// a truncated frame and this endpoint goes dead (all later calls
    /// fail) until [`FaultTransport::revive`].
    pub disconnect_every: Option<u64>,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            disconnect_every: None,
        }
    }
}

/// How many of each fault a [`FaultTransport`] has injected so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames silently dropped.
    pub dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames held back one send.
    pub delayed: u64,
    /// Mid-frame disconnects injected.
    pub disconnects: u64,
}

/// A [`Transport`] wrapper injecting faults on the send side: drops,
/// duplicates, delays and mid-frame disconnects, from a seeded
/// deterministic schedule. Receive and deadline handling pass straight
/// through to the wrapped transport.
pub struct FaultTransport<T: Transport> {
    inner: T,
    cfg: FaultConfig,
    rng: StdRng,
    /// Frames held back by the delay fault, flushed before the next send.
    held: Vec<Vec<u8>>,
    sends: u64,
    dead: bool,
    stats: FaultStats,
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: T, cfg: FaultConfig) -> FaultTransport<T> {
        FaultTransport {
            inner,
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            held: Vec::new(),
            sends: 0,
            dead: false,
            stats: FaultStats::default(),
        }
    }

    /// Injected-fault totals so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether an injected disconnect has killed this endpoint.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Brings a disconnected endpoint back to life *on the same
    /// underlying transport* — only meaningful on the loopback, where
    /// the queues survive; a real TCP stream would need a fresh connect.
    pub fn revive(&mut self) {
        self.dead = false;
    }

    /// Unwraps the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        if self.dead {
            return Err(Error::InvalidState(
                "fault injection: connection is dead".into(),
            ));
        }
        self.sends += 1;
        if let Some(n) = self.cfg.disconnect_every {
            if self.sends.is_multiple_of(n) {
                // mid-frame disconnect: the peer sees a truncated frame
                // (rejected by its length check), then silence
                self.stats.disconnects += 1;
                crate::metrics::metrics().fault_disconnects.inc();
                self.dead = true;
                let cut = (frame.len() / 2).max(1);
                let _ = self.inner.send(&frame[..cut]);
                return Err(Error::InvalidState(
                    "fault injection: disconnected mid-frame".into(),
                ));
            }
        }
        // anything held back by an earlier delay goes first, keeping
        // delivery in order
        let mut queue: Vec<Vec<u8>> = std::mem::take(&mut self.held);
        if self.rng.gen_bool(self.cfg.drop) {
            self.stats.dropped += 1;
            crate::metrics::metrics().fault_dropped.inc();
        } else if self.rng.gen_bool(self.cfg.delay) {
            self.stats.delayed += 1;
            crate::metrics::metrics().fault_delayed.inc();
            self.held.push(frame.to_vec());
        } else if self.rng.gen_bool(self.cfg.duplicate) {
            self.stats.duplicated += 1;
            crate::metrics::metrics().fault_duplicated.inc();
            queue.push(frame.to_vec());
            queue.push(frame.to_vec());
        } else {
            queue.push(frame.to_vec());
        }
        for f in queue {
            self.inner.send(&f)?;
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>> {
        if self.dead {
            return Err(Error::InvalidState(
                "fault injection: connection is dead".into(),
            ));
        }
        self.inner.recv()
    }

    fn counters(&self) -> Arc<ChannelCounters> {
        self.inner.counters()
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<()> {
        self.inner.set_deadline(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Message, MAX_FRAME, VERSION};
    use std::borrow::Cow;

    #[test]
    fn loopback_delivers_in_order_and_counts() {
        let (mut a, mut b) = loopback_pair();
        let f1 = Message::BarrierRequest.encode(1);
        let f2 = Message::EchoRequest(Cow::Borrowed(b"x")).encode(2);
        a.send(&f1).unwrap();
        a.send(&f2).unwrap();
        assert_eq!(b.recv().unwrap().unwrap(), f1);
        assert_eq!(b.recv().unwrap().unwrap(), f2);
        let sent = a.counters().snapshot();
        let got = b.counters().snapshot();
        assert_eq!(sent.tx_msgs, 2);
        assert_eq!(got.rx_msgs, 2);
        assert_eq!(sent.tx_bytes, (f1.len() + f2.len()) as u64);
        assert_eq!(sent.tx_bytes, got.rx_bytes);
    }

    #[test]
    fn loopback_close_is_observed() {
        let (a, mut b) = loopback_pair();
        drop(a);
        assert_eq!(b.recv().unwrap(), None);
        let (mut a, b) = loopback_pair();
        drop(b);
        assert!(a.send(&Message::BarrierRequest.encode(1)).is_err());
    }

    #[test]
    fn tcp_round_trips_frames() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut t = TcpTransport::from_stream(stream);
            // echo frames back until the client closes
            while let Some(frame) = t.recv().unwrap() {
                t.send(&frame).unwrap();
            }
            t.counters().snapshot()
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        for i in 0..10u32 {
            let frame = Message::EchoRequest(Cow::Owned(vec![i as u8; i as usize])).encode(i);
            client.send(&frame).unwrap();
            assert_eq!(client.recv().unwrap().unwrap(), frame);
        }
        drop(client);
        let server_counters = server.join().unwrap();
        assert_eq!(server_counters.rx_msgs, 10);
        assert_eq!(server_counters.tx_msgs, 10);
    }

    /// A connected socket pair: the raw writing end and the transport
    /// reading from it.
    fn tcp_reader() -> (TcpStream, TcpTransport) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let writer = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        writer.set_nodelay(true).unwrap();
        let (stream, _) = listener.accept().expect("accept");
        (writer, TcpTransport::from_stream(stream))
    }

    fn echo_frame(xid: u32, payload_len: usize) -> Vec<u8> {
        Message::EchoRequest(Cow::Owned(vec![xid as u8; payload_len])).encode(xid)
    }

    fn assert_counted(t: &TcpTransport, frames: &[&Vec<u8>]) {
        let c = t.counters().snapshot();
        assert_eq!(c.rx_msgs, frames.len() as u64);
        assert_eq!(
            c.rx_bytes,
            frames.iter().map(|f| f.len() as u64).sum::<u64>()
        );
    }

    #[test]
    fn tcp_reader_assembles_a_frame_written_byte_by_byte() {
        let (mut writer, mut t) = tcp_reader();
        let frame = echo_frame(1, 40);
        let sent = frame.clone();
        let peer = std::thread::spawn(move || {
            for b in sent {
                writer.write_all(&[b]).unwrap();
            }
            writer
        });
        assert_eq!(t.recv().unwrap().unwrap(), frame);
        assert_counted(&t, &[&frame]);
        drop(peer.join().unwrap());
        assert_eq!(t.recv().unwrap(), None, "close on a frame boundary");
    }

    #[test]
    fn tcp_reader_cuts_frames_that_arrive_together() {
        let (mut writer, mut t) = tcp_reader();
        let frames = [echo_frame(1, 0), echo_frame(2, 7), echo_frame(3, 300)];
        writer.write_all(&frames[..2].concat()).unwrap();
        assert_eq!(t.recv().unwrap().unwrap(), frames[0]);
        assert_counted(&t, &[&frames[0]]);
        assert_eq!(t.recv().unwrap().unwrap(), frames[1]);
        writer.write_all(&frames.concat()).unwrap();
        for f in &frames {
            assert_eq!(&t.recv().unwrap().unwrap(), f);
        }
        let [a, b, c] = &frames;
        assert_counted(&t, &[a, b, a, b, c]);
        drop(writer);
        assert_eq!(t.recv().unwrap(), None);
    }

    #[test]
    fn tcp_reader_grows_for_a_frame_larger_than_its_buffer() {
        let (mut writer, mut t) = tcp_reader();
        let (small, big) = (echo_frame(1, 3), echo_frame(2, 5 * READ_BUF));
        // the big frame starts mid-buffer, behind a small one
        let sent = [small.clone(), big.clone(), small.clone()].concat();
        let peer = std::thread::spawn(move || writer.write_all(&sent).map(|()| writer));
        assert_eq!(t.recv().unwrap().unwrap(), small);
        assert_eq!(t.recv().unwrap().unwrap(), big);
        assert_eq!(t.recv().unwrap().unwrap(), small);
        assert_counted(&t, &[&small, &big, &small]);
        drop(peer.join().unwrap().unwrap());
        assert_eq!(t.recv().unwrap(), None);
    }

    #[test]
    fn tcp_reader_reports_a_close_inside_a_frame_as_malformed() {
        let frame = echo_frame(1, 64);
        for cut in [5, HEADER_LEN, HEADER_LEN + 20] {
            let (mut writer, mut t) = tcp_reader();
            writer.write_all(&frame).unwrap();
            writer.write_all(&frame[..cut]).unwrap();
            drop(writer);
            assert_eq!(t.recv().unwrap().unwrap(), frame);
            let err = t.recv().unwrap_err();
            assert!(matches!(err, Error::Malformed(_)), "cut {cut}: {err}");
            assert_counted(&t, &[&frame]);
        }
    }

    #[test]
    fn tcp_reader_rejects_a_bad_length_or_version_without_allocating_for_it() {
        for (version, len) in [
            (VERSION, MAX_FRAME as u32 + 1),
            (VERSION, HEADER_LEN as u32 - 1),
            (VERSION + 1, HEADER_LEN as u32),
        ] {
            let (mut writer, mut t) = tcp_reader();
            let mut header = echo_frame(1, 0);
            header[0] = version;
            header[4..8].copy_from_slice(&len.to_be_bytes());
            writer.write_all(&header).unwrap();
            let err = t.recv().unwrap_err();
            assert!(matches!(err, Error::Malformed(_)), "{version}/{len}: {err}");
            assert_eq!(t.buf.len(), READ_BUF);
            assert_counted(&t, &[]);
        }
    }

    #[test]
    fn tcp_deadline_before_a_frame_is_recoverable_and_inside_one_is_not() {
        let (mut writer, mut t) = tcp_reader();
        t.set_deadline(Some(Duration::from_millis(30))).unwrap();
        let err = t.recv().unwrap_err();
        assert!(err.is_timeout(), "got {err}");
        // still on a frame boundary: the same transport keeps working
        let frame = echo_frame(1, 9);
        writer.write_all(&frame).unwrap();
        assert_eq!(t.recv().unwrap().unwrap(), frame);
        assert!(t.recv().unwrap_err().is_timeout());

        for cut in [3, HEADER_LEN + 4] {
            let (mut writer, mut t) = tcp_reader();
            t.set_deadline(Some(Duration::from_millis(30))).unwrap();
            writer.write_all(&frame[..cut]).unwrap();
            let err = t.recv().unwrap_err();
            assert!(matches!(err, Error::Malformed(_)), "cut {cut}: {err}");
        }
    }

    #[test]
    fn loopback_deadline_times_out_instead_of_blocking() {
        let (mut a, _b) = loopback_pair();
        a.set_deadline(Some(Duration::from_millis(20))).unwrap();
        let err = a.recv().unwrap_err();
        assert!(err.is_timeout(), "got {err}");
        // clearing the deadline restores (dis)connection semantics
        a.set_deadline(None).unwrap();
        drop(_b);
        assert_eq!(a.recv().unwrap(), None);
    }

    #[test]
    fn tcp_deadline_times_out_on_a_silent_peer() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let mut client = TcpTransport::connect(addr).unwrap();
        client
            .set_deadline(Some(Duration::from_millis(30)))
            .unwrap();
        let err = client.recv().unwrap_err();
        assert!(err.is_timeout(), "got {err}");
        drop(listener);
    }

    #[test]
    fn fault_transport_is_deterministic_per_seed() {
        let run = || {
            let (a, mut b) = loopback_pair();
            let mut f = FaultTransport::new(
                a,
                FaultConfig {
                    seed: 42,
                    drop: 0.3,
                    duplicate: 0.2,
                    delay: 0.2,
                    ..FaultConfig::default()
                },
            );
            let frame = Message::BarrierRequest.encode(1);
            for _ in 0..50 {
                f.send(&frame).unwrap();
            }
            let mut delivered = 0;
            b.set_deadline(Some(Duration::from_millis(5))).unwrap();
            while b.recv().is_ok_and(|f| f.is_some()) {
                delivered += 1;
            }
            (f.fault_stats(), delivered)
        };
        let (s1, d1) = run();
        let (s2, d2) = run();
        assert_eq!(s1, s2);
        assert_eq!(d1, d2);
        assert!(s1.dropped > 0 && s1.duplicated > 0 && s1.delayed > 0);
        // conservation: every send is delivered, dropped, or still held
        assert!(d1 as u64 <= 50 + s1.duplicated);
    }

    #[test]
    fn fault_transport_disconnects_mid_frame() {
        let (a, mut b) = loopback_pair();
        let mut f = FaultTransport::new(
            a,
            FaultConfig {
                disconnect_every: Some(3),
                ..FaultConfig::default()
            },
        );
        let frame = Message::EchoRequest(Cow::Borrowed(b"payload")).encode(7);
        f.send(&frame).unwrap();
        f.send(&frame).unwrap();
        assert!(f.send(&frame).is_err(), "third send injects the cut");
        assert!(f.is_dead());
        assert!(f.send(&frame).is_err(), "dead transport stays dead");
        assert_eq!(f.fault_stats().disconnects, 1);
        // the peer got two good frames, then a truncated one that fails
        // frame validation — exactly what a mid-frame TCP reset looks like
        assert_eq!(b.recv().unwrap().unwrap(), frame);
        assert_eq!(b.recv().unwrap().unwrap(), frame);
        let torn = b.recv().unwrap().unwrap();
        assert!(crate::codec::Frame::new_checked(torn.as_slice()).is_err());
        f.revive();
        f.send(&frame).unwrap();
        assert_eq!(b.recv().unwrap().unwrap(), frame);
    }
}
