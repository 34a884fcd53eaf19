//! Request/reply correlation and the serve loop.
//!
//! [`CtlChannel`] is the client (agent) side: it stamps each request
//! with a fresh transaction id and blocks until the frame answering that
//! xid arrives, stashing any interleaved replies for later pickup. The
//! controller side is [`serve`]: a loop that decodes each incoming
//! frame, answers protocol-level messages (hello, echo, barrier) itself,
//! and hands application messages to a handler whose reply goes back
//! under the request's xid.
//!
//! # Failure model
//!
//! With a transport deadline armed, a request that gets no answer fails
//! with [`Error::Timeout`] instead of blocking forever. Timed-out
//! requests may be *retried under the same xid*
//! ([`CtlChannel::request_with_retry`], exponential backoff); the serve
//! loop remembers its last [`DEDUP_WINDOW`] application replies by xid,
//! so a retransmitted request gets the original reply resent without
//! re-invoking the handler — at-most-once application of flow-mods even
//! when the network duplicates or the client retries. Liveness is
//! checked with [`CtlChannel::probe`], an echo round trip under a
//! deadline.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use softcell_telemetry::{Registry, TraceContext};
use softcell_types::{Error, Result};

use crate::codec::{ChannelStats, Frame, Message, MAX_FRAME, VERSION};
use crate::transport::Transport;

/// How many application replies [`serve`] remembers (per connection, by
/// xid) for retransmission dedup. A client retries a request at most a
/// handful of times with one request outstanding, so a small window is
/// ample; it only needs to cover xids that can still plausibly be
/// retransmitted.
pub const DEDUP_WINDOW: usize = 128;

/// Retry schedule for [`CtlChannel::request_with_retry`]: per-attempt
/// deadline plus truncated exponential backoff between attempts.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Deadline for each individual attempt (armed on the transport).
    pub attempt_timeout: Duration,
    /// Retries after the first attempt (total attempts = retries + 1).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempt_timeout: Duration::from_millis(250),
            max_retries: 5,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
        }
    }
}

/// The client end of a control channel: sends requests, correlates
/// replies by xid.
pub struct CtlChannel<T: Transport> {
    transport: T,
    next_xid: u32,
    /// Replies that arrived while waiting for a different xid.
    stash: HashMap<u32, Vec<u8>>,
    /// Trace context stamped onto outgoing frames while active (set by
    /// the caller around a traced operation, cleared after).
    trace: TraceContext,
}

impl<T: Transport> CtlChannel<T> {
    /// Wraps a connected transport.
    pub fn new(transport: T) -> CtlChannel<T> {
        CtlChannel {
            transport,
            // xid 0 is reserved for unsolicited messages
            next_xid: 1,
            stash: HashMap::new(),
            trace: TraceContext::NONE,
        }
    }

    /// Sets (or clears, with [`TraceContext::NONE`]) the trace context
    /// propagated on subsequent frames. While active, every request
    /// opens a `wire_rtt` span as a child of this context and ships the
    /// span's context in the frame trailer, so server-side `serve_frame`
    /// spans land in the same trace.
    pub fn set_trace(&mut self, ctx: TraceContext) {
        self.trace = ctx;
    }

    /// The underlying transport (e.g. for counters).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// The underlying transport, mutably (e.g. to poke fault injection).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Arms (or clears) the transport deadline bounding every subsequent
    /// send/recv on this channel.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<()> {
        self.transport.set_deadline(deadline)
    }

    fn fresh_xid(&mut self) -> u32 {
        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1).max(1);
        xid
    }

    /// Sends a message without waiting for an answer (unsolicited push;
    /// carried under xid 0).
    pub fn send(&mut self, msg: &Message<'_>) -> Result<()> {
        let frame = msg.encode_traced(0, self.trace);
        check_frame_len(&frame)?;
        self.transport.send(&frame)
    }

    /// Sends a request and blocks until the reply carrying its xid
    /// arrives, returning the raw reply frame. Replies to *other*
    /// outstanding xids are stashed, not dropped.
    pub fn request(&mut self, msg: &Message<'_>) -> Result<Vec<u8>> {
        let xid = self.fresh_xid();
        let sp = Registry::global().tracer().span_in(self.trace, "wire_rtt");
        self.attempt(xid, &msg.encode_traced(xid, sp.ctx()))
    }

    /// Sends a request under a per-attempt deadline and retries it —
    /// under the *same* xid, so the server's dedup window can recognize
    /// retransmissions — with truncated exponential backoff while
    /// attempts time out. Only [`Error::Timeout`] triggers a retry; any
    /// other failure (peer closed, decode error) surfaces immediately.
    ///
    /// Safe only for idempotent requests, or against a server that
    /// dedups by xid (ours does — see [`serve`] and [`DEDUP_WINDOW`]).
    pub fn request_with_retry(
        &mut self,
        msg: &Message<'_>,
        policy: &RetryPolicy,
    ) -> Result<Vec<u8>> {
        let xid = self.fresh_xid();
        let sp = Registry::global().tracer().span_in(self.trace, "wire_rtt");
        let encoded = msg.encode_traced(xid, sp.ctx());
        self.transport.set_deadline(Some(policy.attempt_timeout))?;
        let mut backoff = policy.base_backoff;
        let mut attempts_left = policy.max_retries;
        let result = loop {
            match self.attempt(xid, &encoded) {
                Err(e) if e.is_timeout() && attempts_left > 0 => {
                    let m = crate::metrics::metrics();
                    m.timeouts.inc();
                    m.retries.inc();
                    attempts_left -= 1;
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(policy.max_backoff);
                }
                other => {
                    if matches!(&other, Err(e) if e.is_timeout()) {
                        crate::metrics::metrics().timeouts.inc();
                    }
                    break other;
                }
            }
        };
        // best effort: the channel may be dead, but the deadline state
        // must not leak into later plain requests
        let _ = self.transport.set_deadline(None);
        result
    }

    /// One send + receive-until-xid-matches pass.
    fn attempt(&mut self, xid: u32, encoded: &[u8]) -> Result<Vec<u8>> {
        check_frame_len(encoded)?;
        self.transport.send(encoded)?;
        if let Some(frame) = self.stash.remove(&xid) {
            return Ok(frame);
        }
        loop {
            let frame = self
                .transport
                .recv()?
                .ok_or_else(|| Error::InvalidState("control channel closed".into()))?;
            let got = Frame::new_checked(frame.as_slice())?.xid();
            if got == xid {
                return Ok(frame);
            }
            // One request is outstanding at a time (&mut self), so a
            // mismatched xid is a late or duplicated reply to an earlier
            // request; keep a bounded stash in case the caller retries
            // that xid, and shed everything if it somehow grows.
            if self.stash.len() >= 1024 {
                self.stash.clear();
            }
            self.stash.insert(got, frame);
        }
    }

    /// Echo-based liveness probe: round-trips a payload under `deadline`
    /// and reports how long the peer took. [`Error::Timeout`] means the
    /// peer (or the path to it) is unresponsive; the connection itself
    /// may still be usable for a retry or reconnect decision.
    pub fn probe(&mut self, deadline: Duration) -> Result<Duration> {
        self.transport.set_deadline(Some(deadline))?;
        let started = std::time::Instant::now();
        let res = self.echo(b"liveness-probe");
        let _ = self.transport.set_deadline(None);
        let payload = res?;
        if payload != b"liveness-probe" {
            return Err(Error::InvalidState(
                "liveness probe payload mismatch".into(),
            ));
        }
        Ok(started.elapsed())
    }

    /// Exchanges hello frames, verifying the peer speaks our version.
    /// Returns the peer's identity field.
    pub fn hello(&mut self, peer: u32) -> Result<u32> {
        let reply = self.request(&Message::Hello {
            version: VERSION,
            peer,
        })?;
        match Frame::new_checked(reply.as_slice())?.message()? {
            Message::Hello { version, peer } if version == VERSION => Ok(peer),
            Message::Hello { version, .. } => Err(Error::InvalidState(format!(
                "peer speaks ctlchan version {version}, not {VERSION}"
            ))),
            other => Err(unexpected("hello", &other)),
        }
    }

    /// Round-trips an echo, returning the echoed payload.
    pub fn echo(&mut self, payload: &[u8]) -> Result<Vec<u8>> {
        let reply = self.request(&Message::EchoRequest(payload.into()))?;
        match Frame::new_checked(reply.as_slice())?.message()? {
            Message::EchoReply(p) => Ok(p.into_owned()),
            other => Err(unexpected("echo reply", &other)),
        }
    }

    /// Sends a barrier and waits for the fence acknowledgement: when
    /// this returns, the peer has fully processed every frame this
    /// channel sent before the barrier.
    pub fn barrier(&mut self) -> Result<()> {
        let reply = self.request(&Message::BarrierRequest)?;
        match Frame::new_checked(reply.as_slice())?.message()? {
            Message::BarrierReply => Ok(()),
            other => Err(unexpected("barrier reply", &other)),
        }
    }

    /// Polls the peer's connection counters.
    pub fn stats(&mut self) -> Result<ChannelStats> {
        let reply = self.request(&Message::StatsRequest)?;
        match Frame::new_checked(reply.as_slice())?.message()? {
            Message::StatsReply(s) => Ok(s),
            other => Err(unexpected("stats reply", &other)),
        }
    }
}

/// Refuses a frame longer than [`MAX_FRAME`] before it reaches the
/// transport: written whole, it would fail the receiver's
/// `Frame::new_checked`, and the receiver's serve loop would drop the
/// connection.
fn check_frame_len(frame: &[u8]) -> Result<()> {
    if frame.len() > MAX_FRAME {
        return Err(Error::Range(format!(
            "frame of {} bytes exceeds the {MAX_FRAME}-byte limit",
            frame.len()
        )));
    }
    Ok(())
}

/// The error for a reply of the wrong type (an error reply surfaces as
/// the error it carries instead).
pub fn unexpected(wanted: &str, got: &Message<'_>) -> Error {
    got.as_error().unwrap_or_else(|| {
        Error::InvalidState(format!(
            "expected {wanted}, got message type {}",
            got.msg_type()
        ))
    })
}

/// Runs the server end of a control channel until the peer disconnects.
///
/// Hello, echo-request, barrier-request and stats-request frames are
/// answered by the loop itself; every other message is passed to
/// `handler` along with the frame's trace context ([`TraceContext::NONE`]
/// for untraced frames), and its reply (if any) is sent back under the
/// incoming frame's xid, echoing the request's trace context. Frames are
/// processed strictly in arrival order, which is what gives the barrier
/// its fence semantics: by the time the loop reaches a barrier-request,
/// every earlier frame on this connection has been fully handled.
///
/// `served` is reported in stats replies (pass the application's request
/// counter snapshot via the closure's environment and return it here).
pub fn serve<T, F, S>(mut transport: T, mut served: S, mut handler: F) -> Result<()>
where
    T: Transport,
    F: FnMut(&Message<'_>, TraceContext) -> Option<Message<'static>>,
    S: FnMut() -> u64,
{
    let counters = transport.counters();
    // Retransmission dedup: remembers the encoded reply (or deliberate
    // non-reply) of the last DEDUP_WINDOW application requests by xid. A
    // client retry under the same xid is answered from here without
    // re-invoking the handler, so e.g. a retried flow-mod applies once.
    let mut replay: HashMap<u32, Option<Vec<u8>>> = HashMap::new();
    let mut replay_order: VecDeque<u32> = VecDeque::new();
    while let Some(raw) = transport.recv()? {
        let frame = Frame::new_checked(raw.as_slice())?;
        let xid = frame.xid();
        let ctx = frame.trace_context();
        let msg = frame.message()?;
        let is_protocol = matches!(
            msg,
            Message::Hello { .. }
                | Message::EchoRequest(_)
                | Message::BarrierRequest
                | Message::StatsRequest
        );
        if !is_protocol && xid != 0 {
            if let Some(cached) = replay.get(&xid) {
                crate::metrics::metrics().dedup_hits.inc();
                if let Some(encoded) = cached.clone() {
                    transport.send(&encoded)?;
                }
                continue;
            }
        }
        // Handling runs under a serve_frame span adopting the frame's
        // context: handler-side spans nest under it, and the whole
        // server residency becomes visible inside the client's
        // wire_rtt. No-op for untraced frames.
        let sp = Registry::global().tracer().span_in(ctx, "serve_frame");
        let reply: Option<Message<'_>> = match &msg {
            Message::Hello { version, .. } => {
                if *version != VERSION {
                    let e = Error::InvalidState(format!(
                        "peer speaks ctlchan version {version}, not {VERSION}"
                    ));
                    transport.send(&Message::from_error(&e).encode(xid))?;
                    return Err(e);
                }
                Some(Message::Hello {
                    version: VERSION,
                    peer: u32::MAX,
                })
            }
            Message::EchoRequest(p) => Some(Message::EchoReply(p.clone())),
            Message::BarrierRequest => {
                // let the handler observe the fence too (tests hook this)
                let _ = handler(&msg, sp.ctx());
                Some(Message::BarrierReply)
            }
            Message::StatsRequest => {
                let c = counters.snapshot();
                Some(Message::StatsReply(ChannelStats {
                    served: served(),
                    tx_msgs: c.tx_msgs,
                    rx_msgs: c.rx_msgs,
                    tx_bytes: c.tx_bytes,
                    rx_bytes: c.rx_bytes,
                }))
            }
            other => handler(other, sp.ctx()).map(Message::into_static),
        };
        // a reply too long for a frame goes back as the error saying so
        let encoded = reply.map(|r| {
            let frame = r.encode_traced(xid, ctx);
            match check_frame_len(&frame) {
                Ok(()) => frame,
                Err(e) => Message::from_error(&e).encode_traced(xid, ctx),
            }
        });
        drop(sp);
        if let Some(encoded) = &encoded {
            transport.send(encoded)?;
        }
        if !is_protocol && xid != 0 {
            while replay_order.len() >= DEDUP_WINDOW {
                if let Some(evicted) = replay_order.pop_front() {
                    replay.remove(&evicted);
                } else {
                    break;
                }
            }
            replay_order.push_back(xid);
            replay.insert(xid, encoded);
        }
    }
    Ok(())
}

impl Message<'_> {
    /// Converts any borrowed payloads to owned, detaching the message
    /// from its frame buffer.
    pub fn into_static(self) -> Message<'static> {
        match self {
            Message::EchoRequest(p) => Message::EchoRequest(p.into_owned().into()),
            Message::EchoReply(p) => Message::EchoReply(p.into_owned().into()),
            Message::Error { code, message } => Message::Error {
                code,
                message: message.into_owned().into(),
            },
            Message::Hello { version, peer } => Message::Hello { version, peer },
            Message::PacketIn(pi) => Message::PacketIn(pi),
            Message::ClassifierReply { record, classifier } => {
                Message::ClassifierReply { record, classifier }
            }
            Message::FlowModBatch { shard, seq, groups } => {
                Message::FlowModBatch { shard, seq, groups }
            }
            Message::BarrierRequest => Message::BarrierRequest,
            Message::BarrierReply => Message::BarrierReply,
            Message::StatsRequest => Message::StatsRequest,
            Message::StatsReply(s) => Message::StatsReply(s),
            Message::Replicate {
                origin,
                epoch,
                index,
                commit,
                payload,
            } => Message::Replicate {
                origin,
                epoch,
                index,
                commit,
                payload: payload.into_owned().into(),
            },
            Message::ReplicateAck { epoch, accepted } => Message::ReplicateAck { epoch, accepted },
            Message::EpochChange { epoch, live } => Message::EpochChange { epoch, live },
            Message::SnapshotTransfer { epoch, payload } => Message::SnapshotTransfer {
                epoch,
                payload: payload.into_owned().into(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::PacketIn;
    use crate::transport::loopback_pair;

    #[test]
    fn hello_echo_stats_round_trip() {
        let (client_end, server_end) = loopback_pair();
        let server = std::thread::spawn(move || {
            serve(server_end, || 7, |_msg, _ctx| None).unwrap();
        });
        let mut chan = CtlChannel::new(client_end);
        assert_eq!(chan.hello(3).unwrap(), u32::MAX);
        assert_eq!(chan.echo(b"liveness").unwrap(), b"liveness");
        let stats = chan.stats().unwrap();
        assert_eq!(stats.served, 7);
        assert_eq!(stats.rx_msgs, 3, "hello + echo + stats received");
        drop(chan);
        server.join().unwrap();
    }

    #[test]
    fn error_replies_surface_as_errors() {
        let (client_end, server_end) = loopback_pair();
        let server = std::thread::spawn(move || {
            serve(
                server_end,
                || 0,
                |_msg, _ctx| Some(Message::from_error(&Error::NotFound("nope".into()))),
            )
            .unwrap();
        });
        let mut chan = CtlChannel::new(client_end);
        let reply = chan
            .request(&Message::PacketIn(PacketIn::Detach {
                imsi: softcell_types::UeImsi(9),
            }))
            .unwrap();
        let msg = Frame::new_checked(reply.as_slice()).unwrap();
        let err = msg.message().unwrap().as_error().unwrap();
        assert_eq!(err, Error::NotFound("nope".into()));
        drop(chan);
        server.join().unwrap();
    }

    #[test]
    fn oversized_frames_are_refused_and_the_channel_survives() {
        let (client_end, server_end) = loopback_pair();
        let server = std::thread::spawn(move || {
            serve(
                server_end,
                || 0,
                |msg, _ctx| match msg {
                    // a reply too long for a frame
                    Message::PacketIn(_) => Some(Message::EchoReply(vec![0; MAX_FRAME].into())),
                    _ => None,
                },
            )
            .unwrap();
        });
        let mut chan = CtlChannel::new(client_end);
        let err = chan.echo(&vec![0; MAX_FRAME]).unwrap_err();
        assert!(matches!(err, Error::Range(_)), "got {err}");
        assert_eq!(chan.echo(b"still up").unwrap(), b"still up");

        let reply = chan
            .request(&Message::PacketIn(PacketIn::Detach {
                imsi: softcell_types::UeImsi(1),
            }))
            .unwrap();
        let err = Frame::new_checked(reply.as_slice())
            .unwrap()
            .message()
            .unwrap()
            .as_error();
        assert!(matches!(err, Some(Error::Range(_))), "got {err:?}");
        assert_eq!(chan.echo(b"still up").unwrap(), b"still up");
        drop(chan);
        server.join().unwrap();
    }

    #[test]
    fn probe_measures_liveness_and_times_out_when_dead() {
        let (client_end, server_end) = loopback_pair();
        let server = std::thread::spawn(move || {
            let _ = serve(server_end, || 0, |_msg, _ctx| None);
        });
        let mut chan = CtlChannel::new(client_end);
        let rtt = chan.probe(Duration::from_secs(1)).unwrap();
        assert!(rtt < Duration::from_secs(1));
        drop(chan);
        server.join().unwrap();

        // a peer that never answers: probe fails with a timeout instead
        // of blocking forever
        let (client_end, _server_end) = loopback_pair();
        let mut chan = CtlChannel::new(client_end);
        let err = chan.probe(Duration::from_millis(30)).unwrap_err();
        assert!(err.is_timeout(), "got {err}");
    }

    #[test]
    fn retry_recovers_from_drops_and_server_applies_once() {
        use crate::transport::{FaultConfig, FaultTransport};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let (client_end, server_end) = loopback_pair();
        let applied = Arc::new(AtomicU64::new(0));
        let applied_in_handler = Arc::clone(&applied);
        let server = std::thread::spawn(move || {
            let _ = serve(
                server_end,
                || 0,
                move |msg, _ctx| {
                    if matches!(msg, Message::PacketIn(_)) {
                        applied_in_handler.fetch_add(1, Ordering::SeqCst);
                    }
                    Some(Message::BarrierReply)
                },
            );
        });
        // drop, duplicate and delay what the client sends: requests need
        // retries and arrive multiple times, yet each must be applied
        // exactly once server-side
        let faulty = FaultTransport::new(
            client_end,
            FaultConfig {
                seed: 7,
                drop: 0.4,
                duplicate: 0.3,
                delay: 0.2,
                ..FaultConfig::default()
            },
        );
        let mut chan = CtlChannel::new(faulty);
        let policy = RetryPolicy {
            attempt_timeout: Duration::from_millis(40),
            max_retries: 10,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
        };
        let requests = 20;
        for i in 0..requests {
            let reply = chan
                .request_with_retry(
                    &Message::PacketIn(crate::codec::PacketIn::Detach {
                        imsi: softcell_types::UeImsi(i),
                    }),
                    &policy,
                )
                .unwrap();
            let frame = Frame::new_checked(reply.as_slice()).unwrap();
            assert_eq!(frame.message().unwrap(), Message::BarrierReply);
        }
        let dropped = chan.transport().fault_stats().dropped;
        assert!(dropped > 0, "fault schedule never fired");
        assert_eq!(
            applied.load(Ordering::SeqCst),
            requests,
            "retries must not re-apply requests (xid dedup)"
        );
        drop(chan);
        server.join().unwrap();
    }

    #[test]
    fn dedup_window_holds_the_last_xids() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        // Sends `distinct` requests under xids 1..=distinct, then
        // retransmits xid 1, and reports how many times the handler ran.
        fn run(distinct: u32) -> u64 {
            let (client_end, server_end) = loopback_pair();
            let applied = Arc::new(AtomicU64::new(0));
            let applied_in_handler = Arc::clone(&applied);
            let server = std::thread::spawn(move || {
                let _ = serve(
                    server_end,
                    || 0,
                    move |msg, _ctx| {
                        // the serve loop shows barriers to the handler
                        // too; only application requests count
                        if matches!(msg, Message::PacketIn(_)) {
                            applied_in_handler.fetch_add(1, Ordering::SeqCst);
                        }
                        None
                    },
                );
            });
            let mut client = client_end;
            let frame = |xid: u32| {
                Message::PacketIn(PacketIn::Detach {
                    imsi: softcell_types::UeImsi(u64::from(xid)),
                })
                .encode(xid)
            };
            for xid in 1..=distinct {
                client.send(&frame(xid)).unwrap();
            }
            // retransmission of the oldest xid, as a retrying client
            // would send after a timeout
            client.send(&frame(1)).unwrap();
            // barrier fences: everything above has been processed when
            // the reply arrives (the barrier itself is protocol-level
            // and does not count as an application request)
            let mut chan = CtlChannel::new(client);
            chan.barrier().unwrap();
            let count = applied.load(Ordering::SeqCst);
            drop(chan);
            server.join().unwrap();
            count
        }

        // Window covering the burst: the retransmission is deduped.
        assert_eq!(run(3), 3, "covered xid must be deduped");
        // A burst one larger than the window: xid 1 has been evicted by
        // the time it is retransmitted, so the handler re-runs.
        let burst = DEDUP_WINDOW as u32 + 1;
        assert_eq!(
            run(burst),
            u64::from(burst) + 1,
            "evicted xid must re-apply"
        );
    }

    #[test]
    fn retry_gives_up_after_budget() {
        let (client_end, _server_end) = loopback_pair();
        let mut chan = CtlChannel::new(client_end);
        let policy = RetryPolicy {
            attempt_timeout: Duration::from_millis(10),
            max_retries: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
        };
        let err = chan
            .request_with_retry(&Message::BarrierRequest, &policy)
            .unwrap_err();
        assert!(err.is_timeout(), "got {err}");
    }
}
