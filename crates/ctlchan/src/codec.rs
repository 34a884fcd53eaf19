//! Wire format: frames and messages.
//!
//! Every control-channel exchange is one *frame*: a fixed 12-byte header
//! followed by a message-type-specific payload. The header mirrors
//! OpenFlow's `ofp_header` (version, type, length, transaction id) with a
//! 32-bit length so classifier and flow-mod batches are not capped at
//! 64 KB:
//!
//! ```text
//!  0        1        2                 4                 8                12
//! +--------+--------+-----------------+-----------------+----------------+
//! | version| type   | reserved (0)    | length (u32 BE) | xid (u32 BE)   |
//! +--------+--------+-----------------+-----------------+----------------+
//! | payload ... (length - 12 bytes)                                      |
//! ```
//!
//! `length` covers the whole frame including the header. The `xid`
//! correlates replies with requests: a reply always carries the xid of
//! the request it answers; unsolicited messages (flow-mod pushes) use
//! xid 0.
//!
//! [`Frame`] wraps a byte buffer in the smoltcp style used by
//! `softcell-packet`: `new_checked` validates once, accessors then read
//! fixed offsets, and [`Frame::message`] decodes the payload *borrowing*
//! from the buffer — echo payloads and error strings are zero-copy
//! (`Cow::Borrowed`) on the decode path.

use std::borrow::Cow;
use std::net::Ipv4Addr;

use softcell_packet::Protocol;
use softcell_policy::clause::{AccessControl, ClauseId, QosClass};
use softcell_policy::{ApplicationType, ClassifierEntry};
use softcell_telemetry::TraceContext;
use softcell_types::{BaseStationId, Error, PolicyTag, PortNo, Result, SimTime, UeId, UeImsi};

/// Protocol version this crate speaks.
pub const VERSION: u8 = 1;

/// Frame header length in bytes.
pub const HEADER_LEN: usize = 12;

/// Upper bound on a frame (sanity check against corrupt length fields).
pub const MAX_FRAME: usize = 1 << 20;

/// Flag bit in the reserved header bytes: the frame carries a 16-byte
/// trace-context trailer after the payload (see [`Frame::trace_context`]).
/// Untraced frames keep reserved = 0, byte-identical to version 1
/// without tracing; receivers ignore unknown flag bits.
pub const FLAG_TRACED: u16 = 0x8000;

/// Length of the trace-context trailer: trace id (u64 BE) then parent
/// span id (u64 BE).
pub const TRACE_TRAILER_LEN: usize = 16;

/// Field offsets within the frame header.
pub(crate) mod field {
    pub const VERSION: usize = 0;
    pub const MSG_TYPE: usize = 1;
    pub const RESERVED: std::ops::Range<usize> = 2..4;
    pub const LENGTH: std::ops::Range<usize> = 4..8;
    pub const XID: std::ops::Range<usize> = 8..12;
}

/// The frame length a header declares, once its version and the
/// `HEADER_LEN..=MAX_FRAME` range have checked out. The stream reader
/// sizes its buffer by this and nothing earlier.
pub(crate) fn checked_frame_len(header: &[u8]) -> Result<usize> {
    let version = header_u8(header, field::VERSION)?;
    if version != VERSION {
        return Err(Error::Malformed(format!(
            "ctlchan version {version} != {VERSION}"
        )));
    }
    let len = header_u32(header, field::LENGTH)? as usize;
    if !(HEADER_LEN..=MAX_FRAME).contains(&len) {
        return Err(Error::Malformed(format!("frame length {len} out of range")));
    }
    Ok(len)
}

/// A control-channel frame backed by a byte buffer.
#[derive(Clone, PartialEq, Eq)]
pub struct Frame<T: AsRef<[u8]>> {
    buffer: T,
}

/// Bounds-checked header field reads: a short buffer surfaces as
/// `Error::Malformed`, never a panic (wire-panic invariant, DESIGN.md §12).
fn header_u8(d: &[u8], i: usize) -> Result<u8> {
    d.get(i)
        .copied()
        .ok_or_else(|| Error::Malformed(format!("header truncated at byte {i}")))
}

fn header_u32(d: &[u8], r: std::ops::Range<usize>) -> Result<u32> {
    d.get(r.clone())
        .and_then(|b| b.try_into().ok())
        .map(u32::from_be_bytes)
        .ok_or_else(|| Error::Malformed(format!("header truncated at bytes {r:?}")))
}

/// `Reader::take(n)` returned a slice of the wrong width — impossible
/// by construction, but decode paths return errors rather than trust it.
fn width_err(what: &'static str) -> Error {
    Error::Malformed(format!("internal reader width mismatch decoding {what}"))
}

impl<T: AsRef<[u8]>> Frame<T> {
    /// Wraps a buffer without validation. Use on buffers this code just
    /// emitted.
    pub const fn new_unchecked(buffer: T) -> Self {
        Frame { buffer }
    }

    /// Wraps and validates a buffer: header present, version supported,
    /// length field consistent with the buffer.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let frame = Frame { buffer };
        frame.check()?;
        Ok(frame)
    }

    fn check(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(Error::Malformed(format!(
                "buffer {} bytes < {HEADER_LEN}-byte ctlchan header",
                data.len()
            )));
        }
        let len = checked_frame_len(data)?;
        if len != data.len() {
            return Err(Error::Malformed(format!(
                "frame length {len} != buffer {}",
                data.len()
            )));
        }
        let flags = data
            .get(field::RESERVED)
            .and_then(|b| b.try_into().ok())
            .map(u16::from_be_bytes)
            .unwrap_or(0);
        if flags & FLAG_TRACED != 0 && len < HEADER_LEN + TRACE_TRAILER_LEN {
            return Err(Error::Malformed(format!(
                "traced frame length {len} too short for {TRACE_TRAILER_LEN}-byte trailer"
            )));
        }
        Ok(())
    }

    /// Consumes the wrapper, returning the buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Protocol version byte.
    pub fn version(&self) -> u8 {
        // softcell-lint: allow(wire-panic) -- header length validated by new_checked
        self.buffer.as_ref()[field::VERSION]
    }

    /// Message type code.
    pub fn msg_type(&self) -> u8 {
        // softcell-lint: allow(wire-panic) -- header length validated by new_checked
        self.buffer.as_ref()[field::MSG_TYPE]
    }

    /// The reserved header bytes, now a flag word. Senders write zero
    /// unless a defined flag applies ([`FLAG_TRACED`]); receivers must
    /// ignore unknown bits (room for future flags without a version
    /// bump).
    pub fn reserved(&self) -> u16 {
        // softcell-lint: allow(wire-panic) -- header length validated by new_checked
        let b = &self.buffer.as_ref()[field::RESERVED];
        // softcell-lint: allow(wire-panic) -- RESERVED is a fixed 2-byte header range
        u16::from_be_bytes([b[0], b[1]])
    }

    /// Whether the frame carries a trace-context trailer.
    pub fn is_traced(&self) -> bool {
        self.reserved() & FLAG_TRACED != 0
    }

    /// The trace context from the trailer, or [`TraceContext::NONE`]
    /// for untraced frames.
    pub fn trace_context(&self) -> TraceContext {
        if !self.is_traced() {
            return TraceContext::NONE;
        }
        let d = self.buffer.as_ref();
        let Some(tail) = d
            .len()
            .checked_sub(TRACE_TRAILER_LEN)
            .filter(|&s| s >= HEADER_LEN)
            .and_then(|s| d.get(s..))
        else {
            return TraceContext::NONE;
        };
        let word = |r: std::ops::Range<usize>| {
            tail.get(r)
                .and_then(|b| b.try_into().ok())
                .map(u64::from_be_bytes)
                .unwrap_or(0)
        };
        TraceContext {
            trace_id: word(0..8),
            parent: word(8..16),
        }
    }

    /// Total frame length from the header.
    pub fn total_len(&self) -> usize {
        let d = self.buffer.as_ref();
        header_u32(d, field::LENGTH).unwrap_or(0) as usize
    }

    /// Transaction id.
    pub fn xid(&self) -> u32 {
        let d = self.buffer.as_ref();
        header_u32(d, field::XID).unwrap_or(0)
    }

    /// The message payload after the header, excluding the
    /// trace-context trailer when present.
    pub fn payload(&self) -> &[u8] {
        let d = self.buffer.as_ref();
        let end = if self.is_traced() {
            d.len().saturating_sub(TRACE_TRAILER_LEN).max(HEADER_LEN)
        } else {
            d.len()
        };
        d.get(HEADER_LEN..end).unwrap_or(&[])
    }

    /// Decodes the payload into a [`Message`] borrowing from the buffer.
    pub fn message(&self) -> Result<Message<'_>> {
        Message::parse(self.msg_type(), self.payload())
    }
}

impl<T: AsRef<[u8]>> std::fmt::Debug for Frame<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Frame {{ v{}, type {}, len {}, xid {} }}",
            self.version(),
            self.msg_type(),
            self.total_len(),
            self.xid()
        )
    }
}

/// Message type codes (the header's `type` byte).
pub mod msg_type {
    /// Version negotiation, first frame in each direction.
    pub const HELLO: u8 = 0;
    /// Liveness probe.
    pub const ECHO_REQUEST: u8 = 1;
    /// Liveness answer, echoing the request payload.
    pub const ECHO_REPLY: u8 = 2;
    /// Request failed; carries a structured error.
    pub const ERROR: u8 = 3;
    /// Agent → controller event (attach, path request, detach).
    pub const PACKET_IN: u8 = 4;
    /// Controller → agent: UE record plus optional packet classifier.
    pub const CLASSIFIER_REPLY: u8 = 5;
    /// Retired (was the unticketed flow-mod batch; every flow-mod now
    /// travels as [`FLOW_MOD_BATCH`]). The number stays reserved so it is
    /// never reassigned; a type-6 frame decodes to `Error::Malformed`
    /// like any unknown type.
    pub const FLOW_MOD: u8 = 6;
    /// Fence: process everything before this, then reply.
    pub const BARRIER_REQUEST: u8 = 7;
    /// The fence acknowledgement.
    pub const BARRIER_REPLY: u8 = 8;
    /// Ask the peer for its connection counters.
    pub const STATS_REQUEST: u8 = 9;
    /// The counters.
    pub const STATS_REPLY: u8 = 10;
    /// Controller → agent: barrier-delimited per-station groups of
    /// tag-cache programming entries from one sharded-controller ticket.
    pub const FLOW_MOD_BATCH: u8 = 11;
    /// Controller → controller: one replicated-log record shipped for
    /// quorum acknowledgement.
    pub const REPLICATE: u8 = 12;
    /// Controller → controller: the per-record acknowledgement.
    pub const REPLICATE_ACK: u8 = 13;
    /// Controller → controller: a membership/epoch view, pushed on
    /// failover; the reply echoes the receiver's (possibly newer) view.
    pub const EPOCH_CHANGE: u8 = 14;
    /// Controller → controller: a full-state snapshot for a peer that
    /// has fallen off the tail of the log.
    pub const SNAPSHOT_TRANSFER: u8 = 15;
}

/// Wire form of an [`Error`]: a category code plus the message text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// [`Error::Config`]
    Config,
    /// [`Error::Range`]
    Range,
    /// [`Error::Parse`]
    Parse,
    /// [`Error::Exhausted`]
    Exhausted,
    /// [`Error::NotFound`]
    NotFound,
    /// [`Error::InvalidState`]
    InvalidState,
    /// [`Error::Malformed`]
    Malformed,
    /// [`Error::NoPath`]
    NoPath,
    /// [`Error::Timeout`]
    Timeout,
}

impl ErrorCode {
    /// The category of an error.
    pub fn of(e: &Error) -> ErrorCode {
        match e {
            Error::Config(_) => ErrorCode::Config,
            Error::Range(_) => ErrorCode::Range,
            Error::Parse(_) => ErrorCode::Parse,
            Error::Exhausted(_) => ErrorCode::Exhausted,
            Error::NotFound(_) => ErrorCode::NotFound,
            Error::InvalidState(_) => ErrorCode::InvalidState,
            Error::Malformed(_) => ErrorCode::Malformed,
            Error::NoPath(_) => ErrorCode::NoPath,
            Error::Timeout(_) => ErrorCode::Timeout,
        }
    }

    /// Reconstructs the [`Error`] this code and message describe.
    pub fn to_error(self, message: &str) -> Error {
        let m = message.to_string();
        match self {
            ErrorCode::Config => Error::Config(m),
            ErrorCode::Range => Error::Range(m),
            ErrorCode::Parse => Error::Parse(m),
            ErrorCode::Exhausted => Error::Exhausted(m),
            ErrorCode::NotFound => Error::NotFound(m),
            ErrorCode::InvalidState => Error::InvalidState(m),
            ErrorCode::Malformed => Error::Malformed(m),
            ErrorCode::NoPath => Error::NoPath(m),
            ErrorCode::Timeout => Error::Timeout(m),
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Config => 0,
            ErrorCode::Range => 1,
            ErrorCode::Parse => 2,
            ErrorCode::Exhausted => 3,
            ErrorCode::NotFound => 4,
            ErrorCode::InvalidState => 5,
            ErrorCode::Malformed => 6,
            ErrorCode::NoPath => 7,
            ErrorCode::Timeout => 8,
        }
    }

    fn from_u8(v: u8) -> Result<ErrorCode> {
        Ok(match v {
            0 => ErrorCode::Config,
            1 => ErrorCode::Range,
            2 => ErrorCode::Parse,
            3 => ErrorCode::Exhausted,
            4 => ErrorCode::NotFound,
            5 => ErrorCode::InvalidState,
            6 => ErrorCode::Malformed,
            7 => ErrorCode::NoPath,
            8 => ErrorCode::Timeout,
            _ => return Err(Error::Malformed(format!("unknown error code {v}"))),
        })
    }
}

/// An agent → controller event (OpenFlow's packet-in, specialized to the
/// three punts a SoftCell agent makes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketIn {
    /// A UE attached at this agent's station.
    Attach {
        /// Subscriber identity.
        imsi: UeImsi,
        /// The station it attached at.
        bs: BaseStationId,
        /// The local id the agent assigned.
        ue_id: UeId,
        /// Attach time.
        now: SimTime,
    },
    /// Tag-cache miss: the first flow of a clause at this station.
    PathRequest {
        /// Origin station.
        bs: BaseStationId,
        /// The governing clause.
        clause: ClauseId,
    },
    /// A UE detached.
    Detach {
        /// Subscriber identity.
        imsi: UeImsi,
    },
}

impl PacketIn {
    /// Appends the body of a `PACKET_IN` frame (and of a replica log
    /// record's op): reason 0 / 1 / 2, then the fields big-endian.
    #[inline]
    pub fn write_to(&self, out: &mut Vec<u8>) {
        match *self {
            PacketIn::Attach {
                imsi,
                bs,
                ue_id,
                now,
            } => {
                out.push(0);
                out.extend_from_slice(&imsi.0.to_be_bytes());
                out.extend_from_slice(&bs.0.to_be_bytes());
                out.extend_from_slice(&ue_id.0.to_be_bytes());
                out.extend_from_slice(&now.0.to_be_bytes());
            }
            PacketIn::PathRequest { bs, clause } => {
                out.push(1);
                out.extend_from_slice(&bs.0.to_be_bytes());
                out.extend_from_slice(&clause.0.to_be_bytes());
            }
            PacketIn::Detach { imsi } => {
                out.push(2);
                out.extend_from_slice(&imsi.0.to_be_bytes());
            }
        }
    }

    /// Reads a [`write_to`](Self::write_to) body off the front of `buf`:
    /// it and the bytes it used, or [`Error::Malformed`].
    pub fn read_prefix(buf: &[u8]) -> Result<(PacketIn, usize)> {
        let mut r = Reader::new(buf);
        let pi = r.packet_in()?;
        Ok((pi, r.pos))
    }
}

/// Wire form of a controller-side UE record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireUeRecord {
    /// Subscriber identity.
    pub imsi: UeImsi,
    /// Permanent (DHCP) address.
    pub permanent_ip: Ipv4Addr,
    /// Current base station.
    pub bs: BaseStationId,
    /// Local UE id there.
    pub ue_id: UeId,
    /// When the UE last attached or moved.
    pub since: SimTime,
}

/// Wire form of the tags realizing one (clause, station) policy path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WirePathTags {
    /// Tag embedded in the uplink source port at the access edge.
    pub uplink_entry: PolicyTag,
    /// Tag on the packet when it exits the gateway.
    pub uplink_exit: PolicyTag,
    /// Tag arriving back at the access switch on the downlink.
    pub downlink_final: PolicyTag,
    /// First-hop output port of the uplink microflow rule.
    pub access_out_port: PortNo,
    /// QoS class of the governing clause, if any.
    pub qos: Option<QosClass>,
}

/// One tag-cache programming entry: "flows of `clause` at `bs` use these
/// tags". The controller pushes these in reply to path requests (and may
/// batch proactive entries).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireFlowMod {
    /// The station whose tag cache this programs.
    pub bs: BaseStationId,
    /// The clause.
    pub clause: ClauseId,
    /// The tags.
    pub tags: WirePathTags,
}

/// One station's slice of a flow-mod batch: the entries programming
/// that station's tag cache, with a barrier bit fencing the group — the
/// receiver must finish applying the group's entries before touching
/// anything that follows. Mirrors the controller's per-switch
/// `SwitchBatch` emission: entries for one station are in controller
/// order, so the trailing barrier is sufficient for consistency (see
/// `softcell-controller::ops::batch_by_switch`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireBatchGroup {
    /// The station whose tag cache this group programs.
    pub bs: BaseStationId,
    /// Fence after this group.
    pub barrier: bool,
    /// The entries, in controller emission order.
    pub mods: Vec<WireFlowMod>,
}

/// Wire form of a per-UE packet classifier.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct WireClassifier {
    /// Signature entries.
    pub entries: Vec<ClassifierEntry>,
    /// Fallback clause for unrecognized flows.
    pub fallback: Option<(ClauseId, AccessControl)>,
}

/// Connection counters as carried by a stats reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ChannelStats {
    /// Application-level requests served (controller side; 0 for agents).
    pub served: u64,
    /// Frames sent by the replying peer.
    pub tx_msgs: u64,
    /// Frames received by the replying peer.
    pub rx_msgs: u64,
    /// Bytes sent.
    pub tx_bytes: u64,
    /// Bytes received.
    pub rx_bytes: u64,
}

/// A decoded control-channel message. Byte and string payloads borrow
/// from the frame on decode (`Cow::Borrowed`) and own their data when
/// built for sending (`Cow::Owned`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message<'a> {
    /// Version negotiation; `peer` identifies the sender (base-station id
    /// for agents, `u32::MAX` for the controller).
    Hello {
        /// Highest protocol version the sender speaks.
        version: u8,
        /// Sender identity.
        peer: u32,
    },
    /// Liveness probe with an arbitrary payload.
    EchoRequest(Cow<'a, [u8]>),
    /// Echoes the probe payload back.
    EchoReply(Cow<'a, [u8]>),
    /// A failed request: category plus message text.
    Error {
        /// Error category.
        code: ErrorCode,
        /// Human-readable detail.
        message: Cow<'a, str>,
    },
    /// Agent → controller event.
    PacketIn(PacketIn),
    /// Controller → agent: the record (and, for attaches, the compiled
    /// classifier) answering a packet-in.
    ClassifierReply {
        /// The controller-side UE record.
        record: WireUeRecord,
        /// The compiled classifier (absent on detach replies).
        classifier: Option<WireClassifier>,
    },
    /// Ticket-stamped, barrier-delimited per-station groups of
    /// tag-cache entries emitted by one sharded-controller ticket.
    /// `(shard, seq)` orders batches globally: receivers apply batches
    /// in ascending `seq` regardless of which shard's worker sent them.
    FlowModBatch {
        /// Worker shard that emitted the batch.
        shard: u16,
        /// Global ticket number of the coordinated event.
        seq: u32,
        /// Per-station groups in emission order.
        groups: Vec<WireBatchGroup>,
    },
    /// Fence request.
    BarrierRequest,
    /// Fence acknowledgement.
    BarrierReply,
    /// Counter poll.
    StatsRequest,
    /// Counter answer.
    StatsReply(ChannelStats),
    /// Controller → controller: one replicated-log record. The payload
    /// is opaque to this crate (the replica layer defines the encoding:
    /// the record behind the entry it follows); this frame carries the
    /// ordering metadata peers need to accept or reject the record.
    Replicate {
        /// Seat of the leader that appended the record.
        origin: u32,
        /// The sender's *current* epoch (fencing key). The payload
        /// record carries the epoch it was appended under, which may
        /// trail this after the leader survived an epoch change.
        epoch: u64,
        /// Position in the log (1-based, dense).
        index: u64,
        /// The leader's commit index, piggybacked so followers can
        /// advance theirs without extra round trips.
        commit: u64,
        /// Encoded log entries (zero-copy on decode).
        payload: Cow<'a, [u8]>,
    },
    /// The answer to a [`Message::Replicate`]: accepted, or rejected
    /// with the receiver's view so the sender can fence or catch the
    /// receiver up.
    ReplicateAck {
        /// The acknowledging controller's current epoch.
        epoch: u64,
        /// Whether the record was accepted and applied.
        accepted: bool,
    },
    /// A membership view push. Requests and replies share this shape:
    /// the reply carries the receiver's view after merging, which is
    /// the sender's view unless the receiver already knew a newer one.
    EpochChange {
        /// The view's epoch.
        epoch: u64,
        /// Per-seat liveness flags, seat order (ring size = length).
        live: Vec<bool>,
    },
    /// A replicated log: the state its compacted prefix replays to, and
    /// the entries after it. The receiver adopts it if it is more up to
    /// date than its own, and otherwise replies with this same frame
    /// carrying its own log. Sent when a follower cannot append a
    /// record, and during fail-over convergence.
    SnapshotTransfer {
        /// The sender's epoch (fencing key).
        epoch: u64,
        /// Encoded log (opaque to this crate).
        payload: Cow<'a, [u8]>,
    },
}

impl Message<'_> {
    /// The header type code of this message.
    pub fn msg_type(&self) -> u8 {
        match self {
            Message::Hello { .. } => msg_type::HELLO,
            Message::EchoRequest(_) => msg_type::ECHO_REQUEST,
            Message::EchoReply(_) => msg_type::ECHO_REPLY,
            Message::Error { .. } => msg_type::ERROR,
            Message::PacketIn(_) => msg_type::PACKET_IN,
            Message::ClassifierReply { .. } => msg_type::CLASSIFIER_REPLY,
            Message::FlowModBatch { .. } => msg_type::FLOW_MOD_BATCH,
            Message::BarrierRequest => msg_type::BARRIER_REQUEST,
            Message::BarrierReply => msg_type::BARRIER_REPLY,
            Message::StatsRequest => msg_type::STATS_REQUEST,
            Message::StatsReply(_) => msg_type::STATS_REPLY,
            Message::Replicate { .. } => msg_type::REPLICATE,
            Message::ReplicateAck { .. } => msg_type::REPLICATE_ACK,
            Message::EpochChange { .. } => msg_type::EPOCH_CHANGE,
            Message::SnapshotTransfer { .. } => msg_type::SNAPSHOT_TRANSFER,
        }
    }

    /// Builds the error message reporting `e`. Only the detail text goes
    /// on the wire — the category travels as the code, so decoding
    /// reconstructs the identical [`Error`].
    pub fn from_error(e: &Error) -> Message<'static> {
        let detail = match e {
            Error::Config(m)
            | Error::Range(m)
            | Error::Parse(m)
            | Error::Exhausted(m)
            | Error::NotFound(m)
            | Error::InvalidState(m)
            | Error::Malformed(m)
            | Error::NoPath(m)
            | Error::Timeout(m) => m,
        };
        Message::Error {
            code: ErrorCode::of(e),
            message: Cow::Owned(detail.clone()),
        }
    }

    /// If this is an error message, the [`Error`] it carries.
    pub fn as_error(&self) -> Option<Error> {
        match self {
            Message::Error { code, message } => Some(code.to_error(message)),
            _ => None,
        }
    }

    /// Encodes the message as a complete frame with the given xid.
    pub fn encode(&self, xid: u32) -> Vec<u8> {
        let mut w = Writer::frame(self.msg_type(), xid);
        match self {
            Message::Hello { version, peer } => {
                w.u8(*version);
                w.u32(*peer);
            }
            Message::EchoRequest(p) | Message::EchoReply(p) => w.bytes(p),
            Message::Error { code, message } => {
                w.u8(code.to_u8());
                w.str16(message);
            }
            Message::PacketIn(pi) => pi.write_to(&mut w.buf),
            Message::ClassifierReply { record, classifier } => {
                w.record(record);
                match classifier {
                    Some(c) => {
                        w.u8(1);
                        w.classifier(c);
                    }
                    None => w.u8(0),
                }
            }
            Message::FlowModBatch { shard, seq, groups } => {
                debug_assert!(
                    groups.len() <= u16::MAX as usize,
                    "batch has too many groups"
                );
                w.u16(*shard);
                w.u32(*seq);
                w.u16(groups.len() as u16);
                for g in groups {
                    debug_assert!(g.mods.len() <= u16::MAX as usize, "group too large");
                    w.u32(g.bs.0);
                    w.u8(u8::from(g.barrier));
                    w.u16(g.mods.len() as u16);
                    for m in &g.mods {
                        w.u32(m.bs.0);
                        w.u16(m.clause.0);
                        w.tags(&m.tags);
                    }
                }
            }
            Message::BarrierRequest | Message::BarrierReply | Message::StatsRequest => {}
            Message::StatsReply(s) => {
                w.u64(s.served);
                w.u64(s.tx_msgs);
                w.u64(s.rx_msgs);
                w.u64(s.tx_bytes);
                w.u64(s.rx_bytes);
            }
            Message::Replicate {
                origin,
                epoch,
                index,
                commit,
                payload,
            } => {
                debug_assert!(payload.len() <= u32::MAX as usize, "record too large");
                w.u32(*origin);
                w.u64(*epoch);
                w.u64(*index);
                w.u64(*commit);
                w.u32(payload.len() as u32);
                w.bytes(payload);
            }
            Message::ReplicateAck { epoch, accepted } => {
                w.u64(*epoch);
                w.u8(u8::from(*accepted));
            }
            Message::EpochChange { epoch, live } => {
                debug_assert!(live.len() <= u16::MAX as usize, "ring too large");
                w.u64(*epoch);
                w.u16(live.len() as u16);
                for l in live {
                    w.u8(u8::from(*l));
                }
            }
            Message::SnapshotTransfer { epoch, payload } => {
                debug_assert!(payload.len() <= u32::MAX as usize, "snapshot too large");
                w.u64(*epoch);
                w.u32(payload.len() as u32);
                w.bytes(payload);
            }
        }
        w.finish()
    }

    /// Encodes the message as a complete frame carrying `ctx` in a
    /// trace-context trailer. An inactive context yields the exact
    /// bytes of [`Message::encode`] — untraced peers see no change.
    pub fn encode_traced(&self, xid: u32, ctx: TraceContext) -> Vec<u8> {
        let mut buf = self.encode(xid);
        if !ctx.is_active() {
            return buf;
        }
        buf.extend_from_slice(&ctx.trace_id.to_be_bytes());
        buf.extend_from_slice(&ctx.parent.to_be_bytes());
        buf[field::RESERVED].copy_from_slice(&FLAG_TRACED.to_be_bytes());
        let len = buf.len() as u32;
        buf[field::LENGTH].copy_from_slice(&len.to_be_bytes());
        buf
    }

    /// Decodes a payload of the given type. The returned message borrows
    /// byte and string payloads from `payload`.
    pub fn parse(kind: u8, payload: &[u8]) -> Result<Message<'_>> {
        let mut r = Reader::new(payload);
        let msg = match kind {
            msg_type::HELLO => Message::Hello {
                version: r.u8()?,
                peer: r.u32()?,
            },
            msg_type::ECHO_REQUEST => return Ok(Message::EchoRequest(Cow::Borrowed(payload))),
            msg_type::ECHO_REPLY => return Ok(Message::EchoReply(Cow::Borrowed(payload))),
            msg_type::ERROR => Message::Error {
                code: ErrorCode::from_u8(r.u8()?)?,
                message: Cow::Borrowed(r.str16()?),
            },
            msg_type::PACKET_IN => Message::PacketIn(r.packet_in()?),
            msg_type::CLASSIFIER_REPLY => {
                let record = r.record()?;
                let classifier = match r.u8()? {
                    0 => None,
                    1 => Some(r.classifier()?),
                    other => {
                        return Err(Error::Malformed(format!("classifier-present flag {other}")))
                    }
                };
                Message::ClassifierReply { record, classifier }
            }
            msg_type::FLOW_MOD_BATCH => {
                let shard = r.u16()?;
                let seq = r.u32()?;
                let n_groups = r.u16()? as usize;
                let mut groups = Vec::with_capacity(n_groups.min(1024));
                for _ in 0..n_groups {
                    let bs = BaseStationId(r.u32()?);
                    let barrier = match r.u8()? {
                        0 => false,
                        1 => true,
                        other => return Err(Error::Malformed(format!("barrier flag {other}"))),
                    };
                    let n_mods = r.u16()? as usize;
                    let mut mods = Vec::with_capacity(n_mods.min(1024));
                    for _ in 0..n_mods {
                        mods.push(WireFlowMod {
                            bs: BaseStationId(r.u32()?),
                            clause: ClauseId(r.u16()?),
                            tags: r.tags()?,
                        });
                    }
                    groups.push(WireBatchGroup { bs, barrier, mods });
                }
                Message::FlowModBatch { shard, seq, groups }
            }
            msg_type::BARRIER_REQUEST => Message::BarrierRequest,
            msg_type::BARRIER_REPLY => Message::BarrierReply,
            msg_type::STATS_REQUEST => Message::StatsRequest,
            msg_type::STATS_REPLY => Message::StatsReply(ChannelStats {
                served: r.u64()?,
                tx_msgs: r.u64()?,
                rx_msgs: r.u64()?,
                tx_bytes: r.u64()?,
                rx_bytes: r.u64()?,
            }),
            msg_type::REPLICATE => {
                let origin = r.u32()?;
                let epoch = r.u64()?;
                let index = r.u64()?;
                let commit = r.u64()?;
                let len = r.u32()? as usize;
                let payload = Cow::Borrowed(r.take(len)?);
                Message::Replicate {
                    origin,
                    epoch,
                    index,
                    commit,
                    payload,
                }
            }
            msg_type::REPLICATE_ACK => {
                let epoch = r.u64()?;
                let accepted = match r.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(Error::Malformed(format!("accepted flag {other}"))),
                };
                Message::ReplicateAck { epoch, accepted }
            }
            msg_type::EPOCH_CHANGE => {
                let epoch = r.u64()?;
                let seats = r.u16()? as usize;
                let mut live = Vec::with_capacity(seats.min(1024));
                for _ in 0..seats {
                    live.push(match r.u8()? {
                        0 => false,
                        1 => true,
                        other => return Err(Error::Malformed(format!("live flag {other}"))),
                    });
                }
                Message::EpochChange { epoch, live }
            }
            msg_type::SNAPSHOT_TRANSFER => {
                let epoch = r.u64()?;
                let len = r.u32()? as usize;
                let payload = Cow::Borrowed(r.take(len)?);
                Message::SnapshotTransfer { epoch, payload }
            }
            other => return Err(Error::Malformed(format!("unknown message type {other}"))),
        };
        r.done()?;
        Ok(msg)
    }
}

/// Frame builder: header first, payload appended, length patched at the
/// end.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn frame(kind: u8, xid: u32) -> Writer {
        let mut buf = Vec::with_capacity(64);
        buf.push(VERSION);
        buf.push(kind);
        buf.extend_from_slice(&[0, 0]); // reserved
        buf.extend_from_slice(&[0, 0, 0, 0]); // length, patched in finish()
        buf.extend_from_slice(&xid.to_be_bytes());
        Writer { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// A u16 length followed by UTF-8 bytes; over-long strings are
    /// truncated at a character boundary rather than rejected (error
    /// messages are best-effort).
    fn str16(&mut self, s: &str) {
        let mut end = s.len().min(u16::MAX as usize);
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        self.u16(end as u16);
        self.bytes(&s.as_bytes()[..end]);
    }

    fn record(&mut self, rec: &WireUeRecord) {
        self.u64(rec.imsi.0);
        self.u32(u32::from(rec.permanent_ip));
        self.u32(rec.bs.0);
        self.u16(rec.ue_id.0);
        self.u64(rec.since.0);
    }

    fn tags(&mut self, t: &WirePathTags) {
        self.u16(t.uplink_entry.0);
        self.u16(t.uplink_exit.0);
        self.u16(t.downlink_final.0);
        self.u16(t.access_out_port.0);
        match t.qos {
            Some(q) => {
                self.u8(1);
                self.u8(q.dscp);
                self.u8(q.priority);
            }
            None => {
                self.u8(0);
                self.u8(0);
                self.u8(0);
            }
        }
    }

    fn classifier(&mut self, c: &WireClassifier) {
        debug_assert!(c.entries.len() <= u16::MAX as usize, "classifier too large");
        self.u16(c.entries.len() as u16);
        for e in &c.entries {
            let mut flags = 0u8;
            if e.proto.is_some() {
                flags |= 1;
            }
            if e.dst_port.is_some() {
                flags |= 2;
            }
            self.u8(flags);
            self.u8(e.proto.map_or(0, Protocol::number));
            self.u16(e.dst_port.unwrap_or(0));
            self.u8(app_code(e.app));
            self.u16(e.clause.0);
            self.u8(access_code(e.access));
        }
        match c.fallback {
            Some((clause, access)) => {
                self.u8(1);
                self.u16(clause.0);
                self.u8(access_code(access));
            }
            None => self.u8(0),
        }
    }

    fn finish(mut self) -> Vec<u8> {
        let len = self.buf.len() as u32;
        self.buf[field::LENGTH].copy_from_slice(&len.to_be_bytes());
        self.buf
    }
}

/// Bounds-checked payload cursor.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let out = self
            .pos
            .checked_add(n)
            .and_then(|end| self.data.get(self.pos..end))
            .ok_or_else(|| {
                Error::Malformed(format!(
                    "payload truncated: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.data.len()
                ))
            })?;
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        self.take(1)?
            .first()
            .copied()
            .ok_or_else(|| width_err("u8"))
    }
    fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?.try_into().map_err(|_| width_err("u16"))?;
        Ok(u16::from_be_bytes(b))
    }
    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?.try_into().map_err(|_| width_err("u32"))?;
        Ok(u32::from_be_bytes(b))
    }
    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?.try_into().map_err(|_| width_err("u64"))?;
        Ok(u64::from_be_bytes(b))
    }

    fn str16(&mut self) -> Result<&'a str> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map_err(|e| Error::Malformed(format!("invalid UTF-8 in string: {e}")))
    }

    // forced: `parse` is large enough that LLVM keeps this out of line,
    // and a packet-in decode then costs about a third more
    #[inline(always)]
    fn packet_in(&mut self) -> Result<PacketIn> {
        Ok(match self.u8()? {
            0 => PacketIn::Attach {
                imsi: UeImsi(self.u64()?),
                bs: BaseStationId(self.u32()?),
                ue_id: UeId(self.u16()?),
                now: SimTime(self.u64()?),
            },
            1 => PacketIn::PathRequest {
                bs: BaseStationId(self.u32()?),
                clause: ClauseId(self.u16()?),
            },
            2 => PacketIn::Detach {
                imsi: UeImsi(self.u64()?),
            },
            other => {
                return Err(Error::Malformed(format!(
                    "unknown packet-in reason {other}"
                )))
            }
        })
    }

    fn record(&mut self) -> Result<WireUeRecord> {
        Ok(WireUeRecord {
            imsi: UeImsi(self.u64()?),
            permanent_ip: Ipv4Addr::from(self.u32()?),
            bs: BaseStationId(self.u32()?),
            ue_id: UeId(self.u16()?),
            since: SimTime(self.u64()?),
        })
    }

    fn tags(&mut self) -> Result<WirePathTags> {
        let uplink_entry = PolicyTag(self.u16()?);
        let uplink_exit = PolicyTag(self.u16()?);
        let downlink_final = PolicyTag(self.u16()?);
        let access_out_port = PortNo(self.u16()?);
        let qos_present = self.u8()?;
        let dscp = self.u8()?;
        let priority = self.u8()?;
        let qos = match qos_present {
            0 if dscp == 0 && priority == 0 => None,
            0 => return Err(Error::Malformed("QoS bytes set under an absent QoS".into())),
            1 => Some(QosClass { dscp, priority }),
            other => return Err(Error::Malformed(format!("qos-present flag {other}"))),
        };
        Ok(WirePathTags {
            uplink_entry,
            uplink_exit,
            downlink_final,
            access_out_port,
            qos,
        })
    }

    fn classifier(&mut self) -> Result<WireClassifier> {
        let n = self.u16()? as usize;
        let mut entries = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let flags = self.u8()?;
            let proto_num = self.u8()?;
            let port = self.u16()?;
            let app = app_from_code(self.u8()?)?;
            let clause = ClauseId(self.u16()?);
            let access = access_from_code(self.u8()?)?;
            // one encoding per entry: no unknown flag bits, and a field
            // whose flag is clear must be zero
            if flags & !3 != 0
                || (flags & 1 == 0 && proto_num != 0)
                || (flags & 2 == 0 && port != 0)
            {
                return Err(Error::Malformed(format!(
                    "classifier entry flags {flags:#04x} disagree with its fields"
                )));
            }
            entries.push(ClassifierEntry {
                proto: if flags & 1 != 0 {
                    Some(Protocol::from_number(proto_num)?)
                } else {
                    None
                },
                dst_port: if flags & 2 != 0 { Some(port) } else { None },
                app,
                clause,
                access,
            });
        }
        let fallback = match self.u8()? {
            0 => None,
            1 => {
                let clause = ClauseId(self.u16()?);
                let access = access_from_code(self.u8()?)?;
                Some((clause, access))
            }
            other => return Err(Error::Malformed(format!("fallback flag {other}"))),
        };
        Ok(WireClassifier { entries, fallback })
    }

    /// Asserts the payload was consumed exactly.
    fn done(&self) -> Result<()> {
        if self.pos != self.data.len() {
            return Err(Error::Malformed(format!(
                "{} trailing bytes after payload",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn app_code(app: ApplicationType) -> u8 {
    ApplicationType::ALL
        .iter()
        .position(|a| *a == app)
        .expect("ALL is exhaustive") as u8
}

fn app_from_code(code: u8) -> Result<ApplicationType> {
    ApplicationType::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| Error::Malformed(format!("unknown application code {code}")))
}

fn access_code(a: AccessControl) -> u8 {
    match a {
        AccessControl::Allow => 0,
        AccessControl::Deny => 1,
    }
}

fn access_from_code(code: u8) -> Result<AccessControl> {
    match code {
        0 => Ok(AccessControl::Allow),
        1 => Ok(AccessControl::Deny),
        other => Err(Error::Malformed(format!("unknown access code {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_layout_matches_header_spec() {
        let buf = Message::BarrierRequest.encode(0xdead_beef);
        assert_eq!(buf.len(), HEADER_LEN);
        assert_eq!(buf[0], VERSION);
        assert_eq!(buf[1], msg_type::BARRIER_REQUEST);
        assert_eq!(&buf[2..4], &[0, 0]);
        assert_eq!(u32::from_be_bytes(buf[4..8].try_into().unwrap()), 12);
        assert_eq!(
            u32::from_be_bytes(buf[8..12].try_into().unwrap()),
            0xdead_beef
        );
    }

    #[test]
    fn checked_rejects_bad_frames() {
        assert!(Frame::new_checked(&[0u8; 4][..]).is_err(), "short");
        let mut buf = Message::BarrierRequest.encode(1);
        buf[0] = 9;
        assert!(Frame::new_checked(&buf[..]).is_err(), "version");
        let mut buf = Message::BarrierRequest.encode(1);
        buf[7] = 200; // length 200 != 12-byte buffer
        assert!(Frame::new_checked(&buf[..]).is_err(), "length");
        let mut buf = Message::BarrierRequest.encode(1);
        buf[field::RESERVED].copy_from_slice(&FLAG_TRACED.to_be_bytes());
        assert!(
            Frame::new_checked(&buf[..]).is_err(),
            "traced flag without room for the trailer"
        );
    }

    #[test]
    fn traced_frame_round_trips_context_and_payload() {
        let ctx = TraceContext {
            trace_id: 0x1122_3344_5566_7788,
            parent: 42,
        };
        let msg = Message::PacketIn(PacketIn::PathRequest {
            bs: BaseStationId(9),
            clause: ClauseId(3),
        });
        let plain = msg.encode(17);
        let traced = msg.encode_traced(17, ctx);
        assert_eq!(traced.len(), plain.len() + TRACE_TRAILER_LEN);
        assert_eq!(&traced[..2], &plain[..2], "version/type unchanged");
        assert_eq!(&traced[8..plain.len()], &plain[8..], "payload unchanged");

        let frame = Frame::new_checked(&traced[..]).unwrap();
        assert!(frame.is_traced());
        assert_eq!(frame.trace_context(), ctx);
        assert_eq!(frame.total_len(), traced.len());
        assert_eq!(
            frame.payload(),
            Frame::new_checked(&plain[..]).unwrap().payload(),
            "trailer excluded from the payload"
        );
        assert_eq!(frame.message().unwrap(), msg, "decode ignores the trailer");
    }

    #[test]
    fn inactive_context_keeps_untraced_bytes_identical() {
        let msg = Message::BarrierRequest;
        assert_eq!(
            msg.encode_traced(5, TraceContext::NONE),
            msg.encode(5),
            "no-trace path is byte-identical"
        );
        let frame_buf = msg.encode(5);
        let frame = Frame::new_checked(&frame_buf[..]).unwrap();
        assert!(!frame.is_traced());
        assert_eq!(frame.trace_context(), TraceContext::NONE);
    }

    #[test]
    fn echo_decode_is_zero_copy() {
        let payload = b"ping-payload".to_vec();
        let buf = Message::EchoRequest(Cow::Owned(payload.clone())).encode(7);
        let frame = Frame::new_checked(&buf[..]).unwrap();
        let Message::EchoRequest(got) = frame.message().unwrap() else {
            panic!("wrong type");
        };
        assert!(matches!(got, Cow::Borrowed(_)), "decode must borrow");
        assert_eq!(&*got, &payload[..]);
    }

    #[test]
    fn error_round_trips_as_typed_error() {
        let e = Error::NotFound("imsi42 not attached".into());
        let buf = Message::from_error(&e).encode(3);
        let frame = Frame::new_checked(&buf[..]).unwrap();
        assert_eq!(frame.message().unwrap().as_error(), Some(e));
    }

    #[test]
    fn flow_mod_batch_round_trips() {
        let tags = |n: u16| WirePathTags {
            uplink_entry: PolicyTag(n),
            uplink_exit: PolicyTag(n + 1),
            downlink_final: PolicyTag(n + 2),
            access_out_port: PortNo(3),
            qos: None,
        };
        let msg = Message::FlowModBatch {
            shard: 2,
            seq: 0x00C0_FFEE,
            groups: vec![
                WireBatchGroup {
                    bs: BaseStationId(7),
                    barrier: true,
                    mods: vec![
                        WireFlowMod {
                            bs: BaseStationId(7),
                            clause: ClauseId(1),
                            tags: tags(10),
                        },
                        WireFlowMod {
                            bs: BaseStationId(7),
                            clause: ClauseId(2),
                            tags: tags(20),
                        },
                    ],
                },
                WireBatchGroup {
                    bs: BaseStationId(9),
                    barrier: true,
                    mods: vec![],
                },
            ],
        };
        let buf = msg.encode(41);
        let frame = Frame::new_checked(&buf[..]).unwrap();
        assert_eq!(frame.message().unwrap(), msg);
    }

    #[test]
    fn flow_mod_batch_rejects_bad_barrier_flag() {
        let msg = Message::FlowModBatch {
            shard: 0,
            seq: 1,
            groups: vec![WireBatchGroup {
                bs: BaseStationId(1),
                barrier: false,
                mods: vec![],
            }],
        };
        let mut buf = msg.encode(1);
        // the barrier flag sits right after the 12-byte header, the
        // u16 shard, u32 seq, u16 group count and u32 bs
        let flag_at = HEADER_LEN + 2 + 4 + 2 + 4;
        assert_eq!(buf[flag_at], 0);
        buf[flag_at] = 2;
        let frame = Frame::new_checked(&buf[..]).unwrap();
        assert!(frame.message().is_err(), "barrier flag 2 must be rejected");
    }

    #[test]
    fn retired_flow_mod_type_is_malformed_not_a_panic() {
        // the retired payload: u16 count, then bs/clause/tags per entry
        let payload = [0, 1, 0, 0, 0, 7, 0, 2, 0, 1, 0, 1, 0, 1, 0, 3, 0];
        let mut plain = vec![VERSION, msg_type::FLOW_MOD, 0, 0];
        plain.extend_from_slice(&((HEADER_LEN + payload.len()) as u32).to_be_bytes());
        plain.extend_from_slice(&9u32.to_be_bytes());
        plain.extend_from_slice(&payload);

        let mut traced = plain.clone();
        traced[field::RESERVED].copy_from_slice(&FLAG_TRACED.to_be_bytes());
        traced.extend_from_slice(&[0x11; TRACE_TRAILER_LEN]);
        let len = (traced.len() as u32).to_be_bytes();
        traced[field::LENGTH].copy_from_slice(&len);

        for buf in [plain, traced] {
            let frame = Frame::new_checked(&buf[..]).expect("well framed");
            assert_eq!(frame.msg_type(), msg_type::FLOW_MOD);
            assert_eq!(frame.payload(), &payload[..]);
            assert_eq!(
                frame.message().unwrap_err(),
                Error::Malformed("unknown message type 6".into())
            );
        }
    }

    #[test]
    fn replication_family_round_trips() {
        let record = b"opaque-log-record".to_vec();
        let msgs: Vec<Message<'static>> = vec![
            Message::Replicate {
                origin: 2,
                epoch: 7,
                index: 4242,
                commit: 4200,
                payload: Cow::Owned(record.clone()),
            },
            Message::ReplicateAck {
                epoch: 7,
                accepted: true,
            },
            Message::ReplicateAck {
                epoch: 9,
                accepted: false,
            },
            Message::EpochChange {
                epoch: 8,
                live: vec![true, false, true],
            },
            Message::SnapshotTransfer {
                epoch: 8,
                payload: Cow::Owned(b"store-image".to_vec()),
            },
        ];
        for msg in msgs {
            let buf = msg.encode(99);
            let frame = Frame::new_checked(&buf[..]).unwrap();
            assert_eq!(frame.message().unwrap(), msg);
        }
    }

    #[test]
    fn replicate_payload_decode_is_zero_copy() {
        let msg = Message::Replicate {
            origin: 0,
            epoch: 1,
            index: 1,
            commit: 0,
            payload: Cow::Owned(b"record-bytes".to_vec()),
        };
        let buf = msg.encode(5);
        let frame = Frame::new_checked(&buf[..]).unwrap();
        let Message::Replicate { payload, .. } = frame.message().unwrap() else {
            panic!("wrong type");
        };
        assert!(matches!(payload, Cow::Borrowed(_)), "decode must borrow");
    }

    #[test]
    fn replication_family_rejects_malformed_flags_and_truncation() {
        // bad accepted flag
        let mut buf = Message::ReplicateAck {
            epoch: 1,
            accepted: false,
        }
        .encode(1);
        let flag_at = HEADER_LEN + 8;
        assert_eq!(buf[flag_at], 0);
        buf[flag_at] = 3;
        assert!(Frame::new_checked(&buf[..]).unwrap().message().is_err());

        // bad live flag
        let mut buf = Message::EpochChange {
            epoch: 2,
            live: vec![false],
        }
        .encode(1);
        let flag_at = HEADER_LEN + 8 + 2;
        assert_eq!(buf[flag_at], 0);
        buf[flag_at] = 9;
        assert!(Frame::new_checked(&buf[..]).unwrap().message().is_err());

        // replicate payload length pointing past the frame
        let mut buf = Message::Replicate {
            origin: 0,
            epoch: 1,
            index: 1,
            commit: 0,
            payload: Cow::Owned(vec![0xaa; 4]),
        }
        .encode(1);
        let len_at = HEADER_LEN + 4 + 8 + 8 + 8;
        buf[len_at..len_at + 4].copy_from_slice(&100u32.to_be_bytes());
        assert!(Frame::new_checked(&buf[..]).unwrap().message().is_err());

        // snapshot payload length pointing past the frame
        let mut buf = Message::SnapshotTransfer {
            epoch: 1,
            payload: Cow::Owned(vec![0xbb; 2]),
        }
        .encode(1);
        let len_at = HEADER_LEN + 8;
        buf[len_at..len_at + 4].copy_from_slice(&999u32.to_be_bytes());
        assert!(Frame::new_checked(&buf[..]).unwrap().message().is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Message::BarrierReply.encode(1);
        buf.push(0xff);
        let len = buf.len() as u32;
        buf[4..8].copy_from_slice(&len.to_be_bytes());
        let frame = Frame::new_checked(&buf[..]).unwrap();
        assert!(frame.message().is_err());
    }
}
