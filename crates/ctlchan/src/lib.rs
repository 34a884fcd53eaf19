//! Southbound control channel between the SoftCell controller and the
//! base-station local agents.
//!
//! The paper's controller talks OpenFlow to its switches and an
//! unspecified southbound protocol to its local agents (§4.2, §6.2 —
//! the Cbench experiment emulates 1000 such agent connections). This
//! crate pins that protocol down, OpenFlow-style:
//!
//! * [`codec`] — the message set ([`Message`]: hello, echo, packet-in,
//!   classifier reply, flow-mod batches, barrier, stats, error) and a
//!   compact length-prefixed binary framing with zero-copy decode over
//!   `&[u8]` ([`Frame`], in the same wrapper idiom as
//!   `softcell-packet`).
//! * [`transport`] — the [`Transport`] trait moving whole frames, with
//!   an in-memory loopback queue pair for tests/benchmarks and a TCP
//!   implementation using length-delimited framing.
//! * [`channel`] — [`CtlChannel`], the agent-side client with
//!   xid-based request/reply correlation, and [`serve`], the
//!   controller-side dispatch loop whose strict arrival-order
//!   processing gives barriers their fence semantics.
//!
//! The crate deliberately sits *below* `softcell-controller`: messages
//! carry wire structs ([`WireUeRecord`], [`WirePathTags`]) that the
//! controller converts to and from its domain types, so the protocol
//! layer has no dependency on controller internals.

pub mod channel;
pub mod codec;
pub mod metrics;
pub mod transport;

pub use channel::{serve, CtlChannel, RetryPolicy, DEDUP_WINDOW};
pub use codec::{
    ChannelStats, ErrorCode, Frame, Message, PacketIn, WireBatchGroup, WireClassifier, WireFlowMod,
    WirePathTags, WireUeRecord, HEADER_LEN, MAX_FRAME, VERSION,
};
pub use transport::{
    loopback_pair, ChannelCounters, CounterSnapshot, FaultConfig, FaultStats, FaultTransport,
    Loopback, TcpTransport, Transport,
};
