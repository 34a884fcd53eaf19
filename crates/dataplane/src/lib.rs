//! The SoftCell data plane: a software model of the switches.
//!
//! SoftCell assumes commodity switches that can "perform arbitrary
//! wildcard matching on IP addresses and TCP/UDP port numbers" (paper
//! §2.1). This crate models exactly that device:
//!
//! * [`matcher`] — OpenFlow-style match structures over the fields
//!   SoftCell uses (input port, src/dst prefix, masked src/dst port,
//!   protocol, consistent-update version), with the paper's three rule
//!   *types* derivable from a match's shape: Type 1 `tag+prefix` (TCAM),
//!   Type 2 `tag` only (exact match), Type 3 `prefix` only (LPM) — §7.
//! * [`rule`] — prioritized flow rules and their actions (forward,
//!   rewrite-and-forward for the access edge, DSCP marking for QoS,
//!   punt-to-controller, drop).
//! * [`table`] — the priority-ordered flow table with counters and
//!   per-type occupancy statistics (the quantity Figure 7 measures).
//! * [`microflow`] — the exact-match five-tuple table access switches use
//!   (Open vSwitch holds ~100K microflows, §2.1); entries perform the
//!   LocIP/tag rewrite of §4.1.
//! * [`switch`] — a complete switch: role, ports, microflow table +
//!   flow table, and the lookup pipeline tying them together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod matcher;
mod metrics;
pub mod microflow;
pub mod rule;
pub mod switch;
pub mod table;

pub use matcher::{LookupKey, Match, RuleType, TcamEntry};
pub use microflow::{MicroflowAction, MicroflowEntry, MicroflowTable};
pub use rule::{Action, FlowRule, PortField, RuleId};
pub use switch::{ForwardDecision, Switch};
pub use table::{FlowTable, TableStats};
