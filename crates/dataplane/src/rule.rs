//! Flow rules and actions.

use serde::Serialize;
use std::fmt;
use std::net::Ipv4Addr;

use softcell_types::PortNo;

use crate::matcher::Match;

/// A rule identifier, unique within one switch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub struct RuleId(pub u64);

/// Which transport port field an action rewrites (the tag lives in the
/// source port on the uplink and the destination port on the downlink).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum PortField {
    /// Source port.
    Src,
    /// Destination port.
    Dst,
}

/// What a matching rule does with the packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum Action {
    /// Forward out a port.
    Forward(PortNo),
    /// Rewrite source address/port (access-edge uplink embedding) then
    /// forward.
    RewriteSrcForward {
        /// New source address (the LocIP).
        addr: Ipv4Addr,
        /// New source port (tag | flow slot).
        port: u16,
        /// Output port.
        out: PortNo,
    },
    /// Rewrite destination address/port (access-edge downlink delivery)
    /// then forward.
    RewriteDstForward {
        /// New destination address (the UE's permanent address).
        addr: Ipv4Addr,
        /// New destination port (the UE's original source port).
        port: u16,
        /// Output port.
        out: PortNo,
    },
    /// Mark the DSCP field (QoS action of a service policy) then forward.
    SetDscpForward {
        /// DSCP value to set.
        dscp: u8,
        /// Output port.
        out: PortNo,
    },
    /// Rewrite the tag bits of a transport port, then forward — the
    /// loop-disambiguation tag swap (paper §3.2). The new bits are
    /// `(port & !mask) | value`.
    RewritePortBitsForward {
        /// Which port field carries the tag in this direction.
        field: PortField,
        /// The tag bits to write.
        value: u16,
        /// The tag mask.
        mask: u16,
        /// Output port.
        out: PortNo,
    },
    /// Rewrite the destination address and the destination port's tag
    /// bits, keeping its low (flow slot) bits, then forward — the §5.1
    /// redirect of anchored downlink traffic towards the UE's current
    /// station. The new port is `(port & !mask) | value`, `mask` being
    /// the port's top `tag_bits` bits (a width, not a mask, keeps the
    /// action inside ten bytes).
    RedirectDstForward {
        /// New destination address (the UE's LocIP at its current
        /// station).
        addr: Ipv4Addr,
        /// The tag bits to write, in place.
        value: u16,
        /// Width of the tag field at the top of the port.
        tag_bits: u8,
        /// Output port.
        out: PortNo,
    },
    /// Continue at the location stage: the lookup resumes at the first
    /// matching unqualified prefix-only (Type 3) rule below this one,
    /// skipping the tag rules between — OpenFlow 1.3's goto-table, the
    /// stage boundary of §7's pipeline. A port-qualified tag rule with
    /// this action sends its traffic where the location stage does.
    GotoLocation,
    /// Punt to the local agent / controller (packet-in).
    ToController,
    /// Drop (access-control action).
    Drop,
}

impl Action {
    /// The output port, if this action forwards.
    pub fn out_port(&self) -> Option<PortNo> {
        match self {
            Action::Forward(p)
            | Action::RewriteSrcForward { out: p, .. }
            | Action::RewriteDstForward { out: p, .. }
            | Action::SetDscpForward { out: p, .. }
            | Action::RewritePortBitsForward { out: p, .. }
            | Action::RedirectDstForward { out: p, .. } => Some(*p),
            Action::GotoLocation | Action::ToController | Action::Drop => None,
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Forward(p) => write!(f, "forward({p})"),
            Action::RewriteSrcForward { addr, port, out } => {
                write!(f, "rewrite_src({addr}:{port})->forward({out})")
            }
            Action::RewriteDstForward { addr, port, out } => {
                write!(f, "rewrite_dst({addr}:{port})->forward({out})")
            }
            Action::SetDscpForward { dscp, out } => {
                write!(f, "set_dscp({dscp})->forward({out})")
            }
            Action::RewritePortBitsForward {
                field,
                value,
                mask,
                out,
            } => {
                write!(
                    f,
                    "swap_tag({field:?},{value:#06x}/{mask:#06x})->forward({out})"
                )
            }
            Action::RedirectDstForward {
                addr,
                value,
                tag_bits,
                out,
            } => {
                let mask = top_bits(*tag_bits);
                write!(
                    f,
                    "redirect_dst({addr},{value:#06x}/{mask:#06x})->forward({out})"
                )
            }
            Action::GotoLocation => write!(f, "goto_location"),
            Action::ToController => write!(f, "to_controller"),
            Action::Drop => write!(f, "drop"),
        }
    }
}

/// A 16-bit mask of the top `n` bits (all of them from 16 on).
pub(crate) fn top_bits(n: u8) -> u16 {
    !u16::MAX.checked_shr(n.into()).unwrap_or(0)
}

/// A prioritized flow rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct FlowRule {
    /// Identifier assigned by the table at install time.
    pub id: RuleId,
    /// Numeric priority; higher wins. Ties break towards the
    /// earlier-installed rule.
    pub priority: u16,
    /// The wildcard match.
    pub matcher: Match,
    /// The action on match.
    pub action: Action,
}

impl fmt::Display for FlowRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>5}] {} -> {}",
            self.priority, self.matcher, self.action
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_port_extraction() {
        assert_eq!(Action::Forward(PortNo(3)).out_port(), Some(PortNo(3)));
        assert_eq!(
            Action::SetDscpForward {
                dscp: 46,
                out: PortNo(1)
            }
            .out_port(),
            Some(PortNo(1))
        );
        assert_eq!(Action::Drop.out_port(), None);
        assert_eq!(Action::ToController.out_port(), None);
    }

    #[test]
    fn display_formats() {
        let r = FlowRule {
            id: RuleId(1),
            priority: 100,
            matcher: Match::ANY,
            action: Action::Forward(PortNo(2)),
        };
        assert!(r.to_string().contains("any -> forward(p2)"));
        assert_eq!(Action::Drop.to_string(), "drop");
    }
}
