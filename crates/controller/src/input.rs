//! The engine's inputs, written down once. Replicating, sharding or
//! replaying the controller (§5) assumes it is a deterministic function
//! of one ordered log of [`Input`]s; [`CentralController::apply`] is its
//! one door. After any input, [`drain_ops`](CentralController::drain_ops)
//! returns its whole effect on the fabric; a failed input queues nothing.

use softcell_ctlchan::PacketIn;
use softcell_packet::FiveTuple;
use softcell_policy::clause::ClauseId;
use softcell_types::{BaseStationId, Result, SimTime, SwitchId, UeId, UeImsi};

use crate::core::{AttachGrant, CentralController, PathTags};
use crate::mobility::{FlowRecord, HandoffPlan};
use crate::offline::OfflineOutcome;
use crate::state::UeRecord;

/// One input to the engine.
#[derive(Clone, Debug)]
pub enum Input {
    /// What a local agent sends, in the wire's own type: an attach, a
    /// detach or a tag-cache-miss path request.
    Agent(PacketIn),
    /// A mobile-to-mobile path request (§7).
    M2mPath {
        /// The sender's station.
        from: BaseStationId,
        /// The peer's station.
        to: BaseStationId,
        /// The governing clause.
        clause: ClauseId,
    },
    /// A handoff (§5.1) with the departing agent's live flows.
    Handoff {
        /// The moving UE.
        imsi: UeImsi,
        /// The station it moves to.
        to: BaseStationId,
        /// The local id the arriving agent assigned.
        new_id: UeId,
        /// The flows to keep on their old paths.
        flows: Vec<FlowRecord>,
        /// Handoff time.
        now: SimTime,
    },
    /// A shortcut for one long-lived downlink flow after a handoff (§5.1).
    Shortcut {
        /// The UE that moved.
        imsi: UeImsi,
        /// The switches of the flow's old policy path.
        old_path: Vec<SwitchId>,
        /// The flow's downlink five-tuple.
        downlink: FiveTuple,
        /// Install time, which renews the transition.
        now: SimTime,
    },
    /// The mobility clock: transitions whose soft timeout has passed end.
    Expire {
        /// The current time.
        now: SimTime,
    },
    /// The §3.2 offline recompute of every installed path.
    Reoptimize,
}

/// What applying an [`Input`] answers; its rule ops are on the stream.
#[derive(Clone, Debug)]
pub enum Output {
    /// An attach's grant.
    Attached(AttachGrant),
    /// The record a detach removed.
    Detached(UeRecord),
    /// A path request's tags, Internet or m2m.
    Path(PathTags),
    /// A handoff's plan for the agents.
    HandedOff(HandoffPlan),
    /// The offline pass's accounting.
    Reoptimized(OfflineOutcome),
    /// A shortcut or an expiry tick: nothing but rule ops.
    Done,
}

impl CentralController {
    /// Applies one input by calling the method that implements it.
    ///
    /// Two things are deliberately not inputs. A new flow: it reaches
    /// the engine only as the path request its agent's tag-cache miss
    /// sends (§4.2), and a hit never leaves the agent. Subscriber
    /// provisioning: [`put_subscriber`](Self::put_subscriber) happens
    /// before the log starts, so it stays a method.
    pub fn apply(&mut self, input: &Input) -> Result<Output> {
        Ok(match *input {
            Input::Agent(PacketIn::Attach {
                imsi,
                bs,
                ue_id,
                now,
            }) => Output::Attached(self.attach_ue(imsi, bs, ue_id, now)?),
            Input::Agent(PacketIn::Detach { imsi }) => Output::Detached(self.detach_ue(imsi)?),
            Input::Agent(PacketIn::PathRequest { bs, clause }) => {
                Output::Path(self.request_policy_path(bs, clause)?)
            }
            Input::M2mPath { from, to, clause } => {
                Output::Path(self.request_m2m_path(from, to, clause)?)
            }
            Input::Handoff {
                imsi,
                to,
                new_id,
                ref flows,
                now,
            } => Output::HandedOff(self.handoff(imsi, to, new_id, flows, now)?),
            Input::Shortcut {
                imsi,
                ref old_path,
                downlink,
                now,
            } => {
                self.install_shortcut(imsi, old_path, downlink, now)?;
                Output::Done
            }
            Input::Expire { now } => {
                self.expire_transitions(now);
                Output::Done
            }
            Input::Reoptimize => Output::Reoptimized(self.reoptimize_paths()?),
        })
    }
}
