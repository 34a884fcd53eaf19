//! Codec round-trip property tests.
//!
//! Every message variant, built from randomized fields (including the
//! boundary values the generators bias towards: zero, max, empty and
//! near-limit payload lengths), must encode to a frame that validates
//! and parses back to an equal message under its original xid — and a
//! frame corrupted by truncation must be rejected, never panic. A frame
//! with a corrupted payload byte either fails to decode or re-encodes to
//! exactly its own bytes: one message, one encoding.

use std::borrow::Cow;

use proptest::prelude::*;

use softcell_ctlchan::{
    ChannelStats, Frame, Message, PacketIn, WireClassifier, WireFlowMod, WirePathTags,
    WireUeRecord, HEADER_LEN,
};
use softcell_packet::Protocol;
use softcell_policy::clause::QosClass;
use softcell_policy::{AccessControl, ApplicationType, ClassifierEntry};
use softcell_types::{BaseStationId, Error, PolicyTag, PortNo, SimTime, UeId, UeImsi};

/// Deterministically expands a few random scalars into one message of
/// the requested kind, exercising every variant and option arm. `kind`
/// indexes the 15 live message types; the arms below are numbered by
/// type code, so indices from the retired type 6 up shift by one.
fn build_message(
    kind: u8,
    a: u64,
    b: u32,
    c: u16,
    d: u8,
    payload: &[u8],
    batch: usize,
) -> Message<'static> {
    let record = WireUeRecord {
        imsi: UeImsi(a),
        permanent_ip: std::net::Ipv4Addr::from(b),
        bs: BaseStationId(b ^ 0xffff),
        ue_id: UeId(c),
        since: SimTime(a.rotate_left(17)),
    };
    let tags = |i: u16| WirePathTags {
        uplink_entry: PolicyTag(c.wrapping_add(i)),
        uplink_exit: PolicyTag(c.wrapping_mul(3).wrapping_add(i)),
        downlink_final: PolicyTag(c.wrapping_sub(i)),
        access_out_port: PortNo(i),
        qos: if (d ^ i as u8) & 1 == 0 {
            None
        } else {
            Some(QosClass {
                dscp: d & 0x3f,
                priority: d >> 5,
            })
        },
    };
    match if kind >= 6 { kind + 1 } else { kind } {
        0 => Message::Hello {
            version: d,
            peer: b,
        },
        1 => Message::EchoRequest(Cow::Owned(payload.to_vec())),
        2 => Message::EchoReply(Cow::Owned(payload.to_vec())),
        3 => {
            let text: String = payload.iter().map(|&x| char::from(b'a' + x % 26)).collect();
            Message::from_error(&Error::Exhausted(text)).into_static()
        }
        4 => Message::PacketIn(match d % 3 {
            0 => PacketIn::Attach {
                imsi: UeImsi(a),
                bs: BaseStationId(b),
                ue_id: UeId(c),
                now: SimTime(a >> 3),
            },
            1 => PacketIn::PathRequest {
                bs: BaseStationId(b),
                clause: softcell_policy::clause::ClauseId(c),
            },
            _ => PacketIn::Detach { imsi: UeImsi(a) },
        }),
        5 => {
            let classifier = if d & 1 == 0 {
                None
            } else {
                let entries = (0..batch)
                    .map(|i| {
                        let x = payload.get(i).copied().unwrap_or(i as u8);
                        ClassifierEntry {
                            proto: match x % 3 {
                                0 => None,
                                1 => Some(Protocol::Tcp),
                                _ => Some(Protocol::Udp),
                            },
                            dst_port: if x & 4 == 0 {
                                None
                            } else {
                                Some(c.wrapping_add(x as u16))
                            },
                            app: ApplicationType::ALL[x as usize % ApplicationType::ALL.len()],
                            clause: softcell_policy::clause::ClauseId(c.wrapping_add(i as u16)),
                            access: if x & 8 == 0 {
                                AccessControl::Allow
                            } else {
                                AccessControl::Deny
                            },
                        }
                    })
                    .collect();
                let fallback = if d & 2 == 0 {
                    None
                } else {
                    Some((softcell_policy::clause::ClauseId(c), AccessControl::Allow))
                };
                Some(WireClassifier { entries, fallback })
            };
            Message::ClassifierReply { record, classifier }
        }
        7 => Message::BarrierRequest,
        8 => Message::BarrierReply,
        9 => Message::StatsRequest,
        10 => Message::StatsReply(ChannelStats {
            served: a,
            tx_msgs: a ^ u64::from(b),
            rx_msgs: u64::from(b),
            tx_bytes: a.rotate_right(9),
            rx_bytes: u64::from(c),
        }),
        11 => Message::FlowModBatch {
            shard: c,
            seq: b,
            groups: (0..batch.min(8))
                .map(|g| softcell_ctlchan::WireBatchGroup {
                    bs: BaseStationId(b.wrapping_add(g as u32)),
                    barrier: (d as usize + g) & 1 == 0,
                    mods: (0..g % 3)
                        .map(|i| WireFlowMod {
                            bs: BaseStationId(b.wrapping_add(g as u32)),
                            clause: softcell_policy::clause::ClauseId(c.wrapping_add(i as u16)),
                            tags: tags(i as u16),
                        })
                        .collect(),
                })
                .collect(),
        },
        12 => Message::Replicate {
            origin: b,
            epoch: a.rotate_left(5),
            index: a,
            commit: a.saturating_sub(u64::from(c)),
            payload: Cow::Owned(payload.to_vec()),
        },
        13 => Message::ReplicateAck {
            epoch: a,
            accepted: d & 1 == 0,
        },
        14 => Message::EpochChange {
            epoch: a | 1,
            live: (0..batch.min(16))
                .map(|i| (d as usize + i) & 1 == 0)
                .collect(),
        },
        _ => Message::SnapshotTransfer {
            epoch: a | 1,
            payload: Cow::Owned(payload.to_vec()),
        },
    }
}

proptest! {
    #[test]
    fn every_variant_round_trips(
        kind in 0u8..15,
        a in any::<u64>(),
        b in any::<u32>(),
        c in any::<u16>(),
        d in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        batch in 0usize..40,
        xid in any::<u32>(),
    ) {
        let msg = build_message(kind, a, b, c, d, &payload, batch);
        let buf = msg.encode(xid);
        let frame = Frame::new_checked(buf.as_slice()).unwrap();
        prop_assert_eq!(frame.xid(), xid);
        prop_assert_eq!(frame.msg_type(), msg.msg_type());
        prop_assert_eq!(frame.total_len(), buf.len());
        let decoded = frame.message().unwrap();
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn truncated_frames_are_rejected_not_panicking(
        kind in 0u8..15,
        a in any::<u64>(),
        b in any::<u32>(),
        c in any::<u16>(),
        d in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        cut in any::<u16>(),
    ) {
        let msg = build_message(kind, a, b, c, d, &payload, 3);
        let buf = msg.encode(1);
        let cut = cut as usize % buf.len();
        // a prefix is never a valid frame: either the header is gone or
        // the length field disagrees with the buffer
        prop_assert!(Frame::new_checked(&buf[..cut]).is_err());
    }

    #[test]
    fn payload_corruption_never_panics(
        kind in 0u8..15,
        a in any::<u64>(),
        b in any::<u32>(),
        c in any::<u16>(),
        d in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        at in any::<u16>(),
        flip in 1u8..=255,
    ) {
        let msg = build_message(kind, a, b, c, d, &payload, 3);
        let mut buf = msg.encode(1);
        if buf.len() > HEADER_LEN {
            let at = HEADER_LEN + at as usize % (buf.len() - HEADER_LEN);
            buf[at] ^= flip;
        }
        if let Ok(frame) = Frame::new_checked(buf.as_slice()) {
            // decoding corrupt payloads may fail, but must not panic, and
            // what does decode is the one message those bytes encode
            if let Ok(decoded) = frame.message() {
                prop_assert_eq!(decoded.encode(1), buf);
            }
        }
    }
}
