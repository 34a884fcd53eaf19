//! Barrier fence semantics.
//!
//! OpenFlow's barrier contract, which `serve` inherits from strict
//! arrival-order processing: every message sent before a
//! barrier-request is fully processed before the barrier-reply is
//! sent — so once the client observes the reply, all earlier flow-mods
//! have been applied, in order.

use std::sync::{Arc, Mutex};

use softcell_ctlchan::{
    loopback_pair, serve, CtlChannel, Message, WireBatchGroup, WireFlowMod, WirePathTags,
};
use softcell_policy::clause::ClauseId;
use softcell_types::{BaseStationId, PolicyTag, PortNo};

fn flow_mod(i: u16) -> WireFlowMod {
    WireFlowMod {
        bs: BaseStationId(7),
        clause: ClauseId(i),
        tags: WirePathTags {
            uplink_entry: PolicyTag(i),
            uplink_exit: PolicyTag(i),
            downlink_final: PolicyTag(i),
            access_out_port: PortNo(1),
            qos: None,
        },
    }
}

#[test]
fn flow_mods_before_barrier_are_applied_before_the_reply() {
    let (client_end, server_end) = loopback_pair();
    // the "switch state" flow-mods apply to: clause ids, in apply order
    let applied: Arc<Mutex<Vec<u16>>> = Arc::new(Mutex::new(Vec::new()));
    let applied_in_handler = Arc::clone(&applied);
    let server = std::thread::spawn(move || {
        serve(
            server_end,
            || 0,
            move |msg, _ctx| {
                if let Message::FlowModBatch { groups, .. } = msg {
                    let mut state = applied_in_handler.lock().unwrap();
                    for m in groups.iter().flat_map(|g| &g.mods) {
                        state.push(m.clause.0);
                    }
                }
                None
            },
        )
        .unwrap();
    });

    let mut chan = CtlChannel::new(client_end);
    const ROUNDS: u16 = 20;
    const PER_BATCH: u16 = 5;
    for round in 0..ROUNDS {
        // a burst of fire-and-forget flow-mod batches...
        for batch in 0..PER_BATCH {
            let base = round * PER_BATCH * 2 + batch * 2;
            chan.send(&Message::FlowModBatch {
                shard: 0,
                seq: u32::from(round * PER_BATCH + batch),
                groups: vec![WireBatchGroup {
                    bs: BaseStationId(7),
                    barrier: true,
                    mods: vec![flow_mod(base), flow_mod(base + 1)],
                }],
            })
            .unwrap();
        }
        // ...then the fence: returning means everything above is applied
        chan.barrier().unwrap();
        let state = applied.lock().unwrap();
        let expected = (round + 1) * PER_BATCH * 2;
        assert_eq!(
            state.len(),
            usize::from(expected),
            "round {round}: barrier replied before all flow-mods applied"
        );
        assert!(
            state.iter().copied().eq(0..expected),
            "round {round}: flow-mods applied out of order"
        );
    }

    drop(chan);
    server.join().unwrap();
}
