//! Size and alignment budgets for the values the hot paths copy: the
//! microflow key and its bucket, a flow rule, its matcher and the
//! compiled entry a lookup scans, a rule operation, a carried flow's
//! record, a sharded event's outcome and the flow entries it holds
//! inline.
//!
//! Numbers, not timings, so the gate repeats exactly on a shared host.
//! Each row carries an earlier figure beside the one gated now — for
//! most rows the one before `FiveTuple` became a 16-byte value (see its
//! doc comment) — so a field added later cannot silently bring back an
//! odd-sized key that defeats store forwarding, or grow the 48-byte
//! microflow bucket.

use std::mem::{align_of, size_of};

use softcell::controller::mobility::FlowRecord;
use softcell::controller::sharded::{EventOutcome, FlowInstalls};
use softcell::controller::RuleOp;
use softcell::dataplane::{FlowRule, Match, MicroflowEntry, TcamEntry};
use softcell::packet::FiveTuple;

/// `(name, earlier (size, align), (size, align) now)` of one type.
macro_rules! row {
    ($t:ty, $before:expr) => {
        (stringify!($t), $before, (size_of::<$t>(), align_of::<$t>()))
    };
}

#[test]
fn hot_path_values_keep_their_size_and_alignment() {
    // earlier · measured now · the budget
    let rows = [
        (row!(FiveTuple, (14, 2)), (16, 4)),
        (row!(MicroflowEntry, (32, 8)), (32, 8)),
        // one bucket of a microflow table
        (row!((FiveTuple, MicroflowEntry), (48, 8)), (48, 8)),
        (row!(FlowRule, (72, 8)), (72, 8)),
        (row!(Match, (52, 4)), (52, 4)),
        // a matcher compiled to three mask and three value words; the
        // earlier figure is the matcher's
        (row!(TcamEntry, (52, 4)), (48, 8)),
        (row!(RuleOp, (68, 4)), (68, 4)),
        (row!(FlowRecord, (62, 2)), (68, 4)),
        // 16 bytes more: a flow's two microflow entries moved inline
        // from a heap vector, which cost one allocation per flow
        (row!(EventOutcome, (64, 8)), (80, 8)),
        // those entries; the earlier figure is the vector's
        (row!(FlowInstalls, (24, 8)), (56, 4)),
    ];
    for ((name, before, now), budget) in rows {
        assert_eq!(
            now, budget,
            "{name}: (size, align) is {now:?}, budget {budget:?}, earlier {before:?}"
        );
    }
}
