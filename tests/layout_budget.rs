//! Size and alignment budgets for the values the hot paths copy: the
//! microflow key and its bucket, a flow rule and its matcher, a rule
//! operation, a carried flow's record, a sharded event's outcome.
//!
//! Numbers, not timings, so the gate repeats exactly on a shared host.
//! Each row carries the figure before PR 20 (which made `FiveTuple` a
//! 16-byte value, see its doc comment) beside the one gated now: a field
//! added later cannot silently bring back an odd-sized key that defeats
//! store forwarding, or grow the 48-byte microflow bucket.

use std::mem::{align_of, size_of};

use softcell::controller::mobility::FlowRecord;
use softcell::controller::sharded::EventOutcome;
use softcell::controller::RuleOp;
use softcell::dataplane::{FlowRule, Match, MicroflowEntry};
use softcell::packet::FiveTuple;

/// `(name, (size, align) before PR 20, (size, align) now)` of one type.
macro_rules! row {
    ($t:ty, $before:expr) => {
        (stringify!($t), $before, (size_of::<$t>(), align_of::<$t>()))
    };
}

#[test]
fn hot_path_values_keep_their_size_and_alignment() {
    // before PR 20 · measured now · the budget
    let rows = [
        (row!(FiveTuple, (14, 2)), (16, 4)),
        (row!(MicroflowEntry, (32, 8)), (32, 8)),
        // one bucket of a microflow table
        (row!((FiveTuple, MicroflowEntry), (48, 8)), (48, 8)),
        (row!(FlowRule, (72, 8)), (72, 8)),
        (row!(Match, (52, 4)), (52, 4)),
        (row!(RuleOp, (68, 4)), (68, 4)),
        (row!(FlowRecord, (62, 2)), (68, 4)),
        (row!(EventOutcome, (64, 8)), (64, 8)),
    ];
    for ((name, before, now), budget) in rows {
        assert_eq!(
            now, budget,
            "{name}: (size, align) is {now:?}, budget {budget:?}, before PR 20 {before:?}"
        );
    }
}
