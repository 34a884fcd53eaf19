//! A seat's log: the agents' inputs, in one order.
//!
//! A [`LogRecord`] is `(epoch, index, op)`, where `op` is exactly what an
//! agent sent, a ctlchan [`PacketIn`] (an attach, a detach or a path
//! request) in its packet-in bytes. Nothing in a record was decided by
//! its proposer: the engine answers it when it is *applied*
//! ([`crate::store::State::apply`]), on every seat, in index order, so
//! two seats holding the same log hold the same engine.
//!
//! Indices are dense from 1 over the whole cluster (one leader per view
//! appends). `epoch` is the view the record was appended under; the last
//! entry's `(epoch, index)` ranks two logs, and the higher one is the
//! one a seat adopts on catch-up or fail-over.
//!
//! A [`Log`] folds its records, `KEEP` (512) at a time, into a *base*:
//! the image of the engine they replay to, which the seat wrote when it
//! applied the last of them. It keeps at least `KEEP` and fewer than
//! twice `KEEP` records past the base. Where the fold falls depends on
//! the log's length alone, so two seats holding the same records hold
//! the same base and the same entries, and a log's encoding — what
//! catch-up and fail-over send — grows with the live state, not with
//! the history.
//!
//! The wire encoding is hand-rolled and panic-free in both directions:
//! a malformed record or log from a peer must surface as
//! [`softcell_types::Error::Malformed`], never abort the controller.

use std::collections::VecDeque;

use softcell_ctlchan::PacketIn;
use softcell_types::{Error, Result};

use crate::node::ReplicaConfig;
use crate::store::State;

/// Encoded length of the shortest record (a path request): epoch,
/// index, op tag, station, clause. Bounds the entry count a log payload
/// can claim.
const MIN_RECORD_LEN: usize = 8 + 8 + 1 + 4 + 2;

/// Records a [`Log`] folds at a time, and keeps at least after its base.
const KEEP: u64 = 512;

/// Index of the last record folded into the base of a log whose last
/// index is `last`: the last multiple of `KEEP` at least `KEEP` back.
fn base_for(last: u64) -> u64 {
    last.saturating_sub(KEEP) / KEEP * KEEP
}

/// One entry of the replicated log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// The membership epoch the leader appended the record under.
    pub epoch: u64,
    /// Position in the log (first record is 1).
    pub index: u64,
    /// The agent input.
    pub op: PacketIn,
}

impl LogRecord {
    /// `(epoch, index)`: logs are ranked by their last entry's key.
    pub fn key(&self) -> (u64, u64) {
        (self.epoch, self.index)
    }

    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.epoch.to_be_bytes());
        out.extend_from_slice(&self.index.to_be_bytes());
        self.op.write_to(out);
    }

    fn read(r: &mut Cursor<'_>) -> Result<LogRecord> {
        let epoch = r.take_u64()?;
        let index = r.take_u64()?;
        let (op, used) = PacketIn::read_prefix(r.rest())?;
        r.pos += used;
        Ok(LogRecord { epoch, index, op })
    }
}

/// Writes consecutive log entries: a `u32` count, then the records.
fn write_entries<'a>(entries: impl ExactSizeIterator<Item = &'a LogRecord>, out: &mut Vec<u8>) {
    out.extend_from_slice(&(entries.len() as u32).to_be_bytes());
    for r in entries {
        r.write(out);
    }
}

/// Reads [`write_entries`] output. A count the payload cannot hold and
/// indices that do not run consecutively are [`Error::Malformed`]; the
/// preallocation a peer's count buys is capped.
fn read_entries(r: &mut Cursor<'_>) -> Result<Vec<LogRecord>> {
    let n = r.take_u32()? as usize;
    if n > r.remaining() / MIN_RECORD_LEN {
        return Err(Error::Malformed(format!(
            "log claims {n} entries in {} bytes",
            r.remaining()
        )));
    }
    let mut entries: Vec<LogRecord> = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let record = LogRecord::read(r)?;
        if let Some(prev) = entries.last() {
            if prev.index.checked_add(1) != Some(record.index) {
                return Err(Error::Malformed(format!(
                    "log index {} follows {}",
                    record.index, prev.index
                )));
            }
        }
        entries.push(record);
    }
    Ok(entries)
}

/// Serializes consecutive log entries: the `Replicate` payload (the
/// appended record behind the entry it follows).
pub fn encode_log(entries: &[LogRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + entries.len() * 40);
    write_entries(entries.iter(), &mut out);
    out
}

/// Parses [`encode_log`] output. Truncation, trailing bytes, an unknown
/// packet-in reason, a count the payload cannot hold and indices that
/// do not run consecutively are each an [`Error::Malformed`], never a
/// panic.
pub fn decode_log(buf: &[u8]) -> Result<Vec<LogRecord>> {
    let mut r = Cursor::new(buf);
    let entries = read_entries(&mut r)?;
    r.done()?;
    Ok(entries)
}

/// One seat's log: the image of the engine its folded prefix replays
/// to, and the records after it.
pub struct Log {
    /// `(epoch, index)` of the last folded record; `(0, 0)` before any.
    base_key: (u64, u64),
    /// The image of the engine the folded records replay to.
    base: Vec<u8>,
    /// The records after the base, index `base_key.1 + 1` first.
    entries: VecDeque<LogRecord>,
    /// The image the next fold makes the base: the engine's at index
    /// `base_key.1 + KEEP`, once the log reaches it.
    next: Option<Vec<u8>>,
}

impl Log {
    /// An empty log over `fresh`, an engine nothing was applied to.
    pub fn new(fresh: &State) -> Log {
        Log {
            base_key: (0, 0),
            base: fresh.image(),
            entries: VecDeque::new(),
            next: None,
        }
    }

    /// Index of the last record, which is the number of records.
    pub fn last_index(&self) -> u64 {
        self.base_key.1 + self.entries.len() as u64
    }

    /// The last record, if any. The base never swallows it.
    pub fn last(&self) -> Option<LogRecord> {
        self.entries.back().copied()
    }

    /// The key that ranks this log: its last record's `(epoch, index)`.
    pub fn rank(&self) -> (u64, u64) {
        self.last().map_or(self.base_key, |r| r.key())
    }

    /// The record at `index`, unless it is folded into the base or past
    /// the end.
    pub fn get(&self, index: u64) -> Option<LogRecord> {
        let at = index.checked_sub(self.base_key.1 + 1)?;
        self.entries.get(usize::try_from(at).ok()?).copied()
    }

    /// Appends the next record; `state` is the engine it was applied
    /// to. At every `KEEP`th index the engine's image is kept, and the
    /// one kept `KEEP` records before becomes the base, the records up to
    /// it folded away.
    pub fn push(&mut self, record: LogRecord, state: &State) {
        self.entries.push_back(record);
        if !record.index.is_multiple_of(KEEP) {
            return;
        }
        if let Some(base) = self.next.replace(state.image()) {
            let folded = self.entries.len().saturating_sub(KEEP as usize);
            for r in self.entries.drain(..folded) {
                self.base_key = r.key();
            }
            self.base = base;
        }
    }

    /// Serializes the log: the base key, the records, the base's image.
    /// This is the `SnapshotTransfer` payload, and equal on two seats
    /// exactly when they hold the same records.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.entries.len() * 40);
        out.extend_from_slice(&self.base_key.0.to_be_bytes());
        out.extend_from_slice(&self.base_key.1.to_be_bytes());
        write_entries(self.entries.iter(), &mut out);
        out.extend_from_slice(&self.base);
        out
    }

    /// The rank of an encoded log, read from its base key and records
    /// alone: a seat compares it with its own before it restores the
    /// image. Refuses what [`Log::decode`] refuses before the image.
    pub fn rank_of(buf: &[u8]) -> Result<(u64, u64)> {
        let (base_key, entries) = Self::read_head(&mut Cursor::new(buf))?;
        Ok(entries.back().map_or(base_key, |e| e.key()))
    }

    /// Parses [`Log::encode`] output on a seat configured by `cfg`: the
    /// log of [`Log::replay`].
    pub fn decode(buf: &[u8], cfg: &ReplicaConfig) -> Result<Log> {
        Self::replay(buf, cfg).map(|(log, _)| log)
    }

    /// Parses [`Log::encode`] output on a seat configured by `cfg`, and
    /// replays it: a fresh engine restored from the image the bytes
    /// carry, then the records. A record the leader appended applied
    /// cleanly on the same prefix there, so it applies the same way
    /// here. Returns the log and the engine. Besides what [`decode_log`]
    /// refuses, records that do not follow the base, a base other than
    /// the one the log's length puts there, and an image that is
    /// malformed or not the one its engine writes are each an
    /// [`Error::Malformed`]. The image comes last, so the cheap checks
    /// run before an engine is restored.
    pub fn replay(buf: &[u8], cfg: &ReplicaConfig) -> Result<(Log, State)> {
        let mut r = Cursor::new(buf);
        let (base_key, entries) = Self::read_head(&mut r)?;
        let base = r.rest().to_vec();
        let mut state = State::read(&mut r, cfg)?;
        r.done()?;
        if state.image() != base {
            return Err(Error::Malformed("log image is not its engine's".into()));
        }
        let mut next = None;
        for e in &entries {
            let _ = state.apply(&e.op);
            if e.index.is_multiple_of(KEEP) {
                next = Some(state.image());
            }
        }
        let log = Log {
            base_key,
            base,
            entries,
            next,
        };
        Ok((log, state))
    }

    /// Reads an encoded log up to its image: the base key and the
    /// records, checked to follow it and to fold where the log's length
    /// puts the base.
    fn read_head(r: &mut Cursor<'_>) -> Result<((u64, u64), VecDeque<LogRecord>)> {
        let base_key = (r.take_u64()?, r.take_u64()?);
        let entries = VecDeque::from(read_entries(r)?);
        let last_index = base_key.1.saturating_add(entries.len() as u64);
        let follows = entries
            .front()
            .is_none_or(|e| base_key.1.checked_add(1) == Some(e.index) && e.epoch >= base_key.0);
        if !follows || base_for(last_index) != base_key.1 {
            return Err(Error::Malformed(format!(
                "log of {last_index} records folded at {}",
                base_key.1
            )));
        }
        Ok((base_key, entries))
    }
}

/// Bounds-checked big-endian reader over a record, log or state payload.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// The bytes not read yet.
    fn rest(&self) -> &'a [u8] {
        self.buf.get(self.pos..).unwrap_or_default()
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N]> {
        let bytes = self
            .pos
            .checked_add(N)
            .and_then(|end| self.buf.get(self.pos..end))
            .and_then(|s| <[u8; N]>::try_from(s).ok())
            .ok_or_else(|| {
                Error::Malformed(format!(
                    "log truncated: wanted {N} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        self.pos += N;
        Ok(bytes)
    }

    pub(crate) fn take_u16(&mut self) -> Result<u16> {
        self.take().map(u16::from_be_bytes)
    }

    pub(crate) fn take_u32(&mut self) -> Result<u32> {
        self.take().map(u32::from_be_bytes)
    }

    pub(crate) fn take_u64(&mut self) -> Result<u64> {
        self.take().map(u64::from_be_bytes)
    }

    fn done(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(Error::Malformed(format!("{n} trailing bytes after log"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::config;
    use proptest::prelude::*;
    use softcell_ctlchan::{Message, HEADER_LEN};
    use softcell_policy::clause::ClauseId;
    use softcell_types::{BaseStationId, SimTime, SwitchId, UeId, UeImsi};

    const OPS: [PacketIn; 3] = [
        PacketIn::Attach {
            imsi: UeImsi(7),
            bs: BaseStationId(11),
            ue_id: UeId(4),
            now: SimTime(99),
        },
        PacketIn::Detach { imsi: UeImsi(7) },
        PacketIn::PathRequest {
            bs: BaseStationId(11),
            clause: ClauseId(5),
        },
    ];

    fn record(index: u64) -> LogRecord {
        LogRecord {
            epoch: 3,
            index,
            op: OPS[(index as usize - 1) % OPS.len()],
        }
    }

    fn log() -> Vec<LogRecord> {
        (1..=OPS.len() as u64).map(record).collect()
    }

    /// Offset of the op's packet-in reason byte in an encoded record.
    const OP_TAG_AT: usize = 16;

    fn malformed<T>(r: Result<T>) -> bool {
        matches!(r, Err(Error::Malformed(_)))
    }

    #[test]
    fn records_round_trip() {
        for r in log() {
            assert_eq!(decode_log(&encode_log(&[r])).unwrap(), vec![r]);
        }
        assert_eq!(decode_log(&encode_log(&log())).unwrap(), log());
        assert_eq!(decode_log(&encode_log(&[])).unwrap(), vec![]);
    }

    #[test]
    fn malformed_records_are_rejected_not_panicking() {
        for r in log() {
            let buf = encode_log(&[r]);
            for cut in 0..buf.len() {
                assert!(malformed(decode_log(&buf[..cut])), "prefix {cut}");
            }
            let mut long = buf.clone();
            long.push(0);
            assert!(malformed(decode_log(&long)), "trailing byte");
            let mut bad = buf;
            bad[4 + OP_TAG_AT] = 0xEE;
            assert!(malformed(decode_log(&bad)), "unknown op tag");
        }
    }

    #[test]
    fn malformed_logs_are_rejected_not_panicking() {
        let buf = encode_log(&log());
        for cut in 0..buf.len() {
            assert!(malformed(decode_log(&buf[..cut])), "prefix of {cut} bytes");
        }
        let mut long = buf.clone();
        long.push(0);
        assert!(malformed(decode_log(&long)), "trailing byte");
        // unknown op tag on the second entry (the first is an attach)
        let mut bad = buf.clone();
        bad[encode_log(&log()[..1]).len() + OP_TAG_AT] = 0xEE;
        assert!(malformed(decode_log(&bad)), "unknown op tag");
        // counts the payload cannot hold, up to u32::MAX: refused before
        // anything is allocated for them
        for count in [4u32, 1 << 20, u32::MAX] {
            let mut big = buf.clone();
            big[..4].copy_from_slice(&count.to_be_bytes());
            assert!(malformed(decode_log(&big)), "count {count}");
        }
        let mut gap = log();
        gap[2].index = 9;
        assert!(malformed(decode_log(&encode_log(&gap))), "index gap");
    }

    /// Appends the records `from..=to` to `log`, applying each to `state`.
    fn extend(log: &mut Log, state: &mut State, from: u64, to: u64) {
        for index in from..=to {
            let _ = state.apply(&record(index).op);
            log.push(record(index), state);
        }
    }

    /// A log of the records `1..=n`.
    fn log_of(n: u64) -> Log {
        let mut state = State::new(&config(0)).unwrap();
        let mut log = Log::new(&state);
        extend(&mut log, &mut state, 1, n);
        log
    }

    #[test]
    fn a_long_log_folds_into_a_base_that_replays_the_same() {
        let cfg = config(0);
        let mut state = State::new(&cfg).unwrap();
        let mut long = Log::new(&state);
        let n = 5 * KEEP + 3;
        extend(&mut long, &mut state, 1, n);
        assert_eq!(long.last_index(), n);
        assert_eq!(long.rank(), (3, n));
        assert_eq!(long.entries.len() as u64, KEEP + 3);
        assert_eq!(long.get(4 * KEEP + 1), Some(record(4 * KEEP + 1)));
        assert_eq!(long.get(4 * KEEP), None, "folded");
        let buf = long.encode();
        let (mut back, mut replayed) = Log::replay(&buf, &cfg).unwrap();
        assert_eq!(
            replayed.image(),
            state.image(),
            "base + entries replay to the full log's engine"
        );
        assert_eq!(state.path_count(), 1);
        assert!(buf.len() < 2 * KEEP as usize * 40 + 64, "bounded by KEEP");
        assert_eq!(back.encode(), buf);
        // the replayed log folds where the original does, onto the same
        // base
        extend(&mut long, &mut state, n + 1, 6 * KEEP);
        extend(&mut back, &mut replayed, n + 1, 6 * KEEP);
        assert_eq!(back.encode(), long.encode());
        assert_eq!(long.entries.len() as u64, KEEP);
        // the rank reads without the image: a cut one still ranks
        assert_eq!(Log::rank_of(&buf[..buf.len() - 1]).unwrap(), (3, n));
    }

    #[test]
    fn a_seat_restored_from_a_folded_log_holds_the_same_tables() {
        use crate::install::Direction;
        let cfg = config(0);
        let mut state = State::new(&cfg).unwrap();
        let mut log = Log::new(&state);
        // every station's path of each clause, over and over: the log
        // folds, and the tables hold policy rules and location entries
        let clauses = [0, 1, 2, 3, 5].map(ClauseId);
        for index in 1..=2 * KEEP + 7 {
            let i = index as usize;
            let bs = BaseStationId((i % 4) as u32);
            let op = PacketIn::PathRequest {
                bs,
                clause: clauses[i / 4 % clauses.len()],
            };
            let record = LogRecord {
                epoch: 3,
                index,
                op,
            };
            let _ = state.apply(&record.op);
            log.push(record, &state);
        }
        assert_eq!(log.entries.len() as u64, KEEP + 7, "folded");
        let (_, restored) = Log::replay(&log.encode(), &cfg).unwrap();
        let tables = |s: &State| s.engine().installer().shadows(Direction::Downlink).clone();
        let (ours, theirs) = (tables(&state), tables(&restored));
        assert!((0..ours.len()).any(|sw| ours.switch(SwitchId(sw as u32)).classes().type3 > 0));
        assert_eq!(ours.diff(&theirs), vec![]);
        assert_eq!(theirs.diff(&ours), vec![]);
    }

    #[test]
    fn malformed_log_images_are_rejected_not_panicking() {
        let cfg = config(0);
        for log in [log_of(3), log_of(2 * KEEP)] {
            let image = log.encode();
            for cut in 0..image.len() {
                assert!(malformed(Log::decode(&image[..cut], &cfg)), "prefix {cut}");
            }
            let mut trailing = image.clone();
            trailing.push(0);
            assert!(malformed(Log::decode(&trailing, &cfg)), "trailing byte");
        }
        // a base the length does not put there: no fold at 3 records...
        let mut moved = log_of(3);
        moved.base_key = (3, 1);
        moved.entries.pop_front();
        assert!(malformed(Log::decode(&moved.encode(), &cfg)), "early fold");
        assert!(malformed(Log::rank_of(&moved.encode())), "early fold");
        // ...and records that do not follow the base
        let mut gap = log_of(2 * KEEP);
        gap.entries.pop_front();
        assert!(
            malformed(Log::decode(&gap.encode(), &cfg)),
            "gap after the base"
        );
    }

    /// A packet-in of each reason, drawn from raw words.
    fn packet_in((reason, a, b): (u8, u64, u64)) -> PacketIn {
        match reason % 3 {
            0 => PacketIn::Attach {
                imsi: UeImsi(a),
                bs: BaseStationId(b as u32),
                ue_id: UeId((b >> 32) as u16),
                now: SimTime(a ^ b),
            },
            1 => PacketIn::PathRequest {
                bs: BaseStationId(a as u32),
                clause: ClauseId(b as u16),
            },
            _ => PacketIn::Detach { imsi: UeImsi(a) },
        }
    }

    /// `buf` with `(position, byte)` overwrites, positions taken modulo
    /// its length.
    fn bent(buf: &[u8], flips: &[(u32, u8)]) -> Vec<u8> {
        let mut out = buf.to_vec();
        for &(at, byte) in flips {
            if let Some(b) = out.get_mut(at as usize % buf.len().max(1)) {
                *b = byte;
            }
        }
        out
    }

    proptest! {
        /// The log's canonical form: every record round-trips, a
        /// record's op bytes are ctlchan's packet-in payload, and any
        /// bytes `decode_log` or `Log::decode` accepts — the encodings
        /// themselves, or with bytes overwritten — re-encode identically.
        #[test]
        fn the_log_encoding_is_canonical(
            ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..12),
            epoch in any::<u64>(),
            first in 1u64..1 << 40,
            fold in any::<bool>(),
            flips in proptest::collection::vec((any::<u32>(), any::<u8>()), 0..4),
        ) {
            let ops: Vec<PacketIn> = ops.into_iter().map(packet_in).collect();
            let records: Vec<LogRecord> = (first..).zip(&ops)
                .map(|(index, op)| LogRecord { epoch, index, op: *op })
                .collect();
            let buf = encode_log(&records);
            prop_assert_eq!(decode_log(&buf).unwrap(), records.clone());
            for r in &records {
                let payload = &Message::PacketIn(r.op).encode(0)[HEADER_LEN..];
                prop_assert_eq!(&encode_log(&[*r])[4 + OP_TAG_AT..], payload);
            }
            if let Ok(back) = decode_log(&bent(&buf, &flips)) {
                prop_assert_eq!(encode_log(&back), bent(&buf, &flips));
            }

            // a whole log, folded when `fold`
            let len = ops.len() + if fold && !ops.is_empty() { 2 * KEEP as usize } else { 0 };
            let cfg = config(0);
            let mut state = State::new(&cfg).unwrap();
            let mut log = Log::new(&state);
            for (index, op) in (1..).zip(ops.iter().cycle().take(len)) {
                let _ = state.apply(op);
                log.push(LogRecord { epoch, index, op: *op }, &state);
            }
            let image = log.encode();
            prop_assert_eq!(Log::decode(&image, &cfg).unwrap().encode(), image.clone());
            if let Ok(back) = Log::decode(&bent(&image, &flips), &cfg) {
                prop_assert_eq!(back.encode(), bent(&image, &flips));
            }
        }
    }
}
