//! A seat's state: the Algorithm-1 engine, fed the log in index order.
//!
//! Every seat runs one [`CentralController`] over `paper(4)`, the
//! server's topology, provisioned from its [`ReplicaConfig`].
//! [`State::apply`] is the one deterministic step: the agent input goes
//! through [`CentralController::apply`], and the rule ops it queues are
//! dropped, since no switch is connected. The leader runs it before it
//! appends a record, so the reply carries the engine's own answer, and
//! every seat runs it, in index order, for every record it holds.
//!
//! A log's folded prefix travels as the engine's *image*
//! (`State::write` / `State::read`): the attached UEs in IMSI order, the
//! address pool, and the installed (station, clause) keys in install
//! order. A receiving seat restores a fresh engine from it: the UEs and
//! the pool through [`CentralController::restore_locations`], the paths
//! by asking for each key again, in order. An install reads no UE state
//! and a refused one leaves no trace, so the keys rebuild the same tags
//! and shadow tables. Microflow state stays at the agents and is
//! rebuilt by `resync`, as §5.2 prescribes.

use softcell_ctlchan::PacketIn;
use softcell_policy::clause::ClauseId;
use softcell_types::{BaseStationId, Error, Result, SimTime, UeId, UeImsi};

use softcell_topology::CellularParams;

use crate::core::{CentralController, ControllerConfig};
use crate::input::{Input, Output};
use crate::log::Cursor;
use crate::node::ReplicaConfig;
use crate::state::UeRecord;

/// Encoded lengths of a UE record (IMSI, station, UE id, address,
/// clock) and of a path key (station, clause): they bound the counts an
/// image can claim.
const UE_LEN: usize = 8 + 4 + 2 + 4 + 8;
const PATH_LEN: usize = 4 + 2;

/// A fresh engine over `paper(4)` with `cfg`'s policy and subscribers.
fn engine(cfg: &ReplicaConfig) -> Result<CentralController> {
    let topo = CellularParams::paper(4).build()?;
    let policy = cfg.policy.clone();
    let mut engine = CentralController::new(&topo, ControllerConfig::simulation(), policy);
    cfg.subscribers
        .values()
        .for_each(|attrs| engine.put_subscriber(*attrs));
    Ok(engine)
}

/// Writes the image of `engine`, whose paths were installed in the
/// order `paths` lists: equal engines fed equal inputs write equal bytes.
fn write_image(engine: &CentralController, paths: &[(BaseStationId, ClauseId)], out: &mut Vec<u8>) {
    let mut ues: Vec<&UeRecord> = engine.state().attached().collect();
    ues.sort_unstable_by_key(|rec| rec.imsi);
    out.extend_from_slice(&(ues.len() as u32).to_be_bytes());
    for rec in ues {
        out.extend_from_slice(&rec.imsi.0.to_be_bytes());
        out.extend_from_slice(&rec.bs.0.to_be_bytes());
        out.extend_from_slice(&rec.ue_id.0.to_be_bytes());
        out.extend_from_slice(&u32::from(rec.permanent_ip).to_be_bytes());
        out.extend_from_slice(&rec.since.0.to_be_bytes());
    }
    let (next, free) = engine.state().address_pool().parts();
    out.extend_from_slice(&next.to_be_bytes());
    out.extend_from_slice(&(free.len() as u32).to_be_bytes());
    for id in free {
        out.extend_from_slice(&id.to_be_bytes());
    }
    out.extend_from_slice(&(paths.len() as u32).to_be_bytes());
    for (bs, clause) in paths {
        out.extend_from_slice(&bs.0.to_be_bytes());
        out.extend_from_slice(&clause.0.to_be_bytes());
    }
}

/// Reads a `u32` count of items of at least `len` bytes each, refusing a
/// count the rest of the payload cannot hold.
fn read_count(r: &mut Cursor<'_>, len: usize, what: &str) -> Result<usize> {
    let n = r.take_u32()? as usize;
    if n > r.remaining() / len {
        return Err(Error::Malformed(format!(
            "state claims {n} {what} in {} bytes",
            r.remaining()
        )));
    }
    Ok(n)
}

/// The state one log replays to: the engine, and the keys of the paths
/// it installed, in install order.
pub struct State {
    engine: CentralController,
    paths: Vec<(BaseStationId, ClauseId)>,
}

impl State {
    /// A fresh engine: nothing attached, nothing installed.
    pub fn new(cfg: &ReplicaConfig) -> Result<State> {
        Ok(State {
            engine: engine(cfg)?,
            paths: Vec::new(),
        })
    }

    /// The engine, to read.
    pub fn engine(&self) -> &CentralController {
        &self.engine
    }

    /// Number of installed paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Writes the engine's image.
    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        write_image(&self.engine, &self.paths, out);
    }

    /// The engine's image: equal on two seats exactly when their engines
    /// were fed the same inputs.
    pub fn image(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write(&mut out);
        out
    }

    /// Restores a fresh engine from [`State::write`] output. Truncation,
    /// a count the payload cannot hold, UEs out of ascending IMSI order
    /// (which would not re-encode to the same bytes), a pool that
    /// disagrees with the UEs, an unknown station, a path key listed
    /// twice and a key whose re-install fails are each an
    /// [`Error::Malformed`], never a panic.
    pub(crate) fn read(r: &mut Cursor<'_>, cfg: &ReplicaConfig) -> Result<State> {
        let mut ues: Vec<UeRecord> = Vec::new();
        for _ in 0..read_count(r, UE_LEN, "UEs")? {
            let rec = UeRecord {
                imsi: UeImsi(r.take_u64()?),
                bs: BaseStationId(r.take_u32()?),
                ue_id: UeId(r.take_u16()?),
                permanent_ip: r.take_u32()?.into(),
                since: SimTime(r.take_u64()?),
            };
            if ues.last().is_some_and(|last| last.imsi >= rec.imsi) {
                return Err(Error::Malformed(format!("UE {} out of order", rec.imsi)));
            }
            ues.push(rec);
        }
        let next = r.take_u32()?;
        let free = (0..read_count(r, 4, "free addresses")?)
            .map(|_| r.take_u32())
            .collect::<Result<Vec<u32>>>()?;
        let mut keys = Vec::new();
        for _ in 0..read_count(r, PATH_LEN, "paths")? {
            keys.push((BaseStationId(r.take_u32()?), ClauseId(r.take_u16()?)));
        }
        let malformed = |e: Error| Error::Malformed(format!("state image: {e}"));
        let mut state = State::new(cfg)?;
        state
            .engine
            .restore_locations(&ues, (next, &free))
            .map_err(malformed)?;
        for (bs, clause) in keys {
            if state.engine.path_tags(bs, clause).is_some() {
                return Err(Error::Malformed(format!("path {bs}/{clause:?} twice")));
            }
            state
                .apply(&PacketIn::PathRequest { bs, clause })
                .map_err(malformed)?;
        }
        Ok(state)
    }

    /// Applies one agent input through the engine and drops the rule ops
    /// it queued; says whether it queued any. An error changes nothing.
    pub fn apply(&mut self, op: &PacketIn) -> Result<(Output, bool)> {
        let new_path = match *op {
            PacketIn::PathRequest { bs, clause } => self
                .engine
                .path_tags(bs, clause)
                .is_none()
                .then_some((bs, clause)),
            _ => None,
        };
        let out = self.engine.apply(&Input::Agent(*op))?;
        let queued = !self.engine.pending_ops.is_empty();
        self.engine.pending_ops.clear();
        self.paths.extend(new_path);
        Ok((out, queued))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{attach, config};

    fn read(buf: &[u8]) -> Result<State> {
        State::read(&mut Cursor::new(buf), &config(0))
    }

    fn path(bs: u32, clause: u16) -> PacketIn {
        PacketIn::PathRequest {
            bs: BaseStationId(bs),
            clause: ClauseId(clause),
        }
    }

    fn attached(s: &mut State, op: PacketIn) -> UeRecord {
        match s.apply(&op).unwrap().0 {
            Output::Attached(grant) => grant.record,
            other => panic!("attach applied as {other:?}"),
        }
    }

    fn malformed<T>(r: Result<T>) -> bool {
        matches!(r, Err(Error::Malformed(_)))
    }

    #[test]
    fn an_attach_elsewhere_is_refused_and_a_detach_frees_the_address() {
        let mut s = State::new(&config(0)).unwrap();
        let first = attached(&mut s, attach(7));
        assert_eq!(attached(&mut s, attach(7)), first, "idempotent in place");
        let moved = PacketIn::Attach {
            imsi: UeImsi(7),
            bs: BaseStationId(5),
            ue_id: UeId(1),
            now: SimTime(9),
        };
        let err = s.apply(&moved).err();
        assert!(matches!(err, Some(Error::InvalidState(_))), "{err:?}");
        assert_eq!(s.engine().state().attached_count(), 1);

        // A detach frees the address for the next new UE; detaching an
        // unknown IMSI is refused and changes nothing.
        s.apply(&PacketIn::Detach { imsi: UeImsi(7) }).unwrap();
        let err = s.apply(&PacketIn::Detach { imsi: UeImsi(7) }).err();
        assert!(matches!(err, Some(Error::NotFound(_))), "{err:?}");
        assert_eq!(attached(&mut s, attach(8)).permanent_ip, first.permanent_ip);
    }

    #[test]
    fn state_round_trips_and_refuses_disagreeing_pools() {
        let mut s = State::new(&config(0)).unwrap();
        for imsi in 0..5 {
            attached(&mut s, attach(imsi));
        }
        for imsi in [3, 1] {
            s.apply(&PacketIn::Detach { imsi: UeImsi(imsi) }).unwrap();
        }
        for (bs, clause) in [(6, 5), (1, 0), (6, 2)] {
            s.apply(&path(bs, clause)).unwrap();
        }
        let buf = s.image();
        let mut back = read(&buf).unwrap();
        assert_eq!(back.image(), buf);
        for (bs, clause) in [(6, 5), (1, 0), (6, 2)] {
            let key = (BaseStationId(bs), ClauseId(clause));
            assert_eq!(
                back.engine().path_tags(key.0, key.1),
                s.engine().path_tags(key.0, key.1)
            );
        }
        // the free list comes back in order: both hand out the same next
        assert_eq!(attached(&mut back, attach(9)), attached(&mut s, attach(9)));

        // UE count, UEs, then the pool (cursor, free count, ids): a pool
        // that frees one more address than the UEs leave free disagrees
        let free_at = 4 + 3 * UE_LEN + 4;
        let mut extra = buf[..free_at].to_vec();
        extra.extend_from_slice(&3u32.to_be_bytes());
        for id in [3u32, 1, 0] {
            extra.extend_from_slice(&id.to_be_bytes());
        }
        extra.extend_from_slice(&buf[free_at + 4 + 2 * 4..]);
        assert!(malformed(read(&extra)));
    }

    #[test]
    fn registry_entries_out_of_order_are_refused() {
        // two entries swapped would restore the same engine and
        // re-encode sorted: not the bytes that were read
        let mut s = State::new(&config(0)).unwrap();
        for imsi in [1, 2] {
            attached(&mut s, attach(imsi));
        }
        let mut buf = s.image();
        let first = buf[4..4 + UE_LEN].to_vec();
        buf.copy_within(4 + UE_LEN..4 + 2 * UE_LEN, 4);
        buf[4 + UE_LEN..4 + 2 * UE_LEN].copy_from_slice(&first);
        assert!(malformed(read(&buf)));
    }

    #[test]
    fn unknown_stations_and_bad_path_keys_are_refused() {
        let mut s = State::new(&config(0)).unwrap();
        attached(&mut s, attach(1));
        s.apply(&path(3, 0)).unwrap();
        let buf = s.image();
        let (station_at, keys_at) = (4 + 8, buf.len() - PATH_LEN);
        // a UE at a station paper(4) lacks
        let mut far = buf.clone();
        far[station_at..station_at + 4].copy_from_slice(&160u32.to_be_bytes());
        // a path key listed twice, and one whose install is refused:
        // clause 1 denies, and station 160 does not exist
        let mut twice = buf[..keys_at - 4].to_vec();
        twice.extend_from_slice(&2u32.to_be_bytes());
        twice.extend_from_slice(&buf[keys_at..]);
        twice.extend_from_slice(&buf[keys_at..]);
        let mut deny = buf.clone();
        deny[keys_at + 4..].copy_from_slice(&1u16.to_be_bytes());
        let mut nowhere = buf.clone();
        nowhere[keys_at..keys_at + 4].copy_from_slice(&160u32.to_be_bytes());
        for bad in [far, twice, deny, nowhere] {
            assert!(malformed(read(&bad)));
        }
    }
}
