//! Paths of one station that share a tag stay apart (§3.2, Algorithm 1).
//!
//! Four per-provider clauses whose middlebox chains are prefixes of one
//! another (`[FW]`, `[FW,TC]`, `[FW,TC,EC]`, `[FW,TC,EC,IDS]`), one UE
//! per clause per station on `paper(4)`, one connection each. Every
//! non-empty combination of the four clauses is its own policy, and
//! every connection must round-trip through its own chain: once right
//! after its path is installed, and again, consistently, after all the
//! other paths are (`assert_policy_consistency` sends that second
//! round trip). A downlink installed under the uplink's exit tag that
//! redirected another path of the station holding that tag failed four
//! of the fifteen combinations, forty flows each.
//!
//! Then the §3.2 offline pass re-installs every path in a fresh
//! installer, its downlinks' last legs in a fresh location stage. Its
//! migration retires the tags the open connections carry, so every UE
//! reconnects, and the new connections must keep their paths apart too.
//!
//! With all four clauses, last legs that re-enter a switch on another
//! link, and last middleboxes' returns, continue at the location stage:
//! the test finds their goto-stage rules in the physical tables, and the
//! round trips walk through them.

use std::net::Ipv4Addr;

use softcell::dataplane::{Action, FlowRule};
use softcell::packet::Protocol;
use softcell::policy::clause::{Clause, ServiceAction};
use softcell::policy::{Predicate, Provider, ServicePolicy, SubscriberAttributes};
use softcell::sim::SimWorld;
use softcell::topology::CellularParams;
use softcell::types::{BaseStationId, MiddleboxKind, Result, UeImsi};

const CLAUSES: usize = 4;

fn policy(subset: &[usize]) -> ServicePolicy {
    let kinds = MiddleboxKind::enumerate(CLAUSES);
    let clause = |i: usize| Clause {
        priority: 10 + i as u16,
        predicate: Predicate::Provider(Provider::Partner(i as u16 + 1)),
        action: ServiceAction::through(kinds[..=i].to_vec()),
    };
    ServicePolicy::from_clauses(subset.iter().map(|&i| clause(i)).collect())
        .expect("distinct priorities")
}

/// One connection per clause of `subset` per station, each round-tripped
/// once as it is opened; then the consistency check and its second pass;
/// then the offline pass, a new connection per UE, and the check again.
/// Returns the goto-stage rules of the physical tables that packets
/// went through by each check, as (port-qualified by a link, by a
/// middlebox's return).
fn run(subset: &[usize]) -> Result<Vec<(usize, usize)>> {
    let topo = CellularParams::paper(4).build()?;
    let mut world = SimWorld::new(&topo, policy(subset));
    let ues = || {
        let stations = 0..topo.base_stations().len();
        stations.flat_map(|bs| subset.iter().map(move |&i| (bs, i)))
    };
    let connect = |world: &mut SimWorld<'_>, imsi, bs| -> Result<()> {
        world.attach(imsi, BaseStationId(bs as u32))?;
        let server = Ipv4Addr::new(93, 184, 216, 34);
        let id = world.start_connection(imsi, server, 443, Protocol::Tcp)?;
        world.round_trip(id)
    };
    // the goto-stage rules of the physical tables a packet hit, by arrival
    let gotos = |world: &SimWorld<'_>| {
        let (mut link, mut middlebox) = (0, 0);
        for sw in topo.switches() {
            let table = &world.net.switch(sw.id).table;
            let hit = |r: &&FlowRule| table.counter(r.id) > 0;
            for rule in table
                .iter()
                .filter(|r| r.action == Action::GotoLocation)
                .filter(hit)
            {
                let from_mb = (topo.middleboxes().iter())
                    .any(|m| m.switch == sw.id && Some(m.port) == rule.matcher.in_port);
                *if from_mb { &mut middlebox } else { &mut link } += 1;
            }
        }
        (link, middlebox)
    };
    for (bs, i) in ues() {
        let imsi = UeImsi((bs * CLAUSES + i) as u64);
        let mut attrs = SubscriberAttributes::default_home(imsi);
        attrs.provider = Provider::Partner(i as u16 + 1);
        world.provision(attrs);
        connect(&mut world, imsi, bs)?;
    }
    world.assert_policy_consistency()?;
    let mut seen = vec![gotos(&world)];

    world.apply_reoptimization()?;
    for (bs, i) in ues() {
        let imsi = UeImsi((bs * CLAUSES + i) as u64);
        world.detach(imsi)?;
        connect(&mut world, imsi, bs)?;
    }
    world.assert_policy_consistency()?;
    seen.push(gotos(&world));
    Ok(seen)
}

#[test]
fn qualified_last_legs_continue_at_the_stage_in_the_physical_tables() {
    let seen = run(&[0, 1, 2, 3]).expect("all four clauses");
    for (link, middlebox) in seen {
        assert!(link > 0, "no packet continued at the stage from a link");
        assert!(middlebox > 0, "no middlebox return continued at the stage");
    }
}

#[test]
fn every_clause_combination_keeps_its_paths_apart() {
    let failed: Vec<String> = (1u32..1 << CLAUSES)
        .filter_map(|mask| {
            let subset: Vec<usize> = (0..CLAUSES).filter(|i| mask & (1 << i) != 0).collect();
            let label: Vec<usize> = subset.iter().map(|i| i + 1).collect();
            run(&subset)
                .err()
                .map(|e| format!("clauses {label:?}: {e}"))
        })
        .collect();
    assert!(failed.is_empty(), "{failed:#?}");
}
