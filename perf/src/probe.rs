//! `probe multi-clause`: the eligibility probe that decided what
//! `fabric_forward` may run on. Report-only; it gates nothing.
//!
//! Four per-provider clauses whose middlebox chains are prefixes of one
//! another (`[FW]`, `[FW,TC]`, `[FW,TC,EC]`, `[FW,TC,EC,IDS]`), one UE
//! per clause per station on `paper(4)`, one connection each. Every
//! non-empty combination of the four clauses is tried as its own policy.

use std::fmt::Write as _;
use std::net::Ipv4Addr;

use softcell_packet::Protocol;
use softcell_policy::clause::{Clause, ServiceAction};
use softcell_policy::{Predicate, Provider, ServicePolicy, SubscriberAttributes};
use softcell_sim::SimWorld;
use softcell_topology::CellularParams;
use softcell_types::{BaseStationId, MiddleboxKind, UeImsi};

const CLAUSES: usize = 4;

fn policy(subset: &[usize]) -> ServicePolicy {
    let kinds = MiddleboxKind::enumerate(CLAUSES);
    ServicePolicy::from_clauses(
        subset
            .iter()
            .map(|&i| Clause {
                priority: 10 + i as u16,
                predicate: Predicate::Provider(Provider::Partner(i as u16 + 1)),
                action: ServiceAction::through(kinds[..=i].to_vec()),
            })
            .collect(),
    )
    .expect("distinct priorities")
}

struct Tally {
    flows: usize,
    round_trip_failures: usize,
    consistency_violations: usize,
    first: Option<String>,
}

fn run_subset(subset: &[usize]) -> Tally {
    let topo = CellularParams::paper(4).build().expect("paper(4) topology");
    let mut world = SimWorld::new(&topo, policy(subset));
    let mut tally = Tally {
        flows: 0,
        round_trip_failures: 0,
        consistency_violations: 0,
        first: None,
    };
    let mut conns = Vec::new();
    for bs in 0..topo.base_stations().len() {
        for &i in subset {
            let imsi = UeImsi((bs * CLAUSES + i) as u64);
            let mut attrs = SubscriberAttributes::default_home(imsi);
            attrs.provider = Provider::Partner(i as u16 + 1);
            world.provision(attrs);
            let conn = world.attach(imsi, BaseStationId(bs as u32)).and_then(|()| {
                world.start_connection(imsi, Ipv4Addr::new(93, 184, 216, 34), 443, Protocol::Tcp)
            });
            tally.flows += 1;
            match conn.and_then(|id| world.round_trip(id).map(|()| id)) {
                Ok(id) => conns.push(id),
                Err(e) => {
                    tally.round_trip_failures += 1;
                    tally.first.get_or_insert_with(|| e.to_string());
                }
            }
        }
    }
    // a second packet on every connection once all rules are in: a path
    // installed later can change where an earlier flow's packets go
    for &id in &conns {
        if let Err(e) = world.round_trip(id) {
            tally.round_trip_failures += 1;
            tally.first.get_or_insert_with(|| e.to_string());
        }
    }
    for id in conns {
        if let Some(key) = world.connection(id).key {
            if let Err(e) = world.net.middleboxes.assert_consistent(&key) {
                tally.consistency_violations += 1;
                tally.first.get_or_insert_with(|| e.to_string());
            }
        }
    }
    tally
}

/// Runs all fifteen clause combinations and renders the table.
pub fn multi_clause() -> String {
    let mut out = String::from(
        "multi-clause eligibility probe (report only): paper(4), one UE per clause per station\n\
         clauses: 1=[FW] 2=[FW,TC] 3=[FW,TC,EC] 4=[FW,TC,EC,IDS]\n",
    );
    writeln!(
        out,
        "{:<12} {:>6} {:>10} {:>12}  first violation",
        "clauses", "flows", "rt failed", "inconsistent"
    )
    .expect("write to String");
    for mask in 1u32..(1 << CLAUSES) {
        let subset: Vec<usize> = (0..CLAUSES).filter(|i| mask & (1 << i) != 0).collect();
        let t = run_subset(&subset);
        let label: Vec<String> = subset.iter().map(|i| (i + 1).to_string()).collect();
        writeln!(
            out,
            "{:<12} {:>6} {:>10} {:>12}  {}",
            label.join("+"),
            t.flows,
            t.round_trip_failures,
            t.consistency_violations,
            t.first.as_deref().unwrap_or("-")
        )
        .expect("write to String");
    }
    out
}
