//! Criterion micro-benchmarks for the southbound control channel.
//!
//! * `ctlchan_encode_*` / `ctlchan_decode_*` — pure codec cost for the
//!   two dominant frame shapes: a classifier reply (attach answer, the
//!   largest message) and a 4-mod `FlowModBatch` (path answer).
//! * `ctlchan_loopback_echo` — one full framed round trip through the
//!   in-memory transport and serve loop: encode, queue, decode,
//!   dispatch, reply, decode. The per-request floor the wire mode of
//!   `tab2_agent_throughput` pays on top of the in-process path.
//! * `ctlchan_loopback_path_request` — the same round trip carrying a
//!   real path request through a running [`ControllerServer`], i.e.
//!   the §6.2 request path with the wire front-end attached.
//! * `ctlchan_retry_path_request_*` — the same request issued through
//!   `request_with_retry` (deadline arming + xid bookkeeping), over a
//!   clean transport and over a `FaultTransport` dropping 10% of sent
//!   frames — the price of the fault-tolerant path, idle and busy.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use softcell_controller::server::ControllerServer;
use softcell_controller::wire::ChannelController;
use softcell_ctlchan::{
    loopback_pair, serve, CtlChannel, FaultConfig, FaultTransport, Frame, Loopback, Message,
    RetryPolicy, Transport, WireBatchGroup, WireClassifier, WireFlowMod, WirePathTags,
    WireUeRecord,
};
use softcell_policy::clause::ClauseId;
use softcell_policy::{AppClassifier, ServicePolicy, SubscriberAttributes, UeClassifier};
use softcell_types::{BaseStationId, PolicyTag, PortNo, SimTime, UeId, UeImsi};

fn sample_classifier_reply() -> Message<'static> {
    let policy = ServicePolicy::example_carrier_a(1);
    let apps = AppClassifier::default();
    let attrs = SubscriberAttributes::default_home(UeImsi(1));
    let compiled = UeClassifier::compile(&policy, &apps, &attrs);
    Message::ClassifierReply {
        record: WireUeRecord {
            imsi: UeImsi(1),
            permanent_ip: std::net::Ipv4Addr::new(100, 64, 0, 9),
            bs: BaseStationId(37),
            ue_id: UeId(10),
            since: SimTime(12_345),
        },
        classifier: Some(WireClassifier {
            entries: compiled.entries().to_vec(),
            fallback: compiled.fallback(),
        }),
    }
}

fn sample_flow_mod() -> Message<'static> {
    Message::FlowModBatch {
        shard: 1,
        seq: 7,
        groups: vec![WireBatchGroup {
            bs: BaseStationId(7),
            barrier: true,
            mods: (0..4u16)
                .map(|i| WireFlowMod {
                    bs: BaseStationId(7),
                    clause: ClauseId(i),
                    tags: WirePathTags {
                        uplink_entry: PolicyTag(i),
                        uplink_exit: PolicyTag(i + 100),
                        downlink_final: PolicyTag(i),
                        access_out_port: PortNo(1),
                        qos: None,
                    },
                })
                .collect(),
        }],
    }
}

fn bench_codec(c: &mut Criterion) {
    let reply = sample_classifier_reply();
    c.bench_function("ctlchan_encode_classifier_reply", |b| {
        b.iter(|| black_box(reply.encode(black_box(7))));
    });
    let buf = reply.encode(7);
    c.bench_function("ctlchan_decode_classifier_reply", |b| {
        b.iter(|| {
            let frame = Frame::new_checked(black_box(buf.as_slice())).expect("frame");
            black_box(frame.message().expect("decode"));
        });
    });

    let mods = sample_flow_mod();
    c.bench_function("ctlchan_encode_flow_mod_batch4", |b| {
        b.iter(|| black_box(mods.encode(black_box(7))));
    });
    let buf = mods.encode(7);
    c.bench_function("ctlchan_decode_flow_mod_batch4", |b| {
        b.iter(|| {
            let frame = Frame::new_checked(black_box(buf.as_slice())).expect("frame");
            black_box(frame.message().expect("decode"));
        });
    });
}

fn bench_loopback(c: &mut Criterion) {
    let (client_end, server_end) = loopback_pair();
    let echo_server = std::thread::spawn(move || {
        let _ = serve(server_end, || 0, |_msg, _ctx| None);
    });
    let mut chan = CtlChannel::new(client_end);
    c.bench_function("ctlchan_loopback_echo", |b| {
        b.iter(|| black_box(chan.echo(black_box(b"liveness")).expect("echo")));
    });
    drop(chan);
    echo_server.join().expect("echo server");

    let subscribers: Vec<_> = (0..4)
        .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
        .collect();
    let server =
        ControllerServer::start_sharded(ServicePolicy::example_carrier_a(1), subscribers, 2)
            .expect("server");
    let (agent_end, controller_end) = loopback_pair();
    let serving = server.serve(controller_end);
    let mut ctl = ChannelController::connect(agent_end, BaseStationId(0)).expect("connect");
    c.bench_function("ctlchan_loopback_path_request", |b| {
        let mut clause = 0u16;
        b.iter(|| {
            // rotate clauses so the (bs, clause) path map stays small but
            // the request is never a pure repeat of the previous one
            clause = (clause + 1) % 64;
            black_box(
                softcell_controller::agent::ControllerApi::request_policy_path(
                    &mut ctl,
                    BaseStationId(0),
                    ClauseId(clause),
                )
                .expect("path"),
            );
        });
    });
    drop(ctl);
    serving.join().expect("serve thread").expect("serve");
    server.shutdown();
}

/// A retry policy tuned for benchmarking: timeouts short enough that a
/// dropped frame costs milliseconds, not the production kind of patience.
fn bench_retry_policy() -> RetryPolicy {
    RetryPolicy {
        attempt_timeout: Duration::from_millis(2),
        max_retries: 10,
        base_backoff: Duration::from_micros(100),
        max_backoff: Duration::from_millis(1),
    }
}

/// Connects through a fault schedule: the hello handshake runs under a
/// transport deadline, and a lost hello just retries on a fresh pair
/// with the next seed.
fn connect_through_faults(
    server: &ControllerServer,
    serves: &mut Vec<std::thread::JoinHandle<softcell_types::Result<()>>>,
    cfg: FaultConfig,
) -> ChannelController<FaultTransport<Loopback>> {
    for attempt in 0..50 {
        let (agent_end, controller_end) = loopback_pair();
        serves.push(server.serve(controller_end));
        let mut t = FaultTransport::new(
            agent_end,
            FaultConfig {
                seed: cfg.seed + attempt,
                ..cfg
            },
        );
        t.set_deadline(Some(Duration::from_millis(50)))
            .expect("deadline");
        if let Ok(mut ctl) = ChannelController::connect(t, BaseStationId(0)) {
            ctl.channel().set_deadline(None).expect("deadline");
            return ctl;
        }
    }
    panic!("hello failed 50 fault schedules in a row");
}

fn bench_retry(c: &mut Criterion) {
    let subscribers: Vec<_> = (0..4)
        .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
        .collect();
    let server =
        ControllerServer::start_sharded(ServicePolicy::example_carrier_a(1), subscribers, 2)
            .expect("server");
    let mut serves = Vec::new();

    // clean transport: pure cost of the retry wrapper (deadline arming,
    // xid pinning) relative to ctlchan_loopback_path_request
    let mut ctl = connect_through_faults(&server, &mut serves, FaultConfig::default());
    ctl.set_retry_policy(Some(bench_retry_policy()));
    c.bench_function("ctlchan_retry_path_request_clean", |b| {
        let mut clause = 0u16;
        b.iter(|| {
            clause = (clause + 1) % 64;
            black_box(
                softcell_controller::agent::ControllerApi::request_policy_path(
                    &mut ctl,
                    BaseStationId(0),
                    ClauseId(clause),
                )
                .expect("path"),
            );
        });
    });
    drop(ctl);

    // 10% of sent frames vanish: requests re-sent under the same xid
    // after a 2 ms timeout, replies recovered from the dedup cache
    let faults = FaultConfig {
        seed: 11,
        drop: 0.10,
        ..FaultConfig::default()
    };
    let mut ctl = connect_through_faults(&server, &mut serves, faults);
    ctl.set_retry_policy(Some(bench_retry_policy()));
    c.bench_function("ctlchan_retry_path_request_drop10", |b| {
        let mut clause = 0u16;
        b.iter(|| {
            clause = (clause + 1) % 64;
            black_box(
                softcell_controller::agent::ControllerApi::request_policy_path(
                    &mut ctl,
                    BaseStationId(0),
                    ClauseId(clause),
                )
                .expect("path"),
            );
        });
    });
    drop(ctl);
    for handle in serves {
        let _ = handle.join().expect("serve thread");
    }
    server.shutdown();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_codec, bench_loopback, bench_retry
);
criterion_main!(benches);
