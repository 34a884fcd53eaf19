//! The southbound control channel over a real TCP socket.
//!
//! A controller thread listens on loopback; a base-station agent
//! connects, negotiates versions, attaches a UE, requests a policy
//! path, asks for channel stats, and detaches — every exchange framed
//! by the `softcell-ctlchan` binary codec.
//!
//! ```bash
//! cargo run --example control_channel
//! ```

use std::net::TcpListener;

use softcell_controller::agent::ControllerApi;
use softcell_controller::server::ControllerServer;
use softcell_controller::wire::ChannelController;
use softcell_ctlchan::TcpTransport;
use softcell_policy::clause::ClauseId;
use softcell_policy::{ServicePolicy, SubscriberAttributes};
use softcell_types::{BaseStationId, SimTime, UeId, UeImsi};

fn main() {
    // controller side: two domains + a TCP accept loop for one agent
    let subscribers: Vec<SubscriberAttributes> = (0..4)
        .map(|i| SubscriberAttributes::default_home(UeImsi(i)))
        .collect();
    let server =
        ControllerServer::start_sharded(ServicePolicy::example_carrier_a(1), subscribers, 2)
            .expect("server");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    println!("controller listening on {addr}");
    let accept_thread = std::thread::spawn(move || listener.accept().expect("accept"));
    let agent_transport = TcpTransport::connect(addr).expect("connect");
    let (stream, peer) = accept_thread.join().expect("accept thread");
    println!("controller accepted agent from {peer}");
    let serving = server.serve(TcpTransport::from_stream(stream));

    // agent side: hello, then the §4.2 escalation sequence
    let mut ctl =
        ChannelController::connect(agent_transport, BaseStationId(3)).expect("hello exchange");
    println!("hello exchanged (version negotiated)");

    let grant = ctl
        .attach_ue(UeImsi(1), BaseStationId(3), UeId(9), SimTime::ZERO)
        .expect("attach");
    println!(
        "attached UE {}: permanent ip {}, classifier with {} entries",
        grant.record.imsi,
        grant.record.permanent_ip,
        grant.classifier.entries().len()
    );

    let tags = ctl
        .request_policy_path(BaseStationId(3), ClauseId(5))
        .expect("path");
    println!(
        "policy path for clause 5: uplink tag {:?} via port {:?}",
        tags.uplink_entry, tags.access_out_port
    );

    let stats = ctl.channel().stats().expect("stats");
    println!(
        "channel stats: served={} tx_msgs={} rx_msgs={} tx_bytes={} rx_bytes={}",
        stats.served, stats.tx_msgs, stats.rx_msgs, stats.tx_bytes, stats.rx_bytes
    );

    let record = ctl.detach_ue(UeImsi(1)).expect("detach");
    println!("detached UE {} (was at {})", record.imsi, record.bs);

    drop(ctl);
    serving
        .join()
        .expect("serve thread")
        .expect("serve loop exits cleanly");
    server.shutdown();
    println!("controller drained; channel closed cleanly");
}
