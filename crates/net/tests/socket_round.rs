//! Sim-vs-socket parity: the lockstep socket round must land on the
//! exact outcome fingerprint of the simulated wire round under the
//! same seeds — with the chaos toolbox off *and* on.

use std::net::SocketAddr;

use lppa::protocol::{build_submissions, SuSubmission};
use lppa::ttp::Ttp;
use lppa::zero_replace::ZeroReplacePolicy;
use lppa::LppaConfig;
use lppa_auction::bidder::Location;
use std::net::TcpListener;
use std::thread;

use lppa_net::round::{run_bidder, serve_auctioneer, serve_ttp, RoundSpec};
use lppa_net::{run_socket_round, AuctioneerRun, FramedConn, NetConfig, NetError};
use lppa_rng::rngs::StdRng;
use lppa_rng::SeedableRng;
use lppa_session::frame::{decode_tick_start, encode_hello, encode_tick_done, FrameKind, Hello};
use lppa_session::{encode_submission_frame, run_wire_round, FaultConfig, SessionConfig};

fn setup(n_bidders: usize) -> (Ttp, Vec<SuSubmission>) {
    let mut rng = StdRng::seed_from_u64(99);
    let ttp = Ttp::new(2, LppaConfig::default(), &mut rng).unwrap();
    let policy = ZeroReplacePolicy::never(ttp.config().bid_max());
    let bidders: Vec<_> = (0..n_bidders)
        .map(|i| {
            let base = 10 + 13 * i as u32;
            (Location::new(base, base), vec![10 + i as u32, 30 - i as u32])
        })
        .collect();
    let submissions = build_submissions(&bidders, &ttp, &policy, &mut rng).unwrap();
    (ttp, submissions)
}

fn fast_net() -> NetConfig {
    NetConfig { backoff_ms: 5, backoff_cap_ms: 80, retries: 10, ..NetConfig::default() }
}

#[test]
fn reliable_socket_round_matches_simulated_wire_round() {
    let (ttp, submissions) = setup(4);
    let config = SessionConfig::default();
    let sim = run_wire_round(&ttp, config, &submissions, 7).unwrap();
    let socket = run_socket_round(&ttp, config, &submissions, 7, &fast_net()).unwrap();
    assert_eq!(sim.fingerprint(), socket.fingerprint());
    assert_eq!(sim.journal.fingerprint(), socket.journal.fingerprint());
    assert_eq!(sim.accepted, socket.accepted);
    assert_eq!(sim.outcome.revenue(), socket.outcome.revenue());
}

#[test]
fn chaotic_socket_round_matches_simulated_wire_round() {
    let (ttp, submissions) = setup(6);
    let config = SessionConfig {
        faults: FaultConfig::chaotic(),
        min_accepted: 1,
        ..SessionConfig::default()
    };
    for seed in [1234u64, 42, 7] {
        let sim = run_wire_round(&ttp, config, &submissions, seed).unwrap();
        let socket = run_socket_round(&ttp, config, &submissions, seed, &fast_net()).unwrap();
        assert_eq!(sim.fingerprint(), socket.fingerprint(), "outcome diverged at seed {seed}");
        assert_eq!(
            sim.journal.fingerprint(),
            socket.journal.fingerprint(),
            "journal diverged at seed {seed}"
        );
        // Even the ingress counters replay: the socket auctioneer's
        // chaos transport makes the identical seeded draws.
        assert_eq!(sim.stats, socket.stats, "transport stats diverged at seed {seed}");
    }
}

#[test]
fn different_seeds_diverge_over_sockets_too() {
    let (ttp, submissions) = setup(5);
    let config = SessionConfig {
        faults: FaultConfig::chaotic(),
        min_accepted: 1,
        ..SessionConfig::default()
    };
    let a = run_socket_round(&ttp, config, &submissions, 1234, &fast_net()).unwrap();
    let b = run_socket_round(&ttp, config, &submissions, 1235, &fast_net()).unwrap();
    assert_ne!(a.journal.fingerprint(), b.journal.fingerprint());
}

/// A peer that introduces itself as bidder 0 but stamps its own bids
/// with bidder 1's id, then keeps the lockstep barrier until the
/// auctioneer hangs up.
fn impersonator(addr: SocketAddr, own: &SuSubmission, net: &NetConfig) -> Result<(), NetError> {
    let mut conn = FramedConn::connect(addr, net)?;
    conn.send(FrameKind::Hello, &encode_hello(Hello { role: 0, id: 0 }))?;
    conn.expect(FrameKind::Announce)?;
    loop {
        let frame = match conn.recv_new() {
            Ok(frame) => frame,
            Err(NetError::Closed) => return Ok(()),
            Err(err) => return Err(err),
        };
        if frame.kind == FrameKind::TickStart {
            let tick = decode_tick_start(&frame.payload)?;
            if tick == 0 {
                conn.send_raw(&encode_submission_frame(1, 1, own))?;
            }
            conn.send(FrameKind::TickDone, &encode_tick_done(tick, 0))?;
        }
    }
}

#[test]
fn a_peer_cannot_submit_as_another_bidder() {
    let (ttp, submissions) = setup(3);
    let net = fast_net();
    let listener = TcpListener::bind((net.addr.as_str(), net.port)).unwrap();
    let addr = listener.local_addr().unwrap();
    let spec = RoundSpec {
        seed: 7,
        session: SessionConfig::default(),
        lppa: *ttp.config(),
        n_bidders: submissions.len(),
        n_channels: ttp.n_channels(),
    };
    let run = thread::scope(|scope| {
        let net = &net;
        let session = &spec.session;
        let own = &submissions[0];
        scope.spawn(move || impersonator(addr, own, net));
        for (id, submission) in submissions.iter().enumerate().skip(1) {
            scope.spawn(move || run_bidder(addr, id, submission, session, net));
        }
        scope.spawn(move || {
            let mut conn = FramedConn::connect(addr, net)?;
            conn.send(FrameKind::Hello, &encode_hello(Hello { role: 1, id: 0 }))?;
            serve_ttp(&mut conn, &ttp)
        });
        serve_auctioneer(&listener, &spec, net, None)
    });
    match run {
        Err(NetError::Protocol(what)) => {
            assert!(what.contains("stamped bidder 1"), "{what}");
        }
        Ok(AuctioneerRun::Settled(outcome)) => {
            panic!("impersonated round settled: accepted {:?}", outcome.accepted)
        }
        other => panic!("expected a protocol violation, got {other:?}"),
    }
}
