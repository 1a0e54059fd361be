//! The TCP front-end must not make a plain client wait out a delayed ACK.
//!
//! A client that sets no socket option (no `TCP_NODELAY`, no
//! `TCP_QUICKACK`) acknowledges a segment that leaves it waiting for more
//! only after its delayed-ACK timer, about 40 ms on Linux. A reply sent as
//! two writes — the line, then its newline — on a socket with Nagle's
//! algorithm on cannot send the second until the first is acknowledged,
//! so every round trip took that long. One write per reply on a
//! `TCP_NODELAY` socket takes a loopback round trip: tens of microseconds.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipregel_graph::{GraphBuilder, NeighborMode};
use ipregel_server::{net, ServerConfig, ServerHandle};

#[test]
fn a_default_socket_client_pings_in_under_five_milliseconds() {
    let mut b = GraphBuilder::new(NeighborMode::Both);
    b.add_edge(0, 1);
    let server = ServerHandle::start(Arc::new(b.build().expect("graph")), ServerConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    const PINGS: u64 = 20;
    let mut rtts: Vec<Duration> = std::thread::scope(|s| {
        let front = s.spawn(|| net::serve(&server, &listener, Some(PINGS)));
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut reply = String::new();
        let rtts = (0..PINGS)
            .map(|_| {
                let start = Instant::now();
                stream.write_all(b"{\"op\":\"ping\"}\n").expect("send");
                reply.clear();
                reader.read_line(&mut reply).expect("receive");
                assert!(reply.contains("pong") && reply.ends_with('\n'), "reply {reply:?}");
                start.elapsed()
            })
            .collect();
        assert_eq!(front.join().expect("front-end thread").expect("serve"), PINGS);
        rtts
    });
    server.shutdown();
    // The median: a delayed ACK would sit under every ping, a scheduling
    // hiccup on a shared machine under one or two.
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(median < Duration::from_millis(5), "median ping round trip {median:?}, all {rtts:?}");
}

#[test]
fn a_client_connecting_just_after_serve_starts_is_not_held_a_poll_interval() {
    // The accept loop sleeps between polls of its nonblocking listener.
    // A peer that connects a moment after the loop's first look must be
    // answered within about twice its own lateness (the backoff from
    // 50 µs), not after a whole 20 ms idle interval.
    let mut b = GraphBuilder::new(NeighborMode::Both);
    b.add_edge(0, 1);
    let server = ServerHandle::start(Arc::new(b.build().expect("graph")), ServerConfig::default());
    let mut waits: Vec<Duration> = (0..9)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let addr = listener.local_addr().expect("local addr");
            std::thread::scope(|s| {
                let front = s.spawn(|| net::serve(&server, &listener, Some(1)));
                std::thread::sleep(Duration::from_millis(1));
                let start = Instant::now();
                let mut stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                stream.write_all(b"{\"op\":\"ping\"}\n").expect("send");
                let mut reply = String::new();
                reader.read_line(&mut reply).expect("receive");
                assert!(reply.contains("pong"), "reply {reply:?}");
                let wait = start.elapsed();
                front.join().expect("front-end thread").expect("serve");
                wait
            })
        })
        .collect();
    server.shutdown();
    waits.sort();
    let median = waits[waits.len() / 2];
    assert!(median < Duration::from_millis(5), "median connect-to-pong {median:?}, all {waits:?}");
}
