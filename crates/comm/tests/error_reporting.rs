//! Error-reporting contract tests: a dead or corrupt cluster must be
//! debuggable from a single worker's log line, so every surfaced error
//! names the peer rank involved and (for integrity failures) the byte
//! sizes that disagreed — on both the channel and the TCP backend.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use sar_comm::tcp::run_tcp_threads;
use sar_comm::wire::{encode_frame, read_frame, FrameKind, WIRE_MAX_PAYLOAD};
use sar_comm::{
    Cluster, CostModel, Payload, TcpOpts, TcpTransport, Transport, TransportError, WorkerCtx,
};

/// The Display contract: `Corrupt` must name the peer rank and pass the
/// decoder's byte-size diagnostic through verbatim.
#[test]
fn corrupt_display_names_peer_rank_and_byte_sizes() {
    let e = TransportError::Corrupt {
        peer: 3,
        detail: "gradient block carried 12 f32s (48 bytes), expected 16 (64 bytes)".into(),
    };
    let msg = e.to_string();
    assert!(msg.contains("rank 3"), "must name the peer rank: {msg}");
    assert!(
        msg.contains("48 bytes") && msg.contains("64 bytes"),
        "must carry both byte sizes: {msg}"
    );
}

/// Asserts that a receive returned a timeout whose text names the
/// waiting worker, the peer it waited on, and the tag.
fn assert_names_the_wait(result: Result<sar_comm::Payload, TransportError>, wait: &str) {
    match result {
        Err(e @ TransportError::Timeout { .. }) => {
            let msg = e.to_string();
            assert!(msg.contains(wait), "must name the wait `{wait}`: {msg}");
        }
        other => panic!("expected a receive timeout, got {other:?}"),
    }
}

/// Channel backend: a receive that times out returns an error naming the
/// waiting worker, the peer it waited on, and the tag.
#[test]
fn channel_recv_timeout_names_worker_peer_and_tag() {
    let out = Cluster::new(2, CostModel::default())
        .recv_timeout(Duration::from_millis(100))
        .run(|ctx| {
            // Rank 0 waits for a message nobody sends.
            (ctx.rank() == 0).then(|| ctx.try_recv(1, 99))
        });
    let Some(result) = out.into_iter().next().and_then(|o| o.result) else {
        panic!("rank 0 must report its receive");
    };
    assert_names_the_wait(result, "worker 0 waiting on (src=1, tag=99)");
}

/// TCP backend: the same receive-timeout report, through a `WorkerCtx`
/// running over real sockets.
#[test]
fn tcp_recv_timeout_names_worker_peer_and_tag() {
    let out = run_tcp_threads(2, TcpOpts::default(), |t| {
        let ctx = WorkerCtx::new(
            Box::new(t),
            CostModel::default(),
            Duration::from_millis(200),
        );
        // Rank 1 exits immediately; nothing ever arrives under tag 7.
        (ctx.rank() == 0).then(|| ctx.try_recv(1, 7))
    });
    let Some(result) = out.into_iter().next().flatten() else {
        panic!("rank 0 must report its receive");
    };
    assert_names_the_wait(result, "worker 0 waiting on (src=1, tag=7)");
}

/// Completes the rendezvous + mesh handshake as a fake rank 1, then runs
/// `frame_bytes` through the returned closure and writes the result to
/// rank 0's data socket.
fn evil_rank_1(
    rdv_addr: std::net::SocketAddr,
    make_frame: impl FnOnce() -> Vec<u8> + Send + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let my_addr = listener.local_addr().unwrap().to_string().into_bytes();
        let mut s = TcpStream::connect(rdv_addr).unwrap();
        // Hello: rank, codec (raw), address length, address.
        let mut hello = Vec::new();
        hello.extend_from_slice(&1u32.to_le_bytes());
        hello.push(0u8);
        hello.extend_from_slice(&(my_addr.len() as u32).to_le_bytes());
        hello.extend_from_slice(&my_addr);
        s.write_all(&hello).unwrap();
        // Roster: count, then per-entry length-prefixed addresses.
        let mut count = [0u8; 4];
        s.read_exact(&mut count).unwrap();
        for _ in 0..u32::from_le_bytes(count) {
            let mut len = [0u8; 4];
            s.read_exact(&mut len).unwrap();
            let mut addr = vec![0u8; u32::from_le_bytes(len) as usize];
            s.read_exact(&mut addr).unwrap();
        }
        // Rank 0 dials us (lower ranks dial higher) and says hello.
        let (mut data, _) = listener.accept().unwrap();
        let hello = read_frame(&mut data).unwrap();
        assert_eq!(hello.src, 0);
        data.write_all(&make_frame()).unwrap();
        data.flush().unwrap();
        // Hold the socket open so EOF cannot race the bad frame.
        std::thread::sleep(Duration::from_millis(300));
    })
}

/// TCP backend: a frame whose header claims an impossible payload length
/// surfaces `Corrupt` naming the peer rank, the claimed size, and the
/// frame limit — both byte sizes, straight from the decoder.
#[test]
fn tcp_oversized_frame_names_peer_rank_and_byte_sizes() {
    let rendezvous = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let rdv_addr = rendezvous.local_addr().unwrap();
    let evil = evil_rank_1(rdv_addr, || {
        let mut frame = encode_frame(FrameKind::Data, 1, 9, &Payload::Empty);
        // Overwrite the length field (bytes 20..28) with limit + 1.
        frame[20..28].copy_from_slice(&(WIRE_MAX_PAYLOAD + 1).to_le_bytes());
        frame
    });
    let t = TcpTransport::host(rendezvous, 2, TcpOpts::default()).unwrap();
    match t.recv_any(Duration::from_secs(5)) {
        Err(e @ TransportError::Corrupt { peer: 1, .. }) => {
            let msg = e.to_string();
            assert!(msg.contains("rank 1"), "must name the peer rank: {msg}");
            assert!(
                msg.contains(&(WIRE_MAX_PAYLOAD + 1).to_string())
                    && msg.contains(&WIRE_MAX_PAYLOAD.to_string()),
                "must name the claimed size and the frame limit: {msg}"
            );
        }
        other => panic!("expected a corrupt-frame rejection, got {other:?}"),
    }
    evil.join().unwrap();
}

/// TCP backend: a bit-flipped payload surfaces `Corrupt` naming the peer
/// rank and both checksums (sent vs computed).
#[test]
fn tcp_checksum_mismatch_names_peer_rank_and_checksums() {
    let rendezvous = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let rdv_addr = rendezvous.local_addr().unwrap();
    let evil = evil_rank_1(rdv_addr, || {
        let mut frame = encode_frame(FrameKind::Data, 1, 9, &Payload::F32(vec![1.0, 2.0]));
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        frame
    });
    let t = TcpTransport::host(rendezvous, 2, TcpOpts::default()).unwrap();
    match t.recv_any(Duration::from_secs(5)) {
        Err(e @ TransportError::Corrupt { peer: 1, .. }) => {
            let msg = e.to_string();
            assert!(msg.contains("rank 1"), "must name the peer rank: {msg}");
            assert!(
                msg.contains("checksum") && msg.contains("0x"),
                "must show the disagreeing checksums: {msg}"
            );
        }
        other => panic!("expected a checksum rejection, got {other:?}"),
    }
    evil.join().unwrap();
}
