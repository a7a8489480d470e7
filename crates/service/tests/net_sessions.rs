#![cfg(unix)]
//! `serve` over a Unix socket, against clients that break the session
//! rules: an unknown tenant's `HELLO`, a second `HELLO` for a claimed
//! tenant, a `SUBMIT` before `HELLO_OK`, a disconnect inside a frame;
//! and one well-behaved session over TCP on the loopback interface.
//! Every test serves a fixed number of sessions and requires `serve` to
//! return after them. A client read or a `serve` that outlasts
//! `PATIENCE` fails the test instead of hanging the suite.

use jitgc_core::policy::PolicyKind;
use jitgc_service::{read_frame, serve, write_frame, Endpoint, Frame, Service, ServiceConfig};
use jitgc_sim::SimTime;
use jitgc_workload::IoKind;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

const PATIENCE: Duration = Duration::from_secs(30);

/// Serves `sessions` connections of a small service on `endpoint` while
/// `clients` runs against it, and returns the reader tenant's completed
/// requests once `serve` has returned.
fn serve_on(
    tag: &str,
    endpoint: Endpoint,
    sessions: usize,
    clients: impl FnOnce() + Send + 'static,
) -> u64 {
    let mut cfg = ServiceConfig::small_for_tests();
    cfg.system.prefill = false;
    let policy = PolicyKind::Jit.build(&cfg.system);
    let service = Service::new(cfg, policy);
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let server = std::thread::spawn(move || serve(endpoint, service, sessions));
        clients();
        let _ = done.send(server.join());
    });
    let served = match finished.recv_timeout(PATIENCE) {
        Ok(served) => served,
        Err(RecvTimeoutError::Timeout) => panic!("{tag}: serve did not return in {PATIENCE:?}"),
        Err(RecvTimeoutError::Disconnected) => panic!("{tag}: a client failed (see above)"),
    };
    let mut service = served.expect("the server thread").expect("serve");
    let report = service.finalize(SimTime::from_secs(1));
    report.tenant("reader").expect("a reader tenant").completed
}

/// [`serve_on`] a fresh Unix socket, which `clients` gets the path of.
fn serve_while(tag: &str, sessions: usize, clients: impl FnOnce(&Path) + Send + 'static) -> u64 {
    let path = std::env::temp_dir().join(format!("jitgc-net-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).expect("bind a unix socket");
    let client_path = path.clone();
    let completed = serve_on(tag, Endpoint::Unix(listener), sessions, move || {
        clients(&client_path);
    });
    let _ = std::fs::remove_file(&path);
    completed
}

fn connect(path: &Path) -> UnixStream {
    let stream = UnixStream::connect(path).expect("connect");
    stream
        .set_read_timeout(Some(PATIENCE / 2))
        .expect("a read timeout");
    stream
}

fn send(stream: &mut impl Write, frame: &Frame) {
    write_frame(stream, frame).expect("send a frame");
}

fn hello(name: &str) -> Frame {
    Frame::Hello {
        weight: 1,
        name: name.into(),
    }
}

fn read(id: u64) -> Frame {
    Frame::Submit {
        id,
        kind: IoKind::Read,
        lpn: id * 4,
        pages: 2,
    }
}

/// The next frame, or `None` once the server has closed the connection.
fn next(stream: &mut impl Read) -> Option<Frame> {
    read_frame(stream).expect("a frame or a clean close before the read timeout")
}

fn completed_id(frame: Option<Frame>) -> u64 {
    match frame {
        Some(Frame::Complete { id, .. }) => id,
        other => panic!("expected COMPLETE, got {other:?}"),
    }
}

#[test]
fn an_unknown_tenants_hello_drops_that_connection() {
    let completed = serve_while("unknown", 2, |path| {
        let mut stranger = connect(path);
        send(&mut stranger, &hello("nobody"));
        assert_eq!(next(&mut stranger), None, "an unknown tenant is dropped");
        let mut reader = connect(path);
        send(&mut reader, &hello("reader"));
        assert_eq!(next(&mut reader), Some(Frame::HelloOk { tenant: 1 }));
        send(&mut reader, &Frame::Bye);
    });
    assert_eq!(completed, 0);
}

#[test]
fn a_second_hello_for_a_claimed_tenant_drops_that_connection() {
    let completed = serve_while("claimed", 2, |path| {
        let mut first = connect(path);
        send(&mut first, &hello("reader"));
        assert_eq!(next(&mut first), Some(Frame::HelloOk { tenant: 1 }));
        let mut second = connect(path);
        send(&mut second, &hello("reader"));
        assert_eq!(next(&mut second), None, "a claimed tenant is dropped");
        // The session that holds the claim goes on.
        send(&mut first, &read(3));
        assert_eq!(completed_id(next(&mut first)), 3);
        send(&mut first, &Frame::Bye);
    });
    assert_eq!(completed, 1);
}

#[test]
fn a_submit_before_hello_ok_gets_no_answer() {
    let completed = serve_while("early-submit", 1, |path| {
        let mut client = connect(path);
        send(&mut client, &read(7));
        send(&mut client, &hello("reader"));
        assert_eq!(next(&mut client), Some(Frame::HelloOk { tenant: 1 }));
        send(&mut client, &read(8));
        assert_eq!(completed_id(next(&mut client)), 8);
        send(&mut client, &Frame::Bye);
        assert_eq!(
            next(&mut client),
            None,
            "the early SUBMIT is never answered"
        );
    });
    assert_eq!(completed, 1, "the early SUBMIT never ran");
}

#[test]
fn a_client_that_disconnects_mid_frame_ends_its_session() {
    let completed = serve_while("half-frame", 1, |path| {
        let mut client = connect(path);
        send(&mut client, &hello("reader"));
        assert_eq!(next(&mut client), Some(Frame::HelloOk { tenant: 1 }));
        let frame = read(5).encode();
        client
            .write_all(&frame[..frame.len() / 2])
            .expect("half a frame");
        // Dropping the stream here cuts the frame off.
    });
    assert_eq!(completed, 0);
}

#[test]
fn a_session_over_tcp_submits_and_completes() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("the bound address");
    let completed = serve_on("tcp", Endpoint::Tcp(listener), 1, move || {
        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(PATIENCE / 2))
            .expect("a read timeout");
        send(&mut client, &hello("reader"));
        assert_eq!(next(&mut client), Some(Frame::HelloOk { tenant: 1 }));
        send(&mut client, &read(9));
        assert_eq!(completed_id(next(&mut client)), 9);
        send(&mut client, &Frame::Bye);
        assert_eq!(next(&mut client), None, "the server closes after BYE");
    });
    assert_eq!(completed, 1);
}
