#![cfg(unix)]
//! `ssdsimd --unix P` leaves no socket file behind: the same command run
//! twice on one path, with one client each time, exits 0 both times (the
//! second run used to exit 2 with `cannot listen on P: Address already in
//! use`).

use jitgc_service::{Client, CompletionStatus};
use jitgc_workload::IoKind;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const PATIENCE: Duration = Duration::from_secs(30);

fn serve_one_session(path: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_ssdsimd"))
        .args([
            "--small",
            "--no-prefill",
            "--seconds",
            "1",
            "--sessions",
            "1",
        ])
        .arg("--unix")
        .arg(path)
        .arg("--json")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ssdsimd starts")
}

/// Connects once `daemon` listens, reads four pages as `reader`, and
/// says goodbye; returns early if the daemon exits first.
fn one_client(daemon: &mut Child, path: &Path) {
    let start = Instant::now();
    let mut client = loop {
        match Client::connect_unix(path) {
            Ok(client) => break client,
            Err(_) if daemon.try_wait().expect("poll ssdsimd").is_some() => return,
            Err(e) if start.elapsed() > PATIENCE => panic!("cannot connect to {path:?}: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    client.hello("reader", 4).expect("hello");
    for id in 0..4 {
        client.submit(id, IoKind::Read, id, 1).expect("submit");
    }
    for _ in 0..4 {
        let (_, status) = client.next_completion().expect("completion");
        assert_eq!(status, CompletionStatus::Done);
    }
    client.bye().expect("bye");
}

fn wait(mut child: Child) -> std::process::Output {
    let start = Instant::now();
    while child.try_wait().expect("poll ssdsimd").is_none() {
        if start.elapsed() > PATIENCE {
            let _ = child.kill();
            panic!("ssdsimd did not exit in {PATIENCE:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("ssdsimd output")
}

#[test]
fn a_second_run_on_the_same_socket_path_succeeds() {
    let path = std::env::temp_dir().join(format!("ssdsimd-rerun-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    for run in 1..=2 {
        let mut daemon = serve_one_session(&path);
        one_client(&mut daemon, &path);
        let out = wait(daemon);
        assert!(
            out.status.success(),
            "run {run}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!path.exists(), "run {run} left {path:?} behind");
    }
}
