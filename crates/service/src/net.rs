//! Network frontend: the wire protocol served over TCP or Unix sockets.
//!
//! Hand-rolled on `std::net` + `std::thread` + channels (the workspace is
//! offline-only; no async runtime). One reader thread per connection
//! parses [`Frame`]s into an event channel; a single dispatcher loop on
//! the calling thread owns the [`Service`] and does all submission,
//! pumping, and completion routing; one writer thread per connection
//! drains outbound frames.
//!
//! Unlike the in-process driver, the network path maps *wall-clock*
//! arrival times onto the service's virtual clock, so network runs are
//! only as reproducible as their clients — determinism is claimed for
//! [`run_closed_loop`](crate::run_closed_loop) only. Whenever the
//! dispatcher has queued work it drains it to completion in virtual time
//! before blocking on the next event, so every accepted submission is
//! answered promptly.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Instant;

use jitgc_sim::SimTime;

use crate::proto::{read_frame, write_frame, Frame};
use crate::service::Service;

/// Where the server listens.
pub enum Endpoint {
    /// A TCP listener (e.g. bound to `127.0.0.1:0`).
    Tcp(TcpListener),
    /// A Unix-domain socket listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

enum Event {
    /// The next connection's outbound frames; connections are numbered
    /// from 0 in the order they connect.
    Connected(mpsc::Sender<Frame>),
    Frame(usize, Frame),
    Disconnected(usize),
}

/// Runs queued work to completion in virtual time: the virtual clock may
/// jump ahead of the wall clock so accepted submissions always answer.
fn drain_all(service: &mut Service, vnow: &mut SimTime) {
    service.pump(*vnow);
    while service.has_queued() {
        let Some(t) = service.next_window_free() else {
            return;
        };
        *vnow = (*vnow).max(t);
        service.pump(*vnow);
    }
}

/// Serves exactly `sessions` client sessions over `endpoint`, then
/// returns the service (so the caller can [`finalize`](Service::finalize)
/// and report). Each session is `HELLO → HELLO_OK`, submissions, `BYE`.
/// A `HELLO` naming an unknown tenant, or a tenant another live session
/// already claimed, drops that connection.
///
/// # Errors
///
/// Returns the first accept-loop I/O error; per-connection errors just
/// end that connection.
pub fn serve(endpoint: Endpoint, mut service: Service, sessions: usize) -> io::Result<Service> {
    let (events_tx, events_rx) = mpsc::channel::<Event>();
    let acceptor = std::thread::spawn(move || -> io::Result<()> {
        let mut readers = Vec::new();
        for conn in 0..sessions {
            readers.push(match &endpoint {
                Endpoint::Tcp(l) => {
                    let (s, _) = l.accept()?;
                    session(conn, s.try_clone()?, s, TcpStream::shutdown, &events_tx)
                }
                #[cfg(unix)]
                Endpoint::Unix(l) => {
                    let (s, _) = l.accept()?;
                    session(conn, s.try_clone()?, s, UnixStream::shutdown, &events_tx)
                }
            });
        }
        for r in readers {
            let _ = r.join();
        }
        Ok(())
    });

    let start = Instant::now();
    let mut vnow = SimTime::ZERO;
    // Per connection: its outbound frames (`None` once dropped) and the
    // tenant it serves. Service ids are assigned per tenant; the wire
    // echoes client ids.
    let mut writers: Vec<Option<mpsc::Sender<Frame>>> = Vec::new();
    let mut tenant_of: Vec<Option<usize>> = Vec::new();
    let mut wire_ids: HashMap<(usize, u64), u64> = HashMap::new();

    while let Ok(event) = events_rx.recv() {
        vnow = vnow.max(SimTime::from_micros(start.elapsed().as_micros() as u64));
        match event {
            Event::Connected(tx) => {
                writers.push(Some(tx));
                tenant_of.push(None);
            }
            Event::Disconnected(conn) => {
                writers[conn] = None;
                tenant_of[conn] = None;
            }
            Event::Frame(conn, Frame::Hello { name, .. }) => {
                let tenant = service.config().tenants.iter().position(|t| t.name == name);
                match tenant {
                    Some(t) if !tenant_of.contains(&Some(t)) => {
                        tenant_of[conn] = Some(t);
                        if let Some(tx) = &writers[conn] {
                            let _ = tx.send(Frame::HelloOk { tenant: t as u16 });
                        }
                    }
                    _ => {
                        // Unknown or already-claimed tenant: drop the
                        // connection by closing its writer.
                        writers[conn] = None;
                    }
                }
            }
            Event::Frame(
                conn,
                Frame::Submit {
                    id,
                    kind,
                    lpn,
                    pages,
                },
            ) => {
                let Some(tenant) = tenant_of[conn] else {
                    continue; // SUBMIT before HELLO_OK: ignore.
                };
                let outcome = service.submit(tenant, kind, lpn, pages, vnow);
                wire_ids.insert((tenant, outcome.id()), id);
                drain_all(&mut service, &mut vnow);
                for (conn, tenant) in tenant_of.iter().enumerate() {
                    let Some(tenant) = *tenant else { continue };
                    for done in service.take_completions(tenant) {
                        let id = wire_ids.remove(&(tenant, done.id)).unwrap_or(done.id);
                        if let Some(tx) = &writers[conn] {
                            let _ = tx.send(Frame::Complete {
                                id,
                                status: done.status,
                                submitted_us: done.submitted_at.as_micros(),
                                completed_us: done.completed_at.as_micros(),
                            });
                        }
                    }
                }
            }
            Event::Frame(_, _) => {}
        }
    }
    // The event channel closes once the acceptor has served `sessions`
    // connections and every reader thread has exited.
    acceptor
        .join()
        .map_err(|_| io::Error::other("acceptor thread panicked"))??;
    Ok(service)
}

/// Starts connection `conn`'s two threads: a reader that parses frames
/// from `read_half` into `events`, and a writer that sends the
/// dispatcher's frames over `write_half`. Announces the connection on
/// `events` first and returns the reader.
fn session<S: Read + Write + Send + 'static>(
    conn: usize,
    mut read_half: S,
    mut write_half: S,
    shutdown: fn(&S, Shutdown) -> io::Result<()>,
    events: &mpsc::Sender<Event>,
) -> JoinHandle<()> {
    let (out_tx, out_rx) = mpsc::channel::<Frame>();
    let _ = events.send(Event::Connected(out_tx));
    let events = events.clone();
    let reader = std::thread::spawn(move || {
        while let Ok(Some(frame)) = read_frame(&mut read_half) {
            let bye = frame == Frame::Bye;
            if events.send(Event::Frame(conn, frame)).is_err() || bye {
                break;
            }
        }
        let _ = events.send(Event::Disconnected(conn));
    });
    // The writer dies when the dispatcher drops its sender, and closes the
    // connection as it goes: the reader holds a second handle on the
    // socket, so dropping this one alone would leave a dropped client
    // waiting for a reply.
    std::thread::spawn(move || {
        while let Ok(frame) = out_rx.recv() {
            if write_frame(&mut write_half, &frame).is_err() {
                break;
            }
        }
        let _ = shutdown(&write_half, Shutdown::Both);
    });
    reader
}

/// A minimal blocking client for tests and examples.
pub struct Client<S: Read + Write> {
    stream: S,
}

#[cfg(unix)]
impl Client<UnixStream> {
    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// Propagates the connect error.
    pub fn connect_unix(path: &std::path::Path) -> io::Result<Self> {
        Ok(Client {
            stream: UnixStream::connect(path)?,
        })
    }
}

impl<S: Read + Write> Client<S> {
    /// Opens the session as tenant `name`; returns the assigned index.
    ///
    /// # Errors
    ///
    /// Fails if the server drops the connection (unknown tenant) or
    /// answers with anything but `HELLO_OK`.
    pub fn hello(&mut self, name: &str, weight: u64) -> io::Result<u16> {
        write_frame(
            &mut self.stream,
            &Frame::Hello {
                weight,
                name: name.into(),
            },
        )?;
        match read_frame(&mut self.stream)? {
            Some(Frame::HelloOk { tenant }) => Ok(tenant),
            other => Err(io::Error::other(format!(
                "expected HELLO_OK, got {other:?}"
            ))),
        }
    }

    /// Submits one request.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn submit(
        &mut self,
        id: u64,
        kind: jitgc_workload::IoKind,
        lpn: u64,
        pages: u32,
    ) -> io::Result<()> {
        write_frame(
            &mut self.stream,
            &Frame::Submit {
                id,
                kind,
                lpn,
                pages,
            },
        )
    }

    /// Blocks for the next completion.
    ///
    /// # Errors
    ///
    /// Fails on EOF or a non-`COMPLETE` frame.
    pub fn next_completion(&mut self) -> io::Result<(u64, crate::queue::CompletionStatus)> {
        match read_frame(&mut self.stream)? {
            Some(Frame::Complete { id, status, .. }) => Ok((id, status)),
            other => Err(io::Error::other(format!(
                "expected COMPLETE, got {other:?}"
            ))),
        }
    }

    /// Ends the session.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn bye(mut self) -> io::Result<()> {
        write_frame(&mut self.stream, &Frame::Bye)
    }
}
