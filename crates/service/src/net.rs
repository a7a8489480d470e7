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
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::mpsc;
use std::time::Instant;

use jitgc_sim::SimTime;

use crate::proto::{read_frame, write_frame, Frame};
use crate::queue::Completion;
use crate::service::Service;

/// Where the server listens.
pub enum Endpoint {
    /// A TCP listener (e.g. bound to `127.0.0.1:0`).
    Tcp(TcpListener),
    /// A Unix-domain socket listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

enum AnyStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl AnyStream {
    fn try_clone(&self) -> io::Result<AnyStream> {
        match self {
            AnyStream::Tcp(s) => s.try_clone().map(AnyStream::Tcp),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.try_clone().map(AnyStream::Unix),
        }
    }
}

impl Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.flush(),
        }
    }
}

enum Event {
    Connected(usize, mpsc::Sender<Frame>),
    Frame(usize, Frame),
    Disconnected(usize),
}

/// Runs queued work to completion in virtual time: the virtual clock may
/// jump ahead of the wall clock so accepted submissions always answer.
fn drain_all(service: &mut Service, vnow: &mut SimTime) {
    loop {
        service.pump(*vnow);
        if !service.has_queued() {
            return;
        }
        match service.next_window_free() {
            Some(t) => {
                *vnow = (*vnow).max(t);
                service.release_window(*vnow);
            }
            None => return,
        }
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
    let accept_tx = events_tx.clone();
    drop(events_tx);
    let acceptor = std::thread::spawn(move || -> io::Result<()> {
        let mut readers = Vec::new();
        for conn in 0..sessions {
            let stream = match &endpoint {
                Endpoint::Tcp(l) => AnyStream::Tcp(l.accept()?.0),
                #[cfg(unix)]
                Endpoint::Unix(l) => AnyStream::Unix(l.accept()?.0),
            };
            let mut read_half = stream.try_clone()?;
            let write_half = stream;
            let (out_tx, out_rx) = mpsc::channel::<Frame>();
            let events = accept_tx.clone();
            let _ = events.send(Event::Connected(conn, out_tx));
            readers.push(std::thread::spawn(move || {
                while let Ok(Some(frame)) = read_frame(&mut read_half) {
                    let bye = frame == Frame::Bye;
                    if events.send(Event::Frame(conn, frame)).is_err() || bye {
                        break;
                    }
                }
                let _ = events.send(Event::Disconnected(conn));
            }));
            // Writer threads die when the dispatcher drops their sender.
            std::thread::spawn(move || {
                let mut w = write_half;
                while let Ok(frame) = out_rx.recv() {
                    if write_frame(&mut w, &frame).is_err() {
                        break;
                    }
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
    let mut writers: HashMap<usize, mpsc::Sender<Frame>> = HashMap::new();
    // Per connection: the tenant it serves and wire-id bookkeeping
    // (service ids are assigned per tenant; the wire echoes client ids).
    let mut tenant_of: HashMap<usize, usize> = HashMap::new();
    let mut claimed: HashMap<usize, usize> = HashMap::new();
    let mut wire_ids: HashMap<(usize, u64), u64> = HashMap::new();

    while let Ok(event) = events_rx.recv() {
        vnow = vnow.max(SimTime::from_micros(start.elapsed().as_micros() as u64));
        match event {
            Event::Connected(conn, tx) => {
                writers.insert(conn, tx);
            }
            Event::Disconnected(conn) => {
                writers.remove(&conn);
                if let Some(tenant) = tenant_of.remove(&conn) {
                    claimed.remove(&tenant);
                }
            }
            Event::Frame(conn, Frame::Hello { name, .. }) => {
                let tenant = service.config().tenants.iter().position(|t| t.name == name);
                match tenant {
                    Some(t) if !claimed.contains_key(&t) => {
                        claimed.insert(t, conn);
                        tenant_of.insert(conn, t);
                        if let Some(tx) = writers.get(&conn) {
                            let _ = tx.send(Frame::HelloOk { tenant: t as u16 });
                        }
                    }
                    _ => {
                        // Unknown or already-claimed tenant: drop the
                        // connection by closing its writer.
                        writers.remove(&conn);
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
                let Some(&tenant) = tenant_of.get(&conn) else {
                    continue; // SUBMIT before HELLO_OK: ignore.
                };
                let outcome = service.submit(tenant, kind, lpn, pages, vnow);
                wire_ids.insert((tenant, outcome.id()), id);
                drain_all(&mut service, &mut vnow);
                for (&c, &t) in &tenant_of {
                    for done in service.take_completions(t) {
                        route(&writers, &mut wire_ids, c, t, done);
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

fn route(
    writers: &HashMap<usize, mpsc::Sender<Frame>>,
    wire_ids: &mut HashMap<(usize, u64), u64>,
    conn: usize,
    tenant: usize,
    done: Completion,
) {
    let id = wire_ids.remove(&(tenant, done.id)).unwrap_or(done.id);
    if let Some(tx) = writers.get(&conn) {
        let _ = tx.send(Frame::Complete {
            id,
            status: done.status,
            submitted_us: done.submitted_at.as_micros(),
            completed_us: done.completed_at.as_micros(),
        });
    }
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
