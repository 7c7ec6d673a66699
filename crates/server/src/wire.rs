//! Length-prefixed wire protocol for remote sessions (TCP + unix sockets).
//!
//! Hand-rolled fixed-width little-endian framing — no serialization
//! dependencies (the build is offline). One frame is:
//!
//! ```text
//! ┌──────────────┬─────────────────────────┐
//! │ len: u32 LE  │ payload (len bytes)     │
//! └──────────────┴─────────────────────────┘
//! payload = op: u8, then op-specific fixed-width LE fields
//! ```
//!
//! Requests (client → server), each answered by exactly one response
//! frame carrying the same op byte:
//!
//! | op | name      | request payload                                     | response payload |
//! |----|-----------|-----------------------------------------------------|------------------|
//! | 1  | OPEN      | 4×f64 rect, u8 mode, u64 seed, u64 sample budget (0 = none), u64 time budget ms (0 = none), f64 target error (0 = none) | u64 session id |
//! | 2  | POLL      | u64 session                                         | one encoded [`WireEvent`] or `0` (nothing pending) |
//! | 3  | TERMINATE | u64 session                                         | empty (ack) |
//!
//! Events are non-blocking: `POLL` drains at most one queued
//! [`SessionEvent`]; clients poll until [`WireEvent::Done`]. The encoding
//! (tag byte then fields) is documented on [`WireEvent`].
//!
//! The listener thread accepts connections and serves each on its own
//! thread; connection threads hold an `Arc<SessionServer>` and exit when
//! the peer hangs up, terminating any sessions still registered on that
//! connection (a dropped client must not leak worker credit).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use storm_core::SampleMode;
use storm_engine::session::{StopReason, TaskResult};
use storm_geo::{Point2, Rect2};

use crate::scheduler::{QuerySpec, SessionEvent, SessionHandle, SessionServer};

/// Frames larger than this are a protocol violation (closes the
/// connection). Generous for the fixed-width ops above.
const MAX_FRAME: u32 = 64 * 1024;

/// Op bytes. A response echoes its request's op.
const OP_OPEN: u8 = 1;
const OP_POLL: u8 = 2;
const OP_TERMINATE: u8 = 3;

/// Event tag bytes inside a POLL response.
const EV_NONE: u8 = 0;
const EV_ADMITTED: u8 = 1;
const EV_REJECTED: u8 = 2;
const EV_PROGRESS: u8 = 3;
const EV_DONE: u8 = 4;

/// A decoded server event as seen by a wire client.
///
/// Encoding (after the tag byte): `Admitted`/`Rejected` carry the u64
/// session; `Progress` carries u64 session, then u64 samples, f64
/// estimate, f64 std err; `Done` carries u64 session, u8 stop reason
/// (0 exhausted, 1 quality, 2 time, 3 samples, 4 cancelled), then the
/// same three fields as `Progress`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireEvent {
    /// The session entered the live table.
    Admitted {
        /// The session id.
        session: u64,
    },
    /// Admission control turned the open away.
    Rejected {
        /// The session id.
        session: u64,
    },
    /// The estimate refined.
    Progress {
        /// The session id.
        session: u64,
        /// Samples consumed so far.
        samples: u64,
        /// Current estimate value.
        value: f64,
        /// Current standard error.
        std_err: f64,
    },
    /// The session finished; no further events follow.
    Done {
        /// The session id.
        session: u64,
        /// Why it stopped.
        reason: StopReason,
        /// Total samples consumed.
        samples: u64,
        /// Final estimate value.
        value: f64,
        /// Final standard error.
        std_err: f64,
    },
}

fn reason_to_wire(r: StopReason) -> u8 {
    match r {
        StopReason::Exhausted => 0,
        StopReason::QualityReached => 1,
        StopReason::TimeBudget => 2,
        StopReason::SampleBudget => 3,
        StopReason::Cancelled => 4,
    }
}

fn reason_from_wire(b: u8) -> io::Result<StopReason> {
    Ok(match b {
        0 => StopReason::Exhausted,
        1 => StopReason::QualityReached,
        2 => StopReason::TimeBudget,
        3 => StopReason::SampleBudget,
        4 => StopReason::Cancelled,
        _ => return Err(bad("unknown stop reason byte")),
    })
}

fn bad(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads one length-prefixed frame.
fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(bad("frame exceeds MAX_FRAME"));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Writes one length-prefixed frame.
fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// A little-endian field cursor over a received payload.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn u8(&mut self) -> io::Result<u8> {
        let (&b, rest) = self.0.split_first().ok_or_else(|| bad("short frame"))?;
        self.0 = rest;
        Ok(b)
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.take()?))
    }

    fn take<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        if self.0.len() < N {
            return Err(bad("short frame"));
        }
        let (head, rest) = self.0.split_at(N);
        self.0 = rest;
        Ok(head.try_into().expect("split_at(N) yields N bytes"))
    }
}

fn encode_spec(buf: &mut Vec<u8>, spec: &QuerySpec) {
    for v in [
        spec.query.lo().get(0),
        spec.query.lo().get(1),
        spec.query.hi().get(0),
        spec.query.hi().get(1),
    ] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf.push(match spec.mode {
        SampleMode::WithoutReplacement => 0,
        SampleMode::WithReplacement => 1,
    });
    buf.extend_from_slice(&spec.seed.to_le_bytes());
    buf.extend_from_slice(&spec.sample_budget.unwrap_or(0).to_le_bytes());
    buf.extend_from_slice(&spec.time_budget_ms.unwrap_or(0).to_le_bytes());
    buf.extend_from_slice(&spec.target_error.unwrap_or(0.0).to_le_bytes());
}

fn decode_spec(c: &mut Cursor<'_>) -> io::Result<QuerySpec> {
    let (x0, y0, x1, y1) = (c.f64()?, c.f64()?, c.f64()?, c.f64()?);
    let mode = match c.u8()? {
        0 => SampleMode::WithoutReplacement,
        1 => SampleMode::WithReplacement,
        _ => return Err(bad("unknown sample mode byte")),
    };
    let seed = c.u64()?;
    let sample_budget = match c.u64()? {
        0 => None,
        n => Some(n),
    };
    let time_budget_ms = match c.u64()? {
        0 => None,
        n => Some(n),
    };
    let target_error = match c.f64()? {
        e if e > 0.0 => Some(e),
        _ => None,
    };
    Ok(QuerySpec {
        query: Rect2::from_corners(Point2::xy(x0, y0), Point2::xy(x1, y1)),
        mode,
        seed,
        sample_budget,
        time_budget_ms,
        target_error,
    })
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

/// A listener serving the wire protocol over a [`SessionServer`].
///
/// Dropping it stops accepting new connections; established connections
/// run until their peers hang up (each holds its own `Arc` on the
/// session server).
#[derive(Debug)]
pub struct WireServer {
    addr: Option<SocketAddr>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Binds a TCP listener (e.g. `"127.0.0.1:0"`) and starts accepting.
    pub fn bind_tcp(server: Arc<SessionServer>, addr: &str) -> io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("storm-wire-tcp".into())
            .spawn(move || {
                accept_loop(&accept_stop, &server, move || match listener.accept() {
                    Ok((stream, _)) => Some(Ok(stream)),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(e) => Some(Err(e)),
                });
            })?;
        Ok(WireServer {
            addr: Some(local),
            stop,
            accept_thread: Some(thread),
        })
    }

    /// Binds a unix-domain socket listener and starts accepting.
    pub fn bind_unix(server: Arc<SessionServer>, path: &Path) -> io::Result<WireServer> {
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("storm-wire-unix".into())
            .spawn(move || {
                accept_loop(&accept_stop, &server, move || match listener.accept() {
                    Ok((stream, _)) => Some(Ok(stream)),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(e) => Some(Err(e)),
                });
            })?;
        Ok(WireServer {
            addr: None,
            stop,
            accept_thread: Some(thread),
        })
    }

    /// The bound TCP address (`None` for unix-socket listeners).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Polls `accept` until stopped, spawning one serving thread per
/// connection. `accept` returns `None` when no connection is pending.
fn accept_loop<S>(
    stop: &AtomicBool,
    server: &Arc<SessionServer>,
    mut accept: impl FnMut() -> Option<io::Result<S>>,
) where
    S: Read + Write + Send + 'static,
{
    while !stop.load(Ordering::Relaxed) {
        match accept() {
            Some(Ok(stream)) => {
                let conn_server = Arc::clone(server);
                let spawned = std::thread::Builder::new()
                    .name("storm-wire-conn".into())
                    .spawn(move || serve_conn(&conn_server, stream));
                if spawned.is_err() {
                    return;
                }
            }
            Some(Err(_)) => return,
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Serves one connection until EOF or a protocol violation. Sessions
/// opened on the connection and not yet `Done` are terminated on exit.
fn serve_conn(server: &SessionServer, mut stream: impl Read + Write) {
    let mut handles: HashMap<u64, SessionHandle> = HashMap::new();
    let mut out = Vec::new();
    while let Ok(payload) = read_frame(&mut stream) {
        let mut c = Cursor(&payload);
        out.clear();
        let ok = match c.u8() {
            Ok(OP_OPEN) => handle_open(server, &mut handles, &mut c, &mut out),
            Ok(OP_POLL) => handle_poll(&mut handles, &mut c, &mut out),
            Ok(OP_TERMINATE) => handle_terminate(&handles, &mut c, &mut out),
            _ => false,
        };
        if !ok || write_frame(&mut stream, &out).is_err() {
            break;
        }
    }
    for handle in handles.values() {
        handle.terminate();
    }
}

fn handle_open(
    server: &SessionServer,
    handles: &mut HashMap<u64, SessionHandle>,
    c: &mut Cursor<'_>,
    out: &mut Vec<u8>,
) -> bool {
    let Ok(spec) = decode_spec(c) else {
        return false;
    };
    let handle = server.open(spec);
    out.push(OP_OPEN);
    out.extend_from_slice(&handle.id().to_le_bytes());
    handles.insert(handle.id(), handle);
    true
}

fn handle_poll(
    handles: &mut HashMap<u64, SessionHandle>,
    c: &mut Cursor<'_>,
    out: &mut Vec<u8>,
) -> bool {
    let Ok(session) = c.u64() else {
        return false;
    };
    out.push(OP_POLL);
    let event = handles.get(&session).and_then(SessionHandle::try_event);
    let mut finished = false;
    match event {
        None => out.push(EV_NONE),
        Some(SessionEvent::Admitted { session }) => {
            out.push(EV_ADMITTED);
            out.extend_from_slice(&session.to_le_bytes());
        }
        Some(SessionEvent::Rejected { session }) => {
            out.push(EV_REJECTED);
            out.extend_from_slice(&session.to_le_bytes());
            finished = true;
        }
        Some(SessionEvent::Progress { session, progress }) => {
            let (value, std_err) = match progress.result {
                TaskResult::Aggregate { estimate, .. } => (estimate.value, estimate.std_err),
                _ => (f64::NAN, f64::NAN),
            };
            out.push(EV_PROGRESS);
            out.extend_from_slice(&session.to_le_bytes());
            out.extend_from_slice(&progress.samples.to_le_bytes());
            out.extend_from_slice(&value.to_le_bytes());
            out.extend_from_slice(&std_err.to_le_bytes());
        }
        Some(SessionEvent::Done { session, outcome }) => {
            let (value, std_err) = match outcome.result {
                TaskResult::Aggregate { estimate, .. } => (estimate.value, estimate.std_err),
                _ => (f64::NAN, f64::NAN),
            };
            out.push(EV_DONE);
            out.extend_from_slice(&session.to_le_bytes());
            out.push(reason_to_wire(outcome.reason));
            out.extend_from_slice(&outcome.samples.to_le_bytes());
            out.extend_from_slice(&value.to_le_bytes());
            out.extend_from_slice(&std_err.to_le_bytes());
            finished = true;
        }
    }
    if finished {
        handles.remove(&session);
    }
    true
}

fn handle_terminate(
    handles: &HashMap<u64, SessionHandle>,
    c: &mut Cursor<'_>,
    out: &mut Vec<u8>,
) -> bool {
    let Ok(session) = c.u64() else {
        return false;
    };
    if let Some(handle) = handles.get(&session) {
        handle.terminate();
    }
    out.push(OP_TERMINATE);
    true
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// The stream behind a [`WireClient`] (TCP or unix-domain).
enum ClientStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A unix-domain connection.
    Unix(UnixStream),
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.read(buf),
            ClientStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.write(buf),
            ClientStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ClientStream::Tcp(s) => s.flush(),
            ClientStream::Unix(s) => s.flush(),
        }
    }
}

/// A blocking request/response client for the wire protocol.
pub struct WireClient {
    stream: ClientStream,
    buf: Vec<u8>,
}

impl std::fmt::Debug for WireClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WireClient { .. }")
    }
}

impl WireClient {
    /// Connects over TCP.
    pub fn connect_tcp(addr: SocketAddr) -> io::Result<WireClient> {
        Ok(WireClient {
            stream: ClientStream::Tcp(TcpStream::connect(addr)?),
            buf: Vec::new(),
        })
    }

    /// Connects over a unix-domain socket.
    pub fn connect_unix(path: &Path) -> io::Result<WireClient> {
        Ok(WireClient {
            stream: ClientStream::Unix(UnixStream::connect(path)?),
            buf: Vec::new(),
        })
    }

    /// Submits a query; returns the assigned session id (poll for
    /// [`WireEvent::Admitted`] / [`WireEvent::Rejected`]).
    pub fn open(&mut self, spec: &QuerySpec) -> io::Result<u64> {
        self.buf.clear();
        self.buf.push(OP_OPEN);
        encode_spec(&mut self.buf, spec);
        write_frame(&mut self.stream, &self.buf)?;
        let reply = read_frame(&mut self.stream)?;
        let mut c = Cursor(&reply);
        if c.u8()? != OP_OPEN {
            return Err(bad("response op mismatch"));
        }
        c.u64()
    }

    /// Drains at most one pending event for `session`.
    pub fn poll(&mut self, session: u64) -> io::Result<Option<WireEvent>> {
        self.buf.clear();
        self.buf.push(OP_POLL);
        self.buf.extend_from_slice(&session.to_le_bytes());
        write_frame(&mut self.stream, &self.buf)?;
        let reply = read_frame(&mut self.stream)?;
        let mut c = Cursor(&reply);
        if c.u8()? != OP_POLL {
            return Err(bad("response op mismatch"));
        }
        Ok(match c.u8()? {
            EV_NONE => None,
            EV_ADMITTED => Some(WireEvent::Admitted { session: c.u64()? }),
            EV_REJECTED => Some(WireEvent::Rejected { session: c.u64()? }),
            EV_PROGRESS => Some(WireEvent::Progress {
                session: c.u64()?,
                samples: c.u64()?,
                value: c.f64()?,
                std_err: c.f64()?,
            }),
            EV_DONE => Some(WireEvent::Done {
                session: c.u64()?,
                reason: reason_from_wire(c.u8()?)?,
                samples: c.u64()?,
                value: c.f64()?,
                std_err: c.f64()?,
            }),
            _ => return Err(bad("unknown event tag")),
        })
    }

    /// Requests cancellation of `session`.
    pub fn terminate(&mut self, session: u64) -> io::Result<()> {
        self.buf.clear();
        self.buf.push(OP_TERMINATE);
        self.buf.extend_from_slice(&session.to_le_bytes());
        write_frame(&mut self.stream, &self.buf)?;
        let reply = read_frame(&mut self.stream)?;
        let mut c = Cursor(&reply);
        if c.u8()? != OP_TERMINATE {
            return Err(bad("response op mismatch"));
        }
        Ok(())
    }
}
