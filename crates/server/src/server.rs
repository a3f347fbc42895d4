//! The listener, the bounded worker pool, and the per-connection
//! pipelined statement loop.
//!
//! Shape (see the crate docs for the protocol itself):
//!
//! * **One listener thread** accepts connections and hands each to the
//!   worker pool over a *bounded* queue. A full queue is answered with a
//!   retriable `Busy` error frame and a close — admission control, not
//!   unbounded buffering.
//! * **`workers` pooled threads**, each holding one forked [`Session`]
//!   onto the shared [`SessionPool`]. A worker serves one connection at a
//!   time to completion, then takes the next. The engine side already
//!   scales writers by footprint (per-table latches), so worker count —
//!   not lock splitting — is the only knob here.
//! * **Per-connection pipelining**: a client may stream many request
//!   frames without waiting. The worker takes every complete frame
//!   already buffered, up to [`ServerConfig::max_pipeline`], as one
//!   window and hands it to one [`Session::execute_batch`] call, which
//!   alone decides what coalesces: runs of ≥ 2 consecutive `INSERT`s into
//!   one table become one statement (one transition table, one cascade),
//!   which succeeds or fails as a unit, and every other statement,
//!   malformed ones included, is answered on its own — as if it had
//!   been executed in process. The socket is read only when no complete
//!   frame is buffered, so a full window (counted as a
//!   `backpressure_stalls`) leaves the rest in the kernel until it has
//!   executed, and TCP flow control pushes back on the client instead of
//!   the server buffering unboundedly.
//! * **Graceful shutdown** ([`ServerHandle::shutdown`]): shutdown is
//!   checked between windows, so the window in flight completes; every
//!   frame behind it, buffered or still in the socket, is answered with a
//!   retriable `ShuttingDown` error, connections close, workers join, and
//!   the session pool is checkpointed so the WAL closes at a statement
//!   boundary ([`ServerHandle::close`] additionally consumes the pool via
//!   [`Session::close`]).

use std::io::{self, BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use quark_core::relational::Counter;
use quark_core::{Session, SessionPool};

use crate::protocol::{
    decode_frame, decode_request, encode_error, encode_result, encode_statement_error, write_frame,
    Framing, Request, WireErrorKind, MAX_FRAME_DEFAULT,
};

/// Tunables of one [`Server::start`] call.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (= connections served concurrently). Default 4.
    pub workers: usize,
    /// Bounded handoff queue between the listener and the workers;
    /// connections beyond `workers + accept_queue` are busy-rejected.
    /// Default 8.
    pub accept_queue: usize,
    /// Per-connection pipeline window: the most request frames one
    /// [`Session::execute_batch`] call takes. The socket is not read while
    /// complete frames are buffered, so a client streaming faster than a
    /// window executes is pushed back by TCP. Default 64.
    pub max_pipeline: usize,
}

/// Error text of the retriable `ShuttingDown` refusal.
const REFUSED: &str = "server shutting down; statement not executed — retry";

/// How often a connection's blocked read re-checks the shutdown flag, and
/// how long a rejected connection is given to go quiet before it is closed.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            accept_queue: 8,
            max_pipeline: 64,
        }
    }
}

/// The network front door. Constructed via [`Server::start`]; interact
/// through the returned [`ServerHandle`].
pub struct Server;

impl Server {
    /// Bind `addr` (use port 0 for an OS-assigned port) and start serving
    /// the pool's statement surface. Returns once the listener is bound
    /// and the workers are running.
    pub fn start(
        pool: SessionPool,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(config.accept_queue.max(1));
        let rx = Arc::new(Mutex::new(rx));

        let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|_| {
                let session = pool.session();
                let rx = Arc::clone(&rx);
                let shutdown = Arc::clone(&shutdown);
                let config = config.clone();
                std::thread::spawn(move || worker_loop(session, &rx, &shutdown, &config))
            })
            .collect();

        let listener_thread = {
            let session = pool.session();
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || listen_loop(&listener, &tx, &session, &shutdown))
        };

        Ok(ServerHandle {
            addr: local_addr,
            shutdown,
            listener_thread: Some(listener_thread),
            workers,
            pool: Some(pool),
        })
    }
}

/// A running server: the bound address, the shared pool, and the shutdown
/// switch. Dropping the handle shuts the server down (without the final
/// close — use [`ServerHandle::shutdown`] or [`ServerHandle::close`] to
/// observe errors).
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    listener_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    pool: Option<SessionPool>,
}

impl ServerHandle {
    /// The address the server is listening on (with the OS-assigned port
    /// when started on port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A fresh in-process session onto the same pool the server serves —
    /// for inspection and differential checks alongside wire traffic.
    pub fn session(&self) -> Session {
        self.pool
            .as_ref()
            .expect("server pool present until shutdown")
            .session()
    }

    fn drain(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.listener_thread.take() {
            // The listener is blocked in `accept`: one connection to ourselves
            // wakes it. Should even that fail, the thread ends with the process.
            if TcpStream::connect(self.addr).is_ok() || t.is_finished() {
                let _ = t.join();
            }
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }

    /// Graceful shutdown: stop accepting, let each connection's window in
    /// flight finish, answer every frame behind it with a retriable
    /// `ShuttingDown` error, join every thread, then force a global commit
    /// and checkpoint so a durable pool's WAL closes at a statement
    /// boundary. Returns the pool for continued in-process use.
    pub fn shutdown(mut self) -> SessionPool {
        self.drain();
        let pool = self.pool.take().expect("pool present until shutdown");
        // Statement-boundary durable point: the guard's drop commits in
        // global mode and checkpoints (best effort: a log that refuses
        // fails it, and `close` surfaces that error for callers that need
        // it).
        drop(pool.session().quark_mut());
        pool
    }

    /// [`ServerHandle::shutdown`], then tear the pool down via
    /// [`Session::close`], surfacing checkpoint errors.
    ///
    /// # Panics
    ///
    /// Panics if sessions handed out by [`ServerHandle::session`] (or pool
    /// forks taken before [`Server::start`]) are still alive, like
    /// [`Session::close`] itself.
    pub fn close(self) -> quark_core::relational::Result<()> {
        self.shutdown().into_session().close()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.drain();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .field("shutdown", &self.shutdown.load(Ordering::Relaxed))
            .finish()
    }
}

fn listen_loop(
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    session: &Session,
    shutdown: &AtomicBool,
) {
    for accepted in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            break; // woken by `ServerHandle::drain` (or raced by a last client)
        }
        match accepted {
            Ok(stream) => match tx.try_send(stream) {
                Ok(()) => {}
                Err(TrySendError::Full(stream)) => busy_reject(stream, session),
                Err(TrySendError::Disconnected(_)) => break,
            },
            // Transient accept failures (e.g. the peer reset before we
            // got to it) must not kill the listener — nor spin it.
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
    // Dropping `tx` (by returning) closes the queue; idle workers see the
    // disconnect and exit.
}

/// Admission control: the handoff queue is full, so this connection is
/// answered with one retriable `Busy` frame and closed without ever
/// reaching a worker.
fn busy_reject(mut stream: TcpStream, session: &Session) {
    session.database().bump(Counter::FramesRejected, 1);
    let payload = encode_error(
        WireErrorKind::Busy,
        "server at connection capacity; retry later",
        None,
    );
    let _ = write_frame(&mut stream, &payload);
    // Half-close, then swallow what the peer sent until it hangs up or
    // goes quiet: dropping a socket with the client's request still unread
    // makes the kernel answer with an RST, which can overtake the frame.
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let deadline = Instant::now() + 4 * POLL_INTERVAL;
    let mut scratch = [0u8; 4096];
    while Instant::now() < deadline && matches!(stream.read(&mut scratch), Ok(n) if n > 0) {}
}

fn worker_loop(
    session: Session,
    rx: &Mutex<Receiver<TcpStream>>,
    shutdown: &AtomicBool,
    config: &ServerConfig,
) {
    loop {
        // Take the next queued connection; holding the lock only for the
        // recv keeps the other workers' queue access independent.
        let next = {
            let rx = rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        let Ok(stream) = next else {
            return; // listener gone: shutdown
        };
        if shutdown.load(Ordering::Acquire) {
            // Queued behind the shutdown: answer like a busy reject so the
            // client knows nothing ran.
            busy_reject(stream, &session);
            continue;
        }
        session.database().bump(Counter::ActiveConnections, 1);
        let _ = serve_connection(&session, stream, shutdown, config);
        session.database().lower(Counter::ActiveConnections, 1);
    }
}

/// Serve one connection until it closes, the peer breaks the protocol, or
/// shutdown is signaled. Each pass takes every complete frame already
/// buffered, up to the pipeline window, and hands the window to one
/// [`Session::execute_batch`] call, answering each frame in order; only
/// when no complete frame is buffered does it read the socket.
fn serve_connection(
    session: &Session,
    mut stream: TcpStream,
    shutdown: &AtomicBool,
    config: &ServerConfig,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut buf: Vec<u8> = Vec::new();
    let mut scratch = [0u8; 64 * 1024];
    let max_pipeline = config.max_pipeline.max(1);
    loop {
        if shutdown.load(Ordering::Acquire) {
            // Frames the client already sent (buffered here or sitting in
            // the socket) get a retriable refusal instead of a silent
            // close, so a pipelining client knows its tail never executed.
            if stream.set_nonblocking(true).is_ok() {
                while let Ok(n @ 1..) = stream.read(&mut scratch) {
                    buf.extend_from_slice(&scratch[..n]);
                }
            }
            let payload = encode_error(WireErrorKind::ShuttingDown, REFUSED, None);
            while let Framing::Frame(_) = decode_frame(&mut buf, MAX_FRAME_DEFAULT) {
                write_frame(&mut writer, &payload)?;
            }
            return writer.flush();
        }
        // A violation (a bad frame or request payload) closes the
        // connection, but only after every frame before it is answered.
        let mut window: Vec<String> = Vec::new();
        let mut violation = None;
        while window.len() < max_pipeline && violation.is_none() {
            match decode_frame(&mut buf, MAX_FRAME_DEFAULT) {
                Framing::Frame(payload) => match decode_request(&payload) {
                    Ok(Request::Execute(text)) => window.push(text),
                    Err(msg) => violation = Some(msg),
                },
                Framing::Need => break,
                Framing::Bad(msg) => violation = Some(msg),
            }
        }
        if window.is_empty() && violation.is_none() {
            // Nothing to execute: block (bounded by the poll interval so
            // shutdown stays responsive).
            match stream.read(&mut scratch) {
                Ok(0) => {
                    // EOF mid-frame: the peer died (or lied about the length).
                    if !buf.is_empty() {
                        session.database().bump(Counter::FramesRejected, 1);
                    }
                    return Ok(());
                }
                Ok(n) => buf.extend_from_slice(&scratch[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => return Err(e),
            }
            continue;
        }
        {
            let db = session.database();
            db.bump(Counter::FramesReceived, window.len() as u64);
            if window.len() == max_pipeline {
                // The window is full: the socket is not read again until it
                // has executed, so TCP flow control pushes back.
                db.bump(Counter::BackpressureStalls, 1);
            }
        }
        for result in session.execute_batch(window.iter().map(String::as_str)) {
            let payload = match result {
                Ok(r) => encode_result(&r),
                Err(e) => encode_statement_error(&e),
            };
            write_frame(&mut writer, &payload)?;
        }
        if let Some(msg) = violation {
            session.database().bump(Counter::FramesRejected, 1);
            write_frame(
                &mut writer,
                &encode_error(WireErrorKind::Protocol, &msg, None),
            )?;
            return writer.flush();
        }
        writer.flush()?;
    }
}
