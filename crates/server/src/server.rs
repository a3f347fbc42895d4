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
//!   frames without waiting. The worker decodes up to
//!   [`ServerConfig::max_pipeline`] frames ahead of execution; when the
//!   window fills it *stops reading the socket* (counted as a
//!   `backpressure_stalls`) until the in-flight statements drain, so TCP
//!   flow control pushes back on the client instead of the server
//!   buffering unboundedly. Within a decoded window, runs of ≥ 2
//!   consecutive `INSERT`s into one table coalesce into a single
//!   [`Session::execute_batch`] call (one transition table, one cascade —
//!   counted as `pipelined_batches`); a coalesced run is one statement
//!   and succeeds or fails as a unit, cascade included.
//! * **Graceful shutdown** ([`ServerHandle::shutdown`]): in-flight
//!   statements complete, every decoded-but-unexecuted frame is answered
//!   with a retriable `ShuttingDown` error, connections close, workers
//!   join, and the session pool is checkpointed so the WAL closes at a
//!   statement boundary ([`ServerHandle::close`] additionally consumes
//!   the pool via [`Session::close`]).

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
    /// Per-connection pipeline window: how many decoded request frames may
    /// be queued ahead of execution before the server stops reading the
    /// socket. Default 64.
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

    /// Graceful shutdown: stop accepting, let in-flight statements finish,
    /// answer queued frames with retriable `ShuttingDown` errors, join
    /// every thread, then force a global commit + checkpoint so a durable
    /// pool's WAL closes at a statement boundary. Returns the pool for
    /// continued in-process use.
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

/// What ended one gather round on a connection.
enum GatherEnd {
    /// Frames decoded (or nothing arrived yet); keep serving.
    More,
    /// The pipeline window filled; the socket is deliberately not being
    /// read until this window drains.
    Stalled,
    /// Clean close: EOF on a frame boundary.
    Eof,
    /// EOF mid-frame: the peer died (or lied about the length).
    TornEof,
    /// Framing violation (oversized header, CRC mismatch).
    Bad(String),
    /// Shutdown was signaled while waiting for traffic.
    ShuttingDown,
    /// Unrecoverable socket error.
    Io,
}

/// Read until at least one complete frame is buffered (or the connection
/// ends), then opportunistically drain every already-available frame up to
/// the pipeline window — the pipelining heart: statements a client
/// streamed back-to-back arrive here as one window and become candidates
/// for batch coalescing.
fn gather_frames(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    shutdown: &AtomicBool,
    config: &ServerConfig,
) -> (Vec<Vec<u8>>, GatherEnd) {
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let mut scratch = [0u8; 64 * 1024];
    loop {
        // Drain complete frames out of the buffer first.
        while frames.len() < config.max_pipeline {
            match decode_frame(buf, MAX_FRAME_DEFAULT) {
                Framing::Frame(p) => frames.push(p),
                Framing::Need => break,
                Framing::Bad(msg) => return (frames, GatherEnd::Bad(msg)),
            }
        }
        if frames.len() >= config.max_pipeline {
            return (frames, GatherEnd::Stalled);
        }
        if frames.is_empty() {
            // Nothing to execute yet: block (bounded by the poll interval
            // so shutdown stays responsive).
            if shutdown.load(Ordering::Acquire) {
                return (frames, GatherEnd::ShuttingDown);
            }
            match stream.read(&mut scratch) {
                Ok(0) => {
                    let end = if buf.is_empty() {
                        GatherEnd::Eof
                    } else {
                        GatherEnd::TornEof
                    };
                    return (frames, end);
                }
                Ok(n) => buf.extend_from_slice(&scratch[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => return (frames, GatherEnd::Io),
            }
        } else {
            // Already have work: top the window up without blocking.
            if stream.set_nonblocking(true).is_err() {
                return (frames, GatherEnd::More);
            }
            let outcome = stream.read(&mut scratch);
            let _ = stream.set_nonblocking(false);
            match outcome {
                Ok(0) => {
                    // Note the EOF for *after* this window executes: the
                    // frames in hand still deserve responses. The next
                    // gather round re-observes the EOF.
                    return (frames, GatherEnd::More);
                }
                Ok(n) => buf.extend_from_slice(&scratch[..n]),
                Err(_) => return (frames, GatherEnd::More),
            }
        }
    }
}

/// First target table of an `INSERT INTO <table> …` statement, by a cheap
/// textual sniff — the coalescing pre-check. (The SQL grammar proper runs
/// inside `execute`/`execute_batch`; a false positive here merely routes a
/// malformed statement through `execute_batch`, which reports the same
/// parse error the direct path would.)
fn insert_target(stmt: &str) -> Option<&str> {
    let mut words = stmt.split_whitespace();
    if !words.next()?.eq_ignore_ascii_case("insert") {
        return None;
    }
    if !words.next()?.eq_ignore_ascii_case("into") {
        return None;
    }
    let table = words.next()?.split('(').next()?;
    (!table.is_empty()).then_some(table)
}

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
    loop {
        let (frames, end) = gather_frames(&mut stream, &mut buf, shutdown, config);
        if matches!(end, GatherEnd::Stalled) {
            session.database().bump(Counter::BackpressureStalls, 1);
        }
        if !frames.is_empty() && !process_window(session, &mut writer, frames, shutdown)? {
            return Ok(()); // protocol error or shutdown mid-window; closed politely
        }
        match end {
            GatherEnd::More | GatherEnd::Stalled => {}
            GatherEnd::Eof | GatherEnd::Io => return Ok(()),
            GatherEnd::TornEof => {
                session.database().bump(Counter::FramesRejected, 1);
                return Ok(());
            }
            GatherEnd::Bad(msg) => {
                session.database().bump(Counter::FramesRejected, 1);
                write_frame(
                    &mut writer,
                    &encode_error(WireErrorKind::Protocol, &msg, None),
                )?;
                writer.flush()?;
                return Ok(());
            }
            GatherEnd::ShuttingDown => {
                // Courtesy drain: frames the client already sent (buffered
                // locally or sitting in the socket) get a retriable
                // refusal instead of a silent close, so a pipelining
                // client knows its tail never executed.
                if stream.set_nonblocking(true).is_ok() {
                    let mut scratch = [0u8; 64 * 1024];
                    while let Ok(n) = stream.read(&mut scratch) {
                        if n == 0 {
                            break;
                        }
                        buf.extend_from_slice(&scratch[..n]);
                    }
                }
                let payload = encode_error(WireErrorKind::ShuttingDown, REFUSED, None);
                while let Framing::Frame(_) = decode_frame(&mut buf, MAX_FRAME_DEFAULT) {
                    write_frame(&mut writer, &payload)?;
                }
                writer.flush()?;
                return Ok(());
            }
        }
    }
}

/// Execute one gathered window in order, writing one response frame per
/// request frame. Returns `Ok(false)` when the connection must close
/// (request-level protocol violation, or shutdown drained the tail).
fn process_window(
    session: &Session,
    writer: &mut BufWriter<TcpStream>,
    frames: Vec<Vec<u8>>,
    shutdown: &AtomicBool,
) -> io::Result<bool> {
    // Decode the whole window first; a malformed request payload closes
    // the connection, but only after every earlier frame got its answer.
    let mut stmts: Vec<String> = Vec::with_capacity(frames.len());
    let mut violation: Option<String> = None;
    for payload in &frames {
        match decode_request(payload) {
            Ok(Request::Execute(text)) => stmts.push(text),
            Err(msg) => {
                violation = Some(msg);
                break;
            }
        }
    }
    session
        .database()
        .bump(Counter::FramesReceived, stmts.len() as u64);

    let mut i = 0;
    let mut drained = false;
    while i < stmts.len() {
        if shutdown.load(Ordering::Acquire) {
            // In-flight statements (everything before `i`) completed and
            // responded; the queued tail gets a retriable refusal.
            let payload = encode_error(WireErrorKind::ShuttingDown, REFUSED, None);
            for _ in i..stmts.len() {
                write_frame(writer, &payload)?;
            }
            drained = true;
            break;
        }
        // Coalesce a maximal run of ≥ 2 consecutive INSERTs into one table.
        if let Some(table) = insert_target(&stmts[i]) {
            let mut j = i + 1;
            while j < stmts.len() && insert_target(&stmts[j]) == Some(table) {
                j += 1;
            }
            if j - i >= 2 {
                match session.execute_batch(stmts[i..j].iter().map(|s| s.as_str())) {
                    Ok(results) => {
                        session.database().bump(Counter::PipelinedBatches, 1);
                        for r in &results {
                            write_frame(writer, &encode_result(r))?;
                        }
                    }
                    // A coalesced run is one statement and fails as a
                    // unit, so every frame of the run reports the error.
                    Err(e) => {
                        let payload = encode_statement_error(&e);
                        for _ in i..j {
                            write_frame(writer, &payload)?;
                        }
                    }
                }
                i = j;
                continue;
            }
        }
        match session.execute(&stmts[i]) {
            Ok(r) => write_frame(writer, &encode_result(&r))?,
            Err(e) => write_frame(writer, &encode_statement_error(&e))?,
        }
        i += 1;
    }

    if let Some(msg) = violation {
        session.database().bump(Counter::FramesRejected, 1);
        write_frame(writer, &encode_error(WireErrorKind::Protocol, &msg, None))?;
        writer.flush()?;
        return Ok(false);
    }
    writer.flush()?;
    Ok(!drained)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_target_sniffs_tables() {
        assert_eq!(insert_target("INSERT INTO t VALUES (1)"), Some("t"));
        assert_eq!(
            insert_target("insert into t2(a, b) values (1, 2)"),
            Some("t2")
        );
        assert_eq!(insert_target("  INSERT   INTO   t  VALUES (1)"), Some("t"));
        assert_eq!(insert_target("UPDATE t SET a = 1"), None);
        assert_eq!(insert_target("SELECT a FROM t"), None);
        assert_eq!(insert_target("INSERT"), None);
        assert_eq!(insert_target("INSERT INTO"), None);
    }
}
