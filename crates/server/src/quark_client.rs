//! A minimal blocking client for the wire protocol — enough to drive a
//! server from tests, benchmarks, and other processes without an async
//! runtime.
//!
//! Two call shapes:
//!
//! * [`Client::execute`] — one statement, one round trip. Statement-level
//!   failures (parse/engine errors) come back as
//!   [`ClientError::Remote`]; the connection stays usable.
//! * [`Client::execute_pipelined`] — stream many statements before
//!   reading any response. The client interleaves writes and reads under
//!   a fixed credit window so an arbitrarily long batch can never
//!   deadlock against the server's own backpressure (both sides writing,
//!   neither reading). Per-statement outcomes come back positionally.

use std::io::{self, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    decode_frame, decode_response, encode_request, write_frame, Framing, WireError, WireResult,
    MAX_FRAME_DEFAULT,
};

/// How many request frames [`Client::execute_pipelined`] may write ahead
/// of the responses it has read. Matches the server's default pipeline
/// window; correctness only needs it to be finite.
const PIPELINE_CREDITS: usize = 64;

/// Why a client call failed at the *connection* level. Statement-level
/// failures are [`ClientError::Remote`] and leave the connection usable.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The peer broke the wire protocol (malformed frame or payload).
    Protocol(String),
    /// The server reported a statement or connection error.
    Remote(WireError),
    /// The server closed the connection before answering.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Remote(e) => write!(f, "server error: {e}"),
            ClientError::Closed => f.write_str("connection closed by server"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Bounded exponential backoff with decorrelated jitter for retriable
/// server rejections.
///
/// The server answers `Busy` (admission queue full) and `ShuttingDown`
/// (drain in progress) *before* executing anything and then closes the
/// connection, so a rejected statement provably never ran and can be
/// resent verbatim — but only on a **fresh** connection. The policy
/// bounds both the attempt count and the per-attempt delay.
///
/// [`execute_with_retry`](Client::execute_with_retry) sleeps a
/// *decorrelated jitter* schedule — each delay is drawn uniformly from
/// `[base_delay, 3 × previous_delay]`, capped at
/// [`max_delay`](RetryPolicy::max_delay) — so a fleet of clients rejected
/// by the same `Busy` burst does not reconnect in lockstep and re-create
/// the burst.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total connection attempts (≥ 1); the first carries no delay.
    pub attempts: u32,
    /// Floor of every retry delay: the jittered schedule draws each delay
    /// from `[base_delay, 3 × previous]`, the first one's previous being
    /// `base_delay` itself.
    pub base_delay: Duration,
    /// Ceiling on the per-attempt delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// Start a jittered delay sequence (one per retry loop).
    fn jitter(&self) -> Jitter {
        Jitter {
            policy: *self,
            prev: self.base_delay,
            rng: rng_seed(),
        }
    }
}

/// Stateful decorrelated-jitter schedule: `next ∈ [base, 3 × prev]`,
/// capped at `max_delay` (AWS architecture blog's "decorrelated jitter").
struct Jitter {
    policy: RetryPolicy,
    prev: Duration,
    rng: u64,
}

impl Jitter {
    fn next_delay(&mut self) -> Duration {
        let base = self.policy.base_delay.as_nanos() as u64;
        let ceiling = (self.prev.as_nanos() as u64).saturating_mul(3).max(base);
        // xorshift64: cheap, no external deps, quality is ample for spreading
        // sleep times.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let span = ceiling - base;
        let nanos = if span == 0 {
            base
        } else {
            base + self.rng % (span + 1)
        };
        let delay = Duration::from_nanos(nanos).min(self.policy.max_delay);
        self.prev = delay;
        delay
    }
}

/// Seed from wall-clock nanos and the thread id so concurrent clients
/// started in the same instant still decorrelate.
fn rng_seed() -> u64 {
    use std::hash::BuildHasher;
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0x9e37_79b9_7f4a_7c15);
    let tid = std::collections::hash_map::RandomState::new().hash_one(std::thread::current().id());
    // A zero state would keep xorshift at zero forever.
    (nanos ^ tid) | 1
}

/// A blocking connection to a quark server.
pub struct Client {
    stream: TcpStream,
    writer: BufWriter<TcpStream>,
    buf: Vec<u8>,
    max_frame: usize,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            writer: BufWriter::new(stream.try_clone()?),
            stream,
            buf: Vec::new(),
            max_frame: MAX_FRAME_DEFAULT,
        })
    }

    /// Read one complete response frame (blocking). Useful after
    /// [`Client::send_raw`], when responses must be consumed positionally;
    /// [`Client::execute`] pairs the write and the read for you.
    pub fn read_response(&mut self) -> Result<Result<WireResult, WireError>, ClientError> {
        loop {
            match decode_frame(&mut self.buf, self.max_frame) {
                Framing::Frame(payload) => {
                    return decode_response(&payload).map_err(ClientError::Protocol)
                }
                Framing::Bad(msg) => return Err(ClientError::Protocol(msg)),
                Framing::Need => {}
            }
            let mut scratch = [0u8; 16 * 1024];
            let n = self.stream.read(&mut scratch)?;
            if n == 0 {
                return if self.buf.is_empty() {
                    Err(ClientError::Closed)
                } else {
                    Err(ClientError::Protocol("torn response frame".into()))
                };
            }
            self.buf.extend_from_slice(&scratch[..n]);
        }
    }

    /// Execute one statement and wait for its result.
    pub fn execute(&mut self, statement: &str) -> Result<WireResult, ClientError> {
        write_frame(&mut self.writer, &encode_request(statement))?;
        self.writer.flush()?;
        self.read_response()?.map_err(ClientError::Remote)
    }

    /// Stream `statements` down the connection without waiting for
    /// individual results, then return every outcome in order. The server
    /// executes them in order and may coalesce consecutive same-table
    /// `INSERT`s into one batched statement.
    ///
    /// The outer `Err` means the connection failed part-way: some prefix
    /// of the statements may have executed (retriable error kinds —
    /// [`WireErrorKind::is_retriable`](crate::protocol::WireErrorKind::is_retriable)
    /// — provably did not).
    pub fn execute_pipelined<'s>(
        &mut self,
        statements: impl IntoIterator<Item = &'s str>,
    ) -> Result<Vec<Result<WireResult, WireError>>, ClientError> {
        let mut results = Vec::new();
        let mut in_flight = 0usize;
        for stmt in statements {
            if in_flight >= PIPELINE_CREDITS {
                // Window full: a response must be consumed before the next
                // write, or both sides could block writing.
                self.writer.flush()?;
                results.push(self.read_response()?);
                in_flight -= 1;
            }
            write_frame(&mut self.writer, &encode_request(stmt))?;
            in_flight += 1;
        }
        self.writer.flush()?;
        for _ in 0..in_flight {
            results.push(self.read_response()?);
        }
        Ok(results)
    }

    /// Dial `addr` and execute one statement, retrying under `policy`
    /// when the server answers with a retriable rejection (`Busy` /
    /// `ShuttingDown` — see
    /// [`WireErrorKind::is_retriable`](crate::protocol::WireErrorKind::is_retriable)).
    ///
    /// Those frames are sent *before* any execution and the server closes
    /// the connection after them, so each retry must — and does — dial a
    /// fresh connection; the statement provably never ran, making the
    /// resend safe. Connect failures are also retried (dialing executes
    /// nothing), but any other error — including statement-level
    /// [`ClientError::Remote`] failures — returns immediately: after an
    /// ambiguous mid-execution failure a blind resend could double-apply.
    ///
    /// On success returns the live connection alongside the result so the
    /// caller can keep using it.
    pub fn execute_with_retry(
        addr: impl ToSocketAddrs,
        statement: &str,
        policy: RetryPolicy,
    ) -> Result<(Client, WireResult), ClientError> {
        let mut last = ClientError::Protocol("retry policy allows zero attempts".into());
        let mut jitter = policy.jitter();
        for attempt in 0..policy.attempts {
            if attempt > 0 {
                std::thread::sleep(jitter.next_delay());
            }
            let mut client = match Client::connect(&addr) {
                Ok(c) => c,
                Err(e) => {
                    last = ClientError::Io(e);
                    continue;
                }
            };
            match client.execute(statement) {
                Ok(result) => return Ok((client, result)),
                Err(ClientError::Remote(e)) if e.kind.is_retriable() => {
                    last = ClientError::Remote(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// Send raw bytes down the connection, bypassing the framing layer —
    /// for protocol-robustness tests that need to produce torn or corrupt
    /// frames on purpose.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Read frames until the server closes the connection, returning the
    /// decoded responses. For tests asserting close-after-error behavior.
    pub fn drain_until_close(mut self) -> Vec<Result<WireResult, WireError>> {
        let mut out = Vec::new();
        loop {
            match self.read_response() {
                Ok(r) => out.push(r),
                Err(_) => return out,
            }
        }
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("buffered", &self.buf.len())
            .field("max_frame", &self.max_frame)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jittered_delays_stay_within_policy_bounds() {
        let policy = RetryPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
        };
        let mut jitter = policy.jitter();
        let mut prev = policy.base_delay;
        for i in 0..200 {
            let d = jitter.next_delay();
            assert!(d >= policy.base_delay, "attempt {i}: {d:?} below base");
            assert!(d <= policy.max_delay, "attempt {i}: {d:?} above max");
            // Decorrelated: the ceiling is 3× the *previous* delay, not a
            // fixed doubling of the base.
            assert!(
                d <= (prev * 3).max(policy.base_delay).min(policy.max_delay),
                "attempt {i}: {d:?} above 3x previous {prev:?}"
            );
            prev = d;
        }
    }

    #[test]
    fn degenerate_policies_do_not_panic() {
        // Zero base: every delay collapses to the max-capped ceiling math.
        let zero = RetryPolicy {
            attempts: 3,
            base_delay: Duration::ZERO,
            max_delay: Duration::from_millis(1),
        };
        let mut jitter = zero.jitter();
        for _ in 0..10 {
            assert!(jitter.next_delay() <= zero.max_delay);
        }
        // Base above max: capped at max.
        let inverted = RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(5),
        };
        let mut jitter = inverted.jitter();
        for _ in 0..10 {
            assert_eq!(jitter.next_delay(), inverted.max_delay);
        }
    }

    #[test]
    fn two_sequences_decorrelate() {
        let policy = RetryPolicy::default();
        let schedule = || -> Vec<Duration> {
            let mut j = policy.jitter();
            (0..8).map(|_| j.next_delay()).collect()
        };
        // Seeds mix wall-clock nanos, so two schedules built moments apart
        // should diverge somewhere; identical ones would mean the jitter
        // degenerated to a fixed schedule. Tolerate a coarse clock by
        // allowing a few seed collisions before declaring degeneracy.
        let first = schedule();
        let diverged = (0..5).any(|_| {
            std::thread::sleep(Duration::from_micros(50));
            schedule() != first
        });
        assert!(
            diverged,
            "independent retry schedules must not be identical"
        );
    }
}
