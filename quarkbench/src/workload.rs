//! The four workloads, and the closed-loop clients that drive them.
//!
//! Closed loop: each client is an application session that sends its next
//! statement only when the previous reply has arrived. A run measures for a
//! fixed time (the benchmark contract's `--seconds`); fixtures are
//! stationary (see [`crate::loadgen`]), so per-statement cost does not
//! depend on how many statements that time allows.

use std::path::Path;
use std::time::{Duration, Instant};

use quark_core::relational::{Database, Stats, Value};
use quark_core::storage::SyncMode;
use quark_core::{Mode, Session, StatementResult};
use quark_server::{Client, WireResult};

use crate::hist::Histogram;
use crate::loadgen::{
    build_hierarchy, build_sharded, Check, Fixture, HierarchySpec, Op, ShardedSpec,
};

/// How statements reach the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `Session::execute` on a forked handle per client.
    InProcess,
    /// `quark_server::Client` over loopback TCP, one connection per client.
    Wire,
}

#[derive(Debug, Clone, Copy)]
pub enum FixtureSpec {
    Hierarchy(HierarchySpec),
    Sharded(ShardedSpec),
}

/// One workload: a fixture, a transport, a statement mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why it exists; repeated in `BENCHMARK.json`.
    pub why: &'static str,
    pub transport: Transport,
    /// `Some` runs on a durable directory with this WAL sync mode.
    pub sync: Option<SyncMode>,
    /// Client threads (and server workers). Never above the reference
    /// box's two cores.
    pub clients: usize,
    pub reads_per_1000: usize,
    /// Statements per client run before the clock starts: fills the
    /// executor caches and publishes the first snapshot.
    pub warmup_ops: usize,
    /// Pre-generated statements per client; the timed loop cycles them.
    pub stream_len: usize,
    pub fixture: FixtureSpec,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fanout-cascade",
        why: "Fig. 17: 1 in-process client, keyed UPDATEs under 10000 grouped triggers, 20 fire; \
              only the trigger cascade works, server/storage/snapshot idle; setup carries the compile cost",
        transport: Transport::InProcess,
        sync: None,
        clients: 1,
        reads_per_1000: 0,
        warmup_ops: 100,
        stream_len: 4096,
        fixture: FixtureSpec::Hierarchy(HierarchySpec {
            depth: 3,
            leaves: 16_384,
            fanout: 64,
            triggers: 10_000,
            satisfied: 20,
            ring_slots: 4_096,
        }),
    },
    Workload {
        name: "mixed-snapshot",
        why: "2 in-process clients on disjoint 4096-row shards, 50% UPDATE / 50% SELECT: \
              snapshot publication, commit fold and copy-on-write table copies dominate a 20 us cascade",
        transport: Transport::InProcess,
        sync: None,
        clients: 2,
        reads_per_1000: 500,
        warmup_ops: 200,
        stream_len: 8192,
        fixture: FixtureSpec::Sharded(ShardedSpec {
            shards: 2,
            rows: 4_096,
            triggers: 8,
            ring_slots: 1_024,
        }),
    },
    Workload {
        name: "wire-small-mixed",
        why: "same 50/50 statements over TCP against 256-row shards: engine work is tens of us, so framing, \
              codec, worker hand-off and sql::parse are most of the latency; bypasses table-size effects",
        transport: Transport::Wire,
        sync: None,
        clients: 2,
        reads_per_1000: 500,
        warmup_ops: 2_000,
        stream_len: 8192,
        fixture: FixtureSpec::Sharded(ShardedSpec {
            shards: 2,
            rows: 256,
            triggers: 8,
            ring_slots: 64,
        }),
    },
    Workload {
        name: "wire-wal-write",
        why: "write-only over TCP on a durable directory, every write's redo appended to the WAL before its ack \
              (no fsync wait: the sandbox's swings tenfold); no readers, so a snapshot-path gain must not show here",
        transport: Transport::Wire,
        sync: Some(SyncMode::Never),
        clients: 2,
        reads_per_1000: 0,
        warmup_ops: 500,
        stream_len: 8192,
        fixture: FixtureSpec::Sharded(ShardedSpec {
            shards: 2,
            rows: 256,
            triggers: 8,
            ring_slots: 64,
        }),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn scaled(n: usize, scale: f64, floor: usize) -> usize {
    ((n as f64 * scale) as usize).max(floor)
}

impl Workload {
    /// The workload with every size multiplied by `scale` (1.0 = as
    /// defined). Only the smoke test runs scaled; `compare` refuses it.
    pub fn scaled(mut self, scale: f64) -> Workload {
        if scale == 1.0 {
            return self;
        }
        self.warmup_ops = scaled(self.warmup_ops, scale, 4);
        self.stream_len = scaled(self.stream_len, scale, 256);
        self.fixture = match self.fixture {
            FixtureSpec::Hierarchy(h) => {
                let triggers = scaled(h.triggers, scale, h.satisfied);
                FixtureSpec::Hierarchy(HierarchySpec {
                    // Whole top elements, and at least two of them.
                    leaves: scaled(h.leaves / h.fanout, scale, 2) * h.fanout,
                    triggers,
                    ring_slots: scaled(h.ring_slots, scale, 2 * h.satisfied),
                    ..h
                })
            }
            FixtureSpec::Sharded(s) => FixtureSpec::Sharded(ShardedSpec {
                rows: scaled(s.rows, scale, 8),
                ring_slots: scaled(s.ring_slots, scale, 2 * s.triggers),
                ..s
            }),
        };
        self
    }

    /// Build the fixture: schema, load, views, every `CREATE TRIGGER`.
    /// `dir` is a fresh directory for the durable workload's files.
    pub fn build(&self, dir: &Path) -> Result<Fixture, String> {
        match self.fixture {
            FixtureSpec::Hierarchy(h) => build_hierarchy(h),
            FixtureSpec::Sharded(s) => {
                let session = match self.sync {
                    None => quark_xquery::session(Database::new(), Mode::Grouped),
                    Some(sync) => quark_xquery::open_session_with(dir, Mode::Grouped, sync)
                        .map_err(|e| format!("open {}: {e}", dir.display()))?,
                };
                build_sharded(session, s)
            }
        }
        .map_err(|e| format!("build {}: {e}", self.name))
    }
}

/// One client's connection to the system under test.
pub enum Conn {
    Local(Session),
    Remote(Client),
}

impl Conn {
    /// Execute `op` and check the reply against what the generator
    /// expects. `Err` describes the first thing wrong with it.
    pub fn run(&mut self, op: &Op) -> Result<(), String> {
        match self {
            Conn::Local(session) => match (session.execute(&op.text), &op.check) {
                (Ok(StatementResult::RowsAffected(1)), Check::Write { .. }) => Ok(()),
                (Ok(StatementResult::Rows { rows, .. }), Check::Read { name })
                    if names_match(&rows, name) =>
                {
                    Ok(())
                }
                (Ok(other), _) => Err(format!("`{}` returned {other:?}", op.text)),
                (Err(e), _) => Err(format!("`{}` failed: {e}", op.text)),
            },
            Conn::Remote(client) => match (client.execute(&op.text), &op.check) {
                (Ok(WireResult::RowsAffected(1)), Check::Write { .. }) => Ok(()),
                (Ok(WireResult::Rows { rows, .. }), Check::Read { name })
                    if names_match(&rows, name) =>
                {
                    Ok(())
                }
                (Ok(other), _) => Err(format!("`{}` returned {other:?}", op.text)),
                (Err(e), _) => Err(format!("`{}` failed: {e}", op.text)),
            },
        }
    }
}

fn names_match(rows: &[quark_core::relational::Row], name: &str) -> bool {
    matches!(rows, [row] if matches!(&row[..], [Value::Str(s)] if &**s == name))
}

/// The timed phase is cut into this many equal slices. The end-to-end
/// metrics are taken over the whole phase; the per-slice values go to the
/// `--out` document, where they show how steady the machine was.
pub const SLICES: usize = 10;

/// One client's view of one slice of the timed phase.
#[derive(Default, Clone)]
pub struct Slice {
    pub writes: Histogram,
    pub reads: Histogram,
}

/// What one client saw.
#[derive(Default)]
pub struct Tally {
    /// Latencies of correctly answered statements, by the slice the reply
    /// arrived in.
    pub slices: [Slice; SLICES],
    /// Statements sent in the timed phase.
    pub attempted: u64,
    /// Errors, refusals and wrong replies, warm-up included.
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Acknowledged writes since the fixture was built, warm-up included
    /// (the action-invocation check counts firings from the start).
    pub acked_writes: u64,
    /// Stream index of the last acknowledged write.
    pub last_write: Option<usize>,
    /// Statements sent so far, warm-up included: the stream position of the
    /// next one (the stream is cycled).
    next: usize,
}

impl Tally {
    /// Send the next statement of `ops` over `conn` and note the reply.
    /// Returns when the reply arrived and, if it was the expected one, how
    /// long it took and whether the statement was a write.
    fn step(&mut self, conn: &mut Conn, ops: &[Op]) -> (Instant, Option<(Duration, bool)>) {
        let i = self.next % ops.len();
        let op = &ops[i];
        let sent = Instant::now();
        let reply = conn.run(op);
        let done = Instant::now();
        self.next += 1;
        match reply {
            Ok(()) => {
                if op.is_write() {
                    self.acked_writes += 1;
                    self.last_write = Some(i);
                }
                (done, Some((done - sent, op.is_write())))
            }
            Err(e) => {
                self.failed += 1;
                self.first_failure.get_or_insert(e);
                (done, None)
            }
        }
    }
}

/// The timed phase of one workload run.
pub struct Run {
    pub tallies: Vec<Tally>,
    /// Length of one slice.
    pub slice: Duration,
    /// From the start of the clock to the last reply.
    pub elapsed: Duration,
    /// Engine counters just before and just after the timed phase.
    pub before: Stats,
    pub after: Stats,
}

impl Run {
    /// Every client's latencies in slice `i` folded together.
    pub fn slice(&self, i: usize) -> Slice {
        let mut all = Slice::default();
        for t in &self.tallies {
            all.writes.merge(&t.slices[i].writes);
            all.reads.merge(&t.slices[i].reads);
        }
        all
    }

    /// The whole timed phase folded together.
    pub fn total(&self) -> Slice {
        let mut all = Slice::default();
        for s in (0..SLICES).map(|i| self.slice(i)) {
            all.writes.merge(&s.writes);
            all.reads.merge(&s.reads);
        }
        all
    }
}

/// Run `warmup` statements on every client with the clock off: fills the
/// executor caches and publishes the first snapshot. Part of set-up.
pub fn warm_up(conns: &mut [Conn], streams: &[Vec<Op>], warmup: usize) -> Vec<Tally> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(streams)
            .map(|(conn, ops)| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    for _ in 0..warmup {
                        tally.step(conn, ops);
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Drive one closed-loop client per connection, statements back to back
/// from where [`warm_up`] stopped in its stream, until `duration` has
/// passed. `stats` reads the engine's counters just before and just after,
/// with no client running, so the deltas cover exactly the timed phase.
/// `each_slice` runs on the calling thread at every slice boundary inside
/// the timed phase, beside the clients (the durable workload checkpoints
/// there, as a deployment's checkpointer would, so the log stays a slice
/// long however fast the writers are).
pub fn run_clients(
    conns: &mut [Conn],
    streams: &[Vec<Op>],
    mut tallies: Vec<Tally>,
    duration: Duration,
    stats: impl Fn() -> Stats,
    each_slice: impl Fn(),
) -> Run {
    let slice = duration / SLICES as u32;
    let before = stats();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for ((conn, ops), tally) in conns.iter_mut().zip(streams).zip(&mut tallies) {
            scope.spawn(move || loop {
                tally.attempted += 1;
                let (done, answered) = tally.step(conn, ops);
                let at = ((done - start).as_nanos() / slice.as_nanos().max(1)) as usize;
                if let Some((latency, is_write)) = answered {
                    // A reply after the deadline belongs to the last slice.
                    let slice = &mut tally.slices[at.min(SLICES - 1)];
                    let hist = if is_write {
                        &mut slice.writes
                    } else {
                        &mut slice.reads
                    };
                    hist.record(latency);
                }
                if at >= SLICES {
                    break;
                }
            });
        }
        for boundary in 1..SLICES as u32 {
            std::thread::sleep(
                (start + slice * boundary).saturating_duration_since(Instant::now()),
            );
            each_slice();
        }
    });
    let elapsed = start.elapsed();
    let after = stats();
    Run {
        tallies,
        slice,
        elapsed,
        before,
        after,
    }
}
