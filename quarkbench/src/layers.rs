//! The traced run: where inside the stack a statement's time goes.
//!
//! Everything here measures from outside — timing calls into each layer's
//! `pub` functions — on a single thread, after the timed phase and its
//! output checks (the probes execute further writes). The replay walks the
//! start of the same seeded statement streams the clients ran, making the
//! layer calls the workload's transport makes: on a wire workload it plays
//! both ends of the wire itself,
//!
//! `encode_request → decode_request → sql::parse → Session::execute →
//!  encode_result → decode_response`
//!
//! and in process only the two in the middle, each inside a span under one
//! `statement` span. Only the layers a workload exercises are probed; the
//! metrics of the others stay unset and read 0. Spans inside the engine
//! (latch wait, per-group plan execution, fsync wait) need hooks in the
//! engine and are a later change; until then the engine's share is split by
//! subtraction: bare DML on a trigger-free copy, an in-memory twin of the
//! durable system, and a real TCP round trip against the same session.

use std::path::Path;
use std::time::{Duration, Instant};

use quark_core::relational::sql::{self, Statement};
use quark_core::relational::{Database, RedoOp, Value};
use quark_core::storage::{StorageEngine, SyncMode};
use quark_core::Session;
use quark_server::protocol::{
    decode_request, decode_response, encode_request, encode_result, Request,
};
use quark_server::Client;

use crate::loadgen::{Fixture, Op, Target};
use crate::metrics::Metrics;
use crate::trace::{self_times_ns, Span, Tracer};
use crate::workload::Workload;

/// Share of each client's stream the replay covers.
const REPLAY_SHARE: f64 = 0.05;
/// Iterations of each fixed-count probe.
const PROBE_ITERS: usize = 200;

fn median_us(samples: &mut [Duration]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    samples[samples.len() / 2].as_secs_f64() * 1e6
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// The `part`-th [`REPLAY_SHARE`] of every client's stream, interleaved
/// round-robin (what preceded a statement is a session-wide fact: any
/// client's read asks the next commit to publish). Part 0 is the traced
/// replay; the untraced pass and the wire probe take the parts after it,
/// because re-running an UPDATE sets the price it already has and fires
/// nothing.
fn stream_part(streams: &[Vec<Op>], part: usize) -> Vec<&Op> {
    let len = streams[0].len();
    let per_client = ((len as f64 * REPLAY_SHARE) as usize).max(8);
    (part * per_client..(part + 1) * per_client)
        .flat_map(|i| streams.iter().map(move |ops| &ops[i % len]))
        .collect()
}

/// One statement through every layer call the workload's transport makes,
/// each under its own span: the wire's codec only on a wire workload.
/// Returns the encoded request and response sizes (0 in process).
fn traced_statement(
    t: &mut Tracer,
    stmt: u32,
    session: &Session,
    op: &Op,
    wire: bool,
) -> (usize, usize) {
    t.span(stmt, "client", "statement", |t| {
        let mut sizes = (0, 0);
        if wire {
            let request = t.span(stmt, "server", "encode_request", |_| {
                encode_request(&op.text)
            });
            let decoded = t.span(stmt, "server", "decode_request", |_| {
                decode_request(&request)
            });
            assert!(
                matches!(&decoded, Ok(Request::Execute(text)) if *text == op.text),
                "own request did not decode: {decoded:?}"
            );
            sizes.0 = request.len();
        }
        let parsed = t.span(stmt, "relational", "sql_parse", |_| sql::parse(&op.text));
        std::hint::black_box(&parsed);
        let result = t
            .span(stmt, "core", "session_execute", |_| {
                session.execute(&op.text)
            })
            .unwrap_or_else(|e| panic!("replayed `{}` failed: {e}", op.text));
        if wire {
            let response = t.span(stmt, "server", "encode_result", |_| encode_result(&result));
            let reply = t.span(stmt, "server", "decode_response", |_| {
                decode_response(&response)
            });
            std::hint::black_box(&reply);
            sizes.1 = response.len();
        }
        sizes
    })
}

/// The same calls with no recorder, for the tracing overhead.
fn untraced_statement(session: &Session, op: &Op, wire: bool) {
    if wire {
        let request = encode_request(&op.text);
        std::hint::black_box(&decode_request(&request));
    }
    std::hint::black_box(&sql::parse(&op.text));
    let result = session
        .execute(&op.text)
        .unwrap_or_else(|e| panic!("replayed `{}` failed: {e}", op.text));
    if wire {
        let response = encode_result(&result);
        std::hint::black_box(&decode_response(&response));
    }
}

fn span_median_us(spans: &[Span], name: &str, keep: impl Fn(&Span) -> bool) -> f64 {
    let mut d: Vec<Duration> = spans
        .iter()
        .filter(|s| s.name == name && keep(s))
        .map(|s| Duration::from_nanos(s.duration_ns()))
        .collect();
    median_us(&mut d)
}

/// A trigger-free database holding a copy of `table` (schema, indexes,
/// rows): what the statement costs with no trigger system above it.
fn bare_copy(session: &Session, table: &str) -> Database {
    let db = session.database();
    let t = db.table(table).expect("target table");
    let mut bare = Database::new();
    bare.create_table(t.schema().clone())
        .expect("fresh database");
    for col in t.indexed_columns() {
        let column = &t.schema().columns[col].name;
        bare.create_index(table, column).expect("copied index");
    }
    let rows = t.iter().map(|r| r.to_vec()).collect();
    bare.load(table, rows).expect("copied rows");
    bare
}

/// The redo batch one write of this workload logs: the updated row, then a
/// slot delete and insert per firing, with the rows as they are now.
fn redo_shape(session: &Session, target: &Target) -> Vec<RedoOp> {
    let db = session.database();
    let hot = db.table(&target.table).expect("target table");
    let ring = db.table(&target.ring.table).expect("ring table");
    let key = [Value::Int(target.hot_keys[0])];
    let mut ops = vec![RedoOp::Put {
        table: target.table.clone(),
        row: hot.get(&key).expect("hot row").clone(),
    }];
    for row in ring.iter().take(target.satisfied) {
        ops.push(RedoOp::Del {
            table: target.ring.table.clone(),
            key: vec![row[0].clone()],
        });
        ops.push(RedoOp::Put {
            table: target.ring.table.clone(),
            row: row.clone(),
        });
    }
    ops
}

/// What `log_statement` costs on a scratch engine when `threads` sessions
/// commit at once, as the workload's clients would.
struct LogProbe {
    median_us: f64,
    fsyncs_per_commit: f64,
    commits_per_group_batch: f64,
}

fn log_statement_probe(dir: &Path, sync: SyncMode, threads: usize, ops: &[RedoOp]) -> LogProbe {
    let _ = std::fs::remove_dir_all(dir);
    let (engine, _) = StorageEngine::open(dir, sync).expect("scratch storage engine");
    let mut samples: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| -> Vec<Duration> {
                    (0..PROBE_ITERS)
                        .map(|_| timed(|| engine.log_statement(ops).expect("log_statement")).1)
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("log_statement probe thread"))
            .collect()
    });
    let commits = samples.len() as f64;
    let batches = engine.group_commit_batches();
    let probe = LogProbe {
        median_us: median_us(&mut samples),
        fsyncs_per_commit: engine.wal_fsyncs() as f64 / commits,
        commits_per_group_batch: if batches == 0 {
            0.0
        } else {
            commits / batches as f64
        },
    };
    drop(engine);
    let _ = std::fs::remove_dir_all(dir);
    probe
}

pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Run the replay and the probes of the layers this workload exercises,
/// adding their timing metrics to `m` (the round-trip overhead is measured
/// in `run::run`, under the workload's own concurrency); a metric of a
/// layer the workload does not touch is left unset. Returns the spans.
/// `server_addr` is the wire workload's server.
pub fn measure(
    workload: &Workload,
    fixture: &Fixture,
    streams: &[Vec<Op>],
    server_addr: Option<std::net::SocketAddr>,
    scratch: &Path,
    m: &mut Metrics,
) -> Vec<Span> {
    let session = &fixture.session;
    let wire = server_addr.is_some();
    let slice = stream_part(streams, 0);
    let is_write: Vec<bool> = slice.iter().map(|op| op.is_write()).collect();

    // ---- replay ----------------------------------------------------------
    // Traced and untraced statements alternate, so drift in the machine
    // hits both; the overhead compares per-statement medians by kind, not
    // totals, so one scheduler stall does not pass for tracing cost. A
    // traced statement's predecessor is therefore an untraced one — a
    // statement of the same mix.
    let plain = stream_part(streams, 1);
    let after_write: Vec<bool> = plain.iter().map(|op| op.is_write()).collect();
    let mut untraced: [Vec<Duration>; 2] = Default::default();
    let mut tracer = Tracer::with_capacity(slice.len() * 8);
    let mut sizes = (0usize, 0usize);
    for (i, (op, plain_op)) in slice.iter().zip(&plain).enumerate() {
        untraced[usize::from(plain_op.is_write())]
            .push(timed(|| untraced_statement(session, plain_op, wire)).1);
        let (req, resp) = traced_statement(&mut tracer, i as u32, session, op, wire);
        sizes = (sizes.0 + req, sizes.1 + resp);
    }
    let spans = tracer.spans().to_vec();
    let (mut with, mut without) = (0.0, 0.0);
    for (kind, samples) in untraced.iter_mut().enumerate() {
        let n = samples.len() as f64;
        without += n * median_us(samples);
        with += n * span_median_us(&spans, "statement", |s| {
            is_write[s.stmt as usize] == (kind == 1)
        });
    }
    m.set("client.trace_overhead_share", (with - without) / without);
    // How much of the enclosing `statement` spans their children's self
    // times account for; the rest is the recorder's own time.
    let own = self_times_ns(&spans);
    let (mut enclosing, mut children) = (0u64, 0u64);
    for (span, own) in spans.iter().zip(&own) {
        match span.parent {
            None => enclosing += span.duration_ns(),
            Some(_) => children += own,
        }
    }
    m.set(
        "client.trace_children_share",
        children as f64 / enclosing as f64,
    );

    let any = |_: &Span| true;
    let writes = |s: &Span| is_write[s.stmt as usize];
    let reads = |s: &Span| !is_write[s.stmt as usize];
    let after = |this: bool, prev: bool| {
        let (is_write, after_write) = (&is_write, &after_write);
        move |s: &Span| is_write[s.stmt as usize] == this && after_write[s.stmt as usize] == prev
    };
    if wire {
        for (metric, span) in [
            ("server.encode_request_us", "encode_request"),
            ("server.decode_request_us", "decode_request"),
            ("server.encode_result_us", "encode_result"),
            ("server.decode_response_us", "decode_response"),
        ] {
            m.set(metric, span_median_us(&spans, span, any));
        }
        m.set("server.request_bytes", sizes.0 as f64 / slice.len() as f64);
        m.set("server.response_bytes", sizes.1 as f64 / slice.len() as f64);
    }
    let parse_us = span_median_us(&spans, "sql_parse", any);
    m.set("relational.sql_parse_us", parse_us);
    let live_write_us = span_median_us(&spans, "session_execute", writes);
    m.set(
        "core.write_after_write_us",
        span_median_us(&spans, "session_execute", after(true, true)),
    );
    if is_write.contains(&false) {
        m.set(
            "core.execute_read_us",
            span_median_us(&spans, "session_execute", reads),
        );
        m.set(
            "core.write_after_read_us",
            span_median_us(&spans, "session_execute", after(true, false)),
        );
        m.set(
            "core.read_after_write_us",
            span_median_us(&spans, "session_execute", after(false, true)),
        );
        m.set(
            "core.read_after_read_us",
            span_median_us(&spans, "session_execute", after(false, false)),
        );
    }

    // ---- in-memory vs durable ------------------------------------------
    // On the durable workload `session_execute` includes redo capture and
    // the WAL append; an in-memory twin of the same fixture running the
    // same writes gives the engine's own share, and the difference is
    // storage's.
    let memory_write_us = if workload.sync.is_some() {
        let twin = Workload {
            sync: None,
            ..*workload
        }
        .build(scratch)
        .expect("in-memory twin");
        let mut samples: Vec<Duration> = slice
            .iter()
            .filter(|op| op.is_write())
            .map(|op| timed(|| twin.session.execute(&op.text).expect("twin write")).1)
            .collect();
        let memory_write_us = median_us(&mut samples);
        m.set("storage.durable_delta_us", live_write_us - memory_write_us);
        memory_write_us
    } else {
        live_write_us
    };
    m.set("core.execute_write_us", memory_write_us);

    // ---- relational: bare DML and SELECT on the snapshot ----------------
    let parsed: Vec<Statement> = slice
        .iter()
        .map(|op| sql::parse(&op.text).expect("generated statement parses"))
        .collect();
    let mut bare_samples = Vec::new();
    for target in &fixture.targets {
        let bare = bare_copy(session, &target.table);
        for stmt in &parsed {
            if matches!(stmt, Statement::Update { table, .. } if *table == target.table) {
                bare_samples.push(timed(|| sql::execute_dml(&bare, stmt).expect("bare DML")).1);
            }
        }
    }
    let bare_us = median_us(&mut bare_samples);
    m.set("relational.dml_bare_us", bare_us);
    m.set("core.cascade_self_us", memory_write_us - parse_us - bare_us);
    let snapshot = session.snapshot();
    let mut select_samples: Vec<Duration> = parsed
        .iter()
        .filter_map(|stmt| match stmt {
            Statement::Select {
                table,
                columns,
                filter,
            } => {
                Some(timed(|| sql::select(snapshot.database(), table, columns, filter.as_ref())).1)
            }
            _ => None,
        })
        .collect();
    if !select_samples.is_empty() {
        m.set("relational.select_us", median_us(&mut select_samples));
    }

    // ---- core / xml / xquery probes -------------------------------------
    let target = &fixture.targets[0];
    let mut footprint: Vec<Duration> = (0..PROBE_ITERS)
        .map(|_| timed(|| std::hint::black_box(session.quark().write_footprint(&target.table))).1)
        .collect();
    m.set("core.write_footprint_us", median_us(&mut footprint));
    let nodes = snapshot
        .materialize(&target.view, &target.anchor)
        .expect("materialize");
    let node = nodes
        .iter()
        .find(|n| n.attr("name") == Some(target.watched.as_str()))
        .expect("watched element");
    let mut to_xml: Vec<Duration> = (0..PROBE_ITERS)
        .map(|_| timed(|| std::hint::black_box(node.to_xml())).1)
        .collect();
    m.set("xml.to_xml_us", median_us(&mut to_xml));
    m.set("xml.node_bytes", node.to_xml().len() as f64);
    let text = &fixture.timings.sample_text;
    let mut parse_trigger: Vec<Duration> = (0..PROBE_ITERS)
        .map(|_| timed(|| std::hint::black_box(quark_xquery::parse_trigger(text))).1)
        .collect();
    let parse_trigger_us = median_us(&mut parse_trigger);
    m.set("xquery.parse_trigger_us", parse_trigger_us);
    let first_us = fixture.timings.first.as_secs_f64() * 1e6;
    m.set("xquery.create_trigger_first_us", first_us);
    m.set(
        "xquery.create_trigger_cached_us",
        median_us(&mut fixture.timings.later.clone()),
    );
    m.set("xqgm.translate_first_us", first_us - parse_trigger_us);
    {
        let quark = session.quark();
        m.set("xqgm.translations", quark.translations() as f64);
        m.set(
            "xqgm.compile_cache_hit_share",
            quark.compile_cache_hits() as f64 / fixture.triggers as f64,
        );
    }

    // ---- storage: log_statement on scratch engines ----------------------
    // The timed phase never waits for an fsync (the sandbox's latency
    // swings with the host's other tenants); what fsync-on-commit costs
    // here, and how well group commit coalesces the workload's clients, is
    // measured on the side.
    if workload.sync.is_some() {
        let ops = redo_shape(session, target);
        let threads = workload.clients;
        let never =
            log_statement_probe(&scratch.join("probe-never"), SyncMode::Never, threads, &ops);
        let always = log_statement_probe(
            &scratch.join("probe-always"),
            SyncMode::Always,
            threads,
            &ops,
        );
        m.set("storage.log_statement_never_us", never.median_us);
        m.set("storage.log_statement_always_us", always.median_us);
        m.set("storage.fsyncs_per_write", always.fsyncs_per_commit);
        m.set(
            "storage.commits_per_group_batch",
            always.commits_per_group_batch,
        );
    }

    // ---- server: connection set-up ---------------------------------------
    // (Includes the wait for the listener's next accept poll.)
    if let Some(addr) = server_addr {
        let hello = &slice[0].text;
        let mut connects: Vec<Duration> = (0..20)
            .map(|_| {
                timed(|| {
                    let mut c = Client::connect(addr).expect("probe connect");
                    c.execute(hello).expect("first statement");
                })
                .1
            })
            .collect();
        m.set("server.connect_us", median_us(&mut connects));
    }

    spans
}
