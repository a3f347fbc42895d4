//! End-to-end tests of the network front door (`quark-server`): typed
//! results over the wire, pipelined coalescing, differential equivalence
//! with in-process sessions, adversarial bytes, backpressure, admission
//! control, and graceful shutdown with durable recovery.
//!
//! The soak test (`#[ignore]`, run by the nightly workflow) drives mixed
//! read/write/malformed load for `SOAK_SECS` seconds and asserts zero
//! lost trigger firings plus a clean drain.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use quark_bench::{build_sharded, ShardSpec, ShardedWorkload};
use quark_core::relational::{Stats, Value};
use quark_core::storage::SyncMode;
use quark_core::{Mode, ObjectKind, Session, SessionPool};
use quark_server::protocol::{
    decode_response, encode_request, encode_result, encode_statement_error, write_frame,
};
use quark_server::{
    Client, ClientError, RetryPolicy, Server, ServerConfig, ServerHandle, WireError, WireErrorKind,
    WireResult,
};

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

/// Start a server over a fresh sharded workload (see
/// [`quark_bench::build_sharded`]: shard `h` is table `m{h}` behind XML
/// view `shard{h}`, with 8 triggers on the hot row `id = 0` appending to
/// `audit{h}`).
fn sharded_server(shards: usize, config: ServerConfig) -> ServerHandle {
    let w = build_sharded(ShardSpec::quick(shards, Mode::Grouped)).expect("sharded workload");
    let pool = SessionPool::new(w.session);
    Server::start(pool, "127.0.0.1:0", config).expect("start server")
}

/// Same statement text the in-process benchmarks use, so wire runs and
/// in-process oracles replay identical streams.
fn update_stmt(shard: usize, seq: i64) -> String {
    let price = 50.0 + (seq % 1000) as f64 / 7.0;
    format!("UPDATE m{shard} SET price = {price:?} WHERE id = 0")
}

fn select_stmt(shard: usize, id: i64) -> String {
    format!("SELECT name FROM m{shard} WHERE id = {id}")
}

fn audit_rows(session: &Session, shard: usize) -> usize {
    session
        .database()
        .table(&format!("audit{shard}"))
        .map(|t| t.len())
        .unwrap_or(0)
}

fn stats(handle: &ServerHandle) -> Stats {
    handle.session().database().stats()
}

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("quark-wire-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One raw frame carrying an EXECUTE request, for tests that bypass the
/// client's call/response pacing.
fn raw_execute_frame(statement: &str) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, &encode_request(statement)).expect("frame");
    out
}

// ---------------------------------------------------------------------
// Typed results and statement errors
// ---------------------------------------------------------------------

/// Every [`StatementResult`](quark_core::StatementResult) variant crosses
/// the wire typed: DDL as Created/Dropped, DML as RowsAffected, SELECT as
/// typed rows, EXPLAIN as text, MATERIALIZE as serialized XML.
#[test]
fn statement_results_round_trip_over_the_wire() {
    // The Figure-2/3 catalog fixture, built entirely over the wire.
    let session = quark_xquery::session(quark_core::relational::Database::new(), Mode::Grouped);
    session
        .register_action_with_writes("notify", Vec::<String>::new(), |_, _| Ok(()))
        .expect("action");
    let server = Server::start(
        SessionPool::new(session),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");

    let created = client
        .execute("CREATE TABLE product (pid TEXT PRIMARY KEY, pname TEXT, mfr TEXT)")
        .expect("create");
    assert_eq!(
        created,
        WireResult::Created {
            kind: ObjectKind::Table,
            name: "product".into()
        }
    );
    client
        .execute("CREATE TABLE vendor (vid TEXT, pid TEXT, price DOUBLE, PRIMARY KEY (vid, pid))")
        .expect("create vendor");

    let inserted = client
        .execute(
            "INSERT INTO product VALUES ('P1', 'CRT 15', 'Samsung'), \
             ('P2', 'LCD 19', 'LG'), ('P3', 'OLED 42', 'LG')",
        )
        .expect("insert");
    assert_eq!(inserted, WireResult::RowsAffected(3));
    client
        .execute(
            "INSERT INTO vendor VALUES ('Amazon', 'P1', 100.0), \
             ('Bestbuy', 'P1', 120.0), ('Amazon', 'P2', 250.0)",
        )
        .expect("insert vendors");

    let WireResult::Rows { columns, rows } = client
        .execute("SELECT pid, price FROM vendor WHERE vid = 'Amazon'")
        .expect("select")
    else {
        panic!("expected rows");
    };
    assert_eq!(columns, vec!["pid".to_string(), "price".to_string()]);
    assert_eq!(
        rows,
        vec![
            quark_core::relational::row([Value::str("P1"), Value::Double(100.0)]),
            quark_core::relational::row([Value::str("P2"), Value::Double(250.0)]),
        ]
    );

    client
        .execute(
            r#"create view catalog as {
              <catalog>{
                for $prodname in distinct(view("default")/product/row/pname)
                let $products := view("default")/product/row[./pname = $prodname]
                let $vendors := view("default")/vendor/row[./pid = $products/pid]
                where count($vendors) >= 2
                return <product name={$prodname}>
                  { for $vendor in $vendors return <vendor>{$vendor/*}</vendor> }
                </product>
              }</catalog>
            }"#,
        )
        .expect("create view");
    let trig = client
        .execute(
            "CREATE TRIGGER NotifyP1 AFTER Update ON view('catalog')/product \
             WHERE OLD_NODE/@name = 'CRT 15' DO notify(NEW_NODE)",
        )
        .expect("create trigger");
    assert_eq!(
        trig,
        WireResult::Created {
            kind: ObjectKind::Trigger,
            name: "NotifyP1".into()
        }
    );

    let WireResult::Explain(plan) = client.execute("EXPLAIN TRIGGER NotifyP1").expect("explain")
    else {
        panic!("expected explain text");
    };
    assert!(!plan.is_empty());

    let WireResult::Xml(nodes) = client
        .execute("MATERIALIZE view('catalog')/product")
        .expect("materialize")
    else {
        panic!("expected XML");
    };
    assert_eq!(nodes.len(), 1, "only CRT 15 has two vendors");
    assert!(nodes[0].contains("CRT 15"));

    let dropped = client.execute("DROP TRIGGER NotifyP1").expect("drop");
    assert_eq!(
        dropped,
        WireResult::Dropped {
            kind: ObjectKind::Trigger,
            name: "NotifyP1".into()
        }
    );

    // `STATS` over the wire reads the live counters — engine and server —
    // not the copy frozen into the read snapshot the SELECT above
    // published: N writes later both have advanced by at least N.
    let wire_stat = |client: &mut Client, counter: &str| -> i64 {
        let WireResult::Rows { rows, .. } = client.execute("STATS").expect("stats") else {
            panic!("expected rows");
        };
        let row = rows.iter().find(|r| r[0] == Value::str(counter));
        match row.expect("counter listed")[1] {
            Value::Int(n) => n,
            ref other => panic!("counter `{counter}` is {other:?}"),
        }
    };
    let statements = wire_stat(&mut client, "statements");
    let frames = wire_stat(&mut client, "frames_received");
    const N: i64 = 4;
    for i in 0..N {
        let price = 130.0 + i as f64;
        let update = format!("UPDATE vendor SET price = {price:?} WHERE vid = 'Bestbuy'");
        let updated = client.execute(&update).expect("update");
        assert_eq!(updated, WireResult::RowsAffected(1));
    }
    assert!(wire_stat(&mut client, "statements") >= statements + N);
    assert!(wire_stat(&mut client, "frames_received") >= frames + N);

    server.shutdown();
}

/// Parse and engine errors come back as error frames — with the parse
/// span intact — and leave the connection usable.
#[test]
fn statement_errors_keep_the_connection_usable() {
    let server = sharded_server(1, ServerConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");

    let text = "SELEKT name FROM m0";
    match client.execute(text) {
        Err(ClientError::Remote(e)) => {
            assert_eq!(e.kind, WireErrorKind::Parse);
            assert!(!e.kind.is_retriable());
            let span = e.span.expect("parse errors carry a span");
            assert!(span.end <= text.len(), "span points into the statement");
        }
        other => panic!("expected remote parse error, got {other:?}"),
    }

    match client.execute("SELECT name FROM no_such_table WHERE id = 0") {
        Err(ClientError::Remote(e)) => assert_eq!(e.kind, WireErrorKind::Db),
        other => panic!("expected remote db error, got {other:?}"),
    }

    // Same connection still executes fine after both failures.
    let ok = client.execute(&select_stmt(0, 0)).expect("still usable");
    assert!(matches!(ok, WireResult::Rows { .. }));
    server.shutdown();
}

// ---------------------------------------------------------------------
// Concurrency: differential equivalence and lost-firing checks
// ---------------------------------------------------------------------

/// k wire clients writing pairwise-disjoint shards concurrently leave the
/// system in exactly the state an in-process single-threaded replay of
/// the same statements produces — triggers, cascades and audit rows
/// included.
#[test]
fn concurrent_disjoint_wire_writers_match_in_process_replay() {
    const CLIENTS: usize = 4;
    const OPS: i64 = 40;

    let server = sharded_server(CLIENTS, ServerConfig::default());
    let addr = server.addr();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|t| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..OPS {
                    let n = client
                        .execute(&update_stmt(t, i))
                        .expect("wire update")
                        .rows_affected()
                        .expect("update reports rows");
                    assert_eq!(n, 1, "keyed update touches the hot row");
                    client.execute(&select_stmt(t, i % 256)).expect("wire read");
                }
            })
        })
        .collect();
    for th in threads {
        th.join().expect("client thread");
    }

    // Single-threaded in-process oracle over the identical statement text.
    let ShardedWorkload {
        session: oracle, ..
    } = build_sharded(ShardSpec::quick(CLIENTS, Mode::Grouped)).expect("oracle workload");
    for t in 0..CLIENTS {
        for i in 0..OPS {
            oracle.execute(&update_stmt(t, i)).expect("oracle update");
            oracle
                .execute(&select_stmt(t, i % 256))
                .expect("oracle read");
        }
    }

    let wire = server.shutdown().into_session();
    for t in 0..CLIENTS {
        assert_eq!(
            audit_rows(&wire, t),
            audit_rows(&oracle, t),
            "shard {t}: audit-table cardinality differs from the oracle"
        );
        for stmt in [
            format!("SELECT * FROM m{t} WHERE id = 0"),
            format!("SELECT * FROM audit{t}"),
        ] {
            let a = format!("{:?}", wire.execute(&stmt).expect("wire dump"));
            let b = format!("{:?}", oracle.execute(&stmt).expect("oracle dump"));
            assert_eq!(a, b, "shard {t}: {stmt} differs from the oracle");
        }
    }
}

/// k wire clients hammering the *same* shard serialize on its latches but
/// lose nothing: every successful update fired all 8 watching triggers.
#[test]
fn overlapping_wire_writers_lose_no_firings() {
    const CLIENTS: usize = 4;
    const OPS: i64 = 30;
    const TRIGGERS: usize = 8; // ShardSpec::quick

    let server = sharded_server(1, ServerConfig::default());
    let addr = server.addr();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|t| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..OPS {
                    // Distinct seq per (client, op): every update really
                    // changes the price. A no-op write produces no delta
                    // and hence (correctly) no firing, which is not what
                    // this test is about.
                    let seq = t as i64 * OPS + i;
                    client.execute(&update_stmt(0, seq)).expect("wire update");
                }
            })
        })
        .collect();
    for th in threads {
        th.join().expect("client thread");
    }

    let session = server.shutdown().into_session();
    assert_eq!(
        audit_rows(&session, 0),
        CLIENTS * OPS as usize * TRIGGERS,
        "every update must fire every watching trigger exactly once"
    );
}

// ---------------------------------------------------------------------
// Pipelining, backpressure, admission control
// ---------------------------------------------------------------------

/// Consecutive same-table INSERTs streamed down one connection coalesce
/// server-side into batched statements (one transition table, one
/// cascade), observable in the engine counters; interleaving a second
/// table breaks the runs.
#[test]
fn pipelined_inserts_coalesce_into_batched_statements() {
    const ROWS: usize = 100;
    let server = sharded_server(1, ServerConfig::default());
    let before = stats(&server);
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .execute("CREATE TABLE ingest (id INT PRIMARY KEY, payload TEXT)")
        .expect("create");

    // One burst write: all frames land in the server's receive buffer
    // together, so the gather loop sees long same-table runs.
    let mut burst = Vec::new();
    for i in 0..ROWS {
        burst.extend_from_slice(&raw_execute_frame(&format!(
            "INSERT INTO ingest VALUES ({i}, 'p{i}')"
        )));
    }
    client.send_raw(&burst).expect("burst");
    for i in 0..ROWS {
        // Responses arrive positionally, one per frame, all successful.
        let r = client.read_response().expect("burst response");
        assert_eq!(
            r.expect("insert succeeds").rows_affected(),
            Some(1),
            "insert {i}"
        );
    }

    let WireResult::Rows { rows, .. } =
        client.execute("SELECT id FROM ingest").expect("count rows")
    else {
        panic!("expected rows");
    };
    assert_eq!(rows.len(), ROWS, "every pipelined insert applied once");

    let after = stats(&server);
    assert!(
        after.pipelined_batches > before.pipelined_batches,
        "coalescing must engage: {} -> {}",
        before.pipelined_batches,
        after.pipelined_batches
    );
    assert!(
        after.batched_statements >= before.batched_statements + 2,
        "coalesced runs execute as batches"
    );
    assert!(
        after.frames_received >= before.frames_received + ROWS as u64,
        "every request frame is counted"
    );

    // A coalesced run with a duplicate key in the middle fails as a unit
    // and leaves no trace: every frame reports the error and none of the
    // run's rows — not even the ones ahead of the duplicate — is inserted.
    let mut burst = Vec::new();
    for id in [ROWS, 0, ROWS + 1] {
        burst.extend_from_slice(&raw_execute_frame(&format!(
            "INSERT INTO ingest VALUES ({id}, 'again')"
        )));
    }
    client.send_raw(&burst).expect("burst");
    for _ in 0..3 {
        let err = client
            .read_response()
            .expect("burst response")
            .expect_err("the run fails as a unit");
        assert!(err.message.contains("duplicate"), "{err:?}");
    }
    let WireResult::Rows { rows, .. } =
        client.execute("SELECT id FROM ingest").expect("count rows")
    else {
        panic!("expected rows");
    };
    assert_eq!(rows.len(), ROWS, "the failed run inserted nothing");
    server.shutdown();
}

/// A malformed statement pipelined between two valid `INSERT`s into its
/// table fails alone, with its own parse error and span: the `INSERT`s on
/// either side commit, as they would sent one at a time. The outcome of a
/// statement does not depend on how TCP split the stream into windows.
#[test]
fn pipelined_malformed_insert_fails_alone() {
    let server = sharded_server(1, ServerConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .execute("CREATE TABLE pw (id INT PRIMARY KEY, v TEXT)")
        .expect("create");
    let malformed = "INSERT INTO pw VALUES (2,";
    let mut burst = raw_execute_frame("INSERT INTO pw VALUES (1, 'a')");
    burst.extend_from_slice(&raw_execute_frame(malformed));
    burst.extend_from_slice(&raw_execute_frame("INSERT INTO pw VALUES (3, 'c')"));
    client.send_raw(&burst).expect("burst");
    let responses: Vec<_> = (0..3)
        .map(|_| client.read_response().expect("burst response"))
        .collect();
    assert_eq!(responses[0], Ok(WireResult::RowsAffected(1)));
    assert_eq!(responses[2], Ok(WireResult::RowsAffected(1)));
    let alone = server.session().execute(malformed).expect_err("malformed");
    assert!(alone.span().is_some(), "{alone}");
    let err = responses[1]
        .clone()
        .expect_err("the malformed INSERT fails");
    assert_eq!(err.kind, WireErrorKind::Parse);
    assert_eq!(
        Err(err),
        decode_response(&encode_statement_error(&alone)).expect("well-formed"),
        "its own error and span"
    );

    let WireResult::Rows { rows, .. } = client.execute("SELECT id FROM pw").expect("select") else {
        panic!("expected rows");
    };
    let ids: Vec<Value> = rows.iter().map(|r| r[0].clone()).collect();
    assert_eq!(
        ids,
        vec![Value::Int(1), Value::Int(3)],
        "exactly the valid rows"
    );
    server.shutdown();
}

/// One pipelined burst answers a statement list exactly as in-process
/// [`Session::execute_batch`] does on a twin system: the same coalesced
/// run, the same per-statement errors, every later statement still run.
#[test]
fn pipelined_window_answers_like_in_process_execute_batch() {
    const CREATE: &str = "CREATE TABLE pp (id INT PRIMARY KEY, v TEXT)";
    let stmts = [
        "INSERT INTO pp VALUES (1, 'a')",
        "INSERT INTO pp VALUES (2, 'b')",
        "UPDATE no_such_table SET v = 'x' WHERE id = 1",
        "INSERT INTO pp VALUES (3,",
        "INSERT INTO pp VALUES (4, 'd')",
        "SELECT id, v FROM pp",
    ];
    let ShardedWorkload { session: twin, .. } =
        build_sharded(ShardSpec::quick(1, Mode::Grouped)).expect("twin workload");
    twin.execute(CREATE).expect("twin create");
    let expected: Vec<Result<WireResult, WireError>> = twin
        .execute_batch(stmts)
        .iter()
        .map(|r| {
            let payload = match r {
                Ok(r) => encode_result(r),
                Err(e) => encode_statement_error(e),
            };
            decode_response(&payload).expect("well-formed response")
        })
        .collect();
    assert!(expected[2].is_err() && expected[3].is_err(), "{expected:?}");

    let server = sharded_server(1, ServerConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");
    client.execute(CREATE).expect("create");
    let burst: Vec<u8> = stmts.iter().flat_map(|s| raw_execute_frame(s)).collect();
    client.send_raw(&burst).expect("burst");
    for (i, want) in expected.iter().enumerate() {
        let got = client.read_response().expect("burst response");
        assert_eq!(&got, want, "statement {i}: {}", stmts[i]);
    }
    server.shutdown();
}

/// When the client streams faster than statements execute, the pipeline
/// window fills and the server deliberately stops reading the socket
/// (counted), instead of buffering without bound. Nothing is lost.
#[test]
fn backpressure_stalls_when_the_pipeline_window_fills() {
    let server = sharded_server(
        1,
        ServerConfig {
            workers: 1,
            max_pipeline: 2,
            ..ServerConfig::default()
        },
    );
    let before = stats(&server);
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .execute("CREATE TABLE bp (id INT PRIMARY KEY)")
        .expect("create");

    const N: usize = 40;
    let mut burst = Vec::new();
    for i in 0..N {
        burst.extend_from_slice(&raw_execute_frame(&format!("INSERT INTO bp VALUES ({i})")));
    }
    client.send_raw(&burst).expect("burst");
    for i in 0..N {
        let r = client.read_response().expect("burst response");
        assert!(r.is_ok(), "insert {i} against the stalled window: {r:?}");
    }
    let WireResult::Rows { rows, .. } = client.execute("SELECT id FROM bp").expect("after burst")
    else {
        panic!("expected rows");
    };
    assert_eq!(rows.len(), N, "backpressure must not drop statements");
    let after = stats(&server);
    assert!(
        after.backpressure_stalls > before.backpressure_stalls,
        "a 40-frame burst against a 2-frame window must stall"
    );
    server.shutdown();
}

/// With every worker busy and the handoff queue full, a further
/// connection is answered with one retriable `Busy` frame and closed —
/// never silently dropped, never unboundedly queued.
#[test]
fn busy_rejection_when_the_accept_queue_overflows() {
    let server = sharded_server(
        1,
        ServerConfig {
            workers: 1,
            accept_queue: 1,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();

    // Occupy the single worker…
    let mut held = Client::connect(addr).expect("connect A");
    held.execute(&select_stmt(0, 0)).expect("A served");
    // …fill the single queue slot… (no traffic needed; queued at accept)
    let _queued = TcpStream::connect(addr).expect("connect B");
    thread::sleep(Duration::from_millis(100)); // let the listener accept B

    // …and the third connection must be busy-rejected.
    let rejected = Client::connect(addr).expect("connect C");
    let responses = rejected.drain_until_close();
    assert_eq!(responses.len(), 1, "exactly one frame before the close");
    match &responses[0] {
        Err(e) => {
            assert_eq!(e.kind, WireErrorKind::Busy);
            assert!(e.kind.is_retriable());
        }
        other => panic!("expected busy rejection, got {other:?}"),
    }

    // The held connection is unaffected.
    held.execute(&select_stmt(0, 1)).expect("A still served");
    server.shutdown();
}

/// [`Client::execute_with_retry`] rides out a `Busy` rejection: while the
/// lone worker is pinned and the accept queue is full, the helper keeps
/// redialing with bounded backoff; once capacity frees up, the statement
/// lands and the returned connection stays usable.
#[test]
fn execute_with_retry_survives_busy_rejection() {
    let server = sharded_server(
        1,
        ServerConfig {
            workers: 1,
            accept_queue: 1,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();

    // Pin the worker and fill the queue slot, as in the rejection test.
    let mut held = Client::connect(addr).expect("connect A");
    held.execute(&select_stmt(0, 0)).expect("A served");
    let queued = TcpStream::connect(addr).expect("connect B");
    thread::sleep(Duration::from_millis(100)); // let the listener accept B

    let stmt = select_stmt(0, 2);
    let retrier = thread::spawn(move || {
        Client::execute_with_retry(
            addr,
            &stmt,
            RetryPolicy {
                attempts: 40,
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(50),
            },
        )
    });

    // Give the retrier time to collect at least one Busy frame, then free
    // the worker so a later attempt can be admitted.
    thread::sleep(Duration::from_millis(150));
    drop(held);
    drop(queued);

    let (mut client, result) = retrier
        .join()
        .expect("retry thread")
        .expect("retry must eventually be admitted");
    match result {
        WireResult::Rows { rows, .. } => assert_eq!(rows.len(), 1),
        other => panic!("expected rows, got {other:?}"),
    }
    // The connection returned by the helper is live.
    client.execute(&select_stmt(0, 3)).expect("follow-up");
    let s = stats(&server);
    assert!(
        s.frames_rejected >= 1,
        "the retrier must have absorbed at least one Busy frame: {s:?}"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// Adversarial bytes
// ---------------------------------------------------------------------

/// Torn, corrupt, oversized and nonsense frames are answered (where a
/// response is possible) with a `Protocol` error and a close — never a
/// panic, never a hang, and never damage to other connections.
#[test]
fn adversarial_bytes_never_panic_or_hang_the_server() {
    let server = sharded_server(1, ServerConfig::default());
    let addr = server.addr();
    let before = stats(&server);

    // (a) CRC corruption: flip one payload bit of a valid frame.
    let mut corrupt = raw_execute_frame(&select_stmt(0, 0));
    *corrupt.last_mut().unwrap() ^= 0x20;
    let mut client = Client::connect(addr).expect("connect");
    client.send_raw(&corrupt).expect("send corrupt");
    let responses = client.drain_until_close();
    assert_eq!(responses.len(), 1);
    assert!(
        matches!(&responses[0], Err(e) if e.kind == WireErrorKind::Protocol),
        "CRC mismatch must be reported as a protocol error: {responses:?}"
    );

    // (b) Oversized length header: rejected before any buffering.
    let mut client = Client::connect(addr).expect("connect");
    let mut oversized = (u32::MAX).to_le_bytes().to_vec();
    oversized.extend_from_slice(&[0u8; 4]);
    client.send_raw(&oversized).expect("send oversized");
    let responses = client.drain_until_close();
    assert!(
        matches!(&responses[..], [Err(e)] if e.kind == WireErrorKind::Protocol),
        "oversized frame must be rejected: {responses:?}"
    );

    // (c) Unknown request tag inside a well-framed payload: earlier valid
    // frames in the same burst are answered first.
    let mut client = Client::connect(addr).expect("connect");
    let mut burst = raw_execute_frame(&select_stmt(0, 1));
    write_frame(&mut burst, &[0x7f, 0x00]).expect("bogus frame");
    client.send_raw(&burst).expect("send mixed burst");
    let responses = client.drain_until_close();
    assert_eq!(responses.len(), 2, "valid frame answered before the error");
    assert!(matches!(&responses[0], Ok(WireResult::Rows { .. })));
    assert!(matches!(&responses[1], Err(e) if e.kind == WireErrorKind::Protocol));

    // (d) Torn frame: half a header, then half-close. The server must
    // notice EOF mid-frame and close without hanging.
    let stream = TcpStream::connect(addr).expect("connect raw");
    (&stream).write_all(&[0x10, 0x00]).expect("half header");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut rest = Vec::new();
    (&stream)
        .read_to_end(&mut rest)
        .expect("server closes the torn connection");

    // Every violation was counted, and the server still serves.
    let after = stats(&server);
    assert!(
        after.frames_rejected >= before.frames_rejected + 4,
        "all four violations counted: {} -> {}",
        before.frames_rejected,
        after.frames_rejected
    );
    let mut client = Client::connect(addr).expect("connect after abuse");
    client.execute(&select_stmt(0, 0)).expect("still serving");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Graceful shutdown and durable recovery
// ---------------------------------------------------------------------

/// Shutdown during a pipelined stream: the window in flight completes
/// and commits, every frame behind it is answered with a retriable
/// `ShuttingDown` error, the WAL closes at a statement boundary, and a
/// warm restart recovers exactly the completed window with zero
/// re-translations.
#[test]
fn graceful_shutdown_drains_in_flight_and_restarts_cleanly() {
    let dir = tmp_dir("shutdown");
    let session =
        quark_xquery::open_session_with(&dir, Mode::Grouped, SyncMode::Always).expect("open");
    for s in [
        "CREATE TABLE product (pid TEXT PRIMARY KEY, pname TEXT, mfr TEXT)",
        "CREATE TABLE vendor (vid TEXT, pid TEXT, price DOUBLE, PRIMARY KEY (vid, pid))",
        "INSERT INTO product VALUES ('P1', 'CRT 15', 'Samsung'), ('P2', 'LCD 19', 'LG')",
        "INSERT INTO vendor VALUES ('Amazon', 'P1', 100.0), ('Bestbuy', 'P1', 120.0)",
        r#"create view catalog as {
          <catalog>{
            for $prodname in distinct(view("default")/product/row/pname)
            let $products := view("default")/product/row[./pname = $prodname]
            let $vendors := view("default")/vendor/row[./pid = $products/pid]
            where count($vendors) >= 2
            return <product name={$prodname}>
              { for $vendor in $vendors return <vendor>{$vendor/*}</vendor> }
            </product>
          }</catalog>
        }"#,
    ] {
        session.execute(s).expect("setup");
    }
    // The `notify` action gates the first firing: it parks the executing
    // statement until the test has started the shutdown, making "shutdown
    // arrives while a statement is in flight" deterministic.
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let gate = Arc::new(Mutex::new(Some((entered_tx, release_rx))));
    session
        .register_action_with_writes("notify", Vec::<String>::new(), move |_, _| {
            if let Some((tx, rx)) = gate.lock().unwrap().take() {
                let _ = tx.send(());
                let _ = rx.recv();
            }
            Ok(())
        })
        .expect("action");
    session
        .execute(
            "CREATE TRIGGER NotifyP1 AFTER Update ON view('catalog')/product \
             WHERE OLD_NODE/@name = 'CRT 15' DO notify(NEW_NODE)",
        )
        .expect("trigger");
    assert!(
        session.quark().translations() > 0,
        "cold install translates"
    );

    let server = Server::start(
        SessionPool::new(session),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("start server");

    // A trigger-firing UPDATE, which parks in the gate as a window of its
    // own; the INSERT tail follows only once it is in flight.
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .send_raw(&raw_execute_frame(
            "UPDATE vendor SET price = 150.0 WHERE vid = 'Amazon' AND pid = 'P1'",
        ))
        .expect("send the UPDATE");
    entered_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the UPDATE must reach the gated trigger action");
    let mut tail = Vec::new();
    for i in 0..8 {
        let stmt = if i % 2 == 0 {
            format!("INSERT INTO product VALUES ('X{i}', 'N{i}', 'M')")
        } else {
            format!("INSERT INTO vendor VALUES ('V{i}', 'P2', 10.0)")
        };
        tail.extend_from_slice(&raw_execute_frame(&stmt));
    }
    client.send_raw(&tail).expect("send the tail");
    // Start the shutdown, give the flag a moment to land, then let the
    // window in flight finish.
    let shutdown_thread = thread::spawn(move || server.shutdown());
    thread::sleep(Duration::from_millis(200));
    release_tx.send(()).expect("release the gate");
    let pool = shutdown_thread.join().expect("shutdown");

    // The client saw the in-flight UPDATE's success, then a retriable
    // ShuttingDown refusal for every frame of the tail.
    let responses = client.drain_until_close();
    assert_eq!(responses.len(), 9, "every frame is answered: {responses:?}");
    assert!(
        matches!(&responses[0], Ok(WireResult::RowsAffected(1))),
        "the in-flight statement completes: {:?}",
        responses[0]
    );
    for r in &responses[1..] {
        match r {
            Err(e) => assert!(
                e.kind == WireErrorKind::ShuttingDown && e.kind.is_retriable(),
                "the tail must be refused as retriable: {e:?}"
            ),
            ok => panic!("a tail frame executed during shutdown: {ok:?}"),
        }
    }

    // Clean close at a statement boundary, then warm restart: zero
    // re-translations, and exactly the completed window is durable.
    pool.into_session().close().expect("close");
    let session =
        quark_xquery::open_session_with(&dir, Mode::Grouped, SyncMode::Always).expect("reopen");
    assert_eq!(
        session.quark().translations(),
        0,
        "warm restart must not re-translate"
    );
    let count = |table: &str| {
        session
            .database()
            .table(table)
            .map(|t| t.len())
            .unwrap_or(0)
    };
    assert_eq!(count("product"), 2, "recovered product rows");
    assert_eq!(count("vendor"), 2, "recovered vendor rows");
    let price = session
        .database()
        .table("vendor")
        .unwrap()
        .get(&[Value::str("Amazon"), Value::str("P1")])
        .map(|r| r[2].clone());
    assert_eq!(
        price,
        Some(Value::Double(150.0)),
        "the in-flight UPDATE committed before the WAL closed"
    );
    session.close().expect("final close");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Soak (nightly)
// ---------------------------------------------------------------------

/// Mixed read/write load plus a malformed-frame injector for `SOAK_SECS`
/// seconds (default 3): zero lost trigger firings, every injector
/// connection individually closed, clean drain at the end. The nightly
/// workflow runs this with a multi-minute budget.
#[test]
#[ignore = "long-running; exercised by the nightly soak job"]
fn soak_mixed_load_with_malformed_frames() {
    const WRITERS: usize = 2;
    const TRIGGERS: usize = 8; // ShardSpec::quick
    let secs: u64 = std::env::var("SOAK_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let deadline = Instant::now() + Duration::from_secs(secs);

    let server = sharded_server(
        WRITERS + 1,
        ServerConfig {
            workers: 8,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();

    // Writers: counted keyed updates, each firing the shard's 8 triggers.
    let writer_threads: Vec<_> = (0..WRITERS)
        .map(|t| {
            thread::spawn(move || {
                let mut done = 0usize;
                let mut client = Client::connect(addr).expect("writer connect");
                while Instant::now() < deadline {
                    client
                        .execute(&update_stmt(t, done as i64))
                        .expect("soak update");
                    done += 1;
                }
                done
            })
        })
        .collect();

    // Reader: keyed selects on its own shard, plus periodic pipelined
    // ingest bursts into a private table.
    let reader = thread::spawn(move || {
        let shard = WRITERS;
        let mut client = Client::connect(addr).expect("reader connect");
        client
            .execute("CREATE TABLE soak_ingest (id INT PRIMARY KEY)")
            .expect("ingest table");
        let mut i = 0i64;
        let mut next_id = 0usize;
        while Instant::now() < deadline {
            client
                .execute(&select_stmt(shard, i % 256))
                .expect("soak read");
            if i % 50 == 0 {
                let stmts: Vec<String> = (0..32)
                    .map(|k| format!("INSERT INTO soak_ingest VALUES ({})", next_id + k))
                    .collect();
                next_id += 32;
                for r in client
                    .execute_pipelined(stmts.iter().map(|s| s.as_str()))
                    .expect("soak ingest")
                {
                    r.expect("soak insert");
                }
            }
            i += 1;
        }
        next_id
    });

    // Injector: malformed bytes on fresh raw connections, forever. Every
    // connection must come back closed (read_to_end returns), and the
    // server must keep serving everyone else.
    let injector = thread::spawn(move || {
        let mut attempts = 0usize;
        while Instant::now() < deadline {
            let stream = match TcpStream::connect(addr) {
                Ok(s) => s,
                Err(_) => continue, // accept queue momentarily full
            };
            let garbage: &[u8] = match attempts % 3 {
                0 => &[0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4], // oversized header
                1 => &[5, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9, 9, 9], // CRC mismatch
                _ => &[2, 0, 0, 0],                         // torn header, then close
            };
            let _ = (&stream).write_all(garbage);
            // Half-close so torn frames terminate server-side on EOF; the
            // server must then close its half too, within the timeout.
            let _ = stream.shutdown(std::net::Shutdown::Write);
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("injector timeout");
            let mut rest = Vec::new();
            (&stream)
                .read_to_end(&mut rest)
                .expect("server closes every abused connection");
            attempts += 1;
            thread::sleep(Duration::from_millis(5));
        }
        attempts
    });

    let updates: Vec<usize> = writer_threads
        .into_iter()
        .map(|t| t.join().expect("writer"))
        .collect();
    let ingested = reader.join().expect("reader");
    let attempts = injector.join().expect("injector");
    assert!(updates.iter().all(|&u| u > 0), "writers made progress");
    assert!(attempts > 0, "injector made progress");

    let session = server.shutdown().into_session();
    for (t, &done) in updates.iter().enumerate() {
        assert_eq!(
            audit_rows(&session, t),
            done * TRIGGERS,
            "shard {t}: zero lost firings across {done} updates"
        );
    }
    assert_eq!(
        session
            .database()
            .table("soak_ingest")
            .map(|t| t.len())
            .unwrap_or(0),
        ingested,
        "every acknowledged pipelined insert landed exactly once"
    );
    println!(
        "soak: {secs}s, updates={updates:?}, ingested={ingested}, injector_attempts={attempts}"
    );
}
