//! Footprint-scoped parallel writers: the differential and fault-injection
//! suite for the per-table latch write path.
//!
//! The contract under test (see README § Concurrency model): writers whose
//! trigger footprints are pairwise disjoint run in parallel and produce a
//! final state identical to *some* serial order of the same statements;
//! an action registered with `register_action` writes no table, so its
//! cascade never holds a disjoint writer up; writers with overlapping
//! footprints serialize on the contended latches without losing updates;
//! a writer with an unbounded footprint — one that can reach a raw SQL
//! trigger — latches every table and so serializes against all of them,
//! on the same path; a panic inside a trigger cascade — bounded footprint
//! or not — must not wedge the system for other writers; and
//! `Session::execute_batch` coalescing is semantically exact at
//! statement-trigger granularity.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::thread;
use std::time::Duration;

use quark_bench::{build_sharded, build_shared_read, ShardSpec};
use quark_core::relational::{Database, Event, Row, SqlTrigger, Value};
use quark_core::{ActionCall, Footprint, Mode, Session, SessionPool, StatementResult};
use quark_xquery::viewtree::{LevelSpec, TopBinding, ViewSpec};

/// All rows of `table`, in primary-key order.
fn dump(session: &Session, table: &str) -> Vec<Row> {
    session
        .database()
        .table(table)
        .map(|t| t.iter().cloned().collect())
        .unwrap_or_default()
}

/// N writers on pairwise-disjoint shards, run concurrently, must leave the
/// database in exactly the state a serial replay of the same per-writer
/// statement sequences produces. Disjointness makes every interleaving
/// equivalent, so the serial replay is a complete oracle, not a sample.
#[test]
fn disjoint_writers_match_serial_replay() {
    const WRITERS: usize = 4;
    const UPDATES: i64 = 20;
    let spec = ShardSpec::quick(WRITERS, Mode::Grouped);

    // Concurrent run.
    let concurrent = build_sharded(spec).expect("sharded workload");
    let stmts: Vec<Vec<String>> = (0..WRITERS)
        .map(|t| (0..UPDATES).map(|i| concurrent.update_stmt(t, i)).collect())
        .collect();
    let pool = SessionPool::new(concurrent.session);
    let barrier = Arc::new(Barrier::new(WRITERS));
    let threads: Vec<_> = stmts
        .iter()
        .map(|writer_stmts| {
            let session = pool.session();
            let barrier = Arc::clone(&barrier);
            let writer_stmts = writer_stmts.clone();
            thread::spawn(move || {
                barrier.wait();
                for s in &writer_stmts {
                    session.execute(s).expect("disjoint write");
                }
            })
        })
        .collect();
    for th in threads {
        th.join().expect("writer thread");
    }
    let concurrent = pool.session();
    // Disjoint footprints never contend.
    assert_eq!(concurrent.quark().stats().latch_conflicts, 0);

    // Serial replay on an identically built system.
    let serial = build_sharded(spec).expect("replay workload");
    for writer_stmts in &stmts {
        for s in writer_stmts {
            serial.session.execute(s).expect("serial replay");
        }
    }

    for h in 0..WRITERS {
        assert_eq!(
            dump(&concurrent, &format!("m{h}")),
            dump(&serial.session, &format!("m{h}")),
            "shard {h} base table diverged from serial replay"
        );
        assert_eq!(
            dump(&concurrent, &format!("audit{h}")),
            dump(&serial.session, &format!("audit{h}")),
            "shard {h} audit table diverged from serial replay"
        );
        assert_eq!(
            serial.audit_rows(h),
            spec.triggers * UPDATES as usize,
            "every update fires every shard trigger"
        );
    }
}

/// The disjoint-shard corpus plus one **opaque** shard: table `mo`, whose
/// raw SQL trigger appends to `audito` after calling `gate` (inside the
/// cascade, latches held). Nothing declares what a raw trigger's body
/// touches, so a write to `mo` has an unbounded footprint.
fn opaque_shard(session: &Session, gate: impl Fn() + Send + Sync + 'static) {
    session
        .execute("CREATE TABLE audito (seq INT PRIMARY KEY, trigger TEXT)")
        .expect("create audit table");
    raw_shard(session, "mo", move |db| {
        gate();
        let seq = db.table("audito")?.len() as i64;
        db.insert_row("audito", vec![Value::Int(seq), Value::str("raw_mo")])
    });
    assert_eq!(session.quark().write_footprint("mo"), Footprint::Global);
}

/// A writer with an unbounded footprint — its write fires a raw SQL
/// trigger — runs on the same latched path as everyone else, holding
/// *every* table exclusive: while its cascade is
/// in flight no other writer — however disjoint — completes a statement,
/// the waiters show up as latch conflicts, and since the shards are still
/// disjoint in what they touch, the final state equals a serial replay
/// with no update or firing lost. The raw trigger's table accesses are
/// checked against its scope, the whole table set.
#[test]
fn opaque_shard_serializes_against_disjoint_writers_and_matches_serial_replay() {
    const WRITERS: usize = 3;
    const UPDATES: i64 = 20;
    let spec = ShardSpec::quick(WRITERS, Mode::Grouped);
    let concurrent = build_sharded(spec).expect("sharded workload");
    let stmts: Vec<Vec<String>> = (0..WRITERS)
        .map(|t| (0..UPDATES).map(|i| concurrent.update_stmt(t, i)).collect())
        .collect();
    let opaque_stmts: Vec<String> = (0..UPDATES)
        .map(|i| format!("UPDATE mo SET price = {}.5 WHERE id = 0", i + 2))
        .collect();

    // The opaque cascade's first firing reports in and parks until told.
    let (inside_tx, inside_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let park = Mutex::new(Some((inside_tx, release_rx)));
    opaque_shard(&concurrent.session, move || {
        if let Some((inside, release)) = park.lock().expect("gate").take() {
            inside.send(()).expect("report in");
            release.recv().expect("released");
        }
    });
    let pool = SessionPool::new(concurrent.session);

    let opaque_writer = {
        let (session, stmts) = (pool.session(), opaque_stmts.clone());
        thread::spawn(move || {
            for s in &stmts {
                session.execute(s).expect("opaque write");
            }
        })
    };
    inside_rx.recv().expect("opaque cascade in flight");
    // Every latch is now held. Disjoint writers start — and wait.
    let started = Arc::new(Barrier::new(WRITERS + 1));
    let completed = Arc::new(AtomicUsize::new(0));
    let threads: Vec<_> = stmts
        .iter()
        .map(|writer_stmts| {
            let (session, writer_stmts) = (pool.session(), writer_stmts.clone());
            let (started, completed) = (Arc::clone(&started), Arc::clone(&completed));
            thread::spawn(move || {
                started.wait();
                for s in &writer_stmts {
                    session.execute(s).expect("disjoint write");
                    completed.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();
    started.wait();
    thread::sleep(std::time::Duration::from_millis(100));
    assert_eq!(
        completed.load(Ordering::SeqCst),
        0,
        "a writer got past a cascade that holds every table exclusive"
    );
    release_tx.send(()).expect("release the opaque cascade");
    opaque_writer.join().expect("opaque writer");
    for th in threads {
        th.join().expect("writer thread");
    }
    let concurrent = pool.session();
    let stats = concurrent.quark().stats();
    assert!(
        stats.latch_conflicts > 0,
        "the parked writers must register as contention: {stats:?}"
    );
    assert_eq!(stats.footprint_violations, 0, "{stats:?}");

    // Serial replay on an identically built system.
    let serial = build_sharded(spec).expect("replay workload");
    opaque_shard(&serial.session, || {});
    for s in stmts.iter().flatten().chain(&opaque_stmts) {
        serial.session.execute(s).expect("serial replay");
    }
    let tables = (0..WRITERS)
        .flat_map(|h| [format!("m{h}"), format!("audit{h}")])
        .chain(["mo".to_string(), "audito".to_string()]);
    for table in tables {
        assert_eq!(
            dump(&concurrent, &table),
            dump(&serial.session, &table),
            "`{table}` diverged from serial replay"
        );
    }
    assert_eq!(dump(&concurrent, "audito").len(), UPDATES as usize);
    for h in 0..WRITERS {
        assert_eq!(
            dump(&concurrent, &format!("audit{h}")).len(),
            spec.triggers * UPDATES as usize,
            "shard {h} lost a firing"
        );
    }
}

/// Writers whose footprints overlap **only on read tables** — disjoint
/// write sets, every cascade scanning one shared `hub` table — must admit
/// concurrently under shared read latches (zero conflicts, where the old
/// exclusive-only latch serialized them) and still match a serial replay
/// exactly. The differential oracle is complete for the same reason as
/// the disjoint case: no statement writes a table another statement
/// reads or writes, so every interleaving is equivalent.
#[test]
fn overlapping_readers_match_serial_replay_without_contention() {
    const WRITERS: usize = 4;
    const UPDATES: i64 = 20;
    let spec = ShardSpec::quick(WRITERS, Mode::Grouped);

    // Concurrent run over the shared-hub workload.
    let concurrent = build_shared_read(spec).expect("shared-read workload");
    let stmts: Vec<Vec<String>> = (0..WRITERS)
        .map(|t| (0..UPDATES).map(|i| concurrent.update_stmt(t, i)).collect())
        .collect();
    let pool = SessionPool::new(concurrent.session);
    let barrier = Arc::new(Barrier::new(WRITERS));
    let threads: Vec<_> = stmts
        .iter()
        .map(|writer_stmts| {
            let session = pool.session();
            let barrier = Arc::clone(&barrier);
            let writer_stmts = writer_stmts.clone();
            thread::spawn(move || {
                barrier.wait();
                for s in &writer_stmts {
                    session.execute(s).expect("overlapping-read write");
                }
            })
        })
        .collect();
    for th in threads {
        th.join().expect("writer thread");
    }
    let concurrent = pool.session();
    let stats = concurrent.quark().stats();
    // The hub overlap is read-only: shared latches admit every writer.
    assert_eq!(
        stats.latch_conflicts, 0,
        "read-only overlap must not contend: {stats:?}"
    );
    // Every statement took `hub` (+ constants) shared and its own
    // `m{{t}}`/`audit{{t}}` exclusive.
    let statements = (WRITERS as u64) * (UPDATES as u64);
    assert!(
        stats.latch_shared_acquisitions >= statements,
        "each update latches the hub shared: {stats:?}"
    );
    assert!(
        stats.latch_exclusive_acquisitions >= 2 * statements,
        "each update latches its write set exclusive: {stats:?}"
    );

    // Serial replay on an identically built system.
    let serial = build_shared_read(spec).expect("replay workload");
    for writer_stmts in &stmts {
        for s in writer_stmts {
            serial.session.execute(s).expect("serial replay");
        }
    }

    assert_eq!(
        dump(&concurrent, "hub"),
        dump(&serial.session, "hub"),
        "the shared read table must be untouched by either run"
    );
    for h in 0..WRITERS {
        assert_eq!(
            dump(&concurrent, &format!("m{h}")),
            dump(&serial.session, &format!("m{h}")),
            "shard {h} base table diverged from serial replay"
        );
        assert_eq!(
            dump(&concurrent, &format!("audit{h}")),
            dump(&serial.session, &format!("audit{h}")),
            "shard {h} audit table diverged from serial replay"
        );
        assert_eq!(
            serial.audit_rows(h),
            spec.triggers * UPDATES as usize,
            "every update fires every shard trigger through the hub join"
        );
    }
}

/// Writers all hammering one shard serialize on its latch set: no update
/// or trigger firing is lost, the contention shows up in the stats, and —
/// because every writer issues the same statement sequence — the final
/// row state is deterministic.
#[test]
fn overlapping_writers_serialize_without_losing_updates() {
    const WRITERS: usize = 4;
    const UPDATES: usize = 400;
    let spec = ShardSpec::quick(1, Mode::Grouped);
    let w = build_sharded(spec).expect("sharded workload");
    // Disjoint per-writer price ranges (i / 530 < 1 for every i below
    // UPDATES), strictly changing per statement: no interleaving can
    // produce a value-level no-op UPDATE (whose empty Δ would legitimately
    // fire nothing and skew the firing count). 400 updates per writer keep
    // the writers overlapping for tens of milliseconds — with 40 the whole
    // test fit inside one scheduler slice in release builds on two cores
    // and the contention assertion below failed most runs.
    let price = |t: usize, i: usize| 50.0 + t as f64 + i as f64 / 530.0;
    let pool = SessionPool::new(w.session);
    let barrier = Arc::new(Barrier::new(WRITERS));
    let threads: Vec<_> = (0..WRITERS)
        .map(|t| {
            let session = pool.session();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for i in 0..UPDATES {
                    let p = price(t, i);
                    session
                        .execute(&format!("UPDATE m0 SET price = {p:?} WHERE id = 0"))
                        .expect("overlapping write");
                }
            })
        })
        .collect();
    for th in threads {
        th.join().expect("writer thread");
    }
    let session = pool.session();

    // No lost trigger firings: every one of the WRITERS×UPDATES statements
    // fired all of the shard's triggers exactly once.
    let audit = dump(&session, "audit0");
    assert_eq!(audit.len(), WRITERS * UPDATES * spec.triggers);
    // The final row state is the last-committed statement's write — which
    // must be some writer's final statement, never an interleaving tear.
    let m0 = dump(&session, "m0");
    let Value::Double(final_price) = m0[0][2] else {
        panic!("expected price column")
    };
    assert!(
        (0..WRITERS).any(|t| price(t, UPDATES - 1) == final_price),
        "final price {final_price} is not any writer's last write"
    );
    // Four writers × 400 trigger-bearing updates on one latch set cannot
    // all have slipped past each other.
    assert!(
        session.quark().stats().latch_conflicts > 0,
        "overlapping writers recorded no latch contention"
    );
}

/// A one-table shard `name`: a `hot` and a `cold` row.
fn shard_table(session: &Session, name: &str) {
    session
        .execute(&format!(
            "CREATE TABLE {name} (id INT PRIMARY KEY, name TEXT, price DOUBLE)"
        ))
        .expect("create table");
    session
        .execute(&format!(
            "INSERT INTO {name} VALUES (0, 'hot', 1.0), (1, 'cold', 2.0)"
        ))
        .expect("seed rows");
}

/// A [`shard_table`] whose raw SQL trigger runs `body` after every
/// `UPDATE`: the footprint of a write to it is unbounded, so the writer
/// latches every table.
fn raw_shard(
    session: &Session,
    name: &str,
    body: impl Fn(&Database) -> quark_core::relational::Result<()> + Send + Sync + 'static,
) {
    shard_table(session, name);
    session
        .database_mut()
        .create_raw_trigger(SqlTrigger {
            name: format!("raw_{name}"),
            table: name.into(),
            event: Event::Update,
            body: Arc::new(move |db, _| body(db)),
        })
        .expect("raw trigger");
}

/// A [`shard_table`] behind a flat view, whose trigger on the hot row
/// calls `body`, registered with `register_action`: it writes no table, so
/// the footprint of a write to the shard is bounded and the writer
/// latches its own tables only.
fn action_shard(
    session: &Session,
    name: &str,
    body: impl Fn(&Database, &ActionCall) -> quark_core::relational::Result<()> + Send + Sync + 'static,
) {
    shard_table(session, name);
    let view = ViewSpec {
        name: format!("v_{name}"),
        root_element: "doc".into(),
        binding: TopBinding::Rows,
        top: LevelSpec {
            element: "item".into(),
            table: name.into(),
            parent_fk: None,
            attrs: vec![("name".into(), "name".into())],
            scalars: vec![("*".into(), "*".into())],
            child_count: None,
            child: None,
        },
    };
    let xml_view = view.build(&session.database()).expect("build view");
    session.quark_mut().register_view(xml_view);
    let action = format!("act_{name}");
    session
        .register_action(action.clone(), body)
        .expect("register action");
    session
        .execute(&format!(
            "create trigger tg_{name} after update on view('v_{name}')/item \
             where OLD_NODE/@name = 'hot' do {action}(NEW_NODE)"
        ))
        .expect("create trigger");
}

/// An [`action_shard`] with a panic-injectable action that otherwise logs
/// its shard's name.
fn panicky_shard(
    session: &Session,
    name: &str,
    panic_flag: Arc<AtomicBool>,
    log: Arc<Mutex<Vec<String>>>,
) {
    let tag = name.to_string();
    action_shard(session, name, move |_db, _call| {
        if panic_flag.load(Ordering::SeqCst) {
            panic!("injected cascade panic in {tag}");
        }
        log.lock().expect("log").push(tag.clone());
        Ok(())
    });
}

/// An action registered with `register_action` declares an empty write
/// set, so its cascade holds only its own shard's latches: while writer
/// A's action is parked inside its cascade, a writer on a disjoint view
/// still completes. The bound is a 5 s channel timeout, not a wall-clock
/// assertion.
#[test]
fn default_action_parked_in_its_cascade_admits_a_disjoint_writer() {
    let session = quark_xquery::session(Default::default(), Mode::Grouped);
    let (inside_tx, inside_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let park = Mutex::new(Some((inside_tx, release_rx)));
    action_shard(&session, "da", move |_db, _call| {
        if let Some((inside, release)) = park.lock().expect("gate").take() {
            inside.send(()).expect("report in");
            release.recv().expect("released");
        }
        Ok(())
    });
    action_shard(&session, "db", |_db, _call| Ok(()));
    for name in ["da", "db"] {
        let footprint = session.quark().write_footprint(name);
        assert!(
            matches!(&footprint, Footprint::Tables { write, .. } if write.len() == 1),
            "`{name}`: {footprint:?}"
        );
    }
    let pool = SessionPool::new(session);

    let parked = {
        let session = pool.session();
        thread::spawn(move || {
            session
                .execute("UPDATE da SET price = 9.0 WHERE id = 0")
                .expect("parked write")
        })
    };
    inside_rx.recv().expect("da's cascade in flight");
    let (done_tx, done_rx) = mpsc::channel();
    let disjoint = {
        let session = pool.session();
        thread::spawn(move || {
            let result = session.execute("UPDATE db SET price = 9.0 WHERE id = 0");
            done_tx.send(result).expect("report done");
        })
    };
    let result = done_rx.recv_timeout(Duration::from_secs(5));
    release_tx.send(()).expect("release da's cascade");
    let result = result.expect("a disjoint writer waited on a parked default action");
    assert_eq!(
        result.expect("disjoint write"),
        StatementResult::RowsAffected(1)
    );
    disjoint.join().expect("disjoint writer");
    assert_eq!(
        parked.join().expect("parked writer"),
        StatementResult::RowsAffected(1)
    );
    let session = pool.session();
    let stats = session.quark().stats();
    assert_eq!(stats.latch_conflicts, 0, "{stats:?}");
    assert_eq!(stats.footprint_violations, 0, "{stats:?}");
}

/// A panic inside a *latched* cascade (bounded footprint, shared lock
/// level) must release the writer's latches on unwind: writers on other
/// shards, later writers on the same shard, and snapshot readers all keep
/// working. A leaked latch would deadlock this test rather than fail an
/// assertion.
#[test]
fn panicking_latched_cascade_does_not_wedge_other_writers() {
    let session = quark_xquery::session(Default::default(), Mode::Grouped);
    let flag = Arc::new(AtomicBool::new(false));
    let log = Arc::new(Mutex::new(Vec::new()));
    panicky_shard(&session, "pa", Arc::clone(&flag), Arc::clone(&log));
    panicky_shard(
        &session,
        "pb",
        Arc::new(AtomicBool::new(false)),
        Arc::clone(&log),
    );
    let pool = SessionPool::new(session);

    flag.store(true, Ordering::SeqCst);
    let victim = pool.session();
    let crashed = thread::spawn(move || {
        victim
            .execute("UPDATE pa SET price = 9.0 WHERE id = 0")
            .expect("unreachable: cascade panics first");
    })
    .join();
    assert!(crashed.is_err(), "injected panic must propagate");
    flag.store(false, Ordering::SeqCst);

    let session = pool.session();
    // The other shard was never at risk…
    session
        .execute("UPDATE pb SET price = 3.0 WHERE id = 0")
        .expect("sibling shard writer");
    // …and the crashed shard's latches were released on unwind.
    session
        .execute("UPDATE pa SET price = 4.0 WHERE id = 0")
        .expect("same shard writer after panic");
    assert_eq!(log.lock().unwrap().as_slice(), ["pb", "pa"]);
    // Snapshot reads converge on the post-recovery state.
    let StatementResult::Rows { rows, .. } = session
        .execute("SELECT price FROM pa WHERE id = 0")
        .expect("read")
    else {
        panic!("expected rows")
    };
    assert_eq!(rows[0][0], Value::Double(4.0));
}

/// A panic inside an *unbounded* cascade — a raw SQL trigger's, every
/// table latched exclusive under the shared level-1 lock — unwinds through the latch guard like
/// any other latched writer's: all the latches come back, nothing is
/// poisoned (a shared `RwLock` guard does not poison), and the system
/// keeps accepting statements, reads included.
#[test]
fn panicking_unbounded_cascade_releases_every_latch() {
    let session = quark_xquery::session(Default::default(), Mode::Grouped);
    let flag = Arc::new(AtomicBool::new(false));
    let log = Arc::new(Mutex::new(Vec::new()));
    // Raw SQL trigger ⇒ unbounded footprint ⇒ every table latched.
    let (panic_flag, sink) = (Arc::clone(&flag), Arc::clone(&log));
    raw_shard(&session, "pg", move |_db| {
        if panic_flag.load(Ordering::SeqCst) {
            panic!("injected cascade panic in pg");
        }
        sink.lock().expect("log").push("pg".to_string());
        Ok(())
    });
    assert_eq!(session.quark().write_footprint("pg"), Footprint::Global);
    let pool = SessionPool::new(session);

    flag.store(true, Ordering::SeqCst);
    let victim = pool.session();
    let crashed = thread::spawn(move || {
        victim
            .execute("UPDATE pg SET price = 9.0 WHERE id = 0")
            .expect("unreachable: cascade panics first");
    })
    .join();
    assert!(crashed.is_err(), "injected panic must propagate");
    flag.store(false, Ordering::SeqCst);

    let session = pool.session();
    session
        .execute("UPDATE pg SET price = 5.0 WHERE id = 0")
        .expect("unbounded writer after the panic");
    assert_eq!(log.lock().unwrap().as_slice(), ["pg"]);
    let StatementResult::Rows { rows, .. } = session
        .execute("SELECT price FROM pg WHERE id = 0")
        .expect("read after the panic")
    else {
        panic!("expected rows")
    };
    assert_eq!(rows[0][0], Value::Double(5.0));
    assert!(session.quark().stats().statements >= 2);
}

/// `execute_batch` coalesces runs of same-table INSERTs: storage and the
/// trigger cascade are touched once per run, per-statement results and
/// per-row action invocations are preserved, and the fold is observable
/// in `batched_statements`.
#[test]
fn execute_batch_coalesces_and_preserves_semantics() {
    fn insert_system() -> (Session, Arc<Mutex<Vec<String>>>) {
        let session = quark_xquery::session(Default::default(), Mode::Grouped);
        let log = Arc::new(Mutex::new(Vec::new()));
        session
            .execute("CREATE TABLE ord (id INT PRIMARY KEY, name TEXT, price DOUBLE)")
            .expect("create ord");
        session
            .execute("CREATE TABLE misc (id INT PRIMARY KEY, name TEXT)")
            .expect("create misc");
        let view = ViewSpec {
            name: "orders".into(),
            root_element: "doc".into(),
            binding: TopBinding::Rows,
            top: LevelSpec {
                element: "order".into(),
                table: "ord".into(),
                parent_fk: None,
                attrs: vec![("name".into(), "name".into())],
                scalars: vec![("*".into(), "*".into())],
                child_count: None,
                child: None,
            },
        };
        let xml_view = view.build(&session.database()).expect("build view");
        session.quark_mut().register_view(xml_view);
        let sink = Arc::clone(&log);
        session
            .register_action_with_writes("record", Vec::<String>::new(), move |_db, call| {
                sink.lock().expect("log").push(call.trigger.clone());
                Ok(())
            })
            .expect("register record");
        session
            .execute(
                "create trigger NewOrder after insert on view('orders')/order \
                 do record(NEW_NODE)",
            )
            .expect("create trigger");
        (session, log)
    }

    let batch: Vec<String> = vec![
        "INSERT INTO ord VALUES (1, 'a', 10.0)".into(),
        "INSERT INTO ord VALUES (2, 'b', 20.0)".into(),
        "INSERT INTO ord VALUES (3, 'c', 30.0)".into(),
        "SELECT name FROM ord WHERE id = 2".into(),
        "INSERT INTO misc VALUES (1, 'x')".into(),
        "INSERT INTO misc VALUES (2, 'y')".into(),
        "UPDATE ord SET price = 11.0 WHERE id = 1".into(),
    ];

    // Batched execution.
    let (batched, batched_log) = insert_system();
    let before = batched.quark().stats();
    let results: Vec<StatementResult> = batched
        .execute_batch(batch.iter().map(String::as_str))
        .into_iter()
        .map(|r| r.expect("batch statement"))
        .collect();
    let after = batched.quark().stats();

    // One result per input statement, each INSERT reporting its own row.
    assert_eq!(results.len(), batch.len());
    for idx in [0, 1, 2, 4, 5, 6] {
        assert!(
            matches!(results[idx], StatementResult::RowsAffected(1)),
            "statement {idx} should report its own single row"
        );
    }
    assert!(matches!(&results[3], StatementResult::Rows { rows, .. } if rows.len() == 1));

    // The two runs (3 ord-INSERTs, 2 misc-INSERTs) folded into one
    // statement each: 6 data-change inputs became 3 executed data-change
    // statements, and all 5 run members are counted as batched.
    assert_eq!(after.batched_statements - before.batched_statements, 5);
    assert_eq!(after.statements - before.statements, 3);
    // The insert cascade ran once for the whole ord run (one Δ), but the
    // action was still invoked once per new node.
    assert_eq!(batched_log.lock().unwrap().len(), 3);

    // Differential: statement-at-a-time execution reaches the same state.
    let (serial, serial_log) = insert_system();
    for s in &batch {
        serial.execute(s).expect("serial statement");
    }
    assert_eq!(dump(&batched, "ord"), dump(&serial, "ord"));
    assert_eq!(dump(&batched, "misc"), dump(&serial, "misc"));
    assert_eq!(serial_log.lock().unwrap().len(), 3);
    // The serial run paid one cascade per INSERT instead of one per run.
    assert_eq!(serial.quark().stats().batched_statements, 0);
    assert!(serial.quark().stats().statements > after.statements - before.statements);
}

/// Mixed readers and disjoint writers together: readers see consistent
/// snapshots (never a torn cross-table state) while writers make
/// progress under them.
#[test]
fn readers_ride_snapshots_while_writers_run() {
    const UPDATES: i64 = 30;
    let spec = ShardSpec::quick(2, Mode::Grouped);
    let w = build_sharded(spec).expect("sharded workload");
    let triggers = spec.triggers;
    let pool = SessionPool::new(w.session);
    let barrier = Arc::new(Barrier::new(3));

    let writers: Vec<_> = (0..2usize)
        .map(|t| {
            let session = pool.session();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for i in 0..UPDATES {
                    let price = 50.0 + (i % 1000) as f64 / 7.0;
                    session
                        .execute(&format!("UPDATE m{t} SET price = {price:?} WHERE id = 0"))
                        .expect("writer");
                }
            })
        })
        .collect();
    let reader = {
        let session = pool.session();
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || {
            barrier.wait();
            for _ in 0..200 {
                // Audit rows only ever grow in a snapshot-consistent
                // world: each audit table holds a multiple of the firings
                // one statement contributes, never a partial cascade…
                for h in 0..2 {
                    let StatementResult::Rows { rows, .. } = session
                        .execute(&format!("SELECT seq FROM audit{h}"))
                        .expect("reader")
                    else {
                        panic!("expected rows")
                    };
                    assert!(rows.len() <= (UPDATES as usize) * triggers);
                }
            }
        })
    };
    for th in writers {
        th.join().expect("writer thread");
    }
    reader.join().expect("reader thread");

    let session = pool.session();
    for h in 0..2 {
        let StatementResult::Rows { rows, .. } = session
            .execute(&format!("SELECT seq FROM audit{h}"))
            .expect("final read")
        else {
            panic!("expected rows")
        };
        assert_eq!(rows.len(), UPDATES as usize * triggers);
    }
}
