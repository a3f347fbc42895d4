//! Concurrent-session semantics: N reader threads + 1 writer over one
//! shared system.
//!
//! The sharded statement surface promises that read statements (`SELECT`,
//! `MATERIALIZE`, plus raw [`Session::snapshot`] access) always observe
//! some *statement-boundary* state — never a state from inside a firing
//! cascade. This suite proves it differentially: a single-threaded replay
//! of the same statement sequence enumerates every legal boundary state,
//! and every concurrent observation must be a member of that set. The
//! writer drives a depth-3 trigger cascade (view trigger → audit1 →
//! audit2 → audit3), so a torn read would show audit tables out of step
//! with the base table or with each other.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use common::catalog_path;
use quark_core::relational::{Database, Event, SqlTrigger, Table, Value};
use quark_core::xqgm::fixtures::product_vendor_db;
use quark_core::{Footprint, Mode, Quark, Session, SessionPool, StatementResult, XmlView};
use quark_xquery::XQueryFrontend;

/// Number of statements the writer executes.
const WRITES: usize = 40;
/// Reader threads hammering the snapshot surface.
const READERS: usize = 4;

/// One observation of the whole system: the hot vendor price plus the
/// three audit-table cardinalities filled in by the cascade. Constructed
/// from a single snapshot, so consistency spans all four tables.
type Observation = (String, usize, usize, usize);

/// Build the catalog system with a depth-3 cascade behind the XML trigger:
/// the trigger's action inserts into `audit1`; SQL triggers chain the
/// insert into `audit2` and then `audit3`. All three audits move *inside*
/// the firing statement, so any mid-statement read would catch them out
/// of step. The action declares `audit1`; the raw chain triggers declare
/// nothing, so a write to `vendor` has an unbounded footprint.
fn cascade_system() -> Session {
    let db = product_vendor_db();
    let pg = catalog_path(&db);
    let mut quark = Quark::new(db, Mode::Grouped);
    quark.register_view(XmlView::new("catalog").with_anchor("product", pg));
    let session = Session::with_frontend(quark, Box::new(XQueryFrontend));
    for t in ["audit1", "audit2", "audit3"] {
        session
            .execute(&format!("CREATE TABLE {t} (seq INT PRIMARY KEY)"))
            .expect("audit table");
    }
    {
        let mut db = session.database_mut();
        for (from, to) in [("audit1", "audit2"), ("audit2", "audit3")] {
            let to = to.to_string();
            db.create_raw_trigger(SqlTrigger {
                name: format!("chain_{from}"),
                table: from.to_string(),
                event: Event::Insert,
                body: Arc::new(move |db, trans| {
                    for r in &trans.inserted {
                        db.insert_row(&to, r.to_vec())?;
                    }
                    Ok(())
                }),
            })
            .expect("chain trigger");
        }
    }
    session
        .register_action_with_writes("audit", ["audit1"], |db, _call| {
            let seq = db.table("audit1").map(|t| t.len()).unwrap_or(0) as i64;
            db.insert_row("audit1", vec![Value::Int(seq)])
        })
        .expect("action");
    // A small grouped corpus: the hot trigger plus structurally similar
    // spectators watching other constants (the §5.1 constants table joins
    // on every firing).
    for (name, watched) in [
        ("Watch", "CRT 15"),
        ("Spectator1", "LCD 19"),
        ("Spectator2", "No Such"),
    ] {
        session
            .execute(&format!(
                "create trigger {name} after update on view('catalog')/product \
                 where OLD_NODE/@name = '{watched}' do audit(NEW_NODE)"
            ))
            .expect("xml trigger");
    }
    assert_eq!(session.quark().write_footprint("vendor"), Footprint::Global);
    session
}

/// The writer's `i`-th statement: a keyed price update on the hot vendor
/// row (its product, CRT 15, has three vendors, so the view node exists
/// and the Watch trigger fires once per statement).
fn write_statement(i: usize) -> String {
    format!(
        "UPDATE vendor SET price = {:?} WHERE vid = 'Amazon' AND pid = 'P1'",
        50.0 + i as f64
    )
}

/// Observe the system from one consistent snapshot.
fn observe(db: &Database) -> Observation {
    let price = db
        .table("vendor")
        .unwrap()
        .get(&[Value::str("Amazon"), Value::str("P1")])
        .map(|r| format!("{:?}", r[2]))
        .unwrap_or_default();
    let len = |t: &str| db.table(t).map(|tb| tb.len()).unwrap_or(0);
    (price, len("audit1"), len("audit2"), len("audit3"))
}

/// Render a MATERIALIZE result for set membership comparison.
fn render_xml(result: StatementResult) -> String {
    let StatementResult::Xml(nodes) = result else {
        panic!("expected XML result");
    };
    nodes
        .iter()
        .map(|n| n.to_xml())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn concurrent_readers_observe_only_statement_boundary_states() {
    // Single-threaded replay: enumerate every legal boundary state.
    let oracle = cascade_system();
    let mut legal_observations: BTreeSet<Observation> = BTreeSet::new();
    let mut legal_materializations: BTreeSet<String> = BTreeSet::new();
    let mut legal_selects: BTreeSet<usize> = BTreeSet::new();
    let mut record = |s: &Session| {
        legal_observations.insert(observe(&s.database()));
        legal_materializations.insert(render_xml(
            s.execute("MATERIALIZE view('catalog')/product").unwrap(),
        ));
        let StatementResult::Rows { rows, .. } = s.execute("SELECT seq FROM audit3").unwrap()
        else {
            panic!()
        };
        legal_selects.insert(rows.len());
    };
    record(&oracle);
    for i in 0..WRITES {
        oracle.execute(&write_statement(i)).expect("oracle write");
        record(&oracle);
    }
    assert_eq!(
        legal_observations.len(),
        WRITES + 1,
        "each statement produces a distinct boundary state"
    );

    // Concurrent run of the same sequence on a fresh system.
    let pool = SessionPool::new(cascade_system());
    let done = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for r in 0..READERS {
        let session = pool.session();
        let done = Arc::clone(&done);
        let legal_obs = legal_observations.clone();
        let legal_mat = legal_materializations.clone();
        let legal_sel = legal_selects.clone();
        readers.push(thread::spawn(move || {
            let mut checks = 0usize;
            // Every other round's snapshot, held across the writer's
            // commits until the next round, with what it showed then (the
            // rounds between hold none, so commits fold in place too).
            let mut held: Option<(Arc<Quark>, Observation)> = None;
            while !done.load(Ordering::Acquire) || checks == 0 {
                // Raw snapshot: one consistent state across all tables.
                let snap = session.snapshot();
                let seen = observe(snap.database());
                assert!(
                    legal_obs.contains(&seen),
                    "reader {r} observed a non-boundary state: {seen:?}"
                );
                // A held snapshot never changes, however far the writer
                // has moved on.
                if let Some((old, old_seen)) = held.take() {
                    assert_eq!(
                        observe(old.database()),
                        old_seen,
                        "reader {r}'s held snapshot changed under it"
                    );
                } else {
                    held = Some((Arc::clone(&snap), seen));
                }
                // Statement surface: SELECT and MATERIALIZE against the
                // same published snapshots.
                if checks.is_multiple_of(3) {
                    let mat = render_xml(
                        session
                            .execute("MATERIALIZE view('catalog')/product")
                            .unwrap(),
                    );
                    assert!(
                        legal_mat.contains(&mat),
                        "reader {r} materialized a non-boundary view state"
                    );
                } else {
                    let StatementResult::Rows { rows, .. } =
                        session.execute("SELECT seq FROM audit3").unwrap()
                    else {
                        panic!()
                    };
                    assert!(
                        legal_sel.contains(&rows.len()),
                        "reader {r} selected a non-boundary audit count: {}",
                        rows.len()
                    );
                }
                checks += 1;
                thread::yield_now();
            }
            checks
        }));
    }

    let writer = {
        let session = pool.session();
        thread::spawn(move || {
            for i in 0..WRITES {
                session.execute(&write_statement(i)).expect("write");
                thread::yield_now();
            }
        })
    };
    writer.join().expect("writer");
    done.store(true, Ordering::Release);
    let total_checks: usize = readers.into_iter().map(|r| r.join().expect("reader")).sum();
    assert!(total_checks >= READERS, "readers made progress");

    // Final state equals the oracle's final state exactly.
    let session = pool.into_session();
    assert_eq!(observe(&session.database()), observe(&oracle.database()));
    let expected_fires = WRITES;
    assert_eq!(
        session.database().table("audit3").unwrap().len(),
        expected_fires,
        "depth-3 cascade ran once per statement"
    );
}

/// Forked handles on other threads share writes and snapshots; reads
/// scale without holding the write lock.
#[test]
fn forks_read_concurrently_while_a_writer_runs() {
    let session = cascade_system();
    let done = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();
    for _ in 0..READERS {
        let reader = session.fork();
        let done = Arc::clone(&done);
        threads.push(thread::spawn(move || {
            let mut n = 0usize;
            // `|| n == 0`: on a small machine the writer can finish before
            // this thread is first scheduled; every reader still performs
            // at least one full read.
            while !done.load(Ordering::Acquire) || n == 0 {
                let StatementResult::Rows { rows, .. } = reader
                    .execute("SELECT vid FROM vendor WHERE pid = 'P1'")
                    .unwrap()
                else {
                    panic!()
                };
                assert_eq!(rows.len(), 3, "P1 always keeps its three vendors");
                n += 1;
            }
            n
        }));
    }
    for i in 0..WRITES {
        session.execute(&write_statement(i)).expect("write");
    }
    done.store(true, Ordering::Release);
    for t in threads {
        assert!(t.join().expect("reader") > 0);
    }
}

/// Once the first read has published a snapshot, every commit keeps it
/// current, so a read never has to take the level-1 lock — not even after
/// commits nobody read in between. (Publication used to lapse after one
/// unobserved commit, and the next read then rebuilt the snapshot under the
/// *exclusive* level-1 lock: it waited for every latched writer in flight.
/// This test hangs there, so it runs against a channel timeout.)
#[test]
fn a_read_after_unobserved_commits_does_not_wait_for_a_latched_writer() {
    // No triggers: the UPDATEs below are footprint-latched, not global.
    let session = Session::new(Quark::new(product_vendor_db(), Mode::Grouped));
    let price = "SELECT price FROM vendor WHERE vid = 'Amazon' AND pid = 'P1'";
    session.execute(price).expect("first read publishes");

    // Stand-in for a latched writer in the middle of a long cascade: it
    // holds the level-1 lock shared, which is what `quark()` takes.
    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let holder = {
        let session = session.fork();
        thread::spawn(move || {
            let guard = session.quark();
            held_tx.send(()).expect("main thread waits");
            let _ = release_rx.recv();
            drop(guard);
        })
    };
    held_rx.recv().expect("holder took the lock");

    let (done_tx, done_rx) = mpsc::channel();
    let worker = {
        let session = session.fork();
        thread::spawn(move || {
            // Two commits with no read in between, then a read.
            session.execute(&write_statement(1)).expect("first write");
            session.execute(&write_statement(2)).expect("second write");
            let seen = observe(session.snapshot().database()).0;
            let selected = session.execute(price).expect("select");
            let _ = done_tx.send((seen, selected));
        })
    };
    let outcome = done_rx.recv_timeout(Duration::from_secs(5));
    // Release before judging, so both threads end either way.
    drop(release_tx);
    holder.join().expect("holder");
    worker.join().expect("worker");
    let (seen, selected) = outcome.expect("the read waited for the level-1 lock");
    assert_eq!(seen, "52", "snapshot holds both updates");
    let StatementResult::Rows { rows, .. } = selected else {
        panic!("expected rows");
    };
    assert_eq!(
        rows,
        vec![quark_core::relational::row([Value::Double(52.0)])]
    );
}

/// Tables in the snapshot-fold tests: a system where a fold that copied
/// the whole catalog would be a thousand times what the write touched.
const TABLES: usize = 1_000;

/// `TABLES` tables `t0000`, `t0001`, …, each `(id INT PRIMARY KEY, v INT)`
/// holding rows 0 and 1 with `v = 0`. No trigger, so an `UPDATE`'s write
/// set is its own table.
fn many_tables() -> Session {
    let session = Session::new(Quark::new(Database::new(), Mode::Grouped));
    for i in 0..TABLES {
        session
            .execute(&format!("CREATE TABLE t{i:04} (id INT PRIMARY KEY, v INT)"))
            .unwrap();
        session
            .execute(&format!("INSERT INTO t{i:04} VALUES (0, 0), (1, 0)"))
            .unwrap();
    }
    session
}

/// Where each table's storage lives in `db`: the same address in two
/// snapshots is the same `Table`, shared, not copied.
fn table_addrs(db: &Database) -> BTreeMap<String, *const Table> {
    db.table_names()
        .map(|name| (name.to_string(), &*db.table(name).unwrap() as *const Table))
        .collect()
}

/// The tables whose storage differs between two address maps.
fn moved(before: &BTreeMap<String, *const Table>, after: &Database) -> Vec<String> {
    let after = table_addrs(after);
    assert_eq!(after.len(), before.len(), "same catalog");
    before
        .iter()
        .filter(|(name, at)| after[*name] != **at)
        .map(|(name, _)| name.clone())
        .collect()
}

/// `v` of row `id` in `table`, as `snapshot` holds it.
fn v_of(snapshot: &Quark, table: &str, id: i64) -> Value {
    snapshot
        .database()
        .table(table)
        .unwrap()
        .get(&[Value::Int(id)])
        .unwrap()[1]
        .clone()
}

/// A commit folds its write set into a snapshot nobody holds *in place*:
/// the next read gets the same allocation back, and of its `TABLES`
/// tables only the written one is a new `Table`. Counted in allocations,
/// not time: a fold that cloned the system would hand out a new snapshot.
#[test]
fn a_commit_folds_into_an_unheld_snapshot_in_place() {
    let session = many_tables();
    let first = session.snapshot();
    let at = Arc::as_ptr(&first);
    let before = table_addrs(first.database());
    drop(first);

    session
        .execute("UPDATE t0007 SET v = 1 WHERE id = 0")
        .unwrap();
    let second = session.snapshot();
    assert!(
        std::ptr::eq(Arc::as_ptr(&second), at),
        "the fold cloned a snapshot nobody held"
    );
    assert_eq!(moved(&before, second.database()), ["t0007"]);
    assert_eq!(v_of(&second, "t0007", 0), Value::Int(1));
    assert_eq!(v_of(&second, "t0008", 0), Value::Int(0));
}

/// A snapshot a reader holds never changes: a commit meanwhile folds
/// around it, into a new snapshot that shares every table it did not
/// write. Then the race the in-place fold must never lose: readers hold
/// snapshots across a writer's commits on two tables and re-read them,
/// and each new snapshot is at least as new as the last one.
#[test]
fn a_held_snapshot_never_changes_while_commits_fold_around_it() {
    let session = many_tables();
    let held = session.snapshot();
    let before = table_addrs(held.database());
    for v in 1..=3 {
        session
            .execute(&format!("UPDATE t0003 SET v = {v} WHERE id = 1"))
            .unwrap();
    }
    assert_eq!(v_of(&held, "t0003", 1), Value::Int(0), "held rows moved");
    assert!(
        moved(&before, held.database()).is_empty(),
        "held tables moved"
    );
    let next = session.snapshot();
    assert!(
        !Arc::ptr_eq(&held, &next),
        "the fold wrote into a held snapshot"
    );
    assert_eq!(v_of(&next, "t0003", 1), Value::Int(3));
    assert_eq!(moved(&before, next.database()), ["t0003"]);
    drop((held, next));

    // Writes 1..=WRITES to row 0 of t0000, then of t0001: a reader sees
    // t0001 behind or level with t0000, and never a value go back.
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let session = session.fork();
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let (mut last, mut checks) = ((0, 0), 0usize);
                while !done.load(Ordering::Acquire) || checks == 0 {
                    let snap = session.snapshot();
                    let read = || {
                        let v = |t| match v_of(&snap, t, 0) {
                            Value::Int(v) => v,
                            other => panic!("{other:?}"),
                        };
                        (v("t0000"), v("t0001"))
                    };
                    let seen = read();
                    assert!(seen.1 <= seen.0 && seen.0 <= seen.1 + 1, "torn: {seen:?}");
                    assert!(
                        seen.0 >= last.0 && seen.1 >= last.1,
                        "went back: {last:?} then {seen:?}"
                    );
                    thread::yield_now();
                    assert_eq!(read(), seen, "a held snapshot changed");
                    last = seen;
                    checks += 1;
                }
                checks
            })
        })
        .collect();
    for v in 1..=WRITES as i64 {
        for t in ["t0000", "t0001"] {
            session
                .execute(&format!("UPDATE {t} SET v = {v} WHERE id = 0"))
                .unwrap();
        }
        thread::yield_now();
    }
    done.store(true, Ordering::Release);
    for reader in readers {
        assert!(reader.join().expect("reader") > 0);
    }
    let last = session.snapshot();
    assert_eq!(v_of(&last, "t0001", 0), Value::Int(WRITES as i64));
}

/// The compile-time gate the CI `-D warnings` check rides on: the whole
/// session stack must stay `Send + Sync` (a regression here fails the
/// build, not just this test).
#[test]
fn session_stack_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
    assert_send_sync::<SessionPool>();
    assert_send_sync::<Quark>();
    assert_send_sync::<Database>();
    assert_send_sync::<XQueryFrontend>();
}
