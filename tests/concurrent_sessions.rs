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

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use common::catalog_path;
use quark_core::relational::{Database, Event, SqlTrigger, Value};
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
            db.create_trigger(SqlTrigger {
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
            while !done.load(Ordering::Acquire) || checks == 0 {
                // Raw snapshot: one consistent state across all tables.
                let snap = session.snapshot();
                let seen = observe(snap.database());
                assert!(
                    legal_obs.contains(&seen),
                    "reader {r} observed a non-boundary state: {seen:?}"
                );
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
