//! Durability & recovery: crash-and-reopen round trips through the
//! `quark-storage` engine, checked differentially against an in-memory
//! session executing the byte-identical statement stream.
//!
//! The contract under test (see README "Durability & recovery"): a
//! recovered system is identical to the crashed one *at its last
//! committed statement boundary* — tables, views and trigger groups all
//! come back, trigger groups re-arm with **zero** re-translations, and a
//! torn or corrupt WAL tail costs exactly the statements whose frames it
//! destroyed, never more, and a statement whose append fails leaves no
//! trace. After a storage failure (here a checkpoint that fails) the log
//! refuses every write until a reopen, which loses no acknowledged one.
//!
//! Dropping a durable session without `close()` is crash-equivalent (no
//! final checkpoint runs), so `drop` + reopen simulates `kill -9` for
//! everything above the OS page cache.

mod common;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use common::{all_modes, group_line, Log, CATALOG_VIEW, SETUP, TRIGGERS};
use proptest::prelude::*;
use quark_core::relational::{Database, Error, Event, Row, SqlTrigger, Value};
use quark_core::session::CHECKPOINT_LOG_BYTES;
use quark_core::storage::SyncMode;
use quark_core::xqgm::fixtures::product_vendor_db;
use quark_core::xqgm::normalize;
use quark_core::{
    Footprint, Mode, ObjectKind, PathGraph, Quark, Session, SessionPool, StatementResult,
};

fn tmp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::AtomicU64;
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("quark-durability-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Register the recording `notify` action **with a declared (empty) write
/// set**, so trigger-bearing DML stays on the footprint-latched path —
/// the path whose commit point is the WAL. Action closures are
/// process-local and must be re-registered after every reopen.
fn arm(session: &Session, log: &Log) {
    let sink = log.clone();
    session
        .register_action_with_writes("notify", Vec::<String>::new(), move |_db, call| {
            sink.0
                .lock()
                .unwrap()
                .push((call.trigger.clone(), call.params.clone()));
            Ok(())
        })
        .expect("register notify");
}

/// Full setup on a fresh session: schema, data, view, action, triggers.
fn install(session: &Session, log: &Log) {
    for s in SETUP {
        session.execute(s).expect("setup");
    }
    session.execute(CATALOG_VIEW).expect("create view");
    arm(session, log);
    for t in TRIGGERS {
        session.execute(t).expect("create trigger");
    }
}

/// Canonical observable state: both base tables (primary-key order) and
/// the materialized view anchor (canonical key order).
fn dump(session: &Session) -> Vec<StatementResult> {
    [
        "SELECT * FROM product",
        "SELECT * FROM vendor",
        "MATERIALIZE view('catalog')/product",
    ]
    .iter()
    .map(|s| session.execute(s).expect("dump"))
    .collect()
}

/// Both base tables as the authoritative state holds them, versions
/// included — what a reader of [`Session::database`] sees.
fn memory(session: &Session) -> Vec<(u64, Vec<Row>)> {
    let db = session.database();
    ["product", "vendor"]
        .iter()
        .map(|name| {
            let t = db.table(name).expect("table");
            (t.version(), t.iter().cloned().collect())
        })
        .collect()
}

/// Rendered firings, comparable across systems. Sorted: relative order
/// *across distinct triggers* on one statement is not a contract (the
/// differential-oracle suite compares sets for the same reason), and a
/// recovered system re-arms triggers in signature order, not creation
/// order.
fn firings(log: &Log) -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = log
        .take()
        .into_iter()
        .map(|(t, params)| (t, params.iter().map(|p| p.to_string()).collect()))
        .collect();
    out.sort();
    out
}

fn open(dir: &Path, mode: Mode, sync: SyncMode) -> Session {
    quark_xquery::open_session_with(dir, mode, sync).expect("open durable session")
}

/// Warm restart: everything comes back — tables, the view, both triggers
/// and their groups — and nothing is re-translated. A trigger created
/// after the restart joins its recovered group in the grouped modes and
/// is translated on its own, once, in UNGROUPED.
#[test]
fn warm_restart_recovers_everything_without_retranslation() {
    for mode in all_modes() {
        let dir = tmp_dir("warm");
        let log = Log::default();
        let session = open(&dir, mode, SyncMode::Always);
        install(&session, &log);
        session
            .execute("UPDATE vendor SET price = 75.0 WHERE vid = 'Amazon' AND pid = 'P1'")
            .expect("update");
        assert_eq!(log.len(), 1, "{mode:?}: trigger fires before restart");
        assert!(
            session.quark().translations() > 0,
            "{mode:?}: cold open must translate"
        );
        let before = dump(&session);
        session.close().expect("clean close");

        let log = Log::default();
        let session = open(&dir, mode, SyncMode::Always);
        assert_eq!(
            session.quark().translations(),
            0,
            "{mode:?}: warm restart must not re-translate"
        );
        arm(&session, &log);
        assert_eq!(dump(&session), before, "{mode:?}: recovered state differs");

        // The re-armed trigger still fires on the same shape of change.
        session
            .execute("UPDATE vendor SET price = 60.0 WHERE vid = 'Amazon' AND pid = 'P1'")
            .expect("post-restart update");
        assert_eq!(log.len(), 1, "{mode:?}: re-armed trigger must fire");

        session
            .execute(
                "CREATE TRIGGER NotifyP3 AFTER Update ON view('catalog')/product \
                 WHERE OLD_NODE/@name = 'LCD 19' DO notify(NEW_NODE)",
            )
            .expect("new trigger");
        assert_eq!(
            session.quark().translations(),
            u64::from(mode == Mode::Ungrouped),
            "{mode:?}: a new trigger joins its recovered group, or is its own"
        );
        session
            .execute("UPDATE vendor SET price = 190.0 WHERE vid = 'Buy.com' AND pid = 'P2'")
            .expect("update under the new trigger");
        assert_eq!(log.len(), 2, "{mode:?}: the new trigger fires");
        session.close().expect("close");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A reopened group finds a trigger's constants set through its recovered
/// constants table: equal constants share the row and one firing row, a
/// set whose last member left has lost its row, and a trigger re-created
/// with that set's constants gets a fresh set id.
#[test]
fn reopened_groups_find_their_constants_sets_through_the_table() {
    let watch = |name: &str, product: &str| {
        format!(
            "CREATE TRIGGER {name} AFTER Update ON view('catalog')/product \
             WHERE OLD_NODE/@name = '{product}' DO notify(NEW_NODE)"
        )
    };
    let reopen = |session: Session, dir: &Path, mode, log: &Log| {
        session.close().expect("close");
        let session = open(dir, mode, SyncMode::Never);
        arm(&session, log);
        session
    };
    for mode in [Mode::Grouped, Mode::GroupedAgg] {
        let dir = tmp_dir("sets");
        let log = Log::default();
        let session = open(&dir, mode, SyncMode::Never);
        // NotifyP1 holds set 0 ('CRT 15'); LCD 19's set 1 loses its row.
        install(&session, &log);
        session.execute(&watch("Gone", "LCD 19")).expect("trigger");
        assert_eq!(session.quark().constants_row_count(), 2, "{mode:?}");
        session.execute("DROP TRIGGER Gone").expect("drop");
        let session = reopen(session, &dir, mode, &log);
        assert_eq!(session.quark().constants_row_count(), 1, "{mode:?}");

        session.execute(&watch("Again", "CRT 15")).expect("trigger");
        session.execute(&watch("Fresh", "LCD 19")).expect("trigger");
        let lines = |s: &Session| [group_line(s, "Again"), group_line(s, "Fresh")];
        let expected = [
            "group: 3 member trigger(s), set 0 of 2",
            "group: 3 member trigger(s), set 2 of 2",
        ];
        assert_eq!(lines(&session), expected, "{mode:?}");
        assert_eq!(session.quark().constants_row_count(), 2, "{mode:?}");
        let session = reopen(session, &dir, mode, &log);
        assert_eq!(lines(&session), expected, "{mode:?}");
        assert_eq!(session.quark().translations(), 0, "{mode:?}");

        for (vid, pid, fired) in [
            ("Amazon", "P1", vec!["Again", "NotifyP1"]),
            ("Buy.com", "P2", vec!["Fresh"]),
        ] {
            session
                .execute(&format!(
                    "UPDATE vendor SET price = 55.0 WHERE vid = '{vid}' AND pid = '{pid}'"
                ))
                .expect("update");
            let names: Vec<String> = firings(&log).into_iter().map(|(t, _)| t).collect();
            assert_eq!(names, fired, "{mode:?}");
        }
        session.close().expect("close");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The README's durable entry point, `quark_xquery::open_session` (fsync
/// on every commit): the quickstart's view and `Notify` trigger, one
/// written row, a crash (drop without `close`), and a reopen that holds
/// the row and fires the trigger once the action is re-registered.
#[test]
fn open_session_recovers_the_quickstart_after_a_crash() {
    const NOTIFY: &str = "CREATE TRIGGER Notify AFTER Update ON view('catalog')/product \
                          WHERE OLD_NODE/@name = 'CRT 15' DO notifySmith(NEW_NODE)";
    let dir = tmp_dir("open-session");
    let fired = Log::default();
    let register = |session: &Session| {
        let sink = fired.clone();
        session
            .register_action("notifySmith", move |_db, call| {
                sink.0
                    .lock()
                    .unwrap()
                    .push((call.trigger.clone(), call.params.clone()));
                Ok(())
            })
            .expect("register notifySmith");
    };
    let session = quark_xquery::open_session(&dir, Mode::Grouped).expect("open");
    for s in SETUP {
        session.execute(s).expect("setup");
    }
    session.execute(CATALOG_VIEW).expect("create view");
    register(&session);
    session.execute(NOTIFY).expect("create trigger");
    session
        .execute("INSERT INTO vendor VALUES ('Newegg', 'P2', 230.0)")
        .expect("insert");
    drop(session); // crash: no close, no final checkpoint

    let session = quark_xquery::open_session(&dir, Mode::Grouped).expect("reopen");
    register(&session);
    let StatementResult::Rows { rows, .. } = session
        .execute("SELECT price FROM vendor WHERE vid = 'Newegg' AND pid = 'P2'")
        .expect("select")
    else {
        panic!("expected rows");
    };
    assert_eq!(rows.len(), 1, "the written row survives the crash");
    session
        .execute("UPDATE vendor SET price = 75.0 WHERE vid = 'Amazon' AND pid = 'P1'")
        .expect("update");
    let triggers: Vec<String> = fired.take().into_iter().map(|(t, _)| t).collect();
    assert_eq!(triggers, ["Notify"], "the recovered trigger fires once");
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash (drop without `close`) after a committed statement stream: the
/// recovered system is differentially identical to an in-memory session
/// that executed the same text — in every translation mode.
#[test]
fn crashed_session_recovers_to_last_committed_boundary() {
    let stream = [
        "UPDATE vendor SET price = 75.0 WHERE vid = 'Amazon' AND pid = 'P1'",
        "INSERT INTO vendor VALUES ('Circuitcity', 'P3', 850.0)",
        "DELETE FROM vendor WHERE vid = 'Bestbuy' AND pid = 'P1'",
        "UPDATE product SET pname = 'CRT 17' WHERE pid = 'P1'",
        "INSERT INTO product VALUES ('P4', 'Plasma 50', 'LG')",
    ];
    for mode in all_modes() {
        let dir = tmp_dir("crash");
        let oracle = quark_xquery::session(Database::new(), mode);
        let oracle_log = Log::default();
        install(&oracle, &oracle_log);

        let log = Log::default();
        let session = open(&dir, mode, SyncMode::Always);
        install(&session, &log);
        for s in &stream {
            let a = session.execute(s).expect("durable");
            let b = oracle.execute(s).expect("oracle");
            assert_eq!(a, b, "{mode:?}: result mismatch on `{s}`");
        }
        assert_eq!(firings(&log), firings(&oracle_log), "{mode:?}: firings");
        drop(session); // crash: no close, no final checkpoint

        let session = open(&dir, mode, SyncMode::Always);
        assert_eq!(
            dump(&session),
            dump(&oracle),
            "{mode:?}: recovered state differs from committed stream"
        );
        assert_eq!(session.quark().translations(), 0, "{mode:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The opaque shape, as statements: a `watch` table whose raw SQL trigger
/// (see [`arm_audit`]) inserts into a second table, `audit`. Nothing
/// declares what a raw trigger's body touches, so a write to `watch` has
/// an unbounded footprint.
const WATCH_SETUP: &[&str] = &[
    "CREATE TABLE watch (id INT PRIMARY KEY, name TEXT, price DOUBLE)",
    "CREATE TABLE audit (seq INT PRIMARY KEY, trigger TEXT)",
    "INSERT INTO watch VALUES (0, 'w0', 1.0), (1, 'w1', 1.0), (2, 'w2', 1.0)",
];

/// Install the raw SQL trigger `audit` on `watch`: one `audit` row per
/// updated `watch` row, numbered by the table's size so a recovered system
/// continues the sequence. It refuses a `watch` price above 1 000 — after
/// writing its rows, so a refused statement has a cascade write to roll
/// back. Like an action closure, a raw trigger is process-local and must
/// be installed again after every reopen.
fn arm_audit(session: &Session) {
    session
        .database_mut()
        .create_trigger(SqlTrigger {
            name: "audit".into(),
            table: "watch".into(),
            event: Event::Update,
            body: Arc::new(|db, trans| {
                for _ in &trans.inserted {
                    let seq = db.table("audit")?.len() as i64;
                    db.insert_row("audit", vec![Value::Int(seq), Value::str("audit")])?;
                }
                let limit = Value::Double(1000.0);
                if db.table("watch")?.iter().any(|r| r[2] > limit) {
                    return Err(Error::Plan("audit: price above 1000".into()));
                }
                Ok(())
            }),
        })
        .expect("install audit");
}

fn install_watch(session: &Session) {
    for s in WATCH_SETUP {
        session.execute(s).expect("watch setup");
    }
    arm_audit(session);
}

fn dump_watch(session: &Session) -> Vec<StatementResult> {
    ["SELECT * FROM watch", "SELECT * FROM audit"]
        .iter()
        .map(|s| session.execute(s).expect("dump"))
        .collect()
}

/// DML with an unbounded footprint — it fires a raw SQL trigger — commits
/// like any other DML: through the WAL, never by checkpoint — and a crash
/// recovers the statement's own rows *and* the rows the trigger wrote.
#[test]
fn opaque_action_dml_commits_through_the_wal_and_recovers() {
    const N: usize = 5;
    let dir = tmp_dir("opaque");
    let session = open(&dir, Mode::Grouped, SyncMode::Always);
    install_watch(&session);
    assert_eq!(
        session.quark().write_footprint("watch"),
        Footprint::Global,
        "the fixture must be on the unbounded side"
    );
    let before = session.quark().stats();
    for i in 0..N {
        let n = session
            .execute(&format!(
                "UPDATE watch SET price = {}.5 WHERE id = 1",
                i + 2
            ))
            .expect("update");
        assert_eq!(n, StatementResult::RowsAffected(1));
    }
    let after = session.quark().stats();
    assert_eq!(after.checkpoints, before.checkpoints, "no DML checkpoints");
    assert!(after.wal_bytes_written > before.wal_bytes_written);
    let committed = dump_watch(&session);
    drop(session); // crash: no close, no final checkpoint

    let session = open(&dir, Mode::Grouped, SyncMode::Always);
    arm_audit(&session);
    assert_eq!(session.quark().translations(), 0);
    assert_eq!(dump_watch(&session), committed);
    let StatementResult::Rows { rows, .. } = &committed[1] else {
        panic!("expected rows")
    };
    assert_eq!(rows.len(), N, "one audit row per update");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A multi-row `INSERT` — written as one statement, or coalesced from a
/// batch — that hits a duplicate key part-way is all-or-nothing: the rows
/// ahead of the duplicate are not inserted, nothing fires, nothing is
/// logged, and a crash-reopen finds the table as it was.
#[test]
fn failed_multi_row_insert_leaves_no_trace() {
    for mode in all_modes() {
        let dir = tmp_dir("atomic-insert");
        let log = Log::default();
        let session = open(&dir, mode, SyncMode::Always);
        install(&session, &log);
        let before = dump(&session);
        // The first row alone would succeed and fire NotifyP1 (it changes
        // the 'CRT 15' product node); the second duplicates a stored key.
        let err = session
            .execute("INSERT INTO vendor VALUES ('Newegg', 'P1', 90.0), ('Amazon', 'P1', 1.0)")
            .expect_err("duplicate key");
        assert!(err.to_string().contains("duplicate"), "{mode:?}: {err}");
        let run = session.execute_batch([
            "INSERT INTO vendor VALUES ('Newegg', 'P1', 90.0)",
            "INSERT INTO vendor VALUES ('Amazon', 'P1', 1.0)",
        ]);
        assert_eq!(run.len(), 2, "{mode:?}: one result per statement");
        for r in run {
            let err = r.expect_err("duplicate key in a coalesced run");
            assert!(err.to_string().contains("duplicate"), "{mode:?}: {err}");
        }
        assert_eq!(dump(&session), before, "{mode:?}: no row stays");
        assert_eq!(firings(&log), vec![], "{mode:?}: no trigger fired");
        drop(session); // crash: no close, no final checkpoint

        let session = open(&dir, mode, SyncMode::Always);
        assert_eq!(dump(&session), before, "{mode:?}: recovered state");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A panic in the middle of a trigger cascade: the panicking statement
/// is rolled back and never reaches the WAL, so memory, the
/// snapshot and recovery all land exactly on the boundary *before* it.
#[test]
fn mid_cascade_panic_loses_only_the_panicking_statement() {
    let dir = tmp_dir("panic");
    let panic_flag = Arc::new(AtomicBool::new(false));
    let session = open(&dir, Mode::Grouped, SyncMode::Always);
    for s in SETUP {
        session.execute(s).expect("setup");
    }
    session.execute(CATALOG_VIEW).expect("view");
    let flag = Arc::clone(&panic_flag);
    session
        .register_action_with_writes("notify", Vec::<String>::new(), move |_db, _call| {
            if flag.load(Ordering::SeqCst) {
                panic!("injected mid-cascade crash");
            }
            Ok(())
        })
        .expect("register");
    session.execute(TRIGGERS[0]).expect("trigger");

    // One committed boundary...
    session
        .execute("UPDATE vendor SET price = 75.0 WHERE vid = 'Amazon' AND pid = 'P1'")
        .expect("committed update");
    let committed = dump(&session);
    let in_memory = memory(&session);

    // ...then a statement whose cascade dies half-way through.
    panic_flag.store(true, Ordering::SeqCst);
    let victim = session.fork();
    let crashed = thread::spawn(move || {
        victim
            .execute("UPDATE vendor SET price = 50.0 WHERE vid = 'Amazon' AND pid = 'P1'")
            .expect("unreachable: cascade panics first");
    })
    .join();
    assert!(crashed.is_err(), "injected panic must propagate");
    assert_eq!(memory(&session), in_memory, "memory is rolled back");
    assert_eq!(dump(&session), committed, "the snapshot never saw it");
    drop(session); // crash the process state too: no checkpoint

    let session = open(&dir, Mode::Grouped, SyncMode::Always);
    assert_eq!(
        dump(&session),
        committed,
        "recovery must land on the boundary before the panicking statement"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn newest_wal_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir.join("wal"))
        .expect("wal dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .collect();
    segs.sort();
    segs.pop().expect("at least one segment")
}

/// A way of damaging the WAL tail in place.
type Mutilation = fn(&mut Vec<u8>);

const MUTILATIONS: [(&str, Mutilation); 2] = [
    ("torn", |data| {
        let n = data.len() - 5;
        data.truncate(n);
    }),
    ("corrupt", |data| {
        let n = data.len() - 1;
        data[n] ^= 0x40;
    }),
];

fn mutilate_newest_wal_segment(dir: &Path, mutilate: Mutilation) {
    let seg = newest_wal_segment(dir);
    let mut data = std::fs::read(&seg).expect("read segment");
    mutilate(&mut data);
    std::fs::write(&seg, &data).expect("write back");
}

/// A torn (truncated) or corrupt (bit-flipped) WAL tail costs exactly the
/// statement whose records it destroyed; everything before it survives,
/// and the recovered system keeps accepting writes.
#[test]
fn torn_or_corrupt_wal_tail_discards_only_the_damaged_statement() {
    let updates = [
        "UPDATE vendor SET price = 75.0 WHERE vid = 'Amazon' AND pid = 'P1'",
        "UPDATE vendor SET price = 76.0 WHERE vid = 'Bestbuy' AND pid = 'P1'",
        "UPDATE vendor SET price = 77.0 WHERE vid = 'Amazon' AND pid = 'P2'",
    ];
    for (tag, mutilate) in MUTILATIONS {
        let dir = tmp_dir(tag);
        let log = Log::default();
        let session = open(&dir, Mode::Grouped, SyncMode::Always);
        install(&session, &log);
        // Three latched statements land in the WAL after the last
        // checkpoint (trigger DDL checkpoints and truncates the log).
        for s in &updates {
            session.execute(s).expect("update");
        }
        drop(session); // crash

        mutilate_newest_wal_segment(&dir, mutilate);

        // Oracle: the same stream minus the destroyed final statement.
        let oracle = quark_xquery::session(Database::new(), Mode::Grouped);
        install(&oracle, &Log::default());
        for s in &updates[..updates.len() - 1] {
            oracle.execute(s).expect("oracle update");
        }

        let log = Log::default();
        let session = open(&dir, Mode::Grouped, SyncMode::Always);
        arm(&session, &log);
        assert_eq!(
            dump(&session),
            dump(&oracle),
            "{tag}: recovery must keep every undamaged statement"
        );

        // The recovered log accepts and persists new commits.
        session.execute(updates[2]).expect("re-apply");
        oracle.execute(updates[2]).expect("oracle re-apply");
        session.close().expect("close");
        let session = open(&dir, Mode::Grouped, SyncMode::Always);
        assert_eq!(dump(&session), dump(&oracle), "{tag}: post-recovery write");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The damaged statement may be the *only* one since the checkpoint:
/// replay then returns nothing, no recovery checkpoint truncates the log,
/// and appends resume in the damaged segment. The damage must be cut off
/// first — otherwise every later acknowledged (and fsynced) commit lands
/// behind it, where the next replay stops short and silently drops it.
///
/// No view, trigger or action here: registering one is a global commit,
/// whose checkpoint would truncate the log and hide the damaged segment.
#[test]
fn commits_after_recovering_a_lone_damaged_statement_survive_the_next_crash() {
    let lost = "UPDATE vendor SET price = 75.0 WHERE vid = 'Amazon' AND pid = 'P1'";
    let acked = "UPDATE vendor SET price = 76.0 WHERE vid = 'Bestbuy' AND pid = 'P1'";
    let tables = |session: &Session| -> Vec<StatementResult> {
        ["SELECT * FROM product", "SELECT * FROM vendor"]
            .iter()
            .map(|s| session.execute(s).expect("select"))
            .collect()
    };
    for (tag, mutilate) in MUTILATIONS {
        let dir = tmp_dir(&format!("lone-{tag}"));
        let oracle = quark_xquery::session(Database::new(), Mode::Grouped);
        let session = open(&dir, Mode::Grouped, SyncMode::Always);
        for s in SETUP {
            session.execute(s).expect("setup");
            oracle.execute(s).expect("oracle setup");
        }
        session.close().expect("close checkpoints");

        let session = open(&dir, Mode::Grouped, SyncMode::Always);
        session.execute(lost).expect("update");
        drop(session); // crash
        mutilate_newest_wal_segment(&dir, mutilate);

        let session = open(&dir, Mode::Grouped, SyncMode::Always);
        assert_eq!(
            tables(&session),
            tables(&oracle),
            "{tag}: damaged statement"
        );
        session.execute(acked).expect("acknowledged update");
        oracle.execute(acked).expect("oracle update");
        drop(session); // crash again: no checkpoint ever folded the log

        let session = open(&dir, Mode::Grouped, SyncMode::Always);
        assert_eq!(
            tables(&session),
            tables(&oracle),
            "{tag}: an acknowledged write was lost behind the damaged tail"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Copy the directory tree `from` to `to`, leaving `skip` out.
fn copy_tree(from: &Path, to: &Path, skip: &Path) {
    std::fs::create_dir_all(to).expect("create copy");
    for entry in std::fs::read_dir(from).expect("list") {
        let path = entry.expect("entry").path();
        let target = to.join(path.file_name().expect("name"));
        if path == skip {
            continue;
        } else if path.is_dir() {
            copy_tree(&path, &target, skip);
        } else {
            std::fs::copy(&path, &target).expect("copy file");
        }
    }
}

/// Where the WAL's next segment goes: the next checkpoint starts it.
fn next_wal_segment(dir: &Path) -> PathBuf {
    let live = newest_wal_segment(dir);
    let seq: u64 = (live.file_stem().and_then(|s| s.to_str()))
        .and_then(|s| s.parse().ok())
        .expect("segment number");
    live.with_file_name(format!("{:010}.wal", seq + 1))
}

/// Fail the next checkpoint: a directory sits at `path`, and nobody can
/// open it for writing (`EISDIR`, root included). A global write
/// checkpoints, so `CREATE TABLE` returns the failure.
fn fail_a_checkpoint_at(session: &Session, path: &Path) {
    std::fs::create_dir(path).expect("block the path");
    session
        .execute("CREATE TABLE extra (id INT PRIMARY KEY)")
        .expect_err("the checkpoint fails");
}

/// The rows of both base tables, without table versions: what a reopen
/// must bring back.
fn rows(session: &Session) -> Vec<Vec<Row>> {
    memory(session).into_iter().map(|(_, rows)| rows).collect()
}

/// A statement whose WAL append fails leaves no trace: memory, the
/// snapshot and a reopened copy of the directory all hold the state
/// before it. The append fails because the log refuses: a checkpoint
/// failed before it, at the path of the WAL segment it would start. The
/// log refuses until a reopen, even once the path is free; after a
/// crash-reopen the next statement is acknowledged, and the directory
/// holds every acknowledged row and not the failed ones.
#[test]
fn a_failed_wal_append_leaves_no_trace() {
    let dir = tmp_dir("append-err");
    let log = Log::default();
    let session = open(&dir, Mode::Grouped, SyncMode::Always);
    install(&session, &log);
    let vid = |i: usize| format!("v{i}");
    let insert = |i: usize| format!("INSERT INTO vendor VALUES ('{}', 'P9', 1.0)", vid(i));
    for i in 0..3 {
        session.execute(&insert(i)).expect("acknowledged");
    }
    let blocker = next_wal_segment(&dir);
    fail_a_checkpoint_at(&session, &blocker);

    let (in_memory, snapshot) = (memory(&session), dump(&session));
    let err = session.execute(&insert(3)).expect_err("refused");
    assert!(err.to_string().contains("open wal segment"), "{err}");
    assert_eq!(memory(&session), in_memory, "memory");
    assert_eq!(dump(&session), snapshot, "snapshot");
    let copy = tmp_dir("append-err-copy");
    copy_tree(&dir, &copy, &blocker);
    let reopened = open(&copy, Mode::Grouped, SyncMode::Always);
    assert_eq!(dump(&reopened), snapshot, "reopened copy");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&copy);

    std::fs::remove_dir(&blocker).expect("free the path");
    session
        .execute(&insert(4))
        .expect_err("refused until reopen");
    drop(session); // crash: no close, no final checkpoint
    let session = open(&dir, Mode::Grouped, SyncMode::Always);
    arm(&session, &log);
    session
        .execute(&insert(5))
        .expect("acknowledged after reopen");
    drop(session); // crash again
    let session = open(&dir, Mode::Grouped, SyncMode::Always);
    let recovered: Vec<String> = (memory(&session).pop().expect("vendor").1)
        .iter()
        .filter(|row| row[1] == Value::str("P9"))
        .map(|row| row[0].to_string())
        .collect();
    let expected: Vec<String> = [0, 1, 2, 5].into_iter().map(vid).collect();
    assert_eq!(
        recovered, expected,
        "acknowledged rows, not the failed ones"
    );
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A global write whose checkpoint fails returns `Err`, and the log then
/// refuses every later write until a reopen. Were a later `INSERT`
/// acknowledged, it would land in a segment the published catalog no
/// longer replays (the checkpoint failed at the segment it would start),
/// or name a table the catalog on disk does not have (it failed at
/// `catalog.tmp`), and a reopen would lose it or not open at all. Once
/// the path is free, a crash-reopen holds every row acknowledged before
/// the failed checkpoint and none after, and writes are acknowledged
/// again. The failed `CREATE TABLE` itself has an unknown outcome: if
/// `extra` comes back, it is empty.
#[test]
fn a_failed_checkpoint_refuses_every_later_write() {
    type Blocked = fn(&Path) -> PathBuf;
    let arms: [(&str, Blocked); 2] = [
        ("next wal segment", next_wal_segment),
        ("catalog.tmp", |dir| dir.join("catalog.tmp")),
    ];
    for (arm_name, blocked) in arms {
        let dir = tmp_dir("checkpoint-err");
        let log = Log::default();
        let session = open(&dir, Mode::Grouped, SyncMode::Always);
        install(&session, &log);
        session
            .execute("INSERT INTO vendor VALUES ('Newegg', 'P1', 90.0)")
            .expect("acknowledged before the failed checkpoint");
        let acknowledged = rows(&session);
        let blocker = blocked(&dir);
        fail_a_checkpoint_at(&session, &blocker);

        let (in_memory, snapshot) = (memory(&session), dump(&session));
        for insert in [
            "INSERT INTO vendor VALUES ('Walmart', 'P2', 1.0)",
            "INSERT INTO extra VALUES (1)",
        ] {
            let err = session.execute(insert).expect_err(arm_name);
            assert!(err.to_string().contains("refuses"), "{arm_name}: {err}");
        }
        assert_eq!(memory(&session), in_memory, "{arm_name}: memory");
        assert_eq!(dump(&session), snapshot, "{arm_name}: snapshot");

        std::fs::remove_dir(&blocker).expect("free the path");
        drop(session); // crash: no close, no final checkpoint
        let session = open(&dir, Mode::Grouped, SyncMode::Always);
        assert_eq!(rows(&session), acknowledged, "{arm_name}: recovered rows");
        if let Ok(StatementResult::Rows { rows, .. }) = session.execute("SELECT * FROM extra") {
            assert!(rows.is_empty(), "{arm_name}: a refused row came back");
        }
        arm(&session, &log);
        session
            .execute("INSERT INTO vendor VALUES ('Walmart', 'P2', 1.0)")
            .expect("acknowledged after reopen");
        let acknowledged = rows(&session);
        drop(session); // crash again
        let session = open(&dir, Mode::Grouped, SyncMode::Always);
        assert_eq!(rows(&session), acknowledged, "{arm_name}: after reopen");
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `STATS` through the front door: sorted counter rows, including the
/// storage counters — and, with `SyncMode::Always`, proof that commits
/// actually fsync.
#[test]
fn stats_statement_reports_storage_counters() {
    let dir = tmp_dir("stats");
    let log = Log::default();
    let session = open(&dir, Mode::Grouped, SyncMode::Always);
    install(&session, &log);
    session
        .execute("UPDATE vendor SET price = 75.0 WHERE vid = 'Amazon' AND pid = 'P1'")
        .expect("update");

    let StatementResult::Rows { columns, rows } = session.execute("STATS").expect("stats") else {
        panic!("STATS must return rows");
    };
    assert_eq!(columns, ["counter", "value"]);
    let names: Vec<String> = rows
        .iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.to_string(),
            other => panic!("counter name must be a string, got {other:?}"),
        })
        .collect();
    assert!(
        names.windows(2).all(|w| w[0] < w[1]),
        "counters must be sorted: {names:?}"
    );
    let get = |name: &str| -> i64 {
        let i = names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("missing counter `{name}` in {names:?}"));
        match rows[i][1] {
            Value::Int(v) => v,
            ref other => panic!("counter value must be an int, got {other:?}"),
        }
    };
    assert!(get("statements") > 0);
    assert!(get("triggers_fired") > 0);
    assert!(get("checkpoints") > 0, "DDL commits checkpoint");
    assert!(
        get("wal_bytes_written") > 0,
        "latched DML commits to the WAL"
    );
    assert!(get("wal_fsyncs") > 0, "SyncMode::Always must fsync commits");
    assert!(
        get("group_commit_batches") > 0,
        "every durable commit rides some fsync batch"
    );
    assert!(
        get("latch_exclusive_acquisitions") > 0,
        "latched DML takes its write set exclusive"
    );
    assert!(
        get("latch_shared_acquisitions") > 0,
        "the trigger cascade latches its read set shared"
    );
    session.close().expect("close");

    // Reopen: recovery time is measured and surfaced.
    let session = open(&dir, Mode::Grouped, SyncMode::Always);
    let StatementResult::Rows { rows, .. } = session.execute("STATS").expect("stats") else {
        panic!("STATS must return rows");
    };
    assert!(
        rows.iter().any(|r| r[0] == Value::str("recovery_ms")),
        "recovery_ms must be reported"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The log is bounded without any global write: the latched write that
/// takes the live WAL segment to `CHECKPOINT_LOG_BYTES` checkpoints after
/// it commits, and a crash-reopen still holds the last acknowledged
/// write.
#[test]
fn a_full_log_checkpoints_without_a_global_write() {
    const PAYLOAD: usize = 1 << 20;
    let dir = tmp_dir("log-bound");
    let session =
        Session::new(Quark::open_with(&dir, Mode::Grouped, SyncMode::Never).expect("open"));
    for s in [
        "CREATE TABLE doc (id INT PRIMARY KEY, body TEXT)",
        "INSERT INTO doc VALUES (0, '')",
    ] {
        session.execute(s).expect("setup");
    }
    let checkpoints = |s: &Session| s.quark().stats().checkpoints;
    let before = checkpoints(&session);
    let mut body = String::new();
    for i in 0..CHECKPOINT_LOG_BYTES as usize / PAYLOAD + 12 {
        body = format!("{i:08}").repeat(PAYLOAD / 8);
        session
            .execute(&format!("UPDATE doc SET body = '{body}' WHERE id = 0"))
            .expect("update");
    }
    assert!(
        checkpoints(&session) > before,
        "a full log checkpoints with no global write"
    );
    let segment = session
        .quark()
        .storage()
        .expect("durable")
        .wal_segment_bytes();
    assert!(segment < CHECKPOINT_LOG_BYTES, "live segment: {segment} B");
    drop(session); // crash: no close, no final checkpoint

    let session =
        Session::new(Quark::open_with(&dir, Mode::Grouped, SyncMode::Never).expect("reopen"));
    let StatementResult::Rows { rows, .. } = session
        .execute("SELECT body FROM doc WHERE id = 0")
        .expect("select")
    else {
        panic!("expected rows");
    };
    assert!(rows[0][0] == Value::str(&body), "the last write survives");
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A table dropped and re-created with the same schema is a new table:
/// changed as often as its predecessor was, it has the same version, yet
/// the checkpoint that acknowledges it must write its rows, not keep the
/// predecessor's image. A reopen holds the new rows only.
#[test]
fn a_recreated_table_reopens_with_its_own_rows() {
    let dir = tmp_dir("recreate");
    let session =
        Session::new(Quark::open_with(&dir, Mode::Grouped, SyncMode::Never).expect("open"));
    session
        .execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        .expect("create");
    let fill = |db: &Database, ids: [i64; 2], v: &str| {
        for id in ids {
            db.insert("t", vec![vec![Value::Int(id), Value::str(v)]])
                .expect("insert");
        }
    };
    fill(&session.database_mut(), [1, 2], "old"); // the guard checkpoints
    {
        let mut db = session.database_mut();
        let schema = db.table("t").expect("t").schema().clone();
        db.drop_table("t").expect("drop");
        db.create_table(schema).expect("re-create");
        fill(&db, [7, 8], "new");
    }
    session.close().expect("close");

    let session =
        Session::new(Quark::open_with(&dir, Mode::Grouped, SyncMode::Never).expect("reopen"));
    let StatementResult::Rows { rows, .. } = session.execute("SELECT * FROM t").expect("select")
    else {
        panic!("expected rows");
    };
    let rows: Vec<Vec<Value>> = rows.iter().map(|r| r.to_vec()).collect();
    let new = |id| vec![Value::Int(id), Value::str("new")];
    assert_eq!(rows, [new(7), new(8)], "the dropped rows came back");
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `DROP TABLE` of a table a view or a trigger group reads is refused
/// before anything changes, naming the view (or, for a constants table,
/// the trigger): the table keeps its rows, `DROP TRIGGER` still works, and
/// a durable directory reopens with the remaining trigger armed.
#[test]
fn drop_table_under_a_view_or_trigger_is_refused() {
    for durable in [false, true] {
        let dir = tmp_dir("drop-table");
        let log = Log::default();
        let session = if durable {
            open(&dir, Mode::Grouped, SyncMode::Never)
        } else {
            quark_xquery::session(Database::new(), Mode::Grouped)
        };
        install(&session, &log);
        let vendors = |s: &Session| s.execute("SELECT * FROM vendor").expect("select");
        let before = vendors(&session);
        let err = session
            .execute("DROP TABLE vendor")
            .expect_err("the catalog view reads vendor");
        assert!(
            err.to_string().contains("view `catalog`"),
            "{durable}: {err}"
        );
        assert_eq!(
            vendors(&session),
            before,
            "{durable}: vendor keeps its rows"
        );

        let StatementResult::Explain(text) = session.execute("EXPLAIN TRIGGER NotifyP1").unwrap()
        else {
            panic!("expected Explain");
        };
        let constants = text
            .split("in table `")
            .nth(1)
            .and_then(|rest| rest.split('`').next())
            .expect("NotifyP1 has a constants table");
        let err = session
            .execute(&format!("DROP TABLE {constants}"))
            .expect_err("NotifyP1's group reads its constants table");
        assert!(err.to_string().contains("trigger `NotifyP1`"), "{err}");

        assert_eq!(
            session
                .execute("DROP TRIGGER NotifyGone")
                .expect("drop trigger"),
            StatementResult::Dropped {
                kind: ObjectKind::Trigger,
                name: "NotifyGone".into(),
            }
        );
        let session = if durable {
            session.close().expect("close");
            let session = open(&dir, Mode::Grouped, SyncMode::Never);
            arm(&session, &log);
            session
        } else {
            session
        };
        session
            .execute("UPDATE vendor SET price = 75.0 WHERE vid = 'Amazon' AND pid = 'P1'")
            .expect("update");
        let fired: Vec<String> = firings(&log).into_iter().map(|(t, _)| t).collect();
        assert_eq!(
            fired,
            ["NotifyP1"],
            "{durable}: the remaining trigger fires"
        );
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The engine's own tables are closed to user statements. A `CREATE TABLE`
/// that would take the first constants table's name is refused, so the
/// grouped `NotifyP1` still gets it. A `DELETE`, `INSERT`, `UPDATE` or
/// `CREATE INDEX` on that table is refused, naming it, before anything
/// changes: `SELECT` still reads its one row, and the durable directory
/// reopens with both triggers firing.
#[test]
fn statements_on_reserved_tables_are_refused() {
    let dir = tmp_dir("reserved");
    let log = Log::default();
    let session = open(&dir, Mode::Grouped, SyncMode::Never);
    let refused = |session: &Session, stmt: &str| {
        let err = session.execute(stmt).expect_err(stmt);
        assert!(
            err.to_string()
                .contains("table `__quark_const_0` is reserved"),
            "{stmt}: {err}"
        );
    };
    refused(&session, "CREATE TABLE __quark_const_0 (x INT PRIMARY KEY)");
    install(&session, &log);
    let constants = |s: &Session| s.execute("SELECT * FROM __quark_const_0").expect("select");
    let before = constants(&session);
    let StatementResult::Rows { rows, .. } = &before else {
        panic!("expected rows");
    };
    assert_eq!(rows.len(), 1, "NotifyP1's constants set");
    for stmt in [
        "DELETE FROM __quark_const_0 WHERE set_id = 0",
        "INSERT INTO __quark_const_0 VALUES (7, 'zzz')",
        "UPDATE __quark_const_0 SET c0 = 'zzz'",
        "CREATE INDEX ON __quark_const_0 (c0)",
    ] {
        refused(&session, stmt);
    }
    assert_eq!(constants(&session), before);

    session.close().expect("close");
    let session = open(&dir, Mode::Grouped, SyncMode::Never);
    arm(&session, &log);
    assert_eq!(constants(&session), before);
    for stmt in [
        "UPDATE vendor SET price = 75.0 WHERE vid = 'Amazon' AND pid = 'P1'",
        "DELETE FROM vendor WHERE vid = 'Bestbuy' AND pid = 'P1'",
    ] {
        session.execute(stmt).expect(stmt);
    }
    let fired: Vec<String> = firings(&log).into_iter().map(|(t, _)| t).collect();
    assert_eq!(fired, ["NotifyGone", "NotifyP1"], "both triggers fire");
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The benchmark's chain schema of `depth` levels: `t0(id, name, price)`
/// and `ti(id, parent, name, price)` below it.
fn create_chain_tables(session: &Session, depth: usize) {
    for i in 0..depth {
        let parent = if i > 0 { "parent INT, " } else { "" };
        session
            .execute(&format!(
                "CREATE TABLE t{i} (id INT PRIMARY KEY, {parent}name TEXT, price DOUBLE)"
            ))
            .expect("create table");
    }
}

/// The benchmark's depth-3 chain schema and view (`chain_view_spec(3)`,
/// whose leaf group-by GROUPED-AGG compensates), the `notify` action and
/// one trigger on it.
fn install_chain(session: &Session) {
    create_chain_tables(session, 3);
    let view = quark_bench::chain_view_spec(3)
        .build(&session.database())
        .expect("chain view");
    session.quark_mut().register_view(view);
    arm(session, &Log::default());
    session
        .execute(
            "CREATE TRIGGER first AFTER Update ON view('bench')/e0 \
             WHERE OLD_NODE/@name = 'name_0_0' DO notify(NEW_NODE)",
        )
        .expect("first trigger");
}

/// A trigger of a shape `install_chain`'s does not share, so it forms a
/// new group, and its `EXPLAIN TRIGGER` text.
fn new_shape_explain(session: &Session) -> String {
    session
        .execute(
            "CREATE TRIGGER second AFTER Update ON view('bench')/e0 \
             WHERE NEW_NODE/@name = 'name_0_1' DO notify(NEW_NODE)",
        )
        .expect("second trigger");
    let StatementResult::Explain(text) =
        session.execute("EXPLAIN TRIGGER second").expect("explain")
    else {
        panic!("expected explain text");
    };
    text
}

/// `decode_core` normalizes every persisted path graph again, as
/// validation, and keeps the persisted `node_col`/`attr_cols`: normalizing
/// a normalized graph must append no column. It gives back the same arena
/// and root, so the derived key is the same too. Checked on the catalog
/// fixture and on every anchor of the benchmark's chain views, depths 2–7.
#[test]
fn normalizing_a_persisted_path_graph_again_changes_nothing() {
    let unchanged = |pg: &PathGraph, db: &Database, what: &str| {
        let (graph, root) = normalize(&pg.graph, pg.root, db).expect("normalize");
        assert!(graph == pg.graph, "{what}: the arena changed");
        assert_eq!(root, pg.root, "{what}");
        let key = graph.key(root, db).expect("key");
        assert_eq!(key, pg.key(db).expect("key"), "{what}");
        assert!(!key.is_empty(), "{what}");
    };
    let db = product_vendor_db();
    unchanged(&common::catalog_path(&db), &db, "catalog");
    for depth in 2..=7 {
        let session = quark_xquery::session(Database::new(), Mode::Grouped);
        create_chain_tables(&session, depth);
        let db = session.database();
        let view = quark_bench::chain_view_spec(depth)
            .build(&db)
            .expect("chain view");
        for (anchor, pg) in &view.anchors {
            unchanged(pg, &db, &format!("depth {depth}, anchor {anchor}"));
        }
    }
}

/// The persisted mode alone decides how a group created after a reopen
/// is translated: a GROUPED-AGG directory reopened with `Mode::Grouped`
/// translates a new group exactly as a GROUPED-AGG system that never
/// closed, old-aggregate compensation included.
#[test]
fn a_new_group_after_reopen_translates_under_the_persisted_mode() {
    let twin = |mode| {
        let session = quark_xquery::session(Database::new(), mode);
        install_chain(&session);
        new_shape_explain(&session)
    };
    let (agg, grouped) = (twin(Mode::GroupedAgg), twin(Mode::Grouped));
    assert_ne!(agg, grouped, "GROUPED-AGG must compensate this plan");

    let dir = tmp_dir("persisted-mode");
    let session = open(&dir, Mode::GroupedAgg, SyncMode::Never);
    install_chain(&session);
    session.close().expect("close");

    let session = open(&dir, Mode::Grouped, SyncMode::Never);
    assert_eq!(session.quark().mode(), Mode::GroupedAgg);
    arm(&session, &Log::default());
    assert_eq!(new_shape_explain(&session), agg);
    assert_eq!(session.quark().translations(), 1, "one new group");
    session.close().expect("close");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Group commit at the session layer: concurrent `SyncMode::Always`
/// writers on disjoint tables have their WAL frames coalesced into
/// shared fsyncs — strictly fewer fsyncs than committed statements — and
/// every acknowledged statement still survives a crash. The `Always`
/// contract is untouched (no ack before its frame is durable);
/// only the fsync *count* changes.
#[test]
fn concurrent_always_writers_share_fsyncs_and_recover() {
    const WRITERS: usize = 4;
    const STATEMENTS: usize = 50;
    let dir = tmp_dir("group-commit");
    {
        let session = open(&dir, Mode::Grouped, SyncMode::Always);
        for t in 0..WRITERS {
            session
                .execute(&format!(
                    "CREATE TABLE gc{t} (id INT PRIMARY KEY, payload TEXT)"
                ))
                .expect("create shard table");
        }
        let fsyncs_before = session.quark().stats().wal_fsyncs;
        let pool = SessionPool::new(session);
        let barrier = Arc::new(Barrier::new(WRITERS));
        let threads: Vec<_> = (0..WRITERS)
            .map(|t| {
                let session = pool.session();
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    for i in 0..STATEMENTS {
                        session
                            .execute(&format!("INSERT INTO gc{t} VALUES ({i}, 'p{i}')"))
                            .expect("durable insert");
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().expect("writer thread");
        }
        let session = pool.session();
        let stats = session.quark().stats();
        let committed = (WRITERS * STATEMENTS) as u64;
        assert!(
            stats.wal_fsyncs - fsyncs_before < committed,
            "group commit must coalesce: {} fsyncs for {committed} commits",
            stats.wal_fsyncs - fsyncs_before
        );
        assert!(
            stats.group_commit_batches >= 1,
            "at least one commit batch must be recorded: {stats:?}"
        );
        assert!(
            stats.group_commit_batches <= stats.wal_fsyncs,
            "every batch costs exactly one fsync: {stats:?}"
        );
        // Crash: drop every handle without `close()`.
    }

    // Recovery: every acknowledged statement is on disk.
    let session = open(&dir, Mode::Grouped, SyncMode::Always);
    for t in 0..WRITERS {
        let StatementResult::Rows { rows, .. } = session
            .execute(&format!("SELECT id FROM gc{t}"))
            .expect("select after recovery")
        else {
            panic!("expected rows");
        };
        assert_eq!(
            rows.len(),
            STATEMENTS,
            "table gc{t} lost acknowledged inserts across the crash"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- randomized recovery at every statement boundary --------------------

const VIDS: [&str; 3] = ["Amazon", "Bestbuy", "Buy.com"];
const PIDS: [&str; 3] = ["P1", "P2", "P3"];
const NAMES: [&str; 4] = ["CRT 15", "LCD 19", "OLED 42", "Plasma 50"];

/// A randomized, always-applicable operation (a subset of the
/// differential-oracle alphabet).
#[derive(Debug, Clone)]
enum Op {
    /// Set vendor (vid, pid) to price — insert or update as needed.
    SetVendor(usize, usize, u32),
    /// Remove vendor (vid, pid) if present.
    DropVendor(usize, usize),
    /// Rename product pid (cycling through a name pool).
    Rename(usize, usize),
    /// Reprice watch row id: the opaque shape (see [`WATCH_SETUP`]).
    Watch(usize, u32),
    /// Give watch row id a price above 1 000, which its raw `audit`
    /// trigger refuses: the statement fails (see [`arm_audit`]).
    Fail(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..3usize, 0..3usize, 1..400u32).prop_map(|(v, p, c)| Op::SetVendor(v, p, c)),
        (0..3usize, 0..3usize).prop_map(|(v, p)| Op::DropVendor(v, p)),
        (0..3usize, 0..4usize).prop_map(|(p, n)| Op::Rename(p, n)),
        (0..3usize, 1..400u32).prop_map(|(id, c)| Op::Watch(id, c)),
        (0..3usize).prop_map(Op::Fail),
    ]
}

/// Render an op as one SQL statement, decided against the current oracle
/// state (identical to the durable session's state at this point).
fn statement_for(db: &Database, op: &Op) -> String {
    match op {
        Op::SetVendor(v, p, cents) => {
            let (vid, pid) = (VIDS[*v], PIDS[*p]);
            let price = *cents as f64 / 2.0;
            let key = [Value::str(vid), Value::str(pid)];
            if db.table("vendor").expect("vendor").get(&key).is_some() {
                format!(
                    "UPDATE vendor SET price = {price:?} \
                     WHERE vid = '{vid}' AND pid = '{pid}'"
                )
            } else {
                format!("INSERT INTO vendor VALUES ('{vid}', '{pid}', {price:?})")
            }
        }
        Op::DropVendor(v, p) => format!(
            "DELETE FROM vendor WHERE vid = '{}' AND pid = '{}'",
            VIDS[*v], PIDS[*p]
        ),
        Op::Rename(p, n) => format!(
            "UPDATE product SET pname = '{}' WHERE pid = '{}'",
            NAMES[*n], PIDS[*p]
        ),
        Op::Watch(id, cents) => format!(
            "UPDATE watch SET price = {:?} WHERE id = {id}",
            *cents as f64 / 2.0
        ),
        Op::Fail(id) => format!("UPDATE watch SET price = 9999.0 WHERE id = {id}"),
    }
}

proptest! {
    // Deterministic in CI; sweep PROPTEST_SEED manually for wider hunts.
    // Nightly raises the case count through PROPTEST_CASES.
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES").ok().and_then(|c| c.parse().ok()).unwrap_or(6),
        rng_seed: Some(0x1cde_2005_0007),
        ..ProptestConfig::default()
    })]

    /// Crash-and-recover after **every** statement of a random stream, in
    /// every translation mode: each recovered prefix is differentially
    /// identical to the in-memory oracle, firings included, and the
    /// recovered session keeps executing the rest of the stream. A
    /// statement whose cascade fails errs on both sides and changes
    /// neither.
    #[test]
    fn recovery_lands_on_every_statement_boundary(
        ops in proptest::collection::vec(op_strategy(), 1..7)
    ) {
        for mode in all_modes() {
            let dir = tmp_dir("prop");
            let oracle = quark_xquery::session(Database::new(), mode);
            let oracle_log = Log::default();
            install(&oracle, &oracle_log);
            install_watch(&oracle);

            let mut log = Log::default();
            let mut session = open(&dir, mode, SyncMode::Never);
            install(&session, &log);
            install_watch(&session);

            for op in &ops {
                let stmt = statement_for(&oracle.database(), op);
                let watched = dump_watch(&oracle);
                let a = session.execute(&stmt).map_err(|e| e.to_string());
                let b = oracle.execute(&stmt).map_err(|e| e.to_string());
                prop_assert_eq!(&a, &b, "{:?}: result mismatch on `{}`", mode, &stmt);
                prop_assert_eq!(a.is_err(), matches!(op, Op::Fail(_)), "{:?}: `{}`", mode, &stmt);
                if a.is_err() {
                    prop_assert_eq!(dump_watch(&oracle), watched, "{:?}: `{}` left a trace", mode, &stmt);
                }
                prop_assert_eq!(firings(&log), firings(&oracle_log),
                    "{:?}: firings diverge on `{}`", mode, &stmt);

                // Crash here and recover: this boundary must be durable
                // (no fsync needed for an in-process crash — the bytes
                // reached the OS).
                drop(session);
                session = open(&dir, mode, SyncMode::Never);
                prop_assert_eq!(session.quark().translations(), 0);
                log = Log::default();
                arm(&session, &log);
                arm_audit(&session);
                prop_assert_eq!(dump(&session), dump(&oracle),
                    "{:?}: recovered prefix differs after `{}`", mode, &stmt);
                prop_assert_eq!(dump_watch(&session), dump_watch(&oracle),
                    "{:?}: recovered audit trail differs after `{}`", mode, &stmt);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
