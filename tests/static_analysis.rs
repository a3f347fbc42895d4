//! `ANALYZE TRIGGERS` end to end: footprint soundness over the bench
//! corpora, cascade-termination classification, commutativity reporting,
//! the `write_footprint` degradation edge cases counter-asserted by the
//! analyzer's independent recomputation — and the dual-catch guarantee
//! that an under-declared footprint is caught by the static pass *and*
//! refused at run time.

use std::sync::Arc;

use quark_bench::{build, build_sharded, build_shared_read, ShardSpec, WorkloadSpec};
use quark_core::relational::{Error, Event, SqlTrigger, Value};
use quark_core::{AnalysisReport, Footprint, Mode, Session, StatementError, StatementResult};
use quark_xquery::viewtree::{LevelSpec, TopBinding, ViewSpec};

/// Run `ANALYZE TRIGGERS` through the statement surface.
fn analyze(session: &Session) -> AnalysisReport {
    let StatementResult::Analysis(report) = session
        .execute("ANALYZE TRIGGERS")
        .expect("ANALYZE TRIGGERS executes")
    else {
        panic!("expected an Analysis result")
    };
    report
}

/// A single-level `item` view named `view` over `table`.
fn flat_view(view: &str, table: &str) -> ViewSpec {
    ViewSpec {
        name: view.into(),
        root_element: "doc".into(),
        binding: TopBinding::Rows,
        top: LevelSpec {
            element: "item".into(),
            table: table.into(),
            parent_fk: None,
            attrs: vec![("name".into(), "name".into())],
            scalars: vec![("*".into(), "*".into())],
            child_count: None,
            child: None,
        },
    }
}

fn register_flat_view(session: &Session, view: &str, table: &str) {
    let spec = flat_view(view, table);
    let xml_view = spec.build(&session.database()).expect("view builds");
    session.quark_mut().register_view(xml_view);
}

fn create_table(session: &Session, table: &str) {
    session
        .execute(&format!(
            "CREATE TABLE {table} (id INT PRIMARY KEY, name TEXT, price DOUBLE)"
        ))
        .expect("create table");
    session
        .database_mut()
        .load(
            table,
            (0..4)
                .map(|k| {
                    vec![
                        Value::Int(k),
                        Value::str(format!("{table}_{k}")),
                        Value::Double(1.0),
                    ]
                })
                .collect(),
        )
        .expect("load rows");
}

// ---------------------------------------------------------------------
// The CI soundness gate: every bench corpus must analyze clean.
// ---------------------------------------------------------------------

/// The hierarchy corpus: one grouped trigger program whose action writes a
/// trigger-free temp table. Zero soundness errors, no cycles, and the
/// single group pairs with nothing.
#[test]
fn hierarchy_corpus_analyzes_clean() {
    let workload = build(WorkloadSpec::quick(Mode::Grouped)).expect("bench workload");
    let report = analyze(&workload.session);
    assert_eq!(report.errors, 0, "soundness errors:\n{}", report.text);
    assert_eq!(report.groups, 1, "{}", report.text);
    assert_eq!(
        report.cycles_bounded + report.cycles_unbounded,
        0,
        "{}",
        report.text
    );
    assert!(report.text.contains("__temp"), "{}", report.text);
}

/// The disjoint-shard corpus: every shard group must commute with every
/// other — the analyzer's static counterpart of the parallel-writers
/// differential suite.
#[test]
fn sharded_corpus_analyzes_clean_and_fully_commutes() {
    const SHARDS: usize = 3;
    let workload = build_sharded(ShardSpec::quick(SHARDS, Mode::Grouped)).expect("sharded");
    let report = analyze(&workload.session);
    assert_eq!(report.errors, 0, "soundness errors:\n{}", report.text);
    assert_eq!(report.groups, SHARDS as u64, "{}", report.text);
    assert_eq!(
        report.cycles_bounded + report.cycles_unbounded,
        0,
        "{}",
        report.text
    );
    let pairs = (SHARDS * (SHARDS - 1) / 2) as u64;
    assert_eq!(report.commuting_pairs, pairs, "{}", report.text);
    assert_eq!(report.conflicting_pairs, 0, "{}", report.text);
}

/// The shared-read corpus: shards overlap on the `hub` table, so they do
/// not all commute, but the footprints must still be exactly sound.
#[test]
fn shared_read_corpus_analyzes_clean() {
    let workload = build_shared_read(ShardSpec::quick(3, Mode::Grouped)).expect("shared read");
    let report = analyze(&workload.session);
    assert_eq!(report.errors, 0, "soundness errors:\n{}", report.text);
    assert_eq!(report.groups, 3, "{}", report.text);
    assert_eq!(
        report.cycles_bounded + report.cycles_unbounded,
        0,
        "{}",
        report.text
    );
    assert!(report.text.contains("hub"), "{}", report.text);
}

/// The full `ANALYZE TRIGGERS` rendering of the shared-read corpus, pinned
/// byte for byte: group facts, the clean pass-1 line, the acyclic pass-2
/// line and the three `hub` write/write conflicts of pass 3.
#[test]
fn shared_read_corpus_report_text_is_pinned() {
    let workload = build_shared_read(ShardSpec::quick(3, Mode::Grouped)).expect("shared read");
    assert_eq!(
        analyze(&workload.session).text,
        r#"trigger program analysis: 3 group(s)
  group sr0_t0+sr0_t1+6more: triggers on {"hub", "m0"}, reads {"__quark_const_0", "hub", "m0"}, writes {"audit0"}
  group sr1_t0+sr1_t1+6more: triggers on {"hub", "m1"}, reads {"__quark_const_1", "hub", "m1"}, writes {"audit1"}
  group sr2_t0+sr2_t1+6more: triggers on {"hub", "m2"}, reads {"__quark_const_2", "hub", "m2"}, writes {"audit2"}
[1] footprint soundness: 0 error(s), 0 warning(s)
  every latched footprint covers its compiled plans
[2] cascade termination: 0 cycle(s)
  the trigger dependency graph is acyclic
[3] commutativity: 0 of 3 pair(s) commute
  sr0_t0+sr0_t1+6more >< sr1_t0+sr1_t1+6more: write/write overlap on ["hub"]
  sr0_t0+sr0_t1+6more >< sr2_t0+sr2_t1+6more: write/write overlap on ["hub"]
  sr1_t0+sr1_t1+6more >< sr2_t0+sr2_t1+6more: write/write overlap on ["hub"]
"#
    );
}

/// `Quark::write_footprint` of every trigger-bearing table of the three
/// bench corpora, against the values recorded before the scheduler, `EXPLAIN`
/// and `ANALYZE` were moved onto one cascade closure.
#[test]
fn bench_corpora_write_footprints_are_pinned() {
    fn footprints(session: &Session) -> Vec<(String, Footprint)> {
        let mut tables: Vec<String> = session
            .database()
            .triggers()
            .map(|t| t.table.clone())
            .collect();
        tables.sort();
        tables.dedup();
        let quark = session.quark();
        tables
            .into_iter()
            .map(|t| {
                let fp = quark.write_footprint(&t);
                (t, fp)
            })
            .collect()
    }
    fn tables(target: &str, write: &[&str], read: &[&str]) -> (String, Footprint) {
        let set = |names: &[&str]| names.iter().map(|t| t.to_string()).collect();
        let (write, read) = (set(write), set(read));
        (target.to_string(), Footprint::Tables { write, read })
    }
    let hierarchy = build(WorkloadSpec::quick(Mode::Grouped)).expect("bench workload");
    assert_eq!(
        footprints(&hierarchy.session),
        [
            tables("t0", &["__temp", "t0"], &["__quark_const_0", "t1"]),
            tables("t1", &["__temp", "t1"], &["__quark_const_0", "t0"]),
        ]
    );
    let sharded = build_sharded(ShardSpec::quick(3, Mode::Grouped)).expect("sharded");
    assert_eq!(
        footprints(&sharded.session),
        [
            tables("m0", &["audit0", "m0"], &["__quark_const_0"]),
            tables("m1", &["audit1", "m1"], &["__quark_const_1"]),
            tables("m2", &["audit2", "m2"], &["__quark_const_2"]),
        ]
    );
    let shared = build_shared_read(ShardSpec::quick(3, Mode::Grouped)).expect("shared read");
    assert_eq!(
        footprints(&shared.session),
        [
            tables(
                "hub",
                &["audit0", "audit1", "audit2", "hub"],
                &[
                    "__quark_const_0",
                    "__quark_const_1",
                    "__quark_const_2",
                    "m0",
                    "m1",
                    "m2"
                ]
            ),
            tables("m0", &["audit0", "m0"], &["__quark_const_0", "hub"]),
            tables("m1", &["audit1", "m1"], &["__quark_const_1", "hub"]),
            tables("m2", &["audit2", "m2"], &["__quark_const_2", "hub"]),
        ]
    );
}

/// The `footprint_violations` counter is part of `STATS` and stays zero
/// on a sound program (it only moves when an access outside a latched
/// footprint is refused).
#[test]
fn stats_expose_the_violation_counter() {
    let mut workload = build(WorkloadSpec::quick(Mode::Grouped)).expect("bench workload");
    workload.one_update().expect("update runs");
    let StatementResult::Rows { rows, .. } = workload.session.execute("STATS").expect("stats")
    else {
        panic!("expected rows")
    };
    let row = rows
        .iter()
        .find(|r| r[0] == Value::str("footprint_violations"))
        .expect("counter listed");
    assert_eq!(row[1], Value::Int(0));
}

// ---------------------------------------------------------------------
// `write_footprint` degradation edge cases, counter-asserted by the
// analyzer's independent recomputation.
// ---------------------------------------------------------------------

/// An action registered with `register_action` writes no table: a write
/// that can fire it keeps a bounded footprint — its target exclusive, the
/// group's reads shared — and the analyzer agrees, with no warning.
#[test]
fn default_action_keeps_a_bounded_footprint_and_no_warning() {
    let session = quark_xquery::session(quark_core::relational::Database::new(), Mode::Grouped);
    create_table(&session, "src");
    register_flat_view(&session, "v", "src");
    session.register_action("notify", |_, _| Ok(())).unwrap();
    session
        .execute(
            "create trigger T after update on view('v')/item \
             where OLD_NODE/@name = 'src_0' do notify(NEW_NODE)",
        )
        .unwrap();
    let footprint = session.quark().write_footprint("src");
    let Footprint::Tables { write, .. } = &footprint else {
        panic!("unbounded: {footprint:?}")
    };
    assert_eq!(write, &["src".to_string()].into());
    let report = analyze(&session);
    assert_eq!(report.errors, 0, "{}", report.text);
    assert_eq!(report.warnings, 0, "{}", report.text);
    assert!(report.text.contains("writes {}"), "{}", report.text);
}

/// A raw SQL trigger installed directly on the database is an arbitrary
/// closure: global mode, and the analyzer's statement-level recompute must
/// agree it is opaque (no false "bounded" claim — that would be an error).
#[test]
fn raw_sql_trigger_degrades_to_global_and_analyzer_agrees() {
    let session = quark_xquery::session(quark_core::relational::Database::new(), Mode::Grouped);
    create_table(&session, "src");
    session
        .database_mut()
        .create_raw_trigger(SqlTrigger {
            name: "raw".into(),
            table: "src".into(),
            event: Event::Update,
            body: Arc::new(|_, _| Ok(())),
        })
        .unwrap();
    assert_eq!(session.quark().write_footprint("src"), Footprint::Global);
    let report = analyze(&session);
    assert_eq!(report.errors, 0, "{}", report.text);
}

/// Declared action writes are chased transitively: a trigger on `a_tbl`
/// writing `b_tbl`, whose own trigger writes `c_tbl`, puts all three in
/// the exclusive write set — and the analyzer's independent recomputation
/// finds no disagreement.
#[test]
fn multi_hop_declared_writes_are_chased() {
    let session = quark_xquery::session(quark_core::relational::Database::new(), Mode::Grouped);
    for t in ["a_tbl", "b_tbl", "c_tbl"] {
        create_table(&session, t);
    }
    register_flat_view(&session, "va", "a_tbl");
    register_flat_view(&session, "vb", "b_tbl");
    session
        .register_action_with_writes("write_b", ["b_tbl"], |db, call| {
            let seq = match &call.params[0] {
                Value::Xml(x) => x.element_count() as i64,
                _ => 0,
            };
            db.insert_row(
                "b_tbl",
                vec![
                    Value::Int(100 + seq),
                    Value::str("cascade"),
                    Value::Double(0.0),
                ],
            )
        })
        .unwrap();
    session
        .register_action_with_writes("write_c", ["c_tbl"], |_, _| Ok(()))
        .unwrap();
    session
        .execute(
            "create trigger TA after update on view('va')/item \
             where OLD_NODE/@name = 'a_tbl_0' do write_b(NEW_NODE)",
        )
        .unwrap();
    session
        .execute(
            "create trigger TB after update on view('vb')/item \
             where OLD_NODE/@name = 'b_tbl_0' do write_c(NEW_NODE)",
        )
        .unwrap();
    let Footprint::Tables { write, read } = session.quark().write_footprint("a_tbl") else {
        panic!("multi-hop declared chain must stay bounded")
    };
    for t in ["a_tbl", "b_tbl", "c_tbl"] {
        assert!(write.contains(t), "write set {write:?} misses {t}");
    }
    assert!(
        read.is_disjoint(&write),
        "read {read:?} overlaps write {write:?}"
    );
    let report = analyze(&session);
    assert_eq!(report.errors, 0, "{}", report.text);
}

// ---------------------------------------------------------------------
// Cascade termination classification.
// ---------------------------------------------------------------------

/// A trigger whose action writes its own source table can re-fire itself:
/// the analyzer must classify the self-loop as potentially
/// non-terminating (only the runtime cascade depth cap bounds it).
#[test]
fn self_feeding_trigger_is_classified_unbounded() {
    let session = quark_xquery::session(quark_core::relational::Database::new(), Mode::Grouped);
    create_table(&session, "looped");
    register_flat_view(&session, "vl", "looped");
    session
        .register_action_with_writes("feed", ["looped"], |_, _| Ok(()))
        .unwrap();
    session
        .execute(
            "create trigger L after update on view('vl')/item \
             where OLD_NODE/@name = 'looped_0' do feed(NEW_NODE)",
        )
        .unwrap();
    let report = analyze(&session);
    assert_eq!(report.errors, 0, "{}", report.text);
    assert_eq!(report.cycles_unbounded, 1, "{}", report.text);
    assert_eq!(report.cycles_bounded, 0, "{}", report.text);
    // The whole rendering, pinned byte for byte.
    assert_eq!(
        report.text,
        r#"trigger program analysis: 1 group(s)
  group L: triggers on {"looped"}, reads {"__quark_const_0", "looped"}, writes {"looped"}
[1] footprint soundness: 0 error(s), 0 warning(s)
  every latched footprint covers its compiled plans
[2] cascade termination: 1 cycle(s)
  POTENTIALLY NON-TERMINATING [L]: writes reach tables bearing cycle members' triggers; only the runtime cascade depth cap bounds re-firing
[3] commutativity: 0 of 0 pair(s) commute
"#
    );
}

// ---------------------------------------------------------------------
// The dual-catch guarantee.
// ---------------------------------------------------------------------

/// A shared-read fixture (one shard): the group's plans read `hub`, so the
/// recorded footprint must latch it.
fn shared_read_fixture() -> Session {
    build_shared_read(ShardSpec::quick(1, Mode::Grouped))
        .expect("shared-read workload")
        .session
}

/// An intentionally under-declared footprint — `hub` removed from the
/// recorded group footprint behind the latch analysis — must be caught by
/// the **static** pass: the analyzer recomputes the truth from the
/// compiled plans, not from the recording.
#[test]
fn tampered_footprint_is_caught_statically() {
    let session = shared_read_fixture();
    assert_eq!(analyze(&session).errors, 0, "fixture must start sound");
    assert!(
        session
            .quark_mut()
            .tamper_footprint_for_test("sr0_t0", "hub"),
        "tamper hook must find `hub` in the recorded footprint"
    );
    let report = analyze(&session);
    assert!(report.errors >= 1, "{}", report.text);
    // Both halves of pass 1 name the missing table: the per-group check
    // (recorded footprint vs plan walk) and the per-statement check (what
    // a write to `m0` would latch vs what its cascade can read). A write
    // to `hub` itself latches it exclusive, so it stays covered.
    assert!(
        report.text.contains(
            r#"[1] footprint soundness: 2 error(s), 0 warning(s)
  ERROR group sr0_t0+sr0_t1+6more: compiled plans can read ["hub"] but the recorded footprint does not latch them
  ERROR writes to `m0`: cascade can read ["hub"] but they are not latched
[2]"#
        ),
        "{}",
        report.text
    );
}

/// `err` is the refusal of an access to `table` outside the latched
/// footprint, a write if `write`.
fn is_outside_footprint(err: &StatementError, table: &str, write: bool) -> bool {
    matches!(err, StatementError::Db(Error::OutsideFootprint { table: t, write: w })
        if t == table && *w == write)
}

/// The same under-declared footprint must also be caught at **run time**:
/// executing a write that fires the group makes the cascade read `hub`
/// outside the latched scope, which is refused, fails the statement and
/// bumps `footprint_violations`.
#[test]
fn tampered_footprint_is_caught_by_the_runtime_oracle() {
    let session = shared_read_fixture();
    assert!(session
        .quark_mut()
        .tamper_footprint_for_test("sr0_t0", "hub"));
    assert_eq!(session.database().stats().footprint_violations, 0);
    let before = session.execute("SELECT * FROM m0").unwrap();
    let err = session
        .execute("UPDATE m0 SET price = 7.5 WHERE id = 0")
        .expect_err("the un-latched `hub` read fails the update");
    assert!(is_outside_footprint(&err, "hub", false), "{err}");
    assert!(session.database().stats().footprint_violations > 0);
    assert_eq!(session.execute("SELECT * FROM m0").unwrap(), before);
}

/// Runtime-only catch: an action that *declares* writes `{declared}` but
/// actually writes `undeclared` is invisible to the static pass (closures
/// cannot be inspected), but its out-of-scope write is refused.
#[test]
fn under_declared_action_write_is_caught_by_the_runtime_oracle() {
    use quark_core::relational::Database;
    let session = quark_xquery::session(Database::new(), Mode::Grouped);
    for t in ["watched", "declared", "undeclared"] {
        create_table(&session, t);
    }
    register_flat_view(&session, "vw", "watched");
    session
        .register_action_with_writes("lies", ["declared"], |db, _| {
            db.insert_row(
                "undeclared",
                vec![Value::Int(99), Value::str("oops"), Value::Double(0.0)],
            )
        })
        .unwrap();
    session
        .execute(
            "create trigger U after update on view('vw')/item \
             where OLD_NODE/@name = 'watched_0' do lies(NEW_NODE)",
        )
        .unwrap();
    let err = session
        .execute("UPDATE watched SET price = 2.0 WHERE id = 0")
        .expect_err("the undeclared write fails the update");
    assert!(is_outside_footprint(&err, "undeclared", true), "{err}");
    assert!(session.database().stats().footprint_violations > 0);
    let StatementResult::Rows { rows, .. } = session
        .execute("SELECT * FROM undeclared WHERE id = 99")
        .unwrap()
    else {
        panic!("expected rows")
    };
    assert!(rows.is_empty(), "{rows:?}");
}

/// An unbounded statement's scope is every table that *exists*. A raw SQL
/// trigger probing one that does not gets `UnknownTable`, as it always did
/// — not a violation: nothing can be raced on a table that is not there.
#[test]
fn opaque_body_probing_a_missing_table_is_an_error_not_a_violation() {
    let session = quark_xquery::session(quark_core::relational::Database::new(), Mode::Grouped);
    create_table(&session, "src");
    session
        .database_mut()
        .create_raw_trigger(SqlTrigger {
            name: "probe".into(),
            table: "src".into(),
            event: Event::Update,
            body: Arc::new(|db, _| db.table("nowhere").map(|_| ())),
        })
        .unwrap();
    assert_eq!(session.quark().write_footprint("src"), Footprint::Global);
    let err = session
        .execute("UPDATE src SET price = 2.0 WHERE id = 0")
        .expect_err("the trigger's probe fails");
    assert!(err.to_string().contains("nowhere"), "{err}");
    assert_eq!(session.database().stats().footprint_violations, 0);
}

/// Commutativity is visible end to end: two disjoint flat trigger systems
/// commute, and the pair report says so.
#[test]
fn disjoint_flat_systems_commute_in_the_report() {
    let session = quark_xquery::session(quark_core::relational::Database::new(), Mode::Grouped);
    for t in ["left", "right", "left_log", "right_log"] {
        create_table(&session, t);
    }
    register_flat_view(&session, "lv", "left");
    register_flat_view(&session, "rv", "right");
    session
        .register_action_with_writes("log_left", ["left_log"], |_, _| Ok(()))
        .unwrap();
    session
        .register_action_with_writes("log_right", ["right_log"], |_, _| Ok(()))
        .unwrap();
    session
        .execute(
            "create trigger LT after update on view('lv')/item \
             where OLD_NODE/@name = 'left_0' do log_left(NEW_NODE)",
        )
        .unwrap();
    session
        .execute(
            "create trigger RT after update on view('rv')/item \
             where OLD_NODE/@name = 'right_0' do log_right(NEW_NODE)",
        )
        .unwrap();
    let report = analyze(&session);
    assert_eq!(report.errors, 0, "{}", report.text);
    assert_eq!(report.commuting_pairs, 1, "{}", report.text);
    assert_eq!(report.conflicting_pairs, 0, "{}", report.text);
    assert!(report.text.contains("LT || RT"), "{}", report.text);
}

/// `ANALYZE` without `TRIGGERS`, and `ANALYZE TRIGGERS` with trailing
/// tokens, are parse errors — the statement surface stays strict.
#[test]
fn analyze_statement_parses_strictly() {
    let session = quark_xquery::session(quark_core::relational::Database::new(), Mode::Grouped);
    assert!(session.execute("ANALYZE").is_err());
    assert!(session.execute("ANALYZE TRIGGERS please").is_err());
    let report = analyze(&session);
    assert_eq!(report.groups, 0);
}
