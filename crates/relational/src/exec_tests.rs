//! Executor tests: every physical operator, both table epochs, and the
//! DAG-memoization behaviour that generated trigger plans rely on.

use std::sync::Arc;

use crate::exec::{execute, execute_query, execute_with_transitions, transitions, ExecContext};
use crate::expr::{AggExpr, AggFunc, BinOp, Expr, ScalarFunc};
use crate::plan::{JoinKind, PhysicalPlan, PlanOp, PlanRef, SortKey, TableEpoch, TransitionSide};
use crate::value::row;
use crate::{ColumnDef, ColumnType, Database, Event, Row, TableSchema, Value};

fn setup() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "product",
            vec![
                ColumnDef::new("pid", ColumnType::Str),
                ColumnDef::new("pname", ColumnType::Str),
                ColumnDef::new("mfr", ColumnType::Str),
            ],
            &["pid"],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::new(
            "vendor",
            vec![
                ColumnDef::new("vid", ColumnType::Str),
                ColumnDef::new("pid", ColumnType::Str),
                ColumnDef::new("price", ColumnType::Double),
            ],
            &["vid", "pid"],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_index("vendor", "pid").unwrap();
    // Figure 2 of the paper.
    db.load(
        "product",
        vec![
            vec![
                Value::str("P1"),
                Value::str("CRT 15"),
                Value::str("Samsung"),
            ],
            vec![
                Value::str("P2"),
                Value::str("LCD 19"),
                Value::str("Samsung"),
            ],
            vec![
                Value::str("P3"),
                Value::str("CRT 15"),
                Value::str("Viewsonic"),
            ],
        ],
    )
    .unwrap();
    db.load(
        "vendor",
        vec![
            vec![Value::str("Amazon"), Value::str("P1"), Value::Double(100.0)],
            vec![
                Value::str("Bestbuy"),
                Value::str("P1"),
                Value::Double(120.0),
            ],
            vec![
                Value::str("Circuitcity"),
                Value::str("P1"),
                Value::Double(150.0),
            ],
            vec![
                Value::str("Buy.com"),
                Value::str("P2"),
                Value::Double(200.0),
            ],
            vec![
                Value::str("Bestbuy"),
                Value::str("P2"),
                Value::Double(180.0),
            ],
            vec![
                Value::str("Bestbuy"),
                Value::str("P3"),
                Value::Double(120.0),
            ],
            vec![
                Value::str("Circuitcity"),
                Value::str("P3"),
                Value::Double(140.0),
            ],
        ],
    )
    .unwrap();
    db
}

fn scan(table: &str) -> PhysicalPlan {
    PhysicalPlan::new(
        PlanOp::TableScan {
            table: table.into(),
            epoch: TableEpoch::Current,
        },
        vec![],
    )
}

#[test]
fn filter_and_project() {
    let db = setup();
    let plan = PhysicalPlan::new(
        PlanOp::Project {
            exprs: vec![Expr::col(0), Expr::col(2)],
        },
        vec![PhysicalPlan::new(
            PlanOp::Filter {
                predicate: Expr::bin(BinOp::Gt, Expr::col(2), Expr::lit(150.0)),
            },
            vec![scan("vendor").into_ref()],
        )
        .into_ref()],
    )
    .into_ref();
    let mut rows = execute_query(&db, &plan).unwrap();
    rows.sort();
    assert_eq!(
        rows,
        vec![
            row([Value::str("Bestbuy"), Value::Double(180.0)]),
            row([Value::str("Buy.com"), Value::Double(200.0)]),
        ]
    );
}

#[test]
fn hash_join_inner() {
    let db = setup();
    // vendor ⋈ product on pid.
    let plan = PhysicalPlan::new(
        PlanOp::HashJoin {
            left_keys: vec![Expr::col(1)],
            right_keys: vec![Expr::col(0)],
            kind: JoinKind::Inner,
            filter: None,
        },
        vec![scan("vendor").into_ref(), scan("product").into_ref()],
    )
    .into_ref();
    let rows = execute_query(&db, &plan).unwrap();
    assert_eq!(rows.len(), 7);
    // Every joined row has vendor.pid == product.pid.
    assert!(rows.iter().all(|r| r[1] == r[3]));
}

#[test]
fn hash_join_left_outer_pads_nulls() {
    let db = setup();
    db.load(
        "product",
        vec![vec![
            Value::str("P4"),
            Value::str("Plasma"),
            Value::str("LG"),
        ]],
    )
    .unwrap();
    let plan = PhysicalPlan::new(
        PlanOp::HashJoin {
            left_keys: vec![Expr::col(0)],
            right_keys: vec![Expr::col(1)],
            kind: JoinKind::LeftOuter,
            filter: None,
        },
        vec![scan("product").into_ref(), scan("vendor").into_ref()],
    )
    .into_ref();
    let rows = execute_query(&db, &plan).unwrap();
    assert_eq!(rows.len(), 8); // 7 matches + 1 padded row for P4
    let p4 = rows.iter().find(|r| r[0] == Value::str("P4")).unwrap();
    assert!(p4[3].is_null() && p4[4].is_null() && p4[5].is_null());
}

#[test]
fn semi_and_anti_joins() {
    let db = setup();
    db.load(
        "product",
        vec![vec![
            Value::str("P4"),
            Value::str("Plasma"),
            Value::str("LG"),
        ]],
    )
    .unwrap();
    let semi = PhysicalPlan::new(
        PlanOp::HashJoin {
            left_keys: vec![Expr::col(0)],
            right_keys: vec![Expr::col(1)],
            kind: JoinKind::LeftSemi,
            filter: None,
        },
        vec![scan("product").into_ref(), scan("vendor").into_ref()],
    )
    .into_ref();
    let rows = execute_query(&db, &semi).unwrap();
    assert_eq!(rows.len(), 3); // P1-P3 have vendors; each product once

    let anti = PhysicalPlan::new(
        PlanOp::HashJoin {
            left_keys: vec![Expr::col(0)],
            right_keys: vec![Expr::col(1)],
            kind: JoinKind::LeftAnti,
            filter: None,
        },
        vec![scan("product").into_ref(), scan("vendor").into_ref()],
    )
    .into_ref();
    let rows = execute_query(&db, &anti).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::str("P4"));
}

#[test]
fn group_by_count_per_product() {
    let db = setup();
    let plan = PhysicalPlan::new(
        PlanOp::HashAggregate {
            group_exprs: vec![Expr::col(1)],
            aggs: vec![
                AggExpr::count_star(),
                AggExpr::over(AggFunc::Min, Expr::col(2)),
            ],
        },
        vec![scan("vendor").into_ref()],
    )
    .into_ref();
    let mut rows = execute_query(&db, &plan).unwrap();
    rows.sort();
    assert_eq!(
        rows,
        vec![
            row([Value::str("P1"), Value::Int(3), Value::Double(100.0)]),
            row([Value::str("P2"), Value::Int(2), Value::Double(180.0)]),
            row([Value::str("P3"), Value::Int(2), Value::Double(120.0)]),
        ]
    );
}

#[test]
fn scalar_aggregate_over_empty_input_yields_identity_row() {
    let db = setup();
    let plan = PhysicalPlan::new(
        PlanOp::HashAggregate {
            group_exprs: vec![],
            aggs: vec![
                AggExpr::count_star(),
                AggExpr::over(AggFunc::Sum, Expr::col(0)),
            ],
        },
        vec![PhysicalPlan::new(
            PlanOp::Values {
                arity: 1,
                rows: vec![],
            },
            vec![],
        )
        .into_ref()],
    )
    .into_ref();
    let rows = execute_query(&db, &plan).unwrap();
    assert_eq!(rows, vec![row([Value::Int(0), Value::Null])]);
}

#[test]
fn index_join_probes_secondary_index() {
    let db = setup();
    // Outer: a single P1 key row; inner: vendor by pid index.
    let outer = PhysicalPlan::new(
        PlanOp::Values {
            arity: 1,
            rows: vec![row([Value::str("P1")])],
        },
        vec![],
    );
    let plan = PhysicalPlan::new(
        PlanOp::IndexJoin {
            table: "vendor".into(),
            epoch: TableEpoch::Current,
            probe: vec![(1, Expr::col(0))],
            kind: JoinKind::Inner,
            filter: None,
        },
        vec![outer.into_ref()],
    )
    .into_ref();
    let rows = execute_query(&db, &plan).unwrap();
    assert_eq!(rows.len(), 3);
    assert!(rows.iter().all(|r| r[2] == Value::str("P1"))); // vendor.pid
}

#[test]
fn index_join_probes_primary_key() {
    let db = setup();
    let outer = PhysicalPlan::new(
        PlanOp::Values {
            arity: 1,
            rows: vec![row([Value::str("P2")])],
        },
        vec![],
    );
    let plan = PhysicalPlan::new(
        PlanOp::IndexJoin {
            table: "product".into(),
            epoch: TableEpoch::Current,
            probe: vec![(0, Expr::col(0))],
            kind: JoinKind::Inner,
            filter: None,
        },
        vec![outer.into_ref()],
    )
    .into_ref();
    let rows = execute_query(&db, &plan).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][2], Value::str("LCD 19"));
}

#[test]
fn index_join_without_index_is_a_plan_error() {
    let db = setup();
    let outer = PhysicalPlan::new(
        PlanOp::Values {
            arity: 1,
            rows: vec![row([Value::Double(100.0)])],
        },
        vec![],
    );
    let plan = PhysicalPlan::new(
        PlanOp::IndexJoin {
            table: "vendor".into(),
            epoch: TableEpoch::Current,
            probe: vec![(2, Expr::col(0))], // price: not indexed
            kind: JoinKind::Inner,
            filter: None,
        },
        vec![outer.into_ref()],
    )
    .into_ref();
    assert!(execute_query(&db, &plan).is_err());
}

/// Core of the B_old reconstruction (§4.2): after an UPDATE statement,
/// old-epoch reads must see pre-statement values, via both scans and index
/// probes.
#[test]
fn old_epoch_reconstructs_pre_statement_state() {
    let db = setup();
    // Simulate: Amazon's P1 price 100 -> 75 (the paper's §2.3 example).
    let old_row = row([Value::str("Amazon"), Value::str("P1"), Value::Double(100.0)]);
    let new_row = row([Value::str("Amazon"), Value::str("P1"), Value::Double(75.0)]);
    let db = db;
    db.update_by_key(
        "vendor",
        &[Value::str("Amazon"), Value::str("P1")],
        &[(2, Value::Double(75.0))],
    )
    .unwrap();
    let trans = transitions("vendor", Event::Update, vec![new_row], vec![old_row]);

    // Old-epoch scan sees 100.0 for Amazon.
    let plan = PhysicalPlan::new(
        PlanOp::Filter {
            predicate: Expr::eq(Expr::col(0), Expr::lit("Amazon")),
        },
        vec![PhysicalPlan::new(
            PlanOp::TableScan {
                table: "vendor".into(),
                epoch: TableEpoch::Old,
            },
            vec![],
        )
        .into_ref()],
    )
    .into_ref();
    let rows = execute_with_transitions(&db, &plan, &trans).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][2], Value::Double(100.0));

    // Old-epoch index probe by pid sees 3 vendors with the old price.
    let outer = PhysicalPlan::new(
        PlanOp::Values {
            arity: 1,
            rows: vec![row([Value::str("P1")])],
        },
        vec![],
    );
    let plan = PhysicalPlan::new(
        PlanOp::IndexJoin {
            table: "vendor".into(),
            epoch: TableEpoch::Old,
            probe: vec![(1, Expr::col(0))],
            kind: JoinKind::Inner,
            filter: None,
        },
        vec![outer.into_ref()],
    )
    .into_ref();
    let rows = execute_with_transitions(&db, &plan, &trans).unwrap();
    assert_eq!(rows.len(), 3);
    let amazon = rows.iter().find(|r| r[1] == Value::str("Amazon")).unwrap();
    assert_eq!(amazon[3], Value::Double(100.0));

    // Current-epoch probe sees the new price.
    let outer = PhysicalPlan::new(
        PlanOp::Values {
            arity: 1,
            rows: vec![row([Value::str("P1")])],
        },
        vec![],
    );
    let plan = PhysicalPlan::new(
        PlanOp::IndexJoin {
            table: "vendor".into(),
            epoch: TableEpoch::Current,
            probe: vec![(1, Expr::col(0))],
            kind: JoinKind::Inner,
            filter: None,
        },
        vec![outer.into_ref()],
    )
    .into_ref();
    let rows = execute_with_transitions(&db, &plan, &trans).unwrap();
    let amazon = rows.iter().find(|r| r[1] == Value::str("Amazon")).unwrap();
    assert_eq!(amazon[3], Value::Double(75.0));
}

#[test]
fn old_epoch_after_insert_excludes_new_rows() {
    let db = setup();
    db.load(
        "vendor",
        vec![vec![
            Value::str("Amazon"),
            Value::str("P2"),
            Value::Double(500.0),
        ]],
    )
    .unwrap();
    let new_row = row([Value::str("Amazon"), Value::str("P2"), Value::Double(500.0)]);
    let trans = transitions("vendor", Event::Insert, vec![new_row], vec![]);
    let plan = PhysicalPlan::new(
        PlanOp::TableScan {
            table: "vendor".into(),
            epoch: TableEpoch::Old,
        },
        vec![],
    )
    .into_ref();
    let rows = execute_with_transitions(&db, &plan, &trans).unwrap();
    assert_eq!(rows.len(), 7); // the original 7, not 8
}

#[test]
fn old_epoch_after_delete_restores_rows() {
    let db = setup();
    let key = [Value::str("Amazon"), Value::str("P1")];
    let old = db.table("vendor").unwrap().get(&key).unwrap().clone();
    db.delete_by_key("vendor", &key).unwrap();
    let trans = transitions("vendor", Event::Delete, vec![], vec![old]);
    let plan = PhysicalPlan::new(
        PlanOp::TableScan {
            table: "vendor".into(),
            epoch: TableEpoch::Old,
        },
        vec![],
    )
    .into_ref();
    let rows = execute_with_transitions(&db, &plan, &trans).unwrap();
    assert_eq!(rows.len(), 7);
}

#[test]
fn pruned_transition_scan_drops_noop_updates() {
    let db = setup();
    let same = row([Value::str("x"), Value::str("P1"), Value::Double(1.0)]);
    let changed_old = row([Value::str("y"), Value::str("P1"), Value::Double(1.0)]);
    let changed_new = row([Value::str("y"), Value::str("P1"), Value::Double(2.0)]);
    let trans = transitions(
        "vendor",
        Event::Update,
        vec![Arc::clone(&same), changed_new.clone()],
        vec![Arc::clone(&same), changed_old.clone()],
    );
    let raw = PhysicalPlan::new(
        PlanOp::TransitionScan {
            table: "vendor".into(),
            side: TransitionSide::Delta,
            pruned: false,
        },
        vec![],
    )
    .into_ref();
    assert_eq!(
        execute_with_transitions(&db, &raw, &trans).unwrap().len(),
        2
    );
    let pruned = PhysicalPlan::new(
        PlanOp::TransitionScan {
            table: "vendor".into(),
            side: TransitionSide::Delta,
            pruned: true,
        },
        vec![],
    )
    .into_ref();
    let rows = execute_with_transitions(&db, &pruned, &trans).unwrap();
    assert_eq!(rows, vec![changed_new]);
}

#[test]
fn transition_scan_outside_trigger_context_errors() {
    let db = setup();
    let plan = PhysicalPlan::new(
        PlanOp::TransitionScan {
            table: "vendor".into(),
            side: TransitionSide::Delta,
            pruned: false,
        },
        vec![],
    )
    .into_ref();
    assert!(execute_query(&db, &plan).is_err());
}

#[test]
fn union_all_distinct_sort() {
    let db = setup();
    let a = PhysicalPlan::new(
        PlanOp::Values {
            arity: 1,
            rows: vec![row([Value::Int(2)]), row([Value::Int(1)])],
        },
        vec![],
    )
    .into_ref();
    let b = PhysicalPlan::new(
        PlanOp::Values {
            arity: 1,
            rows: vec![row([Value::Int(2)])],
        },
        vec![],
    )
    .into_ref();
    let plan = PhysicalPlan::new(
        PlanOp::Sort {
            keys: vec![SortKey::asc(0)],
        },
        vec![PhysicalPlan::new(
            PlanOp::Distinct,
            vec![PhysicalPlan::new(PlanOp::UnionAll, vec![a, b]).into_ref()],
        )
        .into_ref()],
    )
    .into_ref();
    let rows = execute_query(&db, &plan).unwrap();
    assert_eq!(rows, vec![row([Value::Int(1)]), row([Value::Int(2)])]);
}

#[test]
fn sort_desc_and_stability() {
    let db = setup();
    let input = PhysicalPlan::new(
        PlanOp::Values {
            arity: 2,
            rows: vec![
                row([Value::Int(1), Value::str("a")]),
                row([Value::Int(2), Value::str("b")]),
                row([Value::Int(1), Value::str("c")]),
            ],
        },
        vec![],
    )
    .into_ref();
    let plan = PhysicalPlan::new(
        PlanOp::Sort {
            keys: vec![SortKey {
                expr: Expr::col(0),
                desc: true,
            }],
        },
        vec![input],
    )
    .into_ref();
    let rows = execute_query(&db, &plan).unwrap();
    assert_eq!(rows[0][0], Value::Int(2));
    // Stable: 'a' before 'c' among the two key-1 rows.
    assert_eq!(rows[1][1], Value::str("a"));
    assert_eq!(rows[2][1], Value::str("c"));
}

#[test]
fn shared_subplans_execute_once() {
    let db = setup();
    // A shared Values node consumed by two branches of a union: memoization
    // must return the identical Arc for both executions.
    let shared = PhysicalPlan::new(
        PlanOp::HashAggregate {
            group_exprs: vec![Expr::col(1)],
            aggs: vec![AggExpr::count_star()],
        },
        vec![scan("vendor").into_ref()],
    )
    .into_ref();
    let plan = PhysicalPlan::new(
        PlanOp::UnionAll,
        vec![Arc::clone(&shared), Arc::clone(&shared)],
    )
    .into_ref();
    let ctx = ExecContext::new(&db, None);
    let rows = execute(&plan, &ctx).unwrap();
    assert_eq!(rows.len(), 6); // 3 groups twice
    let first = execute(&shared, &ctx).unwrap();
    let second = execute(&shared, &ctx).unwrap();
    assert!(Arc::ptr_eq(&first, &second));
}

#[test]
fn nested_loop_cross_product() {
    let db = setup();
    let a = PhysicalPlan::new(
        PlanOp::Values {
            arity: 1,
            rows: vec![row([Value::Int(1)]), row([Value::Int(2)])],
        },
        vec![],
    )
    .into_ref();
    let b = PhysicalPlan::new(
        PlanOp::Values {
            arity: 1,
            rows: vec![row([Value::str("x")]), row([Value::str("y")])],
        },
        vec![],
    )
    .into_ref();
    let plan = PhysicalPlan::new(
        PlanOp::NestedLoopJoin {
            predicate: None,
            kind: JoinKind::Inner,
        },
        vec![a, b],
    )
    .into_ref();
    let rows = execute_query(&db, &plan).unwrap();
    assert_eq!(rows.len(), 4);
}

#[test]
fn explain_renders_tree() {
    let plan = PhysicalPlan::new(
        PlanOp::Filter {
            predicate: Expr::eq(Expr::col(1), Expr::lit("P1")),
        },
        vec![scan("vendor").into_ref()],
    );
    let text = plan.explain();
    assert!(text.contains("Filter"));
    assert!(text.contains("TableScan vendor"));
}

/// One row of Row type checking to keep `Row` alias public-API stable.
#[test]
fn row_alias_is_arc_slice() {
    let r: Row = row([Value::Int(1)]);
    assert_eq!(r.len(), 1);
}

#[test]
fn counters_separate_scans_from_probes() {
    let db = setup();
    let before = db.stats();

    // Full scan: rows_scanned grows by the table size.
    execute_query(&db, &scan("vendor").into_ref()).unwrap();
    let after_scan = db.stats();
    assert_eq!(
        after_scan.rows_scanned - before.rows_scanned,
        db.table("vendor").unwrap().len() as u64
    );
    assert_eq!(after_scan.index_probes, before.index_probes);

    // Index join: one probe per outer row, no scan of the inner table.
    let outer = PhysicalPlan::new(
        PlanOp::Values {
            arity: 1,
            rows: vec![row([Value::str("P1")]), row([Value::str("P2")])],
        },
        vec![],
    )
    .into_ref();
    let plan = PhysicalPlan::new(
        PlanOp::IndexJoin {
            table: "vendor".into(),
            epoch: TableEpoch::Current,
            probe: vec![(1, Expr::col(0))],
            kind: JoinKind::Inner,
            filter: None,
        },
        vec![outer],
    )
    .into_ref();
    execute_query(&db, &plan).unwrap();
    let after_probe = db.stats();
    assert_eq!(after_probe.index_probes - after_scan.index_probes, 2);
    assert_eq!(after_probe.rows_scanned, after_scan.rows_scanned);
}

// ---------------------------------------------------------------------
// Constructor reuse across firings (`plan::ReuseSlot`)
// ---------------------------------------------------------------------

fn xml_wrap(name: &str, arg: Expr) -> Expr {
    Expr::Func(ScalarFunc::XmlWrap(name.into()), vec![arg])
}

fn project(input: PlanRef, exprs: Vec<Expr>) -> PlanRef {
    PhysicalPlan::new(PlanOp::Project { exprs }, vec![input]).into_ref()
}

/// A constructor projection over the firing's Δvendor rows:
/// `[vid, <price>price</price>]`.
fn price_elements() -> PlanRef {
    let delta = PhysicalPlan::new(
        PlanOp::TransitionScan {
            table: "vendor".into(),
            side: TransitionSide::Delta,
            pruned: false,
        },
        vec![],
    )
    .into_ref();
    project(delta, vec![Expr::col(0), xml_wrap("price", Expr::col(2))])
}

/// One firing of `plan` whose Δvendor rows carry `prices` (vendor `v{i}`
/// the `i`-th), and the rows it took from a reuse slot.
fn fire(db: &Database, plan: &PlanRef, prices: &[Value]) -> (Vec<Row>, u64) {
    let delta = (prices.iter().enumerate())
        .map(|(i, p)| row([Value::str(format!("v{i}")), Value::str("P1"), p.clone()]))
        .collect();
    let trans = transitions("vendor", Event::Update, delta, vec![]);
    let before = db.stats().build_cache_hits;
    let rows = execute_with_transitions(db, plan, &trans).unwrap();
    (rows, db.stats().build_cache_hits - before)
}

fn slot_len(plan: &PhysicalPlan) -> usize {
    let slot = plan
        .reuse
        .as_ref()
        .expect("a constructor projection has a slot");
    slot.0.lock().unwrap().len()
}

fn xml(v: &Value) -> &quark_xml::XmlNodeRef {
    match v {
        Value::Xml(x) => x,
        other => panic!("expected XML, got {other:?}"),
    }
}

/// Only a projection that builds elements gets a slot.
#[test]
fn only_constructor_projections_have_a_reuse_slot() {
    assert!(price_elements().reuse.is_some());
    let plain = project(scan("vendor").into_ref(), vec![Expr::col(2)]);
    assert!(plain.reuse.is_none());
    assert!(scan("vendor").reuse.is_none());
}

/// An unchanged input row gets its last firing's output row back, the
/// same `Arc`; a changed one is built afresh.
#[test]
fn reuse_returns_the_last_firings_row_for_an_unchanged_input() {
    let db = setup();
    let plan = price_elements();
    let (first, hits) = fire(&db, &plan, &[Value::Double(1.0), Value::Double(2.0)]);
    assert_eq!(hits, 0);
    let (second, hits) = fire(&db, &plan, &[Value::Double(1.0), Value::Double(5.0)]);
    assert_eq!(hits, 1);
    assert!(Arc::ptr_eq(&first[0], &second[0]));
    assert_eq!(xml(&second[1][1]).to_xml(), "<price>5</price>");
}

/// Keys compare by exact representation. `Int(2^53 + 1) = Double(2^53)`
/// and `0.0 = −0.0` under `Value`'s `Eq`, but neither pair shares an
/// entry: the first pair renders differently.
#[test]
fn reuse_keys_on_exact_representation() {
    let db = setup();
    let plan = price_elements();
    let big = 1i64 << 53;
    assert_eq!(Value::Int(big + 1), Value::Double(big as f64));
    fire(&db, &plan, &[Value::Double(big as f64)]);
    let (out, hits) = fire(&db, &plan, &[Value::Int(big + 1)]);
    assert_eq!(hits, 0);
    assert_eq!(xml(&out[0][1]).to_xml(), "<price>9007199254740993</price>");

    assert_eq!(Value::Double(0.0), Value::Double(-0.0));
    let (zero, _) = fire(&db, &plan, &[Value::Double(0.0)]);
    let (negative, hits) = fire(&db, &plan, &[Value::Double(-0.0)]);
    assert_eq!(hits, 0);
    assert!(!Arc::ptr_eq(&zero[0], &negative[0]));
    let (again, hits) = fire(&db, &plan, &[Value::Double(-0.0)]);
    assert_eq!(hits, 1);
    assert!(Arc::ptr_eq(&negative[0], &again[0]));
}

/// After each execution the slot holds that execution's rows only.
#[test]
fn reuse_slot_keeps_the_last_execution_only() {
    let db = setup();
    let plan = price_elements();
    let prices: Vec<Value> = (0..5).map(|i| Value::Double(f64::from(i))).collect();
    fire(&db, &plan, &prices);
    assert_eq!(slot_len(&plan), 5);
    let (_, hits) = fire(&db, &plan, &prices[..1]);
    assert_eq!(hits, 1);
    assert_eq!(slot_len(&plan), 1);
}

/// A row that holds XML is evaluated and never stored; the constructor
/// below it, over plain rows, keeps its row.
#[test]
fn reuse_slot_stores_no_row_holding_xml() {
    let db = setup();
    let inner = price_elements();
    let vendor = ScalarFunc::XmlElement {
        name: "vendor".into(),
        attrs: vec!["id".into()],
    };
    let outer = project(
        Arc::clone(&inner),
        vec![Expr::Func(vendor, vec![Expr::col(0), Expr::col(1)])],
    );
    let prices = [Value::Double(1.0)];
    let (first, _) = fire(&db, &outer, &prices);
    let (second, hits) = fire(&db, &outer, &prices);
    assert_eq!(hits, 1, "the inner projection's row");
    assert_eq!((slot_len(&inner), slot_len(&outer)), (1, 0));
    assert!(!Arc::ptr_eq(&first[0], &second[0]));
    assert_eq!(
        xml(&second[0][0]).to_xml(),
        r#"<vendor id="v0"><price>1</price></vendor>"#
    );
}

/// Outside a firing (`execute_query`, `MATERIALIZE`) the slot is neither
/// read nor filled.
#[test]
fn queries_leave_the_reuse_slot_empty() {
    let db = setup();
    let plan = project(
        scan("vendor").into_ref(),
        vec![xml_wrap("price", Expr::col(2))],
    );
    for _ in 0..2 {
        assert_eq!(execute_query(&db, &plan).unwrap().len(), 7);
    }
    assert_eq!(slot_len(&plan), 0);
    assert_eq!(db.stats().build_cache_hits, 0);
}

/// An execution that finds the slot held evaluates every row itself and
/// leaves the slot as it was.
#[test]
fn a_held_reuse_slot_falls_back_to_plain_evaluation() {
    let db = setup();
    let plan = price_elements();
    let prices = [Value::Double(1.0), Value::Double(2.0)];
    let (first, _) = fire(&db, &plan, &prices);
    let held = plan.reuse.as_ref().unwrap().0.lock().unwrap();
    let (second, hits) = fire(&db, &plan, &prices[..1]);
    assert_eq!(hits, 0);
    assert_eq!(second[0], first[0]);
    assert!(!Arc::ptr_eq(&second[0], &first[0]));
    assert_eq!(held.len(), 2, "the held slot is untouched");
    drop(held);
    let (_, hits) = fire(&db, &plan, &prices);
    assert_eq!(hits, 2);
}
