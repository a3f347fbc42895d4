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

/// `Project [vid, price] ← IndexJoin vendor by pid ← Values [P1, P2]`:
/// two probes, five rows, each node held by its parent alone.
fn probe_chain() -> PlanRef {
    let outer = values(1, vec![row([Value::str("P1")]), row([Value::str("P2")])]);
    project(
        index_join(outer, "vendor", TableEpoch::Current, 1),
        vec![Expr::col(1), Expr::col(3)],
    )
}

/// One firing of `plan` (an UPDATE of vendor with no transition rows):
/// its row count and the index probes it made.
fn probes_per_firing(db: &Database, plan: &PlanRef) -> (usize, u64) {
    let trans = transitions("vendor", Event::Update, vec![], vec![]);
    let before = db.stats().index_probes;
    let rows = execute_with_transitions(db, plan, &trans).unwrap();
    (rows.len(), db.stats().index_probes - before)
}

/// A subplan two parents reach runs once per firing: its probes are
/// counted once although its rows are delivered twice.
#[test]
fn a_subplan_referenced_twice_runs_once_per_firing() {
    let db = setup();
    let shared = probe_chain();
    let plan = PhysicalPlan::new(
        PlanOp::UnionAll,
        vec![Arc::clone(&shared), Arc::clone(&shared)],
    )
    .into_ref();
    drop(shared);
    assert_eq!(Arc::strong_count(&plan.inputs[0]), 2);
    for _ in 0..2 {
        assert_eq!(probes_per_firing(&db, &plan), (10, 2));
    }
}

/// A chain of nodes each held only by its parent skips the memo and
/// still runs each node once.
#[test]
fn a_chain_of_single_parent_nodes_runs_each_node_once() {
    let db = setup();
    let plan = PhysicalPlan::new(
        PlanOp::Filter {
            predicate: Expr::bin(BinOp::Gt, Expr::col(1), Expr::lit(110.0)),
        },
        vec![probe_chain()],
    )
    .into_ref();
    let mut node = &plan;
    while let Some(input) = node.inputs.first() {
        assert_eq!(Arc::strong_count(input), 1);
        node = input;
    }
    for _ in 0..2 {
        assert_eq!(probes_per_firing(&db, &plan), (4, 2));
    }
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

/// Rows of `arity` columns (tests' outer inputs and group-by inputs).
fn values(arity: usize, rows: Vec<Row>) -> PlanRef {
    PhysicalPlan::new(PlanOp::Values { arity, rows }, vec![]).into_ref()
}

fn index_join(input: PlanRef, table: &str, epoch: TableEpoch, col: usize) -> PlanRef {
    let op = PlanOp::IndexJoin {
        table: table.into(),
        epoch,
        probe: vec![(col, Expr::col(0))],
        kind: JoinKind::Inner,
        filter: None,
    };
    PhysicalPlan::new(op, vec![input]).into_ref()
}

/// `PhysicalPlan::project` over a column-only `Project` builds one node
/// over the grandchild that returns what the literal chain returns, over a
/// scan and over an `IndexJoin`.
#[test]
fn fused_project_chain_returns_the_literal_chains_rows() {
    let db = setup();
    let price_plus_one = Expr::bin(BinOp::Add, Expr::col(0), Expr::lit(1.0));
    let outer = vec![Expr::col(1), price_plus_one, xml_wrap("v", Expr::col(1))];
    let scan_input = scan("vendor").into_ref();
    let join_input = index_join(
        values(1, vec![row([Value::str("P1")]), row([Value::str("P3")])]),
        "vendor",
        TableEpoch::Current,
        1,
    );
    for (input, cols) in [(scan_input, [2, 0]), (join_input, [3, 1])] {
        let inner = project(Arc::clone(&input), cols.map(Expr::col).to_vec());
        let literal = project(Arc::clone(&inner), outer.clone());
        let fused = PhysicalPlan::project(outer.clone(), inner).into_ref();
        assert!(Arc::ptr_eq(&fused.inputs[0], &input), "{fused:?}");
        let rows = execute_query(&db, &fused).unwrap();
        assert!(!rows.is_empty());
        assert_eq!(rows, execute_query(&db, &literal).unwrap());
    }
}

/// A `Project` over a `Project` that computes anything but columns, or
/// that reads a column the inner one lacks, stays two nodes.
#[test]
fn project_over_a_computing_project_stays_unfused() {
    let inner = project(
        scan("vendor").into_ref(),
        vec![
            Expr::col(0),
            Expr::bin(BinOp::Mul, Expr::col(2), Expr::lit(2.0)),
        ],
    );
    let outer = PhysicalPlan::project(vec![Expr::col(1)], Arc::clone(&inner));
    assert!(Arc::ptr_eq(&outer.inputs[0], &inner));
    let columns = project(scan("vendor").into_ref(), vec![Expr::col(0)]);
    let outer = PhysicalPlan::project(vec![Expr::col(1)], Arc::clone(&columns));
    assert!(Arc::ptr_eq(&outer.inputs[0], &columns));
}

/// The Old-epoch probe's rows come in primary-key order, on a table keyed
/// by one column (`product`, probed by its `mfr` index and by key) and by
/// two (`vendor`, probed by its `pid` index): with a ∇ row spliced into
/// the probe, and with Δ rows only left out.
#[test]
fn old_epoch_probe_returns_primary_key_order() {
    let mut db = setup();
    db.create_index("product", "mfr").unwrap();
    let keys = |rows: &[Row], cols: &[usize]| -> Vec<Vec<Value>> {
        let key = |r: &Row| cols.iter().map(|&c| r[c].clone()).collect();
        rows.iter().map(key).collect()
    };
    let probe = |table: &str, col: usize, value: &str, trans| {
        let plan = index_join(
            values(1, vec![row([Value::str(value)])]),
            table,
            TableEpoch::Old,
            col,
        );
        execute_with_transitions(&db, &plan, trans).unwrap()
    };

    // P1's maker moves from Samsung to LG: the ∇ row sorts before P2.
    let old = row([
        Value::str("P1"),
        Value::str("CRT 15"),
        Value::str("Samsung"),
    ]);
    let new = row([Value::str("P1"), Value::str("CRT 15"), Value::str("LG")]);
    db.update_by_key("product", &[Value::str("P1")], &[(2, Value::str("LG"))])
        .unwrap();
    let trans = transitions("product", Event::Update, vec![new], vec![old.clone()]);
    let samsung = probe("product", 2, "Samsung", &trans);
    assert_eq!(
        keys(&samsung, &[1]),
        [[Value::str("P1")], [Value::str("P2")]]
    );
    assert_eq!(samsung[0][1..], old[..]);
    assert_eq!(probe("product", 2, "LG", &trans), []);
    let by_key = probe("product", 0, "P1", &trans);
    assert_eq!(by_key.len(), 1);
    assert_eq!(by_key[0][1..], old[..]);

    // An INSERT of P0 (Samsung): Δ only, no re-sort, P0 left out.
    db.load(
        "product",
        vec![vec![
            Value::str("P0"),
            Value::str("TV"),
            Value::str("Samsung"),
        ]],
    )
    .unwrap();
    let p0 = row([Value::str("P0"), Value::str("TV"), Value::str("Samsung")]);
    let trans = transitions("product", Event::Insert, vec![p0], vec![]);
    let samsung = probe("product", 2, "Samsung", &trans);
    assert_eq!(keys(&samsung, &[1]), [[Value::str("P2")]]);

    // Amazon's P1 price changes: its old row is spliced back in front of
    // Bestbuy, by the (vid, pid) key.
    let old = row([Value::str("Amazon"), Value::str("P1"), Value::Double(100.0)]);
    let new = row([Value::str("Amazon"), Value::str("P1"), Value::Double(75.0)]);
    let key = [Value::str("Amazon"), Value::str("P1")];
    db.update_by_key("vendor", &key, &[(2, Value::Double(75.0))])
        .unwrap();
    let trans = transitions("vendor", Event::Update, vec![new], vec![old.clone()]);
    let p1 = probe("vendor", 1, "P1", &trans);
    let vids = ["Amazon", "Bestbuy", "Circuitcity"].map(|v| vec![Value::str(v), Value::str("P1")]);
    assert_eq!(keys(&p1, &[1, 2]), vids);
    assert_eq!(p1[0][1..], old[..]);
    // No ∇ row joins P2's probe.
    let p2 = probe("vendor", 1, "P2", &trans);
    let vids = ["Bestbuy", "Buy.com"].map(|v| vec![Value::str(v), Value::str("P2")]);
    assert_eq!(keys(&p2, &[1, 2]), vids);

    // An INSERT of (Aardvark, P2): Δ only, left out of P2's probe.
    let aardvark = vec![Value::str("Aardvark"), Value::str("P2"), Value::Double(1.0)];
    db.load("vendor", vec![aardvark.clone()]).unwrap();
    let trans = transitions("vendor", Event::Insert, vec![row(aardvark)], vec![]);
    assert_eq!(keys(&probe("vendor", 1, "P2", &trans), &[1, 2]), vids);
}

/// Groups come out in the order their first row came in, not in key or
/// hash order.
#[test]
fn hash_aggregate_keeps_first_seen_group_order() {
    let db = setup();
    let input = ["c", "a", "c", "b", "a", "d", "c"]
        .map(|k| row([Value::str(k)]))
        .to_vec();
    let plan = PhysicalPlan::new(
        PlanOp::HashAggregate {
            group_exprs: vec![Expr::col(0)],
            aggs: vec![AggExpr::count_star()],
        },
        vec![values(1, input)],
    )
    .into_ref();
    let expected = [("c", 3), ("a", 2), ("b", 1), ("d", 1)]
        .map(|(k, n)| row([Value::str(k), Value::Int(n)]))
        .to_vec();
    assert_eq!(execute_query(&db, &plan).unwrap(), expected);
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
    fire_rows(db, plan, delta)
}

/// One firing of `plan` whose Δvendor rows are `delta`, and the rows it
/// took from a reuse slot.
fn fire_rows(db: &Database, plan: &PlanRef, delta: Vec<Row>) -> (Vec<Row>, u64) {
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

/// A constructor built over a column-only `Project` is fused into one node
/// over the grandchild, keeps its reuse slot there, and reuses across
/// firings.
#[test]
fn fused_constructor_keeps_its_reuse_slot() {
    let db = setup();
    let delta = Arc::clone(&price_elements().inputs[0]);
    let columns = project(Arc::clone(&delta), vec![Expr::col(2), Expr::col(0)]);
    let exprs = vec![Expr::col(1), xml_wrap("price", Expr::col(0))];
    let plan = PhysicalPlan::project(exprs, columns).into_ref();
    assert!(Arc::ptr_eq(&plan.inputs[0], &delta));
    assert!(plan.reuse.is_some());
    let prices = [Value::Double(1.0), Value::Double(2.0)];
    let (first, hits) = fire(&db, &plan, &prices);
    assert_eq!(hits, 0);
    let (second, hits) = fire(&db, &plan, &prices);
    assert_eq!(hits, 2);
    assert!(Arc::ptr_eq(&first[1], &second[1]));
    assert_eq!(xml(&second[1][1]).to_xml(), "<price>2</price>");
}

/// Six Δvendor rows `v0`…`v5`, the `i`-th priced `i`.
fn six_vendors() -> Vec<Row> {
    (0..6)
        .map(|i| {
            row([
                Value::str(format!("v{i}")),
                Value::str("P1"),
                Value::Double(f64::from(i)),
            ])
        })
        .collect()
}

/// Fire `edit` through `plan` (whose slot holds some earlier firing) and
/// through a fresh constructor: both outputs must be equal. Returns the
/// hits.
fn fire_and_compare(db: &Database, plan: &PlanRef, edit: Vec<Row>) -> u64 {
    let (expected, none) = fire_rows(db, &price_elements(), edit.clone());
    assert_eq!(none, 0);
    let (out, hits) = fire_rows(db, plan, edit);
    assert_eq!(out, expected);
    hits
}

/// The slot is matched by walking the last firing's rows with one row of
/// look-ahead: one changed, inserted or deleted row, at any position,
/// leaves every other row's hit.
#[test]
fn reuse_walk_keeps_every_other_hit_around_one_edit() {
    let db = setup();
    let plan = price_elements();
    let base = six_vendors();
    let other = |i: usize| {
        row([
            Value::str(format!("x{i}")),
            Value::str("P1"),
            Value::Double(9.0),
        ])
    };
    for at in 0..=base.len() {
        let mut inserted = base.clone();
        inserted.insert(at, other(at));
        let mut edits = vec![(inserted, 6)];
        if at < base.len() {
            let mut changed = base.clone();
            changed[at] = other(at);
            let mut deleted = base.clone();
            deleted.remove(at);
            edits.extend([(changed, 5), (deleted, 5)]);
        }
        for (edit, expected) in edits {
            fire_rows(&db, &plan, base.clone());
            assert_eq!(fire_and_compare(&db, &plan, edit), expected, "at {at}");
        }
    }
}

/// Reordered rows lose hits, never correctness: a reversed firing builds
/// the same rows, and the walk's look-ahead meets only the one row where
/// the two orders cross (`v1`, after `v5`…`v2` missed at `v0`).
#[test]
fn reversed_input_loses_its_hits_but_not_its_rows() {
    let db = setup();
    let plan = price_elements();
    fire_rows(&db, &plan, six_vendors());
    let reversed = six_vendors().into_iter().rev().collect();
    assert_eq!(fire_and_compare(&db, &plan, reversed), 1);
    assert_eq!(slot_len(&plan), 6);
}
