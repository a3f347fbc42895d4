//! XQGM-level tests against the paper's running example (Figures 2–5).

use std::sync::Arc;

use quark_relational::exec::transitions;
use quark_relational::expr::{AggExpr, Expr};
use quark_relational::plan::{PhysicalPlan, PlanOp, TableEpoch};
use quark_relational::{row, Event, Value};
use quark_xml::XmlNode;

use crate::compile::{compile_restricted, Compiler, Driver};
use crate::eval::{evaluate, evaluate_with};
use crate::fixtures::{catalog_cols, catalog_path_graph, catalog_view_graph, product_vendor_db};
use crate::graph::{Graph, JoinKind, OpKind, TableSource};
use crate::keys::normalize;

fn xml_of(v: &Value) -> &XmlNode {
    match v {
        Value::Xml(x) => x,
        other => panic!("expected XML value, got {other:?}"),
    }
}

/// Evaluating Figure 5 over Figure 2 produces Figure 4: a catalog with the
/// two product groups that have ≥ 2 vendors ("CRT 15" spans P1 and P3).
#[test]
fn catalog_view_materializes_figure_4() {
    let db = product_vendor_db();
    let mut g = Graph::new();
    let root = catalog_view_graph(&mut g);
    let rows = evaluate(&g, root, &db).unwrap();
    assert_eq!(rows.len(), 1);
    let catalog = xml_of(&rows[0][0]);
    assert_eq!(catalog.name(), Some("catalog"));
    let products: Vec<_> = catalog.children_named("product").collect();
    assert_eq!(products.len(), 2);
    assert_eq!(products[0].attr("name"), Some("CRT 15"));
    assert_eq!(products[1].attr("name"), Some("LCD 19"));
    // "CRT 15" groups vendors of both P1 and P3.
    assert_eq!(products[0].children_named("vendor").count(), 5);
    assert_eq!(products[1].children_named("vendor").count(), 2);
    // Vendor rows keep the <pid><vid><price> layout of Figure 4.
    let first = products[0].children_named("vendor").next().unwrap();
    assert_eq!(
        first.children_named("pid").next().unwrap().text_content(),
        "P1"
    );
    assert_eq!(
        first.children_named("vid").next().unwrap().text_content(),
        "Amazon"
    );
}

/// Products with fewer than two vendors are filtered out (box 6).
#[test]
fn nested_predicate_filters_single_vendor_products() {
    let db = product_vendor_db();
    db.load(
        "product",
        vec![vec![
            Value::str("P9"),
            Value::str("OLED 42"),
            Value::str("LG"),
        ]],
    )
    .unwrap();
    db.load(
        "vendor",
        vec![vec![
            Value::str("Amazon"),
            Value::str("P9"),
            Value::Double(999.0),
        ]],
    )
    .unwrap();
    let mut g = Graph::new();
    let (top, _) = catalog_path_graph(&mut g);
    let rows = evaluate(&g, top, &db).unwrap();
    let names: Vec<String> = rows
        .iter()
        .map(|r| r[catalog_cols::PNAME].to_string())
        .collect();
    assert!(!names.contains(&"OLED 42".to_string()), "{names:?}");
    assert_eq!(rows.len(), 2);
}

/// Canonical keys per Appendix A (Table 3): table → pk, select →
/// propagated, project → the input key's positions, join → concatenation
/// (left key only for semi joins), group-by → grouping columns, union →
/// union of the input keys.
#[test]
fn canonical_keys_follow_appendix_a() {
    let db = product_vendor_db();
    let mut g = Graph::new();
    let (top, grouped) = catalog_path_graph(&mut g);
    // Box 4 keeps only $pname and the vendor element: it drops key columns,
    // so before normalization it is keyless.
    let constructed = g.op(grouped).inputs[0];
    assert!(g.key(constructed, &db).unwrap().is_empty());
    let (ng, new_top) = normalize(&g, top, &db).unwrap();

    // The normalized top Project must expose the $pname key.
    let key = ng.key(new_top, &db).unwrap();
    assert_eq!(key, &[0]);
    let names = ng.column_names(new_top, &db).unwrap();
    assert_eq!(names[key[0]], "pname");

    // Every operator of the normalized graph has the key Table 3 gives it,
    // so none is empty.
    for (id, op) in ng.iter() {
        let key = ng.key(id, &db).unwrap();
        assert!(!key.is_empty(), "op {id} lost its key");
        let expected: &[usize] = match &op.kind {
            OpKind::Table { table, .. } if table == "product" => &[0],
            OpKind::Table { .. } => &[0, 1],
            // [pid, pname, mfr, vid, pid, price]: product pk, then vendor's
            // (vid, pid) shifted past the product's three columns.
            OpKind::Join { .. } => &[0, 3, 4],
            // Box 4 with normalize's appended [pid, vid, pid].
            OpKind::Project { names, .. } if names.len() == 5 => &[2, 3, 4],
            OpKind::GroupBy { .. } | OpKind::Select { .. } | OpKind::Project { .. } => &[0],
            other => panic!("unexpected operator {other:?}"),
        };
        assert_eq!(key, expected, "op {id}: {:?}", op.kind);
    }
    let box4 = ng.op(ng.op(ng.op(new_top).inputs[0]).inputs[0]).inputs[0];
    let names = ng.column_names(box4, &db).unwrap();
    assert_eq!(names[2..], ["pid", "vid", "pid"]);

    // A semi join keeps only the left key.
    let product = g.table("product");
    let vendor = g.table("vendor");
    let on = Expr::eq(Expr::col(0), Expr::col(4));
    let semi = g.join(JoinKind::LeftSemi, product, vendor, Some(on));
    assert_eq!(g.key(semi, &db).unwrap(), &[0]);

    // A union's key is the sorted union of its branches' keys: [pid, pname]
    // is keyed by 0, [pid, vid] by (vid, pid) = [1, 0].
    let names = vec!["a".to_string(), "b".to_string()];
    let p = g.project(product, vec![Expr::col(0), Expr::col(1)], names.clone());
    let v = g.project(vendor, vec![Expr::col(1), Expr::col(0)], names);
    assert_eq!(g.key(v, &db).unwrap(), &[1, 0]);
    let u = g.union(vec![p, v]);
    assert_eq!(g.key(u, &db).unwrap(), &[0, 1]);
}

/// Normalization appends derivable key columns dropped by projections
/// (line 57 of CreateAKGraph / Definition 1's "derivable" columns).
#[test]
fn normalization_materializes_dropped_keys() {
    let db = product_vendor_db();
    let mut g = Graph::new();
    let product = g.table("product");
    // Project away the pid primary key, keeping only mfr.
    let slim = g.project(product, vec![Expr::col(2)], vec!["mfr".into()]);
    let (ng, new_top) = normalize(&g, slim, &db).unwrap();
    let names = ng.column_names(new_top, &db).unwrap();
    assert_eq!(names, vec!["mfr".to_string(), "pid".to_string()]);
    assert_eq!(ng.key(new_top, &db).unwrap(), &[1]);
}

/// The union key is the positional union of input keys (Table 3).
#[test]
fn union_key_is_positional_union() {
    let db = product_vendor_db();
    let mut g = Graph::new();
    let a = g.table("vendor");
    let b = g.table("vendor");
    let u = g.union(vec![a, b]);
    let (ng, new_u) = normalize(&g, u, &db).unwrap();
    assert_eq!(ng.key(new_u, &db).unwrap(), &[0, 1]); // (vid, pid)
}

/// Unnest has no canonical key: normalization rejects it (Theorem 1
/// requires composition to remove it first).
#[test]
fn unnest_is_not_trigger_specifiable() {
    let db = product_vendor_db();
    let mut g = Graph::new();
    let product = g.table("product");
    let unnested = g.unnest(product, Expr::col(1), "x");
    assert!(normalize(&g, unnested, &db).is_err());
}

/// A graph decoded from damaged bytes can name a column its input lacks;
/// normalization reports it (it used to index a column map with it).
#[test]
fn normalization_refuses_columns_the_input_lacks() {
    let db = product_vendor_db();
    let mut g = Graph::new();
    let product = g.table("product");
    let select = g.select(product, Expr::eq(Expr::col(99), Expr::lit("x")));
    let err = normalize(&g, select, &db).unwrap_err();
    assert!(err.to_string().contains("names column 99"), "{err}");
    let vendor = g.table("vendor");
    let width = g.arity(product, &db).unwrap() + g.arity(vendor, &db).unwrap();
    let on = Expr::eq(Expr::col(0), Expr::col(width));
    let join = g.join(JoinKind::LeftSemi, product, vendor, Some(on));
    assert!(normalize(&g, join, &db).is_err());
}

/// Unnest still *evaluates* (it is only barred from trigger paths).
#[test]
fn unnest_evaluates_fragments() {
    let db = product_vendor_db();
    let mut g = Graph::new();
    let vendor = g.table("vendor");
    // Group all vendors of P1 into a fragment, then unnest it back.
    let p1 = g.select(vendor, Expr::eq(Expr::col(1), Expr::lit("P1")));
    let wrapped = g.project(
        p1,
        vec![Expr::Func(
            quark_relational::expr::ScalarFunc::XmlWrap("v".into()),
            vec![Expr::col(0)],
        )],
        vec!["v".into()],
    );
    let frag = g.group_by(
        wrapped,
        vec![],
        vec![(
            AggExpr::over(quark_relational::expr::AggFunc::XmlAgg, Expr::col(0)),
            "all".into(),
        )],
    );
    let unnested = g.unnest(frag, Expr::col(0), "item");
    let rows = evaluate(&g, unnested, &db).unwrap();
    assert_eq!(rows.len(), 3);
    assert!(rows.iter().all(|r| matches!(r[1], Value::Xml(_))));
}

/// Restricted compilation produces the same rows as filtering the full
/// result, while probing indices instead of scanning.
#[test]
fn restricted_compile_matches_filtered_full_eval() {
    let db = product_vendor_db();
    let mut g = Graph::new();
    let (top, _) = catalog_path_graph(&mut g);
    let (ng, new_top) = normalize(&g, top, &db).unwrap();

    let driver = Driver {
        plan: PhysicalPlan::new(
            PlanOp::Values {
                arity: 1,
                rows: vec![row([Value::str("CRT 15")])],
            },
            vec![],
        )
        .into_ref(),
        cols: vec![0],
    };
    let key = ng.key(new_top, &db).unwrap().to_vec();
    let plan = compile_restricted(&ng, new_top, &key, &driver, &db).unwrap();

    // Pushed all the way down: the plan contains index probes and no
    // full table scans.
    let text = plan.explain();
    assert!(text.contains("IndexJoin"), "expected index probes:\n{text}");
    assert!(!text.contains("TableScan"), "expected no scans:\n{text}");

    let rows = quark_relational::exec::execute_query(&db, &plan).unwrap();
    let full = evaluate(&ng, new_top, &db).unwrap();
    let expected: Vec<_> = full
        .into_iter()
        .filter(|r| r[catalog_cols::PNAME] == Value::str("CRT 15"))
        .collect();
    assert_eq!(rows.len(), expected.len());
    assert_eq!(rows[0], expected[0]);
}

/// The restricted memo compares drivers by value number, not by address:
/// two structurally equal drivers built apart get one shared plan, and a
/// driver one literal away gets its own, even when it is allocated where
/// a freed earlier driver lived.
#[test]
fn restricted_memo_compares_drivers_by_structure() {
    let db = product_vendor_db();
    let mut g = Graph::new();
    let (top, _) = catalog_path_graph(&mut g);
    let (ng, new_top) = normalize(&g, top, &db).unwrap();
    let key = ng.key(new_top, &db).unwrap().to_vec();
    let driver = |name: &str| Driver {
        plan: PhysicalPlan::new(
            PlanOp::Values {
                arity: 1,
                rows: vec![row([Value::str(name)])],
            },
            vec![],
        )
        .into_ref(),
        cols: vec![0],
    };
    let mut compiler = Compiler::new(&ng, &db);
    let mut restricted =
        |name| (compiler.compile_restricted(new_top, &key, &driver(name))).unwrap();
    let crt = restricted("CRT 15");
    assert!(Arc::ptr_eq(&crt, &restricted("CRT 15")));
    let lcd = restricted("LCD 19");
    assert_ne!(*crt, *lcd);
}

/// An empty driver yields an empty restricted result without touching data.
#[test]
fn restricted_compile_with_empty_driver_is_empty() {
    let db = product_vendor_db();
    let mut g = Graph::new();
    let (top, _) = catalog_path_graph(&mut g);
    let (ng, new_top) = normalize(&g, top, &db).unwrap();
    let driver = Driver {
        plan: PhysicalPlan::new(
            PlanOp::Values {
                arity: 1,
                rows: vec![],
            },
            vec![],
        )
        .into_ref(),
        cols: vec![0],
    };
    let key = ng.key(new_top, &db).unwrap().to_vec();
    let plan = compile_restricted(&ng, new_top, &key, &driver, &db).unwrap();
    let rows = quark_relational::exec::execute_query(&db, &plan).unwrap();
    assert!(rows.is_empty());
}

/// `replace_source` rewires base accesses of one table to the old epoch;
/// the mirrored graph evaluates to the pre-statement view.
#[test]
fn old_version_graph_sees_pre_statement_state() {
    let db = product_vendor_db();
    let mut g = Graph::new();
    let (top, _) = catalog_path_graph(&mut g);
    let (mut ng, new_top) = normalize(&g, top, &db).unwrap();
    let old = TableSource::Base(TableEpoch::Old);
    let (old_top, _) = ng.replace_source(new_top, "vendor", old);
    assert_ne!(old_top, new_top);
    // Keys mirrored.
    assert_eq!(ng.key(old_top, &db).unwrap(), ng.key(new_top, &db).unwrap());

    // Delete Buy.com/P2 -> LCD 19 drops below 2 vendors in the new state.
    let key = [Value::str("Buy.com"), Value::str("P2")];
    let old_row = db.table("vendor").unwrap().get(&key).unwrap().clone();
    db.delete_by_key("vendor", &key).unwrap();
    let trans = transitions("vendor", Event::Delete, vec![], vec![old_row]);

    let new_rows = evaluate_with(&ng, new_top, &db, Some(&trans)).unwrap();
    let old_rows = evaluate_with(&ng, old_top, &db, Some(&trans)).unwrap();
    assert_eq!(new_rows.len(), 1, "LCD 19 gone after delete");
    assert_eq!(old_rows.len(), 2, "old state still has LCD 19");
}

/// Shared subgraphs stay shared through normalization (the join's inputs
/// are evaluated once; the graph stays a DAG, not a tree).
#[test]
fn normalization_preserves_sharing() {
    let db = product_vendor_db();
    let mut g = Graph::new();
    let vendor = g.table("vendor");
    let left = g.select(vendor, Expr::eq(Expr::col(1), Expr::lit("P1")));
    let right = g.select(vendor, Expr::eq(Expr::col(1), Expr::lit("P2")));
    let joined = g.join(JoinKind::Inner, left, right, None);
    let (ng, new_top) = normalize(&g, joined, &db).unwrap();
    // Count Table ops in the normalized graph: the shared vendor table
    // should appear once.
    let tables = ng
        .iter()
        .filter(|(_, op)| matches!(op.kind, OpKind::Table { .. }))
        .count();
    assert_eq!(tables, 1);
    let _ = new_top;
}

/// Graph explain renders box numbers and operator kinds.
#[test]
fn explain_lists_boxes() {
    let db = product_vendor_db();
    let mut g = Graph::new();
    let root = catalog_view_graph(&mut g);
    let text = g.explain(root, &db);
    assert!(text.contains("Table product"));
    assert!(text.contains("GroupBy"));
    assert!(text.contains("Select"));
}

/// `base_tables` lists the view's base relations.
#[test]
fn base_tables_enumerates_sources() {
    let mut g = Graph::new();
    let root = catalog_view_graph(&mut g);
    assert_eq!(
        g.base_tables(root),
        vec!["product".to_string(), "vendor".to_string()]
    );
}

/// Transition-source table operators compile to transition scans.
#[test]
fn delta_table_source_reads_transitions() {
    let db = product_vendor_db();
    let mut g = Graph::new();
    let delta = g.table_from("vendor", TableSource::Delta { pruned: false });
    let new_row = row([Value::str("Amazon"), Value::str("P2"), Value::Double(500.0)]);
    let trans = transitions("vendor", Event::Insert, vec![new_row.clone()], vec![]);
    let rows = evaluate_with(&g, delta, &db, Some(&trans)).unwrap();
    assert_eq!(rows, vec![new_row]);
}
