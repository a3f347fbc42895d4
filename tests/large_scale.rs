//! Large-cardinality correctness and O(affected) firing.
//!
//! The `figures` sweeps show *flat* per-firing latency as the base tables
//! and the trigger count grow; this suite pins the same shapes down on
//! counters, where no wall clock can blur them:
//!
//! * a ≥10k-row base table behaves byte-identically to the
//!   materialize-and-diff oracle in every translation mode,
//! * a firing at that scale performs index probes, not scans — asserted on
//!   the executor's `rows_scanned`/`index_probes` counters rather than
//!   inferred from wall-clock time,
//! * Fig. 17 and the §6 compile-time table: grouped work per update is
//!   identical at 10 and 1 000 installed triggers, ungrouped work is
//!   linear in them, and only the first trigger of a shape is translated,
//! * the bench hierarchy's trigger plans construct XML for the nodes they
//!   deliver and for nothing else (the affected keys and an anti-join's
//!   partner side come from the skeleton; the injective leaf table drops
//!   the `OLD ≠ NEW` guard, so the OLD side is a skeleton),
//! * the depth-4 chain view's affected-node plans keep a fixed number of
//!   distinct nodes: the compiler shares every structurally equal subplan,
//! * a leaf UPDATE of the bench hierarchy completes its partial affected
//!   keys through the view's join equality instead of re-joining the view,
//! * the leaf constructor of that UPDATE takes the 63 unchanged `e2` rows
//!   of its 64 from its last firing, so consecutive `NEW_NODE`s share
//!   those elements by `Arc`, and ungrouped triggers share the one node,
//! * a grouped condition with no pushable equality scans its constants
//!   table once per firing, warm or not: only constructor projections keep
//!   their last firing's rows.

mod common;

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use common::{catalog_path, catalog_system, Log};
use quark_bench::{build, WorkloadSpec};
use quark_core::angraph::build_affected;
use quark_core::oracle::changes_of;
use quark_core::relational::expr::{AggFunc, Expr, ScalarFunc};
use quark_core::relational::plan::{PlanOp, PlanRef};
use quark_core::relational::{sql, Database, Error, Value};
use quark_core::xml::XmlNodeRef;
use quark_core::xqgm::fixtures::product_vendor_db;
use quark_core::{Mode, Needs, Quark, Session, SideNeeds, StatementResult, XmlEvent, XmlView};
use quark_xquery::XQueryFrontend;

/// `(event, key, old serialization, new serialization)`.
type Observed = (String, String, String, String);

const LARGE_PRODUCTS: usize = 10_000;

/// The Figure-2 catalog database scaled to `LARGE_PRODUCTS` products with
/// two vendor rows each (the view keeps products with ≥ 2 vendors): a
/// ≥10k-row base table on both sides of the join.
fn large_db() -> Database {
    let db = product_vendor_db();
    let mut products = Vec::with_capacity(LARGE_PRODUCTS);
    let mut vendors = Vec::with_capacity(2 * LARGE_PRODUCTS);
    for i in 0..LARGE_PRODUCTS {
        let pid = format!("Q{i:05}");
        products.push(vec![
            Value::str(&pid),
            Value::str(format!("Widget {i}")),
            Value::str("Acme"),
        ]);
        vendors.push(vec![
            Value::str(format!("V{}", i % 7)),
            Value::str(&pid),
            Value::Double(10.0 + (i % 97) as f64),
        ]);
        vendors.push(vec![
            Value::str(format!("W{}", i % 5)),
            Value::str(&pid),
            Value::Double(20.0 + (i % 89) as f64),
        ]);
    }
    db.load("product", products).unwrap();
    db.load("vendor", vendors).unwrap();
    db
}

/// A session over the large catalog with recording triggers for all three
/// XML events (mirrors the differential-oracle suite's `watch_all`).
fn watch_large(mode: Mode) -> (Session, Log) {
    let db = large_db();
    let pg = catalog_path(&db);
    let mut quark = Quark::new(db, mode);
    quark.register_view(XmlView::new("catalog").with_anchor("product", pg));
    let session = Session::with_frontend(quark, Box::new(XQueryFrontend));
    let log = Log::default();
    for (event, name) in [
        (XmlEvent::Insert, "ins"),
        (XmlEvent::Update, "upd"),
        (XmlEvent::Delete, "del"),
    ] {
        let sink = log.clone();
        session
            .register_action(format!("record_{name}"), move |_db, call| {
                sink.0
                    .lock()
                    .unwrap()
                    .push((call.trigger.clone(), call.params.clone()));
                Ok(())
            })
            .expect("action");
        session
            .execute(&format!(
                "create trigger watch_{name} after {event} on view('catalog')/product \
                 do record_{name}(OLD_NODE, NEW_NODE)"
            ))
            .expect("trigger");
    }
    (session, log)
}

fn observed_set(log: &Log) -> BTreeSet<Observed> {
    log.take()
        .into_iter()
        .map(|(trigger, params)| {
            let event = trigger.trim_start_matches("watch_").to_string();
            let render = |v: &Value| match v {
                Value::Xml(x) => x.to_xml(),
                _ => String::new(),
            };
            let old = render(&params[0]);
            let new = render(&params[1]);
            let key = match (&params[0], &params[1]) {
                (_, Value::Xml(x)) => x.attr("name").unwrap_or_default().to_string(),
                (Value::Xml(x), _) => x.attr("name").unwrap_or_default().to_string(),
                _ => String::new(),
            };
            (event, key, old, new)
        })
        .collect()
}

/// The large-cardinality differential scenario: keyed statements against a
/// 10k-row base table fire exactly the oracle's events, in every mode.
#[test]
fn large_cardinality_matches_oracle_in_all_modes() {
    let (ungrouped, log_u) = watch_large(Mode::Ungrouped);
    let (grouped, log_g) = watch_large(Mode::Grouped);
    let (agg, log_a) = watch_large(Mode::GroupedAgg);
    let pg = catalog_path(&ungrouped.database());

    let statements = [
        "UPDATE vendor SET price = 42.0 WHERE vid = 'V1' AND pid = 'Q00001'",
        "INSERT INTO vendor VALUES ('Amazon', 'Q00002', 10.0)",
        "DELETE FROM vendor WHERE vid = 'V3' AND pid = 'Q00003'",
        "UPDATE product SET pname = 'Renamed' WHERE pid = 'Q00004'",
        "UPDATE vendor SET price = price + 1.0 WHERE pid = 'Q00005'",
    ];
    for stmt in statements {
        let expected: BTreeSet<Observed> = changes_of(&pg, &ungrouped.database(), |db| {
            sql::run(db, stmt).map_err(Error::from).map(|_| ())
        })
        .expect("oracle")
        .into_iter()
        .map(|c| {
            let event = match c.event {
                XmlEvent::Insert => "ins",
                XmlEvent::Update => "upd",
                XmlEvent::Delete => "del",
            }
            .to_string();
            let key = c.key[0].to_string();
            let old = c.old.map(|x| x.to_xml()).unwrap_or_default();
            let new = c.new.map(|x| x.to_xml()).unwrap_or_default();
            (event, key, old, new)
        })
        .collect();
        assert!(!expected.is_empty(), "statement affects the view: {stmt}");

        ungrouped.execute(stmt).expect("ungrouped");
        grouped.execute(stmt).expect("grouped");
        agg.execute(stmt).expect("agg");

        assert_eq!(observed_set(&log_u), expected, "UNGROUPED on {stmt}");
        assert_eq!(observed_set(&log_g), expected, "GROUPED on {stmt}");
        assert_eq!(observed_set(&log_a), expected, "GROUPED-AGG on {stmt}");
    }
}

/// A keyed statement at 10k rows is processed with index probes; the rows
/// visited by scans stay orders of magnitude below the table size.
#[test]
fn firing_at_10k_rows_probes_instead_of_scanning() {
    for mode in [Mode::Ungrouped, Mode::Grouped, Mode::GroupedAgg] {
        let (session, log) = watch_large(mode);
        // Warm up, then measure the next firing.
        session
            .execute("UPDATE vendor SET price = 1.5 WHERE vid = 'V3' AND pid = 'Q00010'")
            .expect("warmup");
        log.take();
        let before = session.quark().stats();
        session
            .execute("UPDATE vendor SET price = 2.5 WHERE vid = 'V4' AND pid = 'Q00011'")
            .expect("measured statement");
        let after = session.quark().stats();
        assert!(!log.take().is_empty(), "trigger fired ({mode:?})");
        assert!(
            after.index_probes > before.index_probes,
            "{mode:?}: firing must probe indexes"
        );
        let scanned = after.rows_scanned - before.rows_scanned;
        assert!(
            scanned < (LARGE_PRODUCTS / 10) as u64,
            "{mode:?}: scanned {scanned} rows per firing at a \
             {LARGE_PRODUCTS}-row base table — O(table), not O(affected)"
        );
    }
}

/// Work one keyed `UPDATE` of the bench hierarchy costs with `triggers`
/// XML triggers installed (five of them satisfied), from the engine's
/// counters: `(SQL trigger bodies run, index probes, rows scanned)`.
fn work_per_update(mode: Mode, triggers: usize) -> (u64, u64, u64) {
    let mut spec = WorkloadSpec::quick(mode);
    spec.triggers = triggers;
    let mut workload = build(spec).expect("workload");
    workload.one_update().expect("warm-up");
    let before = workload.quark().stats();
    workload.one_update().expect("measured update");
    let after = workload.quark().stats();
    assert_eq!(
        workload.temp_rows(),
        2 * spec.satisfied,
        "{mode:?}/{triggers}"
    );
    (
        after.triggers_fired - before.triggers_fired,
        after.index_probes - before.index_probes,
        after.rows_scanned - before.rows_scanned,
    )
}

/// The shape of Fig. 17 and of the §6 compile-time table, on counters
/// (wall-clock versions: `figures fig17|compile`). Grouped translation
/// makes the work per update independent of the number of installed
/// triggers; ungrouped work grows with it. And only the first trigger of a
/// shape is translated: the rest join its group, or — ungrouped, one group
/// each — take their plans from the compile cache.
#[test]
fn work_per_update_is_flat_in_trigger_count_only_when_grouped() {
    for mode in [Mode::Grouped, Mode::GroupedAgg] {
        let few = work_per_update(mode, 10);
        assert_eq!(few, work_per_update(mode, 1_000), "{mode:?}");
        assert!(few.0 > 0 && few.1 > 0, "{mode:?}: {few:?}");
    }
    let (few, many) = (
        work_per_update(Mode::Ungrouped, 10),
        work_per_update(Mode::Ungrouped, 100),
    );
    assert_eq!(many.0, 10 * few.0, "one SQL trigger set per XML trigger");
    assert!(many.1 > 5 * few.1, "probes {few:?} -> {many:?}");

    for (mode, cache_hits) in [(Mode::Grouped, 0), (Mode::Ungrouped, 99)] {
        let mut spec = WorkloadSpec::quick(mode);
        (spec.triggers, spec.satisfied) = (1, 1);
        let first = build(spec).expect("workload").quark().translations();
        spec.triggers = 100;
        let workload = build(spec).expect("workload");
        let quark = workload.quark();
        assert!(first > 0);
        assert_eq!(
            quark.translations(),
            first,
            "{mode:?}: 99 more translate nothing"
        );
        assert_eq!(quark.compile_cache_hits(), cache_hits, "{mode:?}");
    }
}

/// XML constructors a plan evaluates per row, over its distinct nodes (a
/// shared subplan counts once): `(XmlElement + XmlWrap calls in Project
/// columns, XmlAgg aggregates)`.
fn xml_constructors(plan: &PlanRef) -> (usize, usize) {
    fn calls(e: &Expr) -> usize {
        match e {
            Expr::Func(f, args) => {
                let own = matches!(f, ScalarFunc::XmlElement { .. } | ScalarFunc::XmlWrap(_));
                usize::from(own) + args.iter().map(calls).sum::<usize>()
            }
            Expr::Binary { left, right, .. } => calls(left) + calls(right),
            Expr::Not(e) | Expr::IsNull(e) => calls(e),
            Expr::Col(_) | Expr::Lit(_) => 0,
        }
    }
    let mut counts = (0, 0);
    for node in distinct_nodes(plan) {
        match &node.op {
            PlanOp::Project { exprs } => counts.0 += exprs.iter().map(calls).sum::<usize>(),
            PlanOp::HashAggregate { aggs, .. } => {
                counts.1 += aggs.iter().filter(|a| a.func == AggFunc::XmlAgg).count()
            }
            _ => {}
        }
    }
    counts
}

/// The distinct nodes of a plan DAG: a shared subplan appears once.
fn distinct_nodes(plan: &PlanRef) -> Vec<&PlanRef> {
    let (mut seen, mut out) = (HashSet::from([Arc::as_ptr(plan)]), vec![plan]);
    let mut next = 0;
    while let Some(&p) = out.get(next) {
        out.extend(p.inputs.iter().filter(|i| seen.insert(Arc::as_ptr(i))));
        next += 1;
    }
    out
}

/// The affected-node plan of the bench trigger (`… where OLD_NODE/@name =
/// … do insertTemp(NEW_NODE)`) for an UPDATE of the leaf table `t2` of the
/// depth-3 chain view builds exactly one NEW `e0` node per affected key —
/// 7 constructors (`e0`, `e1`, `e2` and `e2`'s four column wraps) and 2
/// `aggXMLFrag`s — and nothing for the OLD side or the affected-key
/// branches. The view is injective w.r.t. `t2` (every leaf column reaches
/// `e0` inside the `e2` element), so the installed plan drops the
/// `OLD_NODE ≠ NEW_NODE` guard (Theorem 3) and the OLD side, which the
/// trigger never reads, is a skeleton (§5.2). `t0` and `t1` expose only
/// `name`, so their UPDATE plans keep the guard and both nodes. A trigger
/// that reads both nodes gets exactly the nodes each event delivers, on
/// every table. (The
/// installed SQL trigger stacks the constants probe, condition, projection
/// and sort on the affected-node plan; none of them constructs XML.)
#[test]
fn bench_chain_update_plan_builds_only_the_delivered_nodes() {
    let mut spec = WorkloadSpec::quick(Mode::Grouped);
    (spec.depth, spec.leaf_count, spec.fanout) = (3, 512, 16);
    (spec.triggers, spec.satisfied) = (1, 1);
    let workload = build(spec).expect("workload");
    let quark = workload.quark();
    let mut pg = quark.view("bench").expect("bench view").anchors["e0"].clone();
    let needs = Needs {
        old: SideNeeds { node: false },
        new: SideNeeds { node: true },
    };
    let affected = build_affected(
        &mut pg,
        "t2",
        XmlEvent::Update,
        needs,
        quark.options(),
        quark.database(),
    )
    .expect("translation")
    .expect("t2 affects e0");
    // Over the view instead of the skeleton, the Δ and ∇ affected-key
    // branches would add the view's constructors and `aggXMLFrag`s (18 and
    // 3 each), compiled only to project the keys; without the `t2` guard
    // elision the guard would read a full OLD `e0` (7 and 2 more).
    assert_eq!(xml_constructors(&affected.plan), (7, 2));

    // A trigger reading both nodes: an UPDATE builds the OLD and the NEW
    // `e0` (`t0`'s two share every level below `e0`, which `t0` does not
    // reach), an INSERT or DELETE only the node it delivers — its
    // anti-join partner is a skeleton.
    let both = Needs {
        old: SideNeeds { node: true },
        new: SideNeeds { node: true },
    };
    for (table, update) in [("t0", (8, 2)), ("t1", (14, 4)), ("t2", (14, 4))] {
        for (event, expected) in [
            (XmlEvent::Update, update),
            (XmlEvent::Insert, (7, 2)),
            (XmlEvent::Delete, (7, 2)),
        ] {
            let mut pg = quark.view("bench").expect("bench view").anchors["e0"].clone();
            let affected = build_affected(
                &mut pg,
                table,
                event,
                both,
                quark.options(),
                quark.database(),
            )
            .expect("translation")
            .expect("every table affects e0");
            let built = xml_constructors(&affected.plan);
            assert_eq!(built, expected, "{table} {event:?}");
        }
    }
    drop(quark);

    let StatementResult::Explain(text) = workload
        .session
        .execute("EXPLAIN TRIGGER xt_0")
        .expect("explain")
    else {
        panic!("expected explain text");
    };
    let guard = "Filter Binary { op: Ne";
    for (table, guarded) in [("t0", true), ("t1", true), ("t2", false)] {
        let header = format!("AFTER UPDATE ON {table}\n");
        let plan = text
            .split("  __quark_g")
            .find(|section| section.contains(&header))
            .unwrap_or_else(|| panic!("no UPDATE trigger on {table}:\n{text}"));
        assert_eq!(plan.contains(guard), guarded, "{table}:\n{plan}");
    }
}

/// Hash-consing gate: the affected-node plans of the depth-4 chain view
/// (the bench trigger's needs, every event on every table) have a fixed
/// number of distinct nodes. The key subplan feeds the OLD and NEW sides
/// at every level, so a compiler that stops sharing structurally equal
/// nodes moves these counts.
#[test]
fn chain_view_trigger_plans_keep_their_distinct_node_counts() {
    let mut spec = WorkloadSpec::quick(Mode::Grouped);
    (spec.depth, spec.leaf_count, spec.fanout) = (4, 256, 4);
    (spec.triggers, spec.satisfied) = (1, 1);
    let workload = build(spec).expect("workload");
    let quark = workload.quark();
    let needs = Needs {
        old: SideNeeds { node: false },
        new: SideNeeds { node: true },
    };
    let mut counts = vec![];
    for table in ["t0", "t1", "t2", "t3"] {
        for event in [XmlEvent::Update, XmlEvent::Insert, XmlEvent::Delete] {
            let mut pg = quark.view("bench").expect("bench view").anchors["e0"].clone();
            let affected = build_affected(
                &mut pg,
                table,
                event,
                needs,
                quark.options(),
                quark.database(),
            )
            .expect("translation")
            .expect("every table affects e0");
            counts.push(distinct_nodes(&affected.plan).len());
        }
    }
    // Every table's affected keys reach `e0` as a partial key (`t0.id`
    // alone, or the top group-by's `parent`), which the top join's
    // `t0.id = parent` completes: the Δ and ∇ key branches are
    // `Distinct(Project(AK))`, not the whole view restricted and compiled
    // a second time (each count was 54–56 nodes higher with the join-back).
    // A DELETE's NEW side is only its anti-join partner, so it is a
    // skeleton although the trigger reads NEW_NODE: `t0` DELETE has 45
    // nodes, not the 54 of a full NEW side.
    let expected = [46, 54, 45, 107, 106, 106, 135, 134, 134, 146, 146, 146];
    assert_eq!(counts, expected, "UPDATE/INSERT/DELETE on t0..t3");
}

/// A leaf UPDATE of the depth-3 bench hierarchy (`fanout-cascade`'s shape)
/// reads its affected top element's keys without re-joining the view. Its
/// Δ and ∇ affected keys hold the top group-by's `parent` only; the top
/// join's `t0.id = parent` completes them, so the `t2` UPDATE plan probes
/// `t1` by parent and `t0` by key once each, for the NEW side (the OLD
/// skeleton shares the `t1` probe). Joining the partial keys back with the
/// view instead puts three of each in the plan and costs 46 index probes
/// per firing, not 26.
#[test]
fn bench_leaf_update_completes_its_affected_keys_without_a_join_back() {
    let mut spec = WorkloadSpec::quick(Mode::Grouped);
    (spec.depth, spec.leaf_count, spec.fanout) = (3, 1024, 64);
    (spec.triggers, spec.satisfied) = (20, 20);
    let mut workload = build(spec).expect("workload");
    let StatementResult::Explain(text) = workload
        .session
        .execute("EXPLAIN TRIGGER xt_0")
        .expect("explain")
    else {
        panic!("expected explain text");
    };
    let plan = text
        .split("  __quark_g")
        .find(|section| section.contains("AFTER UPDATE ON t2\n"))
        .unwrap_or_else(|| panic!("no UPDATE trigger on t2:\n{text}"));
    let count = |needle: &str| plan.matches(needle).count();
    assert_eq!(count("-> t1[Current] probe cols [1]"), 1, "{plan}");
    assert_eq!(count("-> t0["), 1, "{plan}");

    workload.one_update().expect("warm-up");
    let before = workload.quark().stats();
    workload.one_update().expect("measured update");
    let after = workload.quark().stats();
    assert_eq!(after.triggers_fired - before.triggers_fired, 1);
    assert_eq!(after.index_probes - before.index_probes, 26);
}

/// `fanout-cascade`'s shape, from the engine's counters: a warm leaf UPDATE
/// of the depth-3 bench hierarchy (64 leaves per top element, 20 satisfied
/// grouped triggers) rebuilds the hot `e0`, and its leaf constructor takes
/// the 63 unchanged `e2` rows from its last firing. Reuse changes no
/// probe, statement or scan: `(fired, probes, statements, scanned, reused)`
/// per write.
#[test]
fn bench_leaf_update_reuses_63_of_64_leaf_elements() {
    let mut spec = WorkloadSpec::quick(Mode::Grouped);
    (spec.depth, spec.leaf_count, spec.fanout) = (3, 1024, 64);
    (spec.triggers, spec.satisfied) = (20, 20);
    let mut workload = build(spec).expect("workload");
    workload.one_update().expect("warm-up");
    for _ in 0..3 {
        let before = workload.quark().stats();
        workload.one_update().expect("measured update");
        let after = workload.quark().stats();
        let per_write = (
            after.triggers_fired - before.triggers_fired,
            after.index_probes - before.index_probes,
            after.statements - before.statements,
            after.rows_scanned - before.rows_scanned,
            after.build_cache_hits - before.build_cache_hits,
        );
        assert_eq!(per_write, (1, 26, 21, 0, 63));
    }
}

/// The `e2` leaf elements of a NEW `e0` node, in document order.
fn leaf_elements(firing: &common::Firing) -> Vec<XmlNodeRef> {
    let node = common::node_param(firing);
    node.descendants_named("e2").into_iter().cloned().collect()
}

/// Two consecutive UPDATEs of different hot leaves deliver `NEW_NODE`s
/// that share 63 of their 64 `e2` elements by `Arc`; the leaf the second
/// UPDATE changed is a new node with the new price.
#[test]
fn consecutive_leaf_updates_share_the_unchanged_leaf_elements() {
    let mut spec = WorkloadSpec::quick(Mode::Grouped);
    (spec.depth, spec.leaf_count, spec.fanout) = (3, 1024, 64);
    (spec.triggers, spec.satisfied) = (0, 0);
    let workload = build(spec).expect("workload");
    let session = &workload.session;
    let log = Log::default();
    let sink = log.clone();
    session
        .register_action("capture", move |_db, call| {
            sink.0
                .lock()
                .unwrap()
                .push((call.trigger.clone(), call.params.clone()));
            Ok(())
        })
        .expect("action");
    session
        .execute(
            "create trigger capture after update on view('bench')/e0 \
             where OLD_NODE/@name = 'name_0_0' do capture(NEW_NODE)",
        )
        .expect("trigger");
    let [a, b, c] = [0, 1, 2].map(|i| workload.hot_leaves[i]);
    let mut nodes = Vec::new();
    for (leaf, price) in [(a, 1.5), (b, 2.5), (c, 3.5)] {
        session
            .execute(&format!(
                "UPDATE t2 SET price = {price:?} WHERE id = {leaf}"
            ))
            .expect("update");
        let firings = log.take();
        assert_eq!(firings.len(), 1);
        nodes.push(leaf_elements(&firings[0]));
    }
    let (second, third) = (&nodes[1], &nodes[2]);
    assert_eq!((second.len(), third.len()), (64, 64));
    let fresh: Vec<&XmlNodeRef> = third
        .iter()
        .filter(|n| !second.iter().any(|m| Arc::ptr_eq(m, n)))
        .collect();
    assert_eq!(fresh.len(), 1, "63 of 64 leaf elements are shared");
    assert_eq!(fresh[0].attr("name"), Some(format!("name_2_{c}").as_str()));
    assert!(fresh[0].to_xml().contains("<price>3.5</price>"));
}

/// `Mode::Ungrouped` gives every XML trigger its own SQL triggers, but the
/// compile cache hands them one affected-node plan, so they execute one
/// leaf constructor node and share its reuse slot: after the first trigger
/// rebuilds the changed leaf, the other nine take all 64 rows.
#[test]
fn ungrouped_triggers_share_one_constructor_node() {
    let mut spec = WorkloadSpec::quick(Mode::Ungrouped);
    (spec.depth, spec.leaf_count, spec.fanout) = (3, 1024, 64);
    (spec.triggers, spec.satisfied) = (10, 2);
    let mut workload = build(spec).expect("workload");
    workload.one_update().expect("warm-up");
    let before = workload.quark().stats();
    workload.one_update().expect("measured update");
    let after = workload.quark().stats();
    assert_eq!(after.triggers_fired - before.triggers_fired, 10);
    assert_eq!(
        after.build_cache_hits - before.build_cache_hits,
        63 + 9 * 64
    );
}

/// A session over the Figure-2 catalog with `triggers` grouped XML triggers
/// `where NEW_NODE/vendor/price > C_i`, none of which fires: one group, one
/// constants table with a row per trigger, and a comparison against it that
/// no index can answer.
fn price_threshold_session(mode: Mode, triggers: usize) -> (Session, Log) {
    let (session, log) = catalog_system(mode);
    for i in 0..triggers {
        session
            .execute(&format!(
                "create trigger above_{i} after update on view('catalog')/product \
                 where NEW_NODE/vendor/price > {}.0 do notify(NEW_NODE)",
                10_000 + i
            ))
            .expect("trigger");
    }
    (session, log)
}

/// The one firing shape that reads a whole stored table. A grouped
/// condition with no pushable equality (`>` against the §5.1 constants)
/// joins the constants table by a nested loop, so every firing scans it
/// once: exactly its row count lands in `rows_scanned`, while the index
/// probes that locate the affected node stay independent of the trigger
/// count. The executor keeps no join input across firings, so a warm
/// firing pays the same scan as the first.
#[test]
fn non_pushable_grouped_condition_scans_its_constants_table_per_firing() {
    for mode in [Mode::Grouped, Mode::GroupedAgg] {
        let mut probes = Vec::new();
        for triggers in [10, 1_000] {
            let (session, log) = price_threshold_session(mode, triggers);
            let constants: Vec<u64> = {
                let db = session.database();
                db.table_names()
                    .filter(|t| t.starts_with("__quark_const_"))
                    .map(|t| db.table(t).unwrap().len() as u64)
                    .collect()
            };
            assert_eq!(constants, [triggers as u64], "{mode:?}/{triggers}");
            session
                .execute("UPDATE vendor SET price = 101.0 WHERE vid = 'Amazon' AND pid = 'P1'")
                .expect("warm-up");
            let before = session.quark().stats();
            session
                .execute("UPDATE vendor SET price = 102.0 WHERE vid = 'Amazon' AND pid = 'P1'")
                .expect("measured update");
            let after = session.quark().stats();
            assert!(log.is_empty(), "{mode:?}/{triggers}: no threshold is met");
            assert_eq!(after.triggers_fired - before.triggers_fired, 1);
            assert_eq!(
                after.rows_scanned - before.rows_scanned,
                constants[0],
                "{mode:?}/{triggers}: one constants-table scan per firing"
            );
            probes.push(after.index_probes - before.index_probes);
        }
        assert!(probes[0] > 0, "{mode:?}: {probes:?}");
        assert_eq!(probes[0], probes[1], "{mode:?}: probes flat in N");
    }
}
