//! Trigger-semantics edge cases: spurious-update suppression for
//! non-injective views (Appendix E.1 / F), condition evaluation paths,
//! event classification corners, and trigger drop/recreate lifecycle —
//! all driven through `Session::execute`.

mod common;

use std::collections::HashMap;

use common::{all_modes, catalog_system, node_param, update_price, Log};
use quark_core::relational::Database;
use quark_core::xqgm::fixtures::{minprice_path_graph, product_vendor_db};
use quark_core::xqgm::{Graph, KeyedGraph};
use quark_core::{Mode, PathGraph, Quark, Session, StatementResult, XmlView};
use quark_xquery::XQueryFrontend;

fn minprice_system(mode: Mode) -> (Session, Log) {
    let db = product_vendor_db();
    let mut g = Graph::new();
    let top = minprice_path_graph(&mut g);
    let (kg, root) = KeyedGraph::normalize(&g, top, &db).unwrap();
    let mut attr_cols = HashMap::new();
    attr_cols.insert("name".to_string(), 0);
    let pg = PathGraph {
        kg,
        root,
        node_col: 1,
        attr_cols,
    };
    let mut quark = Quark::new(db, mode);
    quark.register_view(XmlView::new("minprice").with_anchor("product", pg));
    let session = Session::with_frontend(quark, Box::new(XQueryFrontend));
    let log = Log::default();
    let sink = log.clone();
    session
        .register_action("notify", move |_db: &Database, call| {
            sink.0
                .lock()
                .unwrap()
                .push((call.trigger.clone(), call.params.clone()));
            Ok(())
        })
        .unwrap();
    (session, log)
}

const MINPRICE_TRIGGER: &str = "create trigger MinWatch after update \
     on view('minprice')/product do notify(NEW_NODE)";

/// Appendix E.1's spurious-update example: changing a non-minimum price
/// leaves the min-price node unchanged; the trigger must NOT fire. The
/// min-price view is not injective (min() is lossy), so this exercises the
/// explicit `OLD_NODE != NEW_NODE` check.
#[test]
fn non_minimum_price_change_is_suppressed() {
    for mode in all_modes() {
        let (mut session, log) = minprice_system(mode);
        session.execute(MINPRICE_TRIGGER).unwrap();
        // CRT 15 groups P1{100,120,150} and P3{120,140}: min is 100.
        // Raising Circuitcity P1 from 150 to 160 keeps min = 100.
        update_price(&mut session, "Circuitcity", "P1", 160.0).unwrap();
        assert_eq!(log.len(), 0, "{mode:?}: spurious update fired");
        // Changing the actual minimum fires.
        update_price(&mut session, "Amazon", "P1", 50.0).unwrap();
        let firings = log.take();
        assert_eq!(firings.len(), 1, "{mode:?}");
        let node = node_param(&firings[0]);
        assert_eq!(
            node.children_named("min").next().unwrap().text_content(),
            "50",
            "{mode:?}"
        );
    }
}

/// The serialized catalog view (`MATERIALIZE`).
fn catalog_xml(session: &Session) -> String {
    let StatementResult::Xml(nodes) = session
        .execute("MATERIALIZE view('catalog')/product")
        .unwrap()
    else {
        panic!("expected Xml")
    };
    nodes.iter().map(|n| n.to_xml()).collect()
}

/// `0.0 = −0.0`, so Appendix-F pruning sees no change from one to the
/// other and nothing fires; the view must not change either. Both zeros
/// render as `0` (XPath number-to-string), not `-0`.
#[test]
fn negative_zero_price_changes_neither_the_view_nor_the_firings() {
    for mode in all_modes() {
        let (mut session, log) = catalog_system(mode);
        session
            .execute(
                "create trigger All after update on view('catalog')/product do notify(NEW_NODE)",
            )
            .unwrap();
        update_price(&mut session, "Amazon", "P1", 0.0).unwrap();
        assert_eq!(log.take().len(), 1, "{mode:?}");
        let before = catalog_xml(&session);
        assert!(before.contains("<price>0</price>"), "{mode:?}: {before}");
        update_price(&mut session, "Amazon", "P1", -0.0).unwrap();
        assert!(log.is_empty(), "{mode:?}: −0.0 equals 0.0");
        assert_eq!(catalog_xml(&session), before, "{mode:?}");
    }
}

/// `2^53 + 1` as an integer equals the double `2^53` it rounds to, so
/// pruning sees no change from one to the other and nothing fires. The
/// DOUBLE column stores the integer as that double, so the view does not
/// change either: it renders `2^53`'s digits, not `2^53 + 1`'s.
#[test]
fn integer_above_2_pow_53_in_a_double_column_changes_neither_the_view_nor_the_firings() {
    for mode in all_modes() {
        let (mut session, log) = catalog_system(mode);
        session
            .execute(
                "create trigger All after update on view('catalog')/product do notify(NEW_NODE)",
            )
            .unwrap();
        update_price(&mut session, "Amazon", "P1", 9_007_199_254_740_992.0).unwrap();
        assert_eq!(log.take().len(), 1, "{mode:?}");
        let before = catalog_xml(&session);
        assert!(
            before.contains("<price>9007199254740992</price>"),
            "{mode:?}: {before}"
        );
        session
            .execute(
                "UPDATE vendor SET price = 9007199254740993 WHERE vid = 'Amazon' AND pid = 'P1'",
            )
            .unwrap();
        assert!(log.is_empty(), "{mode:?}: 2^53 + 1 equals 2^53 as a double");
        assert_eq!(catalog_xml(&session), before, "{mode:?}");
    }
}

/// Conditions with nested step predicates cannot be pushed relationally and
/// fall back to value-space evaluation; results must be identical.
#[test]
fn residual_condition_with_step_predicate() {
    for mode in all_modes() {
        let (mut session, log) = catalog_system(mode);
        // count(NEW_NODE/vendor[./price < 110]) >= 1 -- the nested shape
        // discussed in section 5.1.
        session
            .execute(
                "create trigger Cheap after update on view('catalog')/product \
                 where count(NEW_NODE/vendor[./price < 110]) >= 1 \
                 do notify(NEW_NODE)",
            )
            .unwrap();

        // 100 -> 105: still a vendor under 110 -> fires.
        update_price(&mut session, "Amazon", "P1", 105.0).unwrap();
        assert_eq!(log.take().len(), 1, "{mode:?}");
        // 105 -> 130: no vendor under 110 anymore -> node updates, but the
        // condition is false.
        update_price(&mut session, "Amazon", "P1", 130.0).unwrap();
        assert_eq!(log.len(), 0, "{mode:?}");
    }
}

/// Conditions touching deep OLD content force the old side to construct
/// nodes (no skeleton); verify correct OLD values flow into conditions.
#[test]
fn old_content_condition_forces_full_old_side() {
    for mode in all_modes() {
        let (mut session, log) = catalog_system(mode);
        // Fire only when the OLD node still had a vendor under 110.
        session
            .execute(
                "create trigger WasCheap after update on view('catalog')/product \
                 where OLD_NODE/vendor/price < 110 do notify(OLD_NODE)",
            )
            .unwrap();

        // OLD has Amazon at 100 (< 110): fires.
        update_price(&mut session, "Amazon", "P1", 200.0).unwrap();
        assert_eq!(log.take().len(), 1, "{mode:?}");
        // Now OLD min is 120: does not fire.
        update_price(&mut session, "Amazon", "P1", 250.0).unwrap();
        assert_eq!(log.len(), 0, "{mode:?}");
    }
}

/// INSERT conditions referencing NEW attributes are honoured.
#[test]
fn insert_condition_on_new_attribute() {
    for mode in all_modes() {
        let (session, log) = catalog_system(mode);
        session
            .execute(
                "create trigger NewOled after insert on view('catalog')/product \
                 where NEW_NODE/@name = 'OLED 42' do notify(NEW_NODE)",
            )
            .unwrap();
        session
            .execute(
                "INSERT INTO product VALUES ('P4', 'OLED 42', 'LG'), \
                                            ('P5', 'QLED 55', 'Samsung')",
            )
            .unwrap();
        session
            .execute(
                "INSERT INTO vendor VALUES ('Amazon', 'P4', 1.0), ('Bestbuy', 'P4', 2.0), \
                                           ('Amazon', 'P5', 3.0), ('Bestbuy', 'P5', 4.0)",
            )
            .unwrap();
        // Both products appear, only OLED 42 matches the condition.
        let firings = log.take();
        assert_eq!(firings.len(), 1, "{mode:?}: {firings:?}");
        assert_eq!(
            node_param(&firings[0]).attr("name"),
            Some("OLED 42"),
            "{mode:?}"
        );
    }
}

/// One statement updating multiple rows fires per affected node, once each.
#[test]
fn multi_row_statement_fires_per_affected_node() {
    for mode in all_modes() {
        let (session, log) = catalog_system(mode);
        session
            .execute(
                "create trigger All after update on view('catalog')/product \
                 do notify(NEW_NODE)",
            )
            .unwrap();
        // Raise every Bestbuy price: affects CRT 15 (P1+P3) and LCD 19 (P2).
        // A non-keyed UPDATE with an arithmetic SET — one statement.
        session
            .execute("UPDATE vendor SET price = price + 1.0 WHERE vid = 'Bestbuy'")
            .unwrap();
        let mut names: Vec<String> = log
            .take()
            .iter()
            .map(|f| node_param(f).attr("name").unwrap().to_string())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec!["CRT 15".to_string(), "LCD 19".to_string()],
            "{mode:?}"
        );
    }
}

/// Unregistered action functions surface as errors at fire time.
#[test]
fn unregistered_action_errors_at_fire_time() {
    let (mut session, _log) = catalog_system(Mode::Grouped);
    session
        .execute("create trigger Bad after update on view('catalog')/product do no_such_fn()")
        .unwrap();
    let err = update_price(&mut session, "Amazon", "P1", 75.0).unwrap_err();
    assert!(err.to_string().contains("no_such_fn"), "{err}");
}

/// Triggers on unknown views or anchors are rejected at creation.
#[test]
fn unknown_view_or_anchor_rejected() {
    let (session, _log) = catalog_system(Mode::Grouped);
    assert!(session
        .execute("create trigger X after update on view('nope')/product do notify()")
        .is_err());
    assert!(session
        .execute("create trigger X after update on view('catalog')/vendor do notify()")
        .is_err());
}

/// Duplicate trigger names are rejected.
#[test]
fn duplicate_trigger_name_rejected() {
    let (session, _log) = catalog_system(Mode::Grouped);
    let stmt = "create trigger Dup after update on view('catalog')/product do notify()";
    session.execute(stmt).unwrap();
    assert!(session.execute(stmt).is_err());
}

/// Duplicate action registration is rejected instead of silently
/// overwriting the closure installed triggers reference.
#[test]
fn duplicate_action_registration_rejected() {
    let (session, _log) = catalog_system(Mode::Grouped);
    let err = session
        .register_action("notify", |_, _| Ok(()))
        .unwrap_err();
    assert!(
        matches!(err, quark_core::relational::Error::ActionExists(ref n) if n == "notify"),
        "{err:?}"
    );
}

// ---------------------------------------------------------------------
// Drop/recreate lifecycle (constants-table hygiene)
// ---------------------------------------------------------------------

fn watch(name: &str, product: &str) -> String {
    format!(
        "create trigger {name} after update on view('catalog')/product \
         where OLD_NODE/@name = '{product}' do notify(NEW_NODE)"
    )
}

/// Creating, dropping and recreating triggers returns SQL-trigger and
/// constants-row counts to baseline in every mode.
#[test]
fn drop_recreate_round_trip_restores_baseline() {
    for mode in all_modes() {
        let (mut session, log) = catalog_system(mode);
        let baseline_sql = session.quark().sql_trigger_count();
        let baseline_consts = session.quark().constants_row_count();
        assert_eq!(baseline_sql, 0, "{mode:?}");
        assert_eq!(baseline_consts, 0, "{mode:?}");

        for round in 0..3 {
            session.execute(&watch("A", "CRT 15")).unwrap();
            session.execute(&watch("B", "LCD 19")).unwrap();
            let with_sql = session.quark().sql_trigger_count();
            let with_consts = session.quark().constants_row_count();
            assert!(with_sql > 0, "{mode:?} round {round}");
            session.execute("DROP TRIGGER A").unwrap();
            session.execute("DROP TRIGGER B").unwrap();
            assert_eq!(
                session.quark().sql_trigger_count(),
                baseline_sql,
                "{mode:?} round {round}: SQL triggers leaked"
            );
            assert_eq!(
                session.quark().constants_row_count(),
                baseline_consts,
                "{mode:?} round {round}: constants rows leaked"
            );
            assert_eq!(session.quark().xml_trigger_count(), 0, "{mode:?}");
            // Recreate in the next round must translate from scratch and
            // still produce the same counts.
            let _ = (with_sql, with_consts);
        }

        // After the final drop nothing fires.
        update_price(&mut session, "Amazon", "P1", 42.0).unwrap();
        assert_eq!(log.len(), 0, "{mode:?}");
    }
}

/// Dropping the last member of a *set* in a still-live group removes its
/// constants-table row and `sets` entry — stale rows must not keep
/// joining (and must not resurrect when the set's constant is reused).
#[test]
fn dropping_last_set_member_removes_constants_row() {
    let (mut session, log) = catalog_system(Mode::Grouped);
    session.execute(&watch("A", "CRT 15")).unwrap();
    session.execute(&watch("B", "LCD 19")).unwrap();
    assert_eq!(session.quark().group_count(), 1);
    assert_eq!(session.quark().constants_row_count(), 2);

    // B leaves: its set has no members, so its constants row must go.
    session.execute("DROP TRIGGER B").unwrap();
    assert_eq!(session.quark().group_count(), 1);
    assert_eq!(
        session.quark().constants_row_count(),
        1,
        "stale constants row leaked after last set member left"
    );

    // The group still fires for the surviving set…
    update_price(&mut session, "Amazon", "P1", 75.0).unwrap();
    assert_eq!(log.take().len(), 1);
    // …and not for the dropped one.
    update_price(&mut session, "Buy.com", "P2", 190.0).unwrap();
    assert_eq!(log.len(), 0);

    // Rejoining with the same constant gets a fresh row and fires again.
    session.execute(&watch("B2", "LCD 19")).unwrap();
    assert_eq!(session.quark().constants_row_count(), 2);
    update_price(&mut session, "Buy.com", "P2", 200.0).unwrap();
    let firings = log.take();
    assert_eq!(firings.len(), 1, "{firings:?}");
    assert_eq!(firings[0].0, "B2");
}

/// Same-set sharing survives a partial drop: with two triggers on one
/// constant, dropping one keeps the row (the other still needs it).
#[test]
fn shared_set_keeps_row_until_last_member_leaves() {
    let (mut session, log) = catalog_system(Mode::Grouped);
    session.execute(&watch("A", "CRT 15")).unwrap();
    session.execute(&watch("B", "CRT 15")).unwrap();
    assert_eq!(session.quark().constants_row_count(), 1);
    session.execute("DROP TRIGGER A").unwrap();
    assert_eq!(session.quark().constants_row_count(), 1);
    update_price(&mut session, "Amazon", "P1", 75.0).unwrap();
    let firings = log.take();
    assert_eq!(firings.len(), 1);
    assert_eq!(firings[0].0, "B");
    session.execute("DROP TRIGGER B").unwrap();
    assert_eq!(session.quark().sql_trigger_count(), 0);
    assert_eq!(session.quark().constants_row_count(), 0);
}
