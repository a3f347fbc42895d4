//! Trigger-semantics edge cases: spurious-update suppression for
//! non-injective views (Appendix E.1 / F), condition evaluation paths,
//! event classification corners, and trigger drop/recreate lifecycle —
//! all driven through `Session::execute`.

mod common;

use std::collections::HashMap;

use common::{all_modes, catalog_system, group_line, node_param, update_price, Log};
use quark_core::relational::expr::{Expr, ScalarFunc};
use quark_core::relational::plan::JoinKind;
use quark_core::relational::{Database, Error, Row, Value};
use quark_core::storage::SyncMode;
use quark_core::xqgm::fixtures::{minprice_path_graph, product_vendor_db};
use quark_core::xqgm::{normalize, Graph};
use quark_core::{
    ActionCall, Mode, PathGraph, Quark, Session, StatementError, StatementResult, XmlView,
};
use quark_xquery::XQueryFrontend;

fn minprice_system(mode: Mode) -> (Session, Log) {
    let db = product_vendor_db();
    let mut g = Graph::new();
    let top = minprice_path_graph(&mut g);
    let (graph, root) = normalize(&g, top, &db).unwrap();
    let mut attr_cols = HashMap::new();
    attr_cols.insert("name".to_string(), 0);
    let pg = PathGraph {
        graph,
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

/// `−1.0 ≠ 1.0`: an UPDATE that negates a price changes the node, so it
/// fires once and the view renders the negative price.
#[test]
fn negating_a_price_fires_and_changes_the_view() {
    for mode in all_modes() {
        let (mut session, log) = catalog_system(mode);
        session
            .execute(
                "create trigger All after update on view('catalog')/product do notify(NEW_NODE)",
            )
            .unwrap();
        update_price(&mut session, "Amazon", "P1", 1.0).unwrap();
        assert_eq!(log.take().len(), 1, "{mode:?}");
        update_price(&mut session, "Amazon", "P1", -1.0).unwrap();
        let firings = log.take();
        assert_eq!(firings.len(), 1, "{mode:?}: −1.0 differs from 1.0");
        assert!(
            node_param(&firings[0])
                .to_xml()
                .contains("<price>-1</price>"),
            "{mode:?}"
        );
        let view = catalog_xml(&session);
        assert!(view.contains("<price>-1</price>"), "{mode:?}: {view}");
        assert!(!view.contains("<price>1</price>"), "{mode:?}: {view}");
    }
}

/// A condition with a nested step predicate compiles to a plan filter like
/// any other (the predicate runs once per vendor item), and fires exactly
/// where the predicate holds for some vendor.
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

/// Every condition text of the suite, plus the shapes the compiled path
/// once got wrong (an attribute and `//` over a node sequence) and the rest
/// of the language (`every`, `not`, nested predicates, path against path),
/// compiled by `Condition::compile` over a row holding the nodes and
/// evaluated by the value-space reference in `tests/common`: both agree on
/// every pair of fixture nodes, an absent side included, with the
/// constants inline and as parameters.
#[test]
fn compiled_conditions_match_the_reference() {
    use quark_core::condition::CondLayout;
    use quark_core::xml::{element, text, XmlNodeRef};

    const CONDITIONS: &[&str] = &[
        "OLD_NODE/@name = 'CRT 15'",
        "NEW_NODE/@name = 'OLED 42'",
        "OLD_NODE/@name = 'ada'",
        "OLD_NODE/vendor/price < 110",
        "NEW_NODE/vendor/price > 100.0",
        "NEW_NODE/vendor/price = 5.5",
        "count(NEW_NODE/order) >= 3",
        "count(NEW_NODE/vendor[./price < 110]) >= 1",
        "some $o in NEW_NODE/order satisfies ./total > 500",
        "some $v in NEW_NODE/vendor satisfies ./price < 100",
        "OLD_NODE/vendor[./price > 100]/@vid = 'Amazon'",
        "OLD_NODE/vendor[./price > 100]/vid = 'Amazon'",
        "NEW_NODE/vendor[./price > 100]/vid = 'Amazon'",
        "OLD_NODE/vendor/vid = 'Amazon'",
        "count(OLD_NODE/vendor[./price > 100]) >= 2",
        "exists(NEW_NODE/vendor[./price > 100])",
        "exists(NEW_NODE/order/@oid)",
        "count(NEW_NODE/order/@oid) >= 2",
        "NEW_NODE/order/@oid = 10",
        "count(NEW_NODE/vendor//vendor) >= 2",
        "NEW_NODE//vendor/@vid = 'Amazon'",
        "count(NEW_NODE//price) >= 3",
        "every $v in NEW_NODE/vendor satisfies ./price < 200",
        "every $v in NEW_NODE/vendor satisfies $v/@vid = 'Amazon'",
        "not(OLD_NODE/@name = 'CRT 15')",
        "not(OLD_NODE/vendor/price > 100) or NEW_NODE/@name = 'LCD 19'",
        "exists(NEW_NODE/vendor[exists(./vendor[./price > 100])])",
        "NEW_NODE/vendor[./price > 100 and ./vid = 'Amazon']/price < 150",
        "NEW_NODE/vendor/vid = OLD_NODE/vendor/vid",
        "NEW_NODE/vendor/price > OLD_NODE/vendor/price",
        "NEW_NODE/vendor[./price > OLD_NODE/vendor/price]/vid = 'Amazon'",
        "count(NEW_NODE/vendor) > count(OLD_NODE/vendor)",
    ];

    let node = |name: &str, attrs: &[(&str, &str)], children: Vec<XmlNodeRef>| {
        let attrs = attrs.iter().map(|&(k, v)| (k.into(), v.into())).collect();
        element(name, attrs, children)
    };
    let leaf = |name: &str, value: &str| node(name, &[], vec![text(value)]);
    let (session, _) = catalog_system(Mode::Ungrouped);
    let StatementResult::Xml(mut fixtures) = session
        .execute("MATERIALIZE view('catalog')/product")
        .unwrap()
    else {
        panic!("expected XML");
    };
    // Children that carry attributes; one vendor lacks `vid`.
    fixtures.push(node(
        "customer",
        &[("name", "ada")],
        vec![
            node("order", &[("oid", "10")], vec![leaf("total", "120")]),
            node("order", &[("oid", "11")], vec![leaf("total", "800")]),
        ],
    ));
    fixtures.push(node(
        "product",
        &[("name", "LCD 19")],
        vec![
            node(
                "vendor",
                &[("vid", "Amazon")],
                vec![leaf("vid", "Amazon"), leaf("price", "120")],
            ),
            node("vendor", &[], vec![leaf("price", "5.5")]),
        ],
    ));
    // A vendor nested in a vendor.
    fixtures.push(node(
        "product",
        &[("name", "CRT 15")],
        vec![node(
            "vendor",
            &[],
            vec![
                leaf("vid", "Amazon"),
                leaf("price", "130"),
                node("vendor", &[], vec![leaf("price", "101")]),
            ],
        )],
    ));
    let value = |n: Option<&XmlNodeRef>| n.map_or(Value::Null, |n| Value::Xml(n.clone()));
    let show = |n: Option<&XmlNodeRef>| n.map_or("()".into(), |n| n.to_xml());
    let sides: Vec<Option<&XmlNodeRef>> = std::iter::once(None)
        .chain(fixtures.iter().map(Some))
        .collect();

    for text in CONDITIONS {
        let parsed = quark_xquery::parse_expr(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let cond = quark_xquery::lower_condition(&parsed).unwrap_or_else(|e| panic!("{text}: {e}"));
        let (sig, consts) = cond.extract_constants();
        let parameterized = [(&cond, &[][..]), (&sig, &consts[..])];
        // A layout without a side's column (an INSERT's OLD_NODE, a
        // DELETE's NEW_NODE) reads that side as absent.
        let columns = [(Some(0), Some(1)), (None, Some(1)), (Some(0), None)];
        for ((cond, params), (old_node, new_node)) in parameterized
            .into_iter()
            .flat_map(|p| columns.map(|c| (p, c)))
        {
            let layout = CondLayout {
                old_node,
                new_node,
                params: (2..2 + params.len()).collect(),
                ..Default::default()
            };
            let compiled = cond.compile(&layout).unwrap();
            for &old in &sides {
                for &new in &sides {
                    let old = old.filter(|_| old_node.is_some());
                    let new = new.filter(|_| new_node.is_some());
                    let mut row = vec![value(old), value(new)];
                    row.extend_from_slice(params);
                    let got = compiled.eval(&row).unwrap().is_true();
                    let want = common::reference::eval(cond, old, new, params).unwrap();
                    assert_eq!(
                        got,
                        want,
                        "{text} (params {params:?}) on OLD {} / NEW {}",
                        show(old),
                        show(new)
                    );
                }
            }
        }
    }
}

/// `OLD_NODE` of an INSERT and `NEW_NODE` of a DELETE are absent: their
/// paths select nothing, so a comparison on them fails, its negation holds
/// and a count over them is 0.
#[test]
fn paths_on_the_absent_side_select_nothing() {
    for mode in all_modes() {
        let (session, log) = catalog_system(mode);
        for trigger in [
            "create trigger NotOld after insert on view('catalog')/product \
             where not(OLD_NODE/@name = 'OLED 42') do notify(NEW_NODE)",
            "create trigger NoNew after delete on view('catalog')/product \
             where count(NEW_NODE/vendor) = 0 and not(exists(NEW_NODE/@name)) \
             do notify(OLD_NODE)",
        ] {
            session.execute(trigger).unwrap();
        }
        for stmt in [
            "INSERT INTO product VALUES ('P4', 'OLED 42', 'LG')",
            "INSERT INTO vendor VALUES ('Amazon', 'P4', 1.0), ('Bestbuy', 'P4', 2.0)",
            "DELETE FROM vendor WHERE vid = 'Amazon' AND pid = 'P4'",
        ] {
            session.execute(stmt).unwrap();
        }
        let names: Vec<String> = log.take().into_iter().map(|(t, _)| t).collect();
        assert_eq!(names, ["NotOld", "NoNew"], "{mode:?}");
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

/// The vendor table as a reader and as the authoritative state see it.
fn vendor_state(session: &Session) -> (StatementResult, u64) {
    let selected = session.execute("SELECT * FROM vendor").unwrap();
    (
        selected,
        session.database().table("vendor").unwrap().version(),
    )
}

/// An unregistered action among a set's members fails the row before any
/// action of it runs: the registered member ahead of it is not called,
/// and the statement leaves the table as it was.
#[test]
fn unregistered_action_fails_the_row_before_any_of_its_actions_runs() {
    for mode in [Mode::Grouped, Mode::GroupedAgg] {
        let (mut session, log) = catalog_system(mode);
        session
            .execute(
                "create trigger Good after update on view('catalog')/product do notify(NEW_NODE)",
            )
            .unwrap();
        session
            .execute("create trigger Bad after update on view('catalog')/product do no_such_fn(NEW_NODE)")
            .unwrap();
        let before = vendor_state(&session);
        let err = update_price(&mut session, "Amazon", "P1", 75.0).unwrap_err();
        assert!(
            err.to_string().contains("unregistered action `no_such_fn`"),
            "{mode:?}: {err}"
        );
        assert_eq!(log.len(), 0, "{mode:?}: an action of the failed row ran");
        assert_eq!(vendor_state(&session), before, "{mode:?}");
    }
}

/// One set whose members call two different actions calls them in member
/// order, each member once.
#[test]
fn one_set_calls_two_actions_in_member_order() {
    for mode in [Mode::Grouped, Mode::GroupedAgg] {
        let (mut session, log) = catalog_system(mode);
        let sink = log.clone();
        session
            .register_action("ping", move |_db: &Database, call| {
                let trigger = format!("ping {}", call.trigger);
                sink.0.lock().unwrap().push((trigger, call.params.clone()));
                Ok(())
            })
            .unwrap();
        for (name, action) in [("T1", "notify"), ("T2", "ping"), ("T3", "notify")] {
            session
                .execute(&format!(
                    "create trigger {name} after update on view('catalog')/product do {action}(NEW_NODE)"
                ))
                .unwrap();
        }
        assert_eq!(session.quark().group_count(), 1, "{mode:?}");
        update_price(&mut session, "Amazon", "P1", 75.0).unwrap();
        let called: Vec<String> = log.take().into_iter().map(|(t, _)| t).collect();
        assert_eq!(called, ["T1", "ping T2", "T3"], "{mode:?}");
    }
}

/// Actions are looked up when a trigger fires, not when it is created: an
/// action registered between two firings is called by the second.
#[test]
fn an_action_registered_between_two_firings_is_called_by_the_second() {
    for mode in all_modes() {
        let (mut session, log) = catalog_system(mode);
        session
            .execute(
                "create trigger Late after update on view('catalog')/product do later(NEW_NODE)",
            )
            .unwrap();
        let err = update_price(&mut session, "Amazon", "P1", 75.0).unwrap_err();
        assert!(
            err.to_string().contains("unregistered action `later`"),
            "{mode:?}: {err}"
        );
        let sink = log.clone();
        session
            .register_action("later", move |_db: &Database, call| {
                let firing = (call.trigger.clone(), call.params.clone());
                sink.0.lock().unwrap().push(firing);
                Ok(())
            })
            .unwrap();
        update_price(&mut session, "Amazon", "P1", 75.0).unwrap();
        let called: Vec<String> = log.take().into_iter().map(|(t, _)| t).collect();
        assert_eq!(called, ["Late"], "{mode:?}");
    }
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
/// constants-row counts to baseline in every mode, and a group recreated
/// after all its triggers were dropped is translated afresh and fires.
#[test]
fn drop_recreate_round_trip_restores_baseline() {
    for mode in all_modes() {
        let (mut session, log) = catalog_system(mode);
        let baseline_sql = session.quark().sql_trigger_count();
        let baseline_consts = session.quark().constants_row_count();
        assert_eq!(baseline_sql, 0, "{mode:?}");
        assert_eq!(baseline_consts, 0, "{mode:?}");

        let mut first_round = None;
        for round in 0..3 {
            session.execute(&watch("A", "CRT 15")).unwrap();
            session.execute(&watch("B", "LCD 19")).unwrap();
            let with_sql = session.quark().sql_trigger_count();
            let with_consts = session.quark().constants_row_count();
            assert!(with_sql > 0, "{mode:?} round {round}");
            assert_eq!(
                *first_round.get_or_insert((with_sql, with_consts)),
                (with_sql, with_consts),
                "{mode:?} round {round}: recreation changed the counts"
            );
            update_price(&mut session, "Amazon", "P1", 50.0 + round as f64).unwrap();
            let fired: Vec<String> = log.take().into_iter().map(|f| f.0).collect();
            assert_eq!(fired, ["A"], "{mode:?} round {round}");
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
        }

        // After the final drop nothing fires.
        update_price(&mut session, "Amazon", "P1", 42.0).unwrap();
        assert_eq!(log.len(), 0, "{mode:?}");
    }
}

/// Dropping the last member of a *set* in a still-live group removes its
/// constants-table row — stale rows must not keep joining (and must not
/// resurrect when the set's constant is reused: the set is found through
/// the constants table, so a trigger re-created with those constants gets
/// a fresh set id).
#[test]
fn dropping_last_set_member_removes_constants_row() {
    let (mut session, log) = catalog_system(Mode::Grouped);
    session.execute(&watch("A", "CRT 15")).unwrap();
    session.execute(&watch("B", "LCD 19")).unwrap();
    assert_eq!(session.quark().group_count(), 1);
    assert_eq!(session.quark().constants_row_count(), 2);
    assert_eq!(
        group_line(&session, "B"),
        "group: 2 member trigger(s), set 1 of 2"
    );

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
    assert_eq!(
        group_line(&session, "B2"),
        "group: 2 member trigger(s), set 2 of 2"
    );
    update_price(&mut session, "Buy.com", "P2", 200.0).unwrap();
    let firings = log.take();
    assert_eq!(firings.len(), 1, "{firings:?}");
    assert_eq!(firings[0].0, "B2");
}

/// Equal constants share one set: one constants row, one firing row that
/// calls both members in creation order. Same-set sharing survives a
/// partial drop: dropping one keeps the row (the other still needs it).
#[test]
fn shared_set_keeps_row_until_last_member_leaves() {
    let (mut session, log) = catalog_system(Mode::Grouped);
    session.execute(&watch("A", "CRT 15")).unwrap();
    session.execute(&watch("B", "CRT 15")).unwrap();
    assert_eq!(session.quark().constants_row_count(), 1);
    for trigger in ["A", "B"] {
        assert_eq!(
            group_line(&session, trigger),
            "group: 2 member trigger(s), set 0 of 1"
        );
    }
    update_price(&mut session, "Amazon", "P1", 80.0).unwrap();
    let fired: Vec<String> = log.take().into_iter().map(|f| f.0).collect();
    assert_eq!(fired, ["A", "B"]);
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

/// Whether a grouped trigger can be created does not depend on the
/// constant types of the triggers already in its group: a constant of
/// another type forms a group of its own, so no constants row is stored
/// in a column of another type. In every order both triggers are created,
/// and they fire as they do UNGROUPED.
#[test]
fn constants_of_another_type_do_not_share_a_group() {
    let orders = [
        ["'CRT 15'", "5"],
        ["5", "'CRT 15'"],
        ["5", "5.5"],
        ["5.5", "5"],
    ];
    let updates = [
        ("Amazon", "P1", 5.0),
        ("Amazon", "P2", 5.5),
        ("Amazon", "P1", 7.0),
    ];
    for path in ["OLD_NODE/@name", "NEW_NODE/vendor/price"] {
        for pair in orders {
            let run = |mode: Mode| {
                let (mut session, log) = catalog_system(mode);
                for (i, constant) in pair.iter().enumerate() {
                    let trigger = format!(
                        "create trigger T{i} after update on view('catalog')/product \
                         where {path} = {constant} do notify(NEW_NODE)"
                    );
                    if let Err(e) = session.execute(&trigger) {
                        panic!("{mode:?}, {path} = {pair:?}: T{i}: {e}");
                    }
                }
                let mut fired = Vec::new();
                for (vid, pid, price) in updates {
                    update_price(&mut session, vid, pid, price).unwrap();
                    let mut round: Vec<String> = (log.take().iter())
                        .map(|f| format!("{} {}", f.0, node_param(f).to_xml()))
                        .collect();
                    round.sort();
                    fired.push(round);
                }
                fired
            };
            let expected = run(Mode::Ungrouped);
            for mode in [Mode::Grouped, Mode::GroupedAgg] {
                assert_eq!(run(mode), expected, "{mode:?}, {path} = {pair:?}");
            }
        }
    }
}

/// `view('outer')/product`: products left-outer-joined with their vendors.
/// `CreateAKGraph` supports inner joins only, so every `CREATE TRIGGER` on
/// it fails in translation, in every mode.
fn outer_join_path(db: &Database) -> PathGraph {
    let mut g = Graph::new();
    let product = g.table("product"); // pid, pname, mfr
    let vendor = g.table("vendor"); // vid, pid, price
    let join = g.equi_join(JoinKind::LeftOuter, product, vendor, &[(0, 1)], 3);
    let element = Expr::Func(
        ScalarFunc::XmlElement {
            name: "product".into(),
            attrs: vec!["name".into()],
        },
        vec![Expr::col(1)],
    );
    let top = g.project(
        join,
        vec![Expr::col(1), element],
        vec!["pname".into(), "product".into()],
    );
    let (graph, root) = normalize(&g, top, db).unwrap();
    PathGraph {
        graph,
        root,
        node_col: 1,
        attr_cols: HashMap::from([("name".to_string(), 0)]),
    }
}

const OUTER_TRIGGER: &str = "create trigger Outer after update on view('outer')/product \
     where OLD_NODE/@name = 'CRT 15' do notify(NEW_NODE)";

/// What a failed `CREATE TRIGGER` must leave as it found it.
fn trigger_state(session: &Session) -> (Vec<String>, usize, usize) {
    let quark = session.quark();
    let db = quark.database();
    let mut tables: Vec<String> = db.table_names().map(str::to_string).collect();
    tables.sort();
    (tables, quark.group_count(), quark.sql_trigger_count())
}

/// A `CREATE TRIGGER` that fails in translation changes nothing: no
/// constants table, no group, no SQL trigger,
/// and no group id used up, so the next trigger translates exactly as on
/// a system that never saw the failure. A durable session's reopen finds
/// no constants table either.
#[test]
fn failed_create_trigger_leaves_no_trace() {
    for mode in all_modes() {
        let (session, _log) = catalog_system(mode);
        let outer = outer_join_path(&session.database());
        session
            .quark_mut()
            .register_view(XmlView::new("outer").with_anchor("product", outer));
        let before = trigger_state(&session);
        for _ in 0..3 {
            let err = session.execute(OUTER_TRIGGER).unwrap_err();
            assert!(err.to_string().contains("inner joins"), "{mode:?}: {err}");
        }
        assert_eq!(trigger_state(&session), before, "{mode:?}");

        session.execute(&watch("A", "CRT 15")).unwrap();
        let (fresh, _log) = catalog_system(mode);
        fresh.execute(&watch("A", "CRT 15")).unwrap();
        let explain = |s: &Session| s.execute("EXPLAIN TRIGGER A").unwrap();
        assert_eq!(explain(&session), explain(&fresh), "{mode:?}");
    }

    for mode in all_modes() {
        let dir = std::env::temp_dir().join(format!(
            "quark-failed-create-{mode:?}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let session = quark_xquery::open_session_with(&dir, mode, SyncMode::Never).unwrap();
        for s in common::SETUP {
            session.execute(s).unwrap();
        }
        let outer = outer_join_path(&session.database());
        session
            .quark_mut()
            .register_view(XmlView::new("outer").with_anchor("product", outer));
        session.register_action("notify", |_, _| Ok(())).unwrap();
        assert!(session.execute(OUTER_TRIGGER).is_err(), "{mode:?}");
        session.close().unwrap();

        let session = quark_xquery::open_session_with(&dir, mode, SyncMode::Never).unwrap();
        let leaked: Vec<String> = session
            .database()
            .table_names()
            .filter(|t| t.starts_with("__quark_const_"))
            .map(str::to_string)
            .collect();
        assert!(leaked.is_empty(), "{mode:?}: {leaked:?}");
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// How [`failed_statement_leaves_no_trace`] makes its statement fail.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    /// `notify` returns an error on its second firing.
    ActionErr,
    /// `notify` panics on its second firing.
    ActionPanic,
    /// `echo` inserts into the table it watches until the cascade-depth
    /// cap stops it.
    DepthCap,
    /// A multi-row `INSERT` hits a duplicate key on its second row.
    DuplicateKey,
}

/// The statement that fails under each fault.
fn failing_statement(fault: Fault) -> &'static str {
    match fault {
        // Changes two `catalog` products, so `Watch` fires twice.
        Fault::ActionErr | Fault::ActionPanic => "UPDATE vendor SET price = price + 1.0",
        Fault::DepthCap => "INSERT INTO ping VALUES (0)",
        Fault::DuplicateKey => {
            "INSERT INTO vendor VALUES ('Newegg', 'P1', 90.0), ('Amazon', 'P1', 1.0)"
        }
    }
}

const FAULT_TABLES: [&str; 4] = ["product", "vendor", "sink", "ping"];

/// A durable catalog system plus a `pings` view over `ping`. `Watch`
/// calls `notify`, which writes one `sink` row per firing and then fails
/// as `fault` says on the second; `Echo` calls `echo`, which inserts the
/// next `ping` row and so fires `Echo` again.
fn fault_system(dir: &std::path::Path, mode: Mode, fault: Fault) -> Session {
    let session = quark_xquery::open_session_with(dir, mode, SyncMode::Never).unwrap();
    for s in common::SETUP {
        session.execute(s).unwrap();
    }
    session.execute(common::CATALOG_VIEW).unwrap();
    session
        .execute("CREATE TABLE sink (n INT PRIMARY KEY)")
        .unwrap();
    session
        .execute("CREATE TABLE ping (n INT PRIMARY KEY)")
        .unwrap();
    session
        .execute(
            r#"create view pings as {
              <pings>{
                for $p in view("default")/ping/row
                return <p n={$p/n}><n>{$p/n}</n></p>
              }</pings>
            }"#,
        )
        .unwrap();
    session
        .register_action_with_writes("notify", ["sink"], move |db, _call| {
            let n = db.table("sink")?.len();
            db.insert_row("sink", vec![Value::Int(n as i64)])?;
            match (n, fault) {
                (1, Fault::ActionErr) => Err(Error::Plan("injected action error".into())),
                (1, Fault::ActionPanic) => panic!("injected action panic"),
                _ => Ok(()),
            }
        })
        .unwrap();
    session
        .register_action_with_writes("echo", ["ping"], |db, _call| {
            let n = db.table("ping")?.len();
            db.insert_row("ping", vec![Value::Int(n as i64)])
        })
        .unwrap();
    session
        .execute("CREATE TRIGGER Watch AFTER Update ON view('catalog')/product DO notify(NEW_NODE)")
        .unwrap();
    session
        .execute("CREATE TRIGGER Echo AFTER Insert ON view('pings')/p DO echo(NEW_NODE)")
        .unwrap();
    session
}

/// Every row and version of the fault tables, as the authoritative state
/// holds them.
fn memory(session: &Session) -> Vec<(u64, Vec<Row>)> {
    let db = session.database();
    FAULT_TABLES
        .iter()
        .map(|name| {
            let t = db.table(name).unwrap();
            (t.version(), t.iter().cloned().collect())
        })
        .collect()
}

/// The fault tables as a reader sees them: one `SELECT` each.
fn selected(session: &Session) -> Vec<StatementResult> {
    FAULT_TABLES
        .iter()
        .map(|t| session.execute(&format!("SELECT * FROM {t}")).unwrap())
        .collect()
}

/// A statement that fails anywhere in its cascade — an action's error or
/// panic on its second firing, the cascade-depth cap, a duplicate key
/// part-way through a multi-row `INSERT` — leaves no trace, in every
/// mode: memory (rows and table versions), a snapshot `SELECT`, the WAL
/// byte count and a reopened durable directory all equal the
/// pre-statement state.
#[test]
fn failed_statement_leaves_no_trace() {
    let faults = [
        Fault::ActionErr,
        Fault::ActionPanic,
        Fault::DepthCap,
        Fault::DuplicateKey,
    ];
    for mode in all_modes() {
        for fault in faults {
            let dir = std::env::temp_dir().join(format!(
                "quark-failed-statement-{mode:?}-{fault:?}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let session = fault_system(&dir, mode, fault);
            let (before, seen_before) = (memory(&session), selected(&session));
            let wal_before = session.quark().stats().wal_bytes_written;

            let statement = failing_statement(fault);
            if fault == Fault::ActionPanic {
                let victim = session.fork();
                let unwound = std::thread::spawn(move || victim.execute(statement)).join();
                assert!(unwound.is_err(), "{mode:?}: the panic propagates");
            } else {
                let err = session.execute(statement).unwrap_err().to_string();
                let expected = match fault {
                    Fault::ActionErr => "injected action error",
                    Fault::DepthCap => "nesting limit",
                    _ => "duplicate",
                };
                assert!(err.contains(expected), "{mode:?} {fault:?}: {err}");
            }

            let at = format!("{mode:?} {fault:?}");
            assert_eq!(memory(&session), before, "{at}: memory");
            assert_eq!(selected(&session), seen_before, "{at}: snapshot");
            let wal_after = session.quark().stats().wal_bytes_written;
            assert_eq!(wal_after, wal_before, "{at}: WAL bytes");
            drop(session); // crash: no close, no final checkpoint

            let session = quark_xquery::open_session_with(&dir, mode, SyncMode::Never).unwrap();
            assert_eq!(selected(&session), seen_before, "{at}: reopened");
            drop(session);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// An action declared to write nothing that inserts into `audit` during a
/// `vendor` UPDATE is refused at the `audit` write — outside the latched
/// footprint (write `vendor`, read `product` and the constants table) —
/// and its statement fails and is undone: no `audit` row, the old price,
/// one violation counted. Durably, the WAL does not grow and a reopen
/// without `close` shows the pre-statement state. `register_action`
/// declares the same empty write set as `register_action_with_writes`
/// with none, so both arms are refused alike.
#[test]
fn a_write_outside_the_declared_footprint_fails_the_statement() {
    let dir = std::env::temp_dir().join(format!("quark-outside-footprint-{}", std::process::id()));
    let arms = [false, true]
        .into_iter()
        .flat_map(|d| [(d, false), (d, true)]);
    for (durable, default) in arms {
        let _ = std::fs::remove_dir_all(&dir);
        let session = if durable {
            quark_xquery::open_session_with(&dir, Mode::Grouped, SyncMode::Never).unwrap()
        } else {
            quark_xquery::session(Database::new(), Mode::Grouped)
        };
        for s in common::SETUP {
            session.execute(s).unwrap();
        }
        session.execute(common::CATALOG_VIEW).unwrap();
        session
            .execute("CREATE TABLE audit (n INT PRIMARY KEY)")
            .unwrap();
        let sneaky =
            |db: &Database, _call: &ActionCall| db.insert_row("audit", vec![Value::Int(1)]);
        if default {
            session.register_action("sneaky", sneaky).unwrap();
        } else {
            session
                .register_action_with_writes("sneaky", [] as [&str; 0], sneaky)
                .unwrap();
        }
        session
            .execute(
                "CREATE TRIGGER Sneak AFTER Update ON view('catalog')/product DO sneaky(NEW_NODE)",
            )
            .unwrap();
        let tables = |s: &Session| {
            ["vendor", "audit"].map(|t| s.execute(&format!("SELECT * FROM {t}")).unwrap())
        };
        let (before, wal_before) = (tables(&session), session.quark().stats().wal_bytes_written);

        let err = session
            .execute("UPDATE vendor SET price = 75.0 WHERE vid = 'Amazon' AND pid = 'P1'")
            .unwrap_err();
        let refused = Error::OutsideFootprint {
            table: "audit".into(),
            write: true,
        };
        let at = format!("durable: {durable}, register_action: {default}");
        assert_eq!(err, StatementError::Db(refused), "{at}");
        assert_eq!(tables(&session), before, "{at}");
        assert!(session.database().table("audit").unwrap().is_empty());
        assert_eq!(session.database().stats().footprint_violations, 1);
        let wal_after = session.quark().stats().wal_bytes_written;
        assert_eq!(wal_after, wal_before, "{at}");
        drop(session); // crash: no close, no final checkpoint

        if durable {
            let session =
                quark_xquery::open_session_with(&dir, Mode::Grouped, SyncMode::Never).unwrap();
            assert_eq!(tables(&session), before, "reopened, {at}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
