//! Full-syntax pipeline: schema DDL, XQuery view definitions, `CREATE
//! TRIGGER` statements and data changes — every statement through one
//! `Session::execute` front door.

use std::sync::{Arc, Mutex};

use quark_core::relational::Database;
use quark_core::{Mode, Session};

fn orders_session(mode: Mode) -> Session {
    let session = quark_xquery::session(Database::new(), mode);
    for stmt in [
        "CREATE TABLE customer (cid INT PRIMARY KEY, name TEXT)",
        "CREATE TABLE orders (oid INT PRIMARY KEY, cid INT, total DOUBLE)",
        "CREATE INDEX ON orders (cid)",
        "INSERT INTO customer VALUES (1, 'ada'), (2, 'bob')",
        "INSERT INTO orders VALUES (10, 1, 120.0), (11, 1, 80.0), \
                                   (12, 2, 300.0), (13, 2, 20.0)",
    ] {
        session.execute(stmt).unwrap();
    }
    session
}

const VIEW: &str = r#"
    create view accounts as {
      <accounts>{
        for $c in view("default")/customer/row
        let $orders := view("default")/orders/row[./cid = $c/cid]
        where count($orders) >= 2
        return <customer name={$c/name}>
          { for $o in $orders return <order><oid>{$o/oid}</oid><total>{$o/total}</total></order> }
        </customer>
      }</accounts>
    }"#;

type FiringLog = Arc<Mutex<Vec<(String, String)>>>;

fn system(mode: Mode) -> (Session, FiringLog) {
    system_with(VIEW, mode)
}

/// The orders session with `view` and a recording `alert` action.
fn system_with(view: &str, mode: Mode) -> (Session, FiringLog) {
    let session = orders_session(mode);
    session.execute(view).unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    session
        .register_action("alert", move |_db, call| {
            sink.lock()
                .unwrap()
                .push((call.trigger.clone(), call.params[0].to_string()));
            Ok(())
        })
        .unwrap();
    (session, log)
}

/// The same trigger on `accounts` and on `mirror`, a structurally equal
/// view under another name: each is its own group, translated from its
/// own view, and each fires on the one base change.
#[test]
fn parsed_trigger_with_attr_condition_fires() {
    for mode in [Mode::Ungrouped, Mode::Grouped, Mode::GroupedAgg] {
        let (session, log) = system(mode);
        session
            .execute(&VIEW.replace("view accounts", "view mirror"))
            .unwrap();
        for (name, view) in [("AdaWatch", "accounts"), ("MirrorWatch", "mirror")] {
            session
                .execute(&format!(
                    "CREATE TRIGGER {name} AFTER UPDATE
                     ON view('{view}')/customer
                     WHERE OLD_NODE/@name = 'ada'
                     DO alert(NEW_NODE)"
                ))
                .unwrap();
        }
        assert_eq!(session.quark().translations(), 2, "{mode:?}");
        // Ada's order total changes: fires.
        session
            .execute("UPDATE orders SET total = 99.0 WHERE oid = 10")
            .unwrap();
        // Bob's order changes: no fire.
        session
            .execute("UPDATE orders SET total = 1.0 WHERE oid = 12")
            .unwrap();
        let mut entries = std::mem::take(&mut *log.lock().unwrap());
        entries.sort();
        let names: Vec<&str> = entries.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(names, ["AdaWatch", "MirrorWatch"], "{mode:?}: {entries:?}");
        for (_, node) in &entries {
            assert!(node.contains("name=\"ada\""), "{mode:?}");
            assert!(node.contains("<total>99</total>"), "{mode:?}");
        }
    }
}

/// An attribute over a node sequence: `accounts` with `<order oid=…>`.
/// `exists` and `count` of `NEW_NODE/order/@oid` read every order's
/// attribute, as does the existential comparison against one order id,
/// and each fires once on the one update of Ada's order, in every mode.
#[test]
fn attribute_over_an_order_sequence_fires() {
    for mode in [Mode::Ungrouped, Mode::Grouped, Mode::GroupedAgg] {
        let (session, log) = system_with(&VIEW.replace("<order>", "<order oid={$o/oid}>"), mode);
        for (name, condition) in [
            ("HasOid", "exists(NEW_NODE/order/@oid)"),
            ("TwoOids", "count(NEW_NODE/order/@oid) >= 2"),
            ("Oid10", "NEW_NODE/order/@oid = 10"),
        ] {
            session
                .execute(&format!(
                    "CREATE TRIGGER {name} AFTER UPDATE ON view('accounts')/customer \
                     WHERE {condition} DO alert(NEW_NODE)"
                ))
                .unwrap();
        }
        session
            .execute("UPDATE orders SET total = 99.0 WHERE oid = 10")
            .unwrap();
        let mut names: Vec<String> = log.lock().unwrap().iter().map(|(t, _)| t.clone()).collect();
        names.sort();
        assert_eq!(names, ["HasOid", "Oid10", "TwoOids"], "{mode:?}");
    }
}

#[test]
fn parsed_quantified_condition() {
    for mode in [Mode::Grouped, Mode::GroupedAgg] {
        let (session, log) = system(mode);
        // Fire when some NEW order exceeds 500.
        session
            .execute(
                r#"create trigger Big after update on view('accounts')/customer
                   where some $o in NEW_NODE/order satisfies ./total > 500
                   do alert(NEW_NODE)"#,
            )
            .unwrap();
        session
            .execute("UPDATE orders SET total = 200.0 WHERE oid = 10")
            .unwrap();
        assert!(log.lock().unwrap().is_empty(), "{mode:?}");
        session
            .execute("UPDATE orders SET total = 900.0 WHERE oid = 10")
            .unwrap();
        assert_eq!(log.lock().unwrap().len(), 1, "{mode:?}");
    }
}

#[test]
fn parsed_insert_and_delete_triggers() {
    let (session, log) = system(Mode::GroupedAgg);
    session
        .execute(
            "create trigger NewCust after insert on view('accounts')/customer \
             do alert(NEW_NODE)",
        )
        .unwrap();
    session
        .execute(
            "create trigger GoneCust after delete on view('accounts')/customer \
             do alert(OLD_NODE)",
        )
        .unwrap();

    // A new customer with two orders enters the view.
    session
        .execute("INSERT INTO customer VALUES (3, 'eve')")
        .unwrap();
    session
        .execute("INSERT INTO orders VALUES (20, 3, 5.0), (21, 3, 6.0)")
        .unwrap();
    // Bob drops to one order and leaves the view.
    session
        .execute("DELETE FROM orders WHERE oid = 13")
        .unwrap();

    let entries = std::mem::take(&mut *log.lock().unwrap());
    let names: Vec<&str> = entries.iter().map(|(t, _)| t.as_str()).collect();
    assert_eq!(names, vec!["NewCust", "GoneCust"], "{entries:?}");
    assert!(entries[0].1.contains("name=\"eve\""));
    assert!(entries[1].1.contains("name=\"bob\""));
}

#[test]
fn count_condition_from_text() {
    let (session, log) = system(Mode::Grouped);
    session
        .execute(
            r#"create trigger Busy after update on view('accounts')/customer
               where count(NEW_NODE/order) >= 3 do alert(NEW_NODE)"#,
        )
        .unwrap();
    // Going from 2 to 3 orders is an UPDATE of the customer node with the
    // count condition now satisfied.
    session
        .execute("INSERT INTO orders VALUES (30, 1, 1.0)")
        .unwrap();
    assert_eq!(log.lock().unwrap().len(), 1);
}
