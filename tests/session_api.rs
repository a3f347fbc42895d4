//! The `Session` front door end to end: every [`StatementResult`] variant,
//! parse-error spans, and the unified error surface.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use quark_core::relational::{Database, Error, Value};
use quark_core::{Mode, ObjectKind, Quark, Session, StatementError, StatementResult};

const CATALOG: &str = r#"
    create view catalog as {
      <catalog>{
        for $prodname in distinct(view("default")/product/row/pname)
        let $products := view("default")/product/row[./pname = $prodname]
        let $vendors := view("default")/vendor/row[./pid = $products/pid]
        where count($vendors) >= 2
        return <product name={$prodname}>
          { for $vendor in $vendors return <vendor>{$vendor/*}</vendor> }
        </product>
      }</catalog>
    }"#;

fn catalog_session() -> Session {
    let db = quark_core::xqgm::fixtures::product_vendor_db();
    let session = quark_xquery::session(db, Mode::Grouped);
    session.execute(CATALOG).unwrap();
    session.register_action("notify", |_, _| Ok(())).unwrap();
    session
}

// ---------------------------------------------------------------------
// StatementResult variants
// ---------------------------------------------------------------------

/// One counter out of a `STATS` result.
fn stat(session: &Session, counter: &str) -> i64 {
    let StatementResult::Rows { rows, .. } = session.execute("STATS").unwrap() else {
        panic!("STATS returns rows")
    };
    let row = rows.iter().find(|r| r[0] == Value::str(counter));
    match row.unwrap_or_else(|| panic!("no counter `{counter}`"))[1] {
        Value::Int(n) => n,
        ref other => panic!("counter `{counter}` is {other:?}"),
    }
}

/// `STATS` reads the live counters: every `STATS` sees every statement
/// committed before it, after a read has published a snapshot too.
#[test]
fn stats_follow_the_writes_after_the_first_read() {
    let session = catalog_session();
    let before = stat(&session, "statements");
    session
        .execute("INSERT INTO vendor VALUES ('Newegg', 'P2', 60.0)")
        .unwrap();
    assert_eq!(stat(&session, "statements"), before + 1);
    for i in 0..5 {
        session
            .execute(&format!(
                "UPDATE vendor SET price = {}.0 WHERE vid = 'Newegg' AND pid = 'P2'",
                61 + i
            ))
            .unwrap();
    }
    assert_eq!(stat(&session, "statements"), before + 6);
    assert_eq!(
        stat(&session, "statements") as u64,
        session.quark().stats().statements
    );
}

/// A session `SELECT` runs on the published snapshot, which shares the
/// live counters: a full scan of three rows counts three rows scanned, a
/// keyed read one index probe.
#[test]
fn stats_count_the_reads_on_the_snapshot() {
    let session = Session::new(Quark::new(Database::new(), Mode::Grouped));
    session
        .execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    session
        .execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();
    let (scanned, probes) = (
        stat(&session, "rows_scanned"),
        stat(&session, "index_probes"),
    );
    session.execute("SELECT * FROM t").unwrap();
    session.execute("SELECT v FROM t WHERE id = 2").unwrap();
    assert_eq!(stat(&session, "rows_scanned"), scanned + 3);
    assert_eq!(stat(&session, "index_probes"), probes + 1);
}

/// Every reader shares the published snapshot, so nothing may write it:
/// its database refuses each data change before anything changes. The
/// next `SELECT` and the held snapshot still see the three live rows, and
/// the snapshots a later fold or global commit publishes refuse too.
#[test]
fn a_published_snapshot_cannot_be_written() {
    let session = Session::new(Quark::new(Database::new(), Mode::Grouped));
    session
        .execute("CREATE TABLE t (id INT PRIMARY KEY)")
        .unwrap();
    session
        .execute("INSERT INTO t VALUES (1), (2), (3)")
        .unwrap();
    let count = |session: &Session| match session.execute("SELECT * FROM t").unwrap() {
        StatementResult::Rows { rows, .. } => rows.len(),
        other => panic!("{other:?}"),
    };
    let refuses = |snap: &Quark| {
        let db = snap.database();
        let err = db.insert_row("t", vec![Value::Int(4)]).unwrap_err();
        assert!(err.to_string().contains("read-only snapshot"), "{err}");
        assert!(db.delete_expr("t", None).is_err());
        assert!(db.load("t", vec![vec![Value::Int(5)]]).is_err());
    };
    let held = session.snapshot();
    refuses(&held);
    assert_eq!(count(&session), 3);
    assert_eq!(held.database().table("t").unwrap().len(), 3);
    // A write folds around the held snapshot into a clone of it.
    session.execute("INSERT INTO t VALUES (4)").unwrap();
    assert_eq!(count(&session), 4);
    assert_eq!(held.database().table("t").unwrap().len(), 3);
    refuses(&session.snapshot());
    // A global write republishes the whole system.
    session
        .execute("CREATE TABLE u (id INT PRIMARY KEY)")
        .unwrap();
    refuses(&session.snapshot());
    assert_eq!(count(&session), 4);
}

#[test]
fn created_table_index_view_and_trigger() {
    let session = catalog_session();
    assert_eq!(
        session
            .execute("CREATE TABLE audit (id INT PRIMARY KEY, note TEXT)")
            .unwrap(),
        StatementResult::Created {
            kind: ObjectKind::Table,
            name: "audit".into()
        }
    );
    assert_eq!(
        session.execute("CREATE INDEX ON vendor (pid)").unwrap(),
        StatementResult::Created {
            kind: ObjectKind::Index,
            name: "vendor.pid".into()
        }
    );
    // The view was created in the fixture; create another to observe the
    // result value.
    let created = session
        .execute(
            r#"create view flat as {
                 <flat>{
                   for $p in view("default")/product/row
                   return <item name={$p/pname}><pid>{$p/pid}</pid></item>
                 }</flat>
               }"#,
        )
        .unwrap();
    assert_eq!(
        created,
        StatementResult::Created {
            kind: ObjectKind::View,
            name: "flat".into()
        }
    );
    assert_eq!(
        session
            .execute("create trigger T after update on view('catalog')/product do notify(NEW_NODE)")
            .unwrap(),
        StatementResult::Created {
            kind: ObjectKind::Trigger,
            name: "T".into()
        }
    );
}

#[test]
fn rows_affected_for_insert_update_delete_and_misses() {
    let session = catalog_session();
    assert_eq!(
        session
            .execute("INSERT INTO vendor VALUES ('Newegg', 'P1', 99.0), ('Newegg', 'P2', 98.0)")
            .unwrap()
            .rows_affected(),
        Some(2)
    );
    assert_eq!(
        session
            .execute("UPDATE vendor SET price = 75.0 WHERE vid = 'Amazon' AND pid = 'P1'")
            .unwrap(),
        StatementResult::RowsAffected(1)
    );
    // Keyed miss: zero rows, no error.
    assert_eq!(
        session
            .execute("UPDATE vendor SET price = 1.0 WHERE vid = 'zz' AND pid = 'P9'")
            .unwrap(),
        StatementResult::RowsAffected(0)
    );
    // Scan path with arithmetic SET.
    assert_eq!(
        session
            .execute("UPDATE vendor SET price = price * 2.0 WHERE pid = 'P2'")
            .unwrap(),
        StatementResult::RowsAffected(3)
    );
    assert_eq!(
        session
            .execute("DELETE FROM vendor WHERE vid = 'Newegg'")
            .unwrap(),
        StatementResult::RowsAffected(2)
    );
}

#[test]
fn rows_variant_orders_by_primary_key() {
    let session = catalog_session();
    let StatementResult::Rows { columns, rows } = session
        .execute("SELECT vid, price FROM vendor WHERE pid = 'P1'")
        .unwrap()
    else {
        panic!("expected Rows")
    };
    assert_eq!(columns, vec!["vid".to_string(), "price".to_string()]);
    let vids: Vec<String> = rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(vids, vec!["Amazon", "Bestbuy", "Circuitcity"]);
}

#[test]
fn explain_variant_renders_translation_artifacts() {
    let session = catalog_session();
    session
        .execute(
            "create trigger Notify after update on view('catalog')/product \
             where OLD_NODE/@name = 'CRT 15' do notify(NEW_NODE)",
        )
        .unwrap();
    let StatementResult::Explain(text) = session.execute("EXPLAIN TRIGGER Notify").unwrap() else {
        panic!("expected Explain")
    };
    assert!(text.contains("XML trigger `Notify`"), "{text}");
    assert!(text.contains("Grouped"), "{text}");
    assert!(text.contains("constants"), "{text}");
    assert!(text.contains("__quark_g"), "{text}");
    assert!(text.contains("TransitionScan"), "{text}");
    // The declared latch footprint is part of the rendering: the read set
    // covers the view's base tables, and `notify` is registered with
    // `register_action`, which declares that it writes nothing.
    assert!(text.contains("read footprint: {"), "{text}");
    assert!(text.contains("\"product\""), "{text}");
    assert!(
        text.contains("write footprint: {} (latched exclusive)"),
        "{text}"
    );
    // Unknown triggers are a Db error.
    assert!(matches!(
        session.execute("EXPLAIN TRIGGER nope").unwrap_err(),
        StatementError::Db(Error::UnknownTrigger(_))
    ));
}

#[test]
fn xml_variant_materializes_the_view_in_key_order() {
    let session = catalog_session();
    let StatementResult::Xml(nodes) = session
        .execute("MATERIALIZE view('catalog')/product")
        .unwrap()
    else {
        panic!("expected Xml")
    };
    let names: Vec<String> = nodes
        .iter()
        .map(|n| n.attr("name").unwrap_or_default().to_string())
        .collect();
    assert_eq!(names, vec!["CRT 15".to_string(), "LCD 19".to_string()]);
    // The view reacts to statements: drop LCD 19 below the threshold.
    session
        .execute("DELETE FROM vendor WHERE vid = 'Buy.com' AND pid = 'P2'")
        .unwrap();
    let StatementResult::Xml(nodes) = session
        .execute("MATERIALIZE view('catalog')/product")
        .unwrap()
    else {
        panic!("expected Xml")
    };
    assert_eq!(nodes.len(), 1);
}

#[test]
fn dropped_variant_for_triggers_and_tables() {
    let session = catalog_session();
    session
        .execute("create trigger T after update on view('catalog')/product do notify(NEW_NODE)")
        .unwrap();
    assert_eq!(
        session.execute("DROP TRIGGER T").unwrap(),
        StatementResult::Dropped {
            kind: ObjectKind::Trigger,
            name: "T".into()
        }
    );
    session
        .execute("CREATE TABLE scratch (id INT PRIMARY KEY)")
        .unwrap();
    assert_eq!(
        session.execute("DROP TABLE scratch").unwrap(),
        StatementResult::Dropped {
            kind: ObjectKind::Table,
            name: "scratch".into()
        }
    );
}

#[test]
fn a_drop_trigger_that_fails_changes_nothing() {
    let session = catalog_session();
    session
        .execute(
            "CREATE TRIGGER NotifyP1 AFTER Update ON view('catalog')/product \
                  WHERE OLD_NODE/@name = 'CRT 15' DO notify(NEW_NODE)",
        )
        .unwrap();
    session
        .execute(
            "CREATE TRIGGER NotifyGone AFTER Delete ON view('catalog')/product \
                  DO notify(OLD_NODE)",
        )
        .unwrap();
    // Dropping the table underneath the registry also drops the SQL
    // triggers installed on it, so the group can no longer be dropped.
    session
        .quark_mut()
        .drop_table_unchecked_for_test("vendor")
        .unwrap();
    let first = session.execute("DROP TRIGGER NotifyGone").unwrap_err();
    assert!(
        matches!(first, StatementError::Db(Error::UnknownTrigger(ref t)) if t != "NotifyGone"),
        "{first:?}"
    );
    assert_eq!(session.quark().xml_trigger_count(), 2);
    let second = session.execute("DROP TRIGGER NotifyGone").unwrap_err();
    assert_eq!(second.to_string(), first.to_string());
    assert_eq!(session.quark().xml_trigger_count(), 2);
}

#[test]
fn admission_skips_a_table_that_does_not_exist() {
    // A DML target with no table fails in the statement, not at admission.
    let session = catalog_session();
    let err = session
        .execute("UPDATE nosuch SET price = 1.0 WHERE vid = 'Amazon'")
        .unwrap_err();
    assert!(
        matches!(err, StatementError::Db(Error::UnknownTable(ref t)) if t == "nosuch"),
        "{err:?}"
    );

    // An action's declared write to a table not created yet: its footprint
    // names `audit`, which admission skips until `CREATE TABLE` makes it.
    let session = catalog_session();
    let fired = Arc::new(AtomicUsize::new(0));
    let calls = Arc::clone(&fired);
    session
        .register_action_with_writes("audit", ["audit"], move |db, _call| {
            calls.fetch_add(1, Ordering::SeqCst);
            if db.has_table("audit") {
                db.insert("audit", vec![vec![Value::Int(1)]])?;
            }
            Ok(())
        })
        .unwrap();
    session
        .execute("create trigger Audit after update on view('catalog')/product do audit()")
        .unwrap();
    let update = "UPDATE vendor SET price = 75.0 WHERE vid = 'Amazon' AND pid = 'P1'";
    assert_eq!(
        session.execute(update).unwrap(),
        StatementResult::RowsAffected(1)
    );
    assert_eq!(fired.load(Ordering::SeqCst), 1);
    session
        .execute("CREATE TABLE audit (id INT PRIMARY KEY)")
        .unwrap();
    let update = "UPDATE vendor SET price = 70.0 WHERE vid = 'Amazon' AND pid = 'P1'";
    session.execute(update).unwrap();
    let StatementResult::Rows { rows, .. } = session.execute("SELECT id FROM audit").unwrap()
    else {
        panic!("SELECT returns rows")
    };
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::Int(1));
}

// ---------------------------------------------------------------------
// Errors: spans and the unified surface
// ---------------------------------------------------------------------

#[test]
fn sql_parse_errors_carry_exact_spans() {
    let session = catalog_session();

    let text = "SELEC * FROM vendor";
    let err = session.execute(text).unwrap_err();
    let StatementError::Parse { span, .. } = err else {
        panic!("expected Parse, got {err:?}")
    };
    assert_eq!(span.start, 0);

    let text = "UPDATE vendor SET prize = 1.0 WHERE vid = 'Amazon' AND pid = 'P1'";
    let err = session.execute(text).unwrap_err();
    let StatementError::Parse { span, message } = err else {
        panic!("expected Parse")
    };
    assert_eq!(&text[span.start..span.end], "prize");
    assert!(message.contains("unknown column `prize`"), "{message}");

    let text = "SELECT vid, prices FROM vendor";
    let err = session.execute(text).unwrap_err();
    assert_eq!(
        err.span().map(|s| &text[s.start..s.end]),
        Some("prices"),
        "{err}"
    );
}

#[test]
fn frontend_parse_errors_carry_spans_too() {
    let session = catalog_session();
    let err = session
        .execute("create trigger T after explode on view('catalog')/product do notify()")
        .unwrap_err();
    assert!(err.span().is_some(), "{err:?}");
    assert!(err.to_string().contains("explode"), "{err}");

    let err = session
        .execute("create view broken as { <v> }")
        .unwrap_err();
    assert!(err.span().is_some(), "{err:?}");
}

#[test]
fn leading_comments_route_to_the_frontend() {
    let session = catalog_session();
    // `--` comments are accepted on every statement, including the two
    // frontend-parsed ones.
    let created = session
        .execute(
            "-- install the reporting view\n\
             create view flat2 as {\n\
               <flat>{ for $p in view(\"default\")/product/row\n\
                       return <item name={$p/pname}><pid>{$p/pid}</pid></item> }</flat>\n\
             }",
        )
        .unwrap();
    assert_eq!(
        created,
        StatementResult::Created {
            kind: ObjectKind::View,
            name: "flat2".into()
        }
    );
    session
        .execute(
            "-- watch CRT 15\n\
             create trigger C after update on view('catalog')/product do notify(NEW_NODE)",
        )
        .unwrap();
    session
        .execute("-- reprice\nUPDATE vendor SET price = 60.0 WHERE vid = 'Amazon' AND pid = 'P1'")
        .unwrap();
    // A frontend parse error behind a comment still spans the ORIGINAL
    // text (shifted past the stripped prefix).
    let text = "-- broken\ncreate trigger T after explode on view('catalog')/product do f()";
    let err = session.execute(text).unwrap_err();
    let span = err.span().expect("frontend parse error has a span");
    assert!(span.end <= text.len(), "{span:?} vs len {}", text.len());
    assert!(
        text[span.start..].starts_with("explode") || text[..span.end].contains("explode"),
        "span {span:?} should sit near `explode` in {text:?}"
    );
}

#[test]
fn end_of_input_frontend_errors_have_clamped_spans() {
    let session = catalog_session();
    let text = "create view v as {";
    let err = session.execute(text).unwrap_err();
    let span = err.span().expect("parse error has a span");
    assert!(
        span.start <= text.len() && span.end <= text.len(),
        "{span:?}"
    );
    let _ = &text[span.start..span.end]; // must not panic
}

#[test]
fn statement_error_displays_span_position() {
    let session = catalog_session();
    let err = session.execute("DELETE FRUM vendor").unwrap_err();
    let rendered = err.to_string();
    assert!(rendered.starts_with("parse error at "), "{rendered}");
    assert!(rendered.contains("FROM"), "{rendered}");
}

#[test]
fn engine_errors_pass_through_unspanned() {
    let session = catalog_session();
    let err = session
        .execute("INSERT INTO vendor VALUES ('Amazon', 'P1', 1.0)")
        .unwrap_err();
    assert!(matches!(
        err,
        StatementError::Db(Error::DuplicateKey { .. })
    ));
    assert!(err.span().is_none());
    let err = session.execute("SELECT * FROM nosuch").unwrap_err();
    assert!(matches!(err, StatementError::Db(Error::UnknownTable(_))));
}

#[test]
fn trigger_firing_errors_surface_through_execute() {
    let session = catalog_session();
    session
        .execute("create trigger Bad after update on view('catalog')/product do missing_fn()")
        .unwrap();
    let err = session
        .execute("UPDATE vendor SET price = 75.0 WHERE vid = 'Amazon' AND pid = 'P1'")
        .unwrap_err();
    assert!(err.to_string().contains("missing_fn"), "{err}");
}

// ---------------------------------------------------------------------
// Statement surface drives the whole lifecycle from an empty database
// ---------------------------------------------------------------------

#[test]
fn full_lifecycle_from_empty_database() {
    use quark_core::relational::Database;
    use std::sync::{Arc, Mutex};

    let session = quark_xquery::session(Database::new(), Mode::GroupedAgg);
    for stmt in [
        "CREATE TABLE customer (cid INT PRIMARY KEY, name TEXT)",
        "CREATE TABLE orders (oid INT PRIMARY KEY, cid INT, total DOUBLE)",
        "CREATE INDEX ON orders (cid)",
        "INSERT INTO customer VALUES (1, 'ada'), (2, 'bob')",
        "INSERT INTO orders VALUES (10, 1, 120.0), (11, 1, 80.0), (12, 2, 300.0), (13, 2, 20.0)",
        r#"create view accounts as {
             <accounts>{
               for $c in view("default")/customer/row
               let $orders := view("default")/orders/row[./cid = $c/cid]
               where count($orders) >= 2
               return <customer name={$c/name}>
                 { for $o in $orders return <order><oid>{$o/oid}</oid><total>{$o/total}</total></order> }
               </customer>
             }</accounts>
           }"#,
    ] {
        session.execute(stmt).unwrap();
    }
    let fired = Arc::new(Mutex::new(0usize));
    let f2 = Arc::clone(&fired);
    session
        .register_action("alert", move |_, _| {
            *f2.lock().unwrap() += 1;
            Ok(())
        })
        .unwrap();
    session
        .execute(
            "create trigger W after update on view('accounts')/customer \
             where OLD_NODE/@name = 'ada' do alert(NEW_NODE)",
        )
        .unwrap();
    session
        .execute("UPDATE orders SET total = total + 1.0 WHERE cid = 1")
        .unwrap();
    assert_eq!(*fired.lock().unwrap(), 1);
    // Inspection through the same door.
    let StatementResult::Rows { rows, .. } = session
        .execute("SELECT total FROM orders WHERE cid = 1")
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], Value::Double(121.0));
}

// ---------------------------------------------------------------------
// UTF-8 statements: spans stay sliceable
// ---------------------------------------------------------------------

#[test]
fn multibyte_statements_produce_sliceable_spans() {
    let session = catalog_session();
    // SQL-side error on a multibyte token.
    let text = "SELECT ☃ FROM vendor";
    let err = session.execute(text).unwrap_err();
    let span = err.span().expect("parse error has a span");
    assert_eq!(&text[span.start..span.end], "☃");

    // Frontend error landing inside non-ASCII view text, behind a comment
    // (spans are shifted back into the original statement).
    let text = "-- vue cassée\ncreate view brisée as { ☃ }";
    let err = session.execute(text).unwrap_err();
    let span = err.span().expect("frontend parse error has a span");
    assert!(
        text.get(span.start..span.end).is_some(),
        "span {span:?} must sit on char boundaries of {text:?}"
    );

    // Non-ASCII *data* flows through statements and back out of SELECT.
    session
        .execute("CREATE TABLE notes (id INT PRIMARY KEY, body TEXT)")
        .unwrap();
    session
        .execute("INSERT INTO notes VALUES (1, 'héllo ☃ — naïve')")
        .unwrap();
    let StatementResult::Rows { rows, .. } = session
        .execute("SELECT body FROM notes WHERE body = 'héllo ☃ — naïve'")
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::str("héllo ☃ — naïve"));
    // And a trailing-garbage error after a multibyte literal stays safe.
    let text = "INSERT INTO notes VALUES (2, 'héllo™') ✗";
    let err = session.execute(text).unwrap_err();
    let span = err.span().expect("parse error has a span");
    assert!(text.get(span.start..span.end).is_some(), "{span:?}");
}
