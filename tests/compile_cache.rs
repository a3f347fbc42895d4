//! Trigger translation without a compile cache: every new group is
//! translated from its own view, so a group recreated after a full drop
//! is translated afresh, structurally equal views translate to the same
//! plans without sharing them, and N UNGROUPED triggers cost N
//! translations. No plan is ever served from a memo
//! (`compile_cache_hits` stays 0).

mod common;

use common::{catalog_system, update_price, Log};
use quark_core::relational::Database;
use quark_core::{Mode, Session, StatementResult};

/// `EXPLAIN TRIGGER` text with the group-specific identifiers (group ids in
/// generated trigger names, constants-table suffixes) and the given view
/// name masked, leaving exactly the translation structure: SQL trigger
/// events, tables, and compiled plans.
fn normalized_explain(session: &mut Session, trigger: &str, view: &str) -> String {
    let StatementResult::Explain(text) = session
        .execute(&format!("EXPLAIN TRIGGER {trigger}"))
        .unwrap()
    else {
        panic!("expected Explain result")
    };
    let mut out = String::new();
    for line in text.lines() {
        // The header lines carry the trigger's own name and set/member
        // counters; skip them and keep the structural payload.
        if line.starts_with("XML trigger")
            || line.starts_with("group:")
            || line.starts_with("constants:")
        {
            continue;
        }
        out.push_str(&mask_ids(&line.replace(view, "VIEW")));
        out.push('\n');
    }
    out
}

/// Replace the digits following `__quark_g` and `__quark_const_` with `N`.
fn mask_ids(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(pos) = rest.find("__quark_") {
        let (before, tail) = rest.split_at(pos);
        out.push_str(before);
        let prefix_len = if tail.starts_with("__quark_const_") {
            "__quark_const_".len()
        } else if tail.starts_with("__quark_g") {
            "__quark_g".len()
        } else {
            "__quark_".len()
        };
        out.push_str(&tail[..prefix_len]);
        let after = &tail[prefix_len..];
        let digits = after.chars().take_while(|c| c.is_ascii_digit()).count();
        if digits > 0 {
            out.push('N');
        }
        rest = &after[digits..];
    }
    out.push_str(rest);
    out
}

/// A trigger whose action shape differs from `notify(NEW_NODE)` — it forms
/// a separate group in every mode.
fn other_shape_trigger(name: &str, watched: &str) -> String {
    format!(
        "create trigger {name} after update on view('catalog')/product \
         where OLD_NODE/@name = '{watched}' do notify(NEW_NODE, 'tagged')"
    )
}

fn base_trigger(name: &str, watched: &str) -> String {
    format!(
        "create trigger {name} after update on view('catalog')/product \
         where OLD_NODE/@name = '{watched}' do notify(NEW_NODE)"
    )
}

/// Lifecycle: each new group is one translation, joining an existing
/// group is none, and recreation after the last group is dropped
/// translates afresh — nothing of the dropped group survives to be
/// reused — and the recreated trigger fires.
#[test]
fn drop_recreate_evicts_compile_cache() {
    for mode in [Mode::Grouped, Mode::GroupedAgg] {
        let (mut session, log) = catalog_system(mode);
        session.execute(&base_trigger("A", "CRT 15")).unwrap();
        session.execute(&base_trigger("B", "LCD 19")).unwrap(); // same group
        session
            .execute(&other_shape_trigger("C", "CRT 15"))
            .unwrap(); // 2nd group
        assert_eq!(session.quark().group_count(), 2, "{mode:?}");
        assert_eq!(session.quark().translations(), 2, "{mode:?}");

        session.execute("DROP TRIGGER C").unwrap();
        session.execute("DROP TRIGGER A").unwrap();
        session.execute("DROP TRIGGER B").unwrap();
        assert_eq!(session.quark().group_count(), 0, "{mode:?}");
        assert_eq!(session.quark().sql_trigger_count(), 0, "{mode:?}");

        // Recreation translates: the counter moves, no memo serves it,
        // and the fresh trigger observably works.
        session.execute(&base_trigger("A2", "CRT 15")).unwrap();
        assert_eq!(
            session.quark().translations(),
            3,
            "{mode:?}: recreation must translate afresh"
        );
        assert_eq!(session.quark().compile_cache_hits(), 0, "{mode:?}");
        update_price(&mut session, "Amazon", "P1", 55.0).unwrap();
        assert_eq!(log.take().len(), 1, "{mode:?}: recreated trigger fires");
    }
}

/// Ungrouped mode gives every trigger its own group, and every group is
/// translated: five identical triggers cost five translations, and all
/// five fire.
#[test]
fn ungrouped_triggers_share_compiled_plans() {
    let (mut session, log) = catalog_system(Mode::Ungrouped);
    for i in 0..5 {
        session
            .execute(&base_trigger(&format!("U{i}"), "CRT 15"))
            .unwrap();
    }
    assert_eq!(session.quark().group_count(), 5);
    assert_eq!(session.quark().translations(), 5);
    assert_eq!(session.quark().compile_cache_hits(), 0);
    update_price(&mut session, "Amazon", "P1", 66.0).unwrap();
    assert_eq!(log.take().len(), 5, "all five copies fire");
}

/// Two views registered under different names but with identical structure
/// are translated separately, to the same plans: with the view name and
/// group ids masked, their triggers' `EXPLAIN TRIGGER` renderings agree,
/// and both fire on the same base change.
#[test]
fn structurally_equal_views_share_cache_entries() {
    let mut session = quark_xquery::session(Database::new(), Mode::GroupedAgg);
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
    let body = r#"{
      <accounts>{
        for $c in view("default")/customer/row
        let $orders := view("default")/orders/row[./cid = $c/cid]
        where count($orders) >= 2
        return <customer name={$c/name}>
          { for $o in $orders return <order><oid>{$o/oid}</oid><total>{$o/total}</total></order> }
        </customer>
      }</accounts>
    }"#;
    session
        .execute(&format!("create view accounts as {body}"))
        .unwrap();
    session
        .execute(&format!("create view mirror as {body}"))
        .unwrap();
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

    session
        .execute(
            "create trigger OnAccounts after update on view('accounts')/customer \
             where OLD_NODE/@name = 'ada' do notify(NEW_NODE)",
        )
        .unwrap();
    session
        .execute(
            "create trigger OnMirror after update on view('mirror')/customer \
             where OLD_NODE/@name = 'ada' do notify(NEW_NODE)",
        )
        .unwrap();
    assert_eq!(session.quark().group_count(), 2);
    assert_eq!(
        session.quark().translations(),
        2,
        "each view's trigger is translated from its own view"
    );
    assert_eq!(session.quark().compile_cache_hits(), 0);
    let accounts = normalized_explain(&mut session, "OnAccounts", "accounts");
    assert_eq!(
        accounts,
        normalized_explain(&mut session, "OnMirror", "mirror"),
        "structurally equal views must translate to the same plans"
    );

    // Both views' triggers fire on the same base change.
    session
        .execute("UPDATE orders SET total = 140.0 WHERE oid = 10")
        .unwrap();
    let mut fired: Vec<String> = log.take().into_iter().map(|(name, _)| name).collect();
    fired.sort();
    assert_eq!(
        fired,
        vec!["OnAccounts".to_string(), "OnMirror".to_string()]
    );
}
