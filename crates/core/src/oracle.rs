//! The materialize-and-diff oracle: the §1 strawman, used as the reference
//! semantics for Definitions 2–3 in tests and as the `MATERIALIZED`
//! ablation baseline.
//!
//! It materializes the monitored path twice — against the pre- and
//! post-statement states — pairs rows by canonical key, and classifies
//! each pair as an insert, delete, or update. This is exactly the
//! semantics the translated SQL triggers must reproduce *without*
//! materializing anything.

use std::collections::HashMap;

use quark_relational::{Database, Result, Value};
use quark_xml::XmlNodeRef;
use quark_xqgm::eval::evaluate;

use crate::spec::{PathGraph, XmlEvent};

/// One observed view-level event.
#[derive(Debug, Clone)]
pub struct ViewChange {
    /// Canonical key of the affected node.
    pub key: Vec<Value>,
    /// Event kind per Definitions 2–3.
    pub event: XmlEvent,
    /// Node value before the statement (None for inserts).
    pub old: Option<XmlNodeRef>,
    /// Node value after the statement (None for deletes).
    pub new: Option<XmlNodeRef>,
}

/// Materialize the monitored nodes: canonical key → node value.
pub fn materialize(pg: &PathGraph, db: &Database) -> Result<HashMap<Vec<Value>, XmlNodeRef>> {
    let rows = evaluate(&pg.graph, pg.root, db)?;
    let key_cols = pg.key(db)?;
    let mut out = HashMap::with_capacity(rows.len());
    for r in rows {
        let key: Vec<Value> = key_cols.iter().map(|&c| r[c].clone()).collect();
        let Value::Xml(node) = &r[pg.node_col] else {
            return Err(quark_relational::Error::Eval(
                "path graph node column did not produce XML".into(),
            ));
        };
        out.insert(key, node.clone());
    }
    Ok(out)
}

/// Diff two materializations by canonical key (Definitions 2–3).
pub fn diff(
    before: &HashMap<Vec<Value>, XmlNodeRef>,
    after: &HashMap<Vec<Value>, XmlNodeRef>,
) -> Vec<ViewChange> {
    let mut changes = Vec::new();
    for (key, old) in before {
        match after.get(key) {
            None => changes.push(ViewChange {
                key: key.clone(),
                event: XmlEvent::Delete,
                old: Some(old.clone()),
                new: None,
            }),
            Some(new) if new != old => changes.push(ViewChange {
                key: key.clone(),
                event: XmlEvent::Update,
                old: Some(old.clone()),
                new: Some(new.clone()),
            }),
            Some(_) => {}
        }
    }
    for (key, new) in after {
        if !before.contains_key(key) {
            changes.push(ViewChange {
                key: key.clone(),
                event: XmlEvent::Insert,
                old: None,
                new: Some(new.clone()),
            });
        }
    }
    // Deterministic order for test comparison.
    changes.sort_by(|a, b| format!("{:?}", a.key).cmp(&format!("{:?}", b.key)));
    changes
}

/// Convenience: run `statement` against a clone of `db`, returning the view
/// changes it causes on `pg` (the original database is untouched).
pub fn changes_of<F>(pg: &PathGraph, db: &Database, statement: F) -> Result<Vec<ViewChange>>
where
    F: FnOnce(&mut Database) -> Result<()>,
{
    let before = materialize(pg, db)?;
    let mut shadow = db.clone();
    statement(&mut shadow)?;
    let after = materialize(pg, &shadow)?;
    Ok(diff(&before, &after))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quark_xqgm::fixtures::{catalog_path_graph, product_vendor_db};
    use quark_xqgm::{normalize, Graph};

    fn path() -> (Database, PathGraph) {
        let db = product_vendor_db();
        let mut g = Graph::new();
        let (top, _) = catalog_path_graph(&mut g);
        let (graph, root) = normalize(&g, top, &db).unwrap();
        let mut attr_cols = HashMap::new();
        attr_cols.insert("name".to_string(), 0);
        (
            db,
            PathGraph {
                graph,
                root,
                node_col: 1,
                attr_cols,
            },
        )
    }

    #[test]
    fn price_update_is_a_view_update() {
        let (db, pg) = path();
        let changes = changes_of(&pg, &db, |db| {
            db.update_by_key(
                "vendor",
                &[Value::str("Amazon"), Value::str("P1")],
                &[(2, Value::Double(75.0))],
            )
            .map(|_| ())
        })
        .unwrap();
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].event, XmlEvent::Update);
        assert_eq!(changes[0].key, vec![Value::str("CRT 15")]);
        assert_ne!(changes[0].old, changes[0].new);
    }

    #[test]
    fn dropping_below_two_vendors_is_a_view_delete() {
        let (db, pg) = path();
        let changes = changes_of(&pg, &db, |db| {
            db.delete_by_key("vendor", &[Value::str("Buy.com"), Value::str("P2")])
                .map(|_| ())
        })
        .unwrap();
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].event, XmlEvent::Delete);
        assert_eq!(changes[0].key, vec![Value::str("LCD 19")]);
    }

    #[test]
    fn new_qualifying_product_is_a_view_insert() {
        let (db, pg) = path();
        let changes = changes_of(&pg, &db, |db| {
            db.insert(
                "product",
                vec![vec![
                    Value::str("P4"),
                    Value::str("OLED 42"),
                    Value::str("LG"),
                ]],
            )?;
            db.insert(
                "vendor",
                vec![
                    vec![Value::str("Amazon"), Value::str("P4"), Value::Double(900.0)],
                    vec![
                        Value::str("Bestbuy"),
                        Value::str("P4"),
                        Value::Double(950.0),
                    ],
                ],
            )
            .map(|_| ())
        })
        .unwrap();
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].event, XmlEvent::Insert);
        assert_eq!(changes[0].key, vec![Value::str("OLED 42")]);
    }

    #[test]
    fn mfr_only_update_causes_no_view_change() {
        let (db, pg) = path();
        let changes = changes_of(&pg, &db, |db| {
            db.update_by_key("product", &[Value::str("P1")], &[(2, Value::str("LG"))])
                .map(|_| ())
        })
        .unwrap();
        assert!(changes.is_empty(), "{changes:?}");
    }
}
