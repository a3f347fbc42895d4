//! Row storage: primary-key-ordered rows plus optional single-column
//! secondary indices.
//!
//! The paper's experiments (§6.1) "defined primary keys for all the
//! relational tables and built appropriate indices on the key columns and
//! other join columns"; the flat curves of Figs. 17 and 23 depend on every
//! base-table access in a generated trigger being an index probe, never a
//! scan — and on a one-row write costing one row's work, not the table's.
//!
//! Everything is one structure, the persistent B+tree of [`crate::pmap`]:
//! the rows are a tree keyed by primary key, and each secondary index is a
//! tree keyed by `(column value, primary key)` whose leaves hold the row
//! itself (an `Arc`), so an index probe is one lower-bound descent and a
//! walk along the leaves, with no second probe per hit. Primary-key order —
//! the canonical order of every scan, view materialization, `SELECT` and
//! checkpoint image — is iteration order, and index hits come out in
//! primary-key order because that is how their keys sort. The generated
//! plans only ever probe an index with an equality key.
//!
//! **What a clone costs.** `Table::clone` bumps one refcount per tree and
//! touches no row, however large the table: that is what publishing a read
//! snapshot pays. The first write after a clone copies the root-to-leaf
//! path it walks in each tree (3 nodes at 4 096 rows) and shares every
//! other node with the clone; a write to a table nobody cloned mutates in
//! place. A failed statement's rollback holds no clone: the statement
//! journal keeps the rows it changed (`Database::statement`). O(log n) is
//! not free, though: copying a node allocates it and bumps a refcount per
//! key and row in it (both shared `Arc`s), and every clone makes the next
//! write copy its path again — a clone is worth holding only while it is
//! used.
//!
//! Every mutation bumps a per-table **version**. A checkpoint keeps a
//! table's image file while its version stands still, and a failed
//! statement's rollback restores the version along with the rows.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::pmap::PMap;
use crate::schema::TableSchema;
use crate::value::{ColumnType, Row, Value};
use crate::{Error, Result};

/// Primary-key value tuple, built once per row and shared, like [`Row`],
/// by the rows tree and every index entry.
pub type Key = Arc<[Value]>;

/// A stored table: rows in primary-key order plus single-column secondary
/// indices, all in one persistent B+tree. `clone` is a refcount bump per
/// tree and copies no row; a write after a clone copies the root-to-leaf
/// path it changes and shares the rest of the table with the clone.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<TableSchema>,
    rows: PMap<Key, Row>,
    /// column index -> index entries, `(column value, primary key)` -> row
    secondary: BTreeMap<usize, PMap<(Value, Key), Row>>,
    /// Bumped on every mutation (insert/delete/index creation).
    version: u64,
}

impl Table {
    /// Create an empty table.
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema: Arc::new(schema),
            rows: PMap::new(),
            secondary: BTreeMap::new(),
            version: 0,
        }
    }

    /// The table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Shared handle to the schema.
    pub fn schema_ref(&self) -> Arc<TableSchema> {
        Arc::clone(&self.schema)
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monotonic per-table mutation counter: the checkpoint's clean-table
    /// test (an unchanged version keeps the last image file).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Set the version back to `version`: a failed statement's rollback,
    /// once it has put back the rows the table held at that version.
    pub(crate) fn restore_version(&mut self, version: u64) {
        self.version = version;
    }

    /// Add an index on one column (no-op if already present).
    pub fn create_index(&mut self, column: usize) {
        if self.secondary.contains_key(&column) {
            return;
        }
        let mut index = PMap::new();
        for (key, row) in self.rows.iter() {
            index.insert((row[column].clone(), key.clone()), Arc::clone(row));
        }
        self.secondary.insert(column, index);
        self.version += 1;
    }

    /// `true` if a secondary index exists on `column`.
    pub fn has_index(&self, column: usize) -> bool {
        self.secondary.contains_key(&column)
    }

    /// Column indices carrying a secondary index, in ascending order
    /// (persisted by the storage catalog so indices survive a restart).
    pub fn indexed_columns(&self) -> Vec<usize> {
        self.secondary.keys().copied().collect()
    }

    /// Fetch a row by primary key.
    pub fn get(&self, key: &[Value]) -> Option<&Row> {
        self.rows.get(key)
    }

    /// Iterate over all rows in primary-key order.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter().map(|(_, row)| row)
    }

    /// Iterate over `(primary key, row)` pairs in primary-key order. The
    /// stored key is handed out directly so scans never re-extract (and
    /// re-clone) key values from rows.
    pub fn entries(&self) -> impl Iterator<Item = (&Key, &Row)> {
        self.rows.iter()
    }

    /// Rows whose `column` equals `value`, via the secondary index, in
    /// primary-key order.
    pub fn index_lookup(&self, column: usize, value: &Value) -> Result<Vec<&Row>> {
        Ok(self
            .index_entries(column, value)?
            .map(|(_, row)| row)
            .collect())
    }

    /// [`Self::index_lookup`] as `(primary key, row)` pairs, the stored key
    /// handed out like [`Self::entries`] does.
    pub fn index_entries(
        &self,
        column: usize,
        value: &Value,
    ) -> Result<impl Iterator<Item = (&Key, &Row)>> {
        let index = self
            .secondary
            .get(&column)
            .ok_or_else(|| Error::Plan(format!("no index on {}.{}", self.schema.name, column)))?;
        // The empty key sorts before every primary key: the lower bound of
        // `value`'s entries.
        let from = (value.clone(), Key::default());
        Ok(index
            .range_from(&from)
            .take_while(move |((v, _), _)| *v == from.0)
            .map(|((_, key), row)| (key, row)))
    }

    /// Insert a row; fails on duplicate primary key. An `Int` in a DOUBLE
    /// column is stored as the `Double` it equals: kept as an `Int` above
    /// 2^53, it would render digits its equal double does not have, so an
    /// update that pruning sees as no change would still change the view.
    pub fn insert(&mut self, mut values: Vec<Value>) -> Result<Row> {
        self.schema.check_row(&values)?;
        for (v, c) in values.iter_mut().zip(&self.schema.columns) {
            if let (Value::Int(i), ColumnType::Double) = (&*v, c.ty) {
                *v = Value::Double(*i as f64);
            }
        }
        let key = self.schema.key_of(&values);
        if self.rows.get(&key).is_some() {
            return Err(Error::DuplicateKey {
                table: self.schema.name.clone(),
                key: format!("{key:?}"),
            });
        }
        let row: Row = values.into();
        for (&col, index) in &mut self.secondary {
            index.insert((row[col].clone(), key.clone()), Arc::clone(&row));
        }
        self.rows.insert(key, Arc::clone(&row));
        self.version += 1;
        Ok(row)
    }

    /// Delete by primary key, returning the removed row.
    pub fn delete(&mut self, key: &[Value]) -> Option<Row> {
        let (key, row) = self.rows.remove_entry(key)?;
        for (&col, index) in &mut self.secondary {
            index.remove_entry(&(row[col].clone(), Arc::clone(&key)));
        }
        self.version += 1;
        Some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn vendor_table() -> Table {
        let schema = TableSchema::new(
            "vendor",
            vec![
                ColumnDef::new("vid", ColumnType::Str),
                ColumnDef::new("pid", ColumnType::Str),
                ColumnDef::new("price", ColumnType::Double),
            ],
            &["vid", "pid"],
        )
        .unwrap();
        Table::new(schema)
    }

    fn v(vid: &str, pid: &str, price: f64) -> Vec<Value> {
        vec![Value::str(vid), Value::str(pid), Value::Double(price)]
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = vendor_table();
        t.insert(v("Amazon", "P1", 100.0)).unwrap();
        let key: Key = Key::from([Value::str("Amazon"), Value::str("P1")]);
        assert_eq!(t.get(&key).unwrap()[2], Value::Double(100.0));
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = vendor_table();
        t.insert(v("Amazon", "P1", 100.0)).unwrap();
        assert!(matches!(
            t.insert(v("Amazon", "P1", 50.0)),
            Err(Error::DuplicateKey { .. })
        ));
    }

    #[test]
    fn secondary_index_tracks_inserts_updates_deletes() {
        let mut t = vendor_table();
        t.create_index(1); // pid
        t.insert(v("Amazon", "P1", 100.0)).unwrap();
        t.insert(v("Bestbuy", "P1", 120.0)).unwrap();
        t.insert(v("Buy.com", "P2", 200.0)).unwrap();
        assert_eq!(t.index_lookup(1, &Value::str("P1")).unwrap().len(), 2);

        // An update (delete + insert, as `Database::apply` does it) moves
        // a row from P1 to P2.
        let key: Key = Key::from([Value::str("Amazon"), Value::str("P1")]);
        t.delete(&key).unwrap();
        t.insert(v("Amazon", "P2", 100.0)).unwrap();
        assert_eq!(t.index_lookup(1, &Value::str("P1")).unwrap().len(), 1);
        assert_eq!(t.index_lookup(1, &Value::str("P2")).unwrap().len(), 2);

        // Delete drops index entries.
        let key2: Key = Key::from([Value::str("Bestbuy"), Value::str("P1")]);
        t.delete(&key2).unwrap();
        assert!(t.index_lookup(1, &Value::str("P1")).unwrap().is_empty());
    }

    #[test]
    fn index_built_over_existing_rows() {
        let mut t = vendor_table();
        t.insert(v("Amazon", "P1", 100.0)).unwrap();
        t.insert(v("Bestbuy", "P1", 120.0)).unwrap();
        t.create_index(1);
        assert_eq!(t.index_lookup(1, &Value::str("P1")).unwrap().len(), 2);
    }

    #[test]
    fn lookup_without_index_errors() {
        let t = vendor_table();
        assert!(matches!(
            t.index_lookup(2, &Value::Double(1.0)),
            Err(Error::Plan(_))
        ));
    }

    #[test]
    fn iteration_and_index_lookup_are_pk_ordered() {
        let mut t = vendor_table();
        t.create_index(1);
        t.insert(v("Circuitcity", "P1", 3.0)).unwrap();
        t.insert(v("Amazon", "P1", 1.0)).unwrap();
        t.insert(v("Bestbuy", "P1", 2.0)).unwrap();
        let vids: Vec<&Value> = t.iter().map(|r| &r[0]).collect();
        assert_eq!(
            vids,
            vec![
                &Value::str("Amazon"),
                &Value::str("Bestbuy"),
                &Value::str("Circuitcity")
            ]
        );
        let hits = t.index_lookup(1, &Value::str("P1")).unwrap();
        let vids: Vec<&Value> = hits.iter().map(|r| &r[0]).collect();
        assert_eq!(
            vids,
            vec![
                &Value::str("Amazon"),
                &Value::str("Bestbuy"),
                &Value::str("Circuitcity")
            ]
        );
    }

    #[test]
    fn version_bumps_on_every_mutation() {
        let mut t = vendor_table();
        let v0 = t.version();
        t.insert(v("Amazon", "P1", 1.0)).unwrap();
        let v1 = t.version();
        assert!(v1 > v0);
        let key: Key = Key::from([Value::str("Amazon"), Value::str("P1")]);
        t.delete(&key).unwrap();
        let v2 = t.version();
        assert!(v2 > v1);
        assert!(t.delete(&key).is_none());
        assert!(t.insert(vec![Value::Null]).is_err());
        assert_eq!(t.version(), v2, "a miss and a refusal change nothing");
        t.create_index(1);
        assert!(t.version() > v2);
    }

    /// `item(id INT PRIMARY KEY, grp INT, x INT)` with an index on `grp`,
    /// holding `id`s `0..n` in groups of ten.
    fn item_table(n: i64) -> Table {
        let schema = TableSchema::new(
            "item",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("grp", ColumnType::Int),
                ColumnDef::new("x", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap();
        let mut t = Table::new(schema);
        t.create_index(1);
        for id in 0..n {
            t.insert(item(id, id / 10, 0)).unwrap();
        }
        t
    }

    fn item(id: i64, grp: i64, x: i64) -> Vec<Value> {
        vec![Value::Int(id), Value::Int(grp), Value::Int(x)]
    }

    /// The wall-clock-free form of "a write after a snapshot costs
    /// O(log n)": counted in nodes, on a table large enough that a copy
    /// of it could not hide.
    #[test]
    fn clone_shares_everything_and_a_keyed_write_copies_one_path_per_tree() {
        let mut t = item_table(100_000);
        let snapshot = t.clone();
        let unshared = |t: &Table| {
            let index = &t.secondary[&1];
            (
                t.rows.nodes_unshared_with(&snapshot.rows),
                index.nodes_unshared_with(&snapshot.secondary[&1]),
            )
        };
        assert_eq!(unshared(&t), (0, 0), "a clone copies no node");

        // A keyed UPDATE of an unindexed column, as `Database::apply`
        // performs it.
        let key = [Value::Int(54_321)];
        t.delete(&key).unwrap();
        t.insert(item(54_321, 5_432, 7)).unwrap();
        let (rows, index) = unshared(&t);
        assert!(
            (1..=t.rows.height() + 1).contains(&rows),
            "{rows} row nodes"
        );
        assert!(
            (1..=t.secondary[&1].height() + 1).contains(&index),
            "{index} index nodes"
        );
        assert_eq!(snapshot.get(&key).unwrap()[2], Value::Int(0));
        assert_eq!(t.get(&key).unwrap()[2], Value::Int(7));

        // The copied path shares its keys: every key on it but the one
        // written is the clone's own allocation, in the rows tree and in
        // the index tree (whose entries share the rows tree's keys).
        let stored = |k: &[Value]| snapshot.rows.range_from(k).next().unwrap().0;
        let copied = t.rows.keys_unshared_with(&snapshot.rows);
        assert!(copied.len() > 1, "{} keys copied", copied.len());
        for k in copied.into_iter().filter(|k| ***k != key) {
            assert!(Arc::ptr_eq(k, stored(k)), "rows key {k:?} copied");
        }
        let copied = t.secondary[&1].keys_unshared_with(&snapshot.secondary[&1]);
        assert!(copied.len() > 1, "{} index keys copied", copied.len());
        for (_, k) in copied.into_iter().filter(|(_, k)| **k != key) {
            assert!(Arc::ptr_eq(k, stored(k)), "index key {k:?} copied");
        }
    }

    /// A clone is a snapshot: whatever happens to the original, it keeps
    /// iterating, probing and index-probing exactly the state it was
    /// taken in.
    #[test]
    fn a_clone_is_isolated_from_a_thousand_mutations() {
        let mut t = item_table(3_000);
        let snapshot = t.clone();
        let expected: Vec<Row> = t.iter().cloned().collect();
        let version = t.version();

        // Deterministic pseudo-random walk: delete, re-insert under
        // another group, insert new keys.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |bound: i64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as i64
        };
        for _ in 0..1_000 {
            let id = next(4_000);
            match (t.delete(&[Value::Int(id)]), next(3)) {
                (Some(_), 0) => {}
                _ => drop(t.insert(item(id, next(400), 1)).unwrap()),
            }
        }
        assert_ne!(t.iter().cloned().collect::<Vec<_>>(), expected);

        assert_eq!(snapshot.version(), version);
        assert_eq!(snapshot.len(), 3_000);
        assert!(snapshot.iter().eq(expected.iter()));
        assert!(snapshot
            .entries()
            .map(|(k, _)| &k[0])
            .eq(expected.iter().map(|r| &r[0])));
        for row in &expected {
            assert_eq!(snapshot.get(&row[..1]), Some(row));
        }
        assert_eq!(snapshot.get(&[Value::Int(3_500)]), None);
        for grp in 0..300 {
            // Ten rows a group, in primary-key order.
            let hits = snapshot.index_lookup(1, &Value::Int(grp)).unwrap();
            let from = grp as usize * 10;
            assert!(hits.into_iter().eq(expected[from..from + 10].iter()));
        }
        assert!(snapshot
            .index_lookup(1, &Value::Int(300))
            .unwrap()
            .is_empty());
    }
}
