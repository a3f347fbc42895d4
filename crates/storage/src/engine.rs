//! The storage engine: one directory holding a WAL (`wal/<seq>.wal`),
//! per-table image files (`tables/<id>.img`) and a catalog
//! (`catalog.bin`), with the recovery and checkpoint protocols that tie
//! them together.
//!
//! **Logging.** Every latched statement (with its full trigger cascade)
//! becomes one WAL frame via [`StorageEngine::log_statement`], called
//! while the statement can still be undone: an `Err` means no byte of it
//! was appended. Redo ops are physical and idempotent, so replay never
//! re-fires triggers — cascade effects are already in the frame.
//!
//! **Checkpointing.** [`StorageEngine::checkpoint`] writes a complete
//! image: dirty tables get a fresh image file under an unused id, clean
//! tables keep theirs, the engine layers' opaque core blob is rewritten,
//! and the WAL is truncated: a checkpoint is the only thing that starts a
//! new segment, and it deletes the one it leaves. A table is clean while
//! it is the very table (same schema `Arc`) at the same version as when
//! its image was written, or loaded by `open` before replay. The ordering
//! is shadow-root safe: new images are written (and fsynced) beside the
//! old ones, the new catalog is renamed into place, the WAL is truncated,
//! and only then are the images the new catalog no longer names unlinked
//! — a crash at any point leaves the old or the new catalog with every
//! image it names.
//!
//! **Failures.** The [`Wal`] holds the engine's one refusal: a tear that
//! cannot be cut off, a failed fsync or a failed checkpoint step sets it,
//! and every later append, sync and checkpoint fails before it touches a
//! file, until a reopen's replay decides what the directory holds.
//!
//! **Recovery.** [`StorageEngine::open`] is the one reader of what
//! `checkpoint` writes: it loads the catalog, creates each table with its
//! indexes and loads its image (CRC-verified, dropped before the next is
//! read), unlinks image files the catalog does not name (left by a crash
//! before the rename), and streams the WAL's whole frames into the
//! rebuilt [`Database`] one at a time (ARIES redo-only: there is nothing to
//! undo, because a statement is logged whole or not at all).

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use quark_relational::wire::{Dec, Enc};
use quark_relational::{Database, Error, RedoOp, Result, Table, TableSchema, Value};

use crate::catalog::{Catalog, TableEntry};
use crate::framed;
use crate::wal::{SyncMode, Wal};

/// What [`StorageEngine::open`] rebuilds beside the engine: the database
/// and the engine layers' core blob (views, triggers, trigger groups),
/// `None` before the first checkpoint. A pair, so `let (engine, _) =`
/// callers that only want a fresh engine stay as they are.
pub type Rebuilt = (Database, Option<Vec<u8>>);

/// One entry of the durable catalog, stamped with the table as it stood
/// when its image was written or loaded.
#[derive(Debug)]
struct StoredTable {
    /// The table's schema `Arc`. Held, so its address is never reused: a
    /// table dropped and re-created has another, however equal its schema
    /// (and a version that restarted at 0).
    schema: Arc<TableSchema>,
    version: u64,
    entry: TableEntry,
}

impl StoredTable {
    fn stamp(table: &Table, entry: TableEntry) -> StoredTable {
        let (schema, version) = (table.schema_ref(), table.version());
        StoredTable {
            schema,
            version,
            entry,
        }
    }

    /// `true` while `table` is the stamped table at the stamped version.
    fn is_clean(&self, table: &Table) -> bool {
        std::ptr::eq(self.schema.as_ref(), table.schema()) && self.version == table.version()
    }
}

fn image_path(dir: &Path, id: u64) -> PathBuf {
    dir.join("tables").join(format!("{id:010}.img"))
}

/// How long a durable commit waits for sibling commits to finish
/// appending before it fsyncs, when at least one other `log_statement`
/// call is in flight. Negligible next to a real-disk `fsync`, but enough
/// for concurrently-latched writers to pile their frames into one sync
/// even on fast storage. A lone writer never pays it.
const GROUP_COMMIT_WINDOW: Duration = Duration::from_micros(200);

/// Handle to one durable database directory.
#[derive(Debug)]
pub struct StorageEngine {
    dir: PathBuf,
    sync: SyncMode,
    wal: Mutex<Wal>,
    /// Mirror of the durable catalog's table entries, by table name.
    store: Mutex<BTreeMap<String, StoredTable>>,
    /// `SyncMode::Always` `log_statement` calls in flight: a commit only
    /// pays the gather window when somebody else is committing.
    active_commits: AtomicU64,
    wal_bytes: AtomicU64,
    /// Length of the live WAL segment, mirrored out of the WAL lock:
    /// changed only under it, read without it.
    segment_bytes: AtomicU64,
    /// Group-commit syncs of the WAL, the only ones it gets.
    wal_fsyncs: AtomicU64,
    checkpoints: AtomicU64,
    /// WAL frames `open` applied on top of the checkpoint.
    replayed_frames: u64,
    recovery_ms: AtomicU64,
}

fn encode_rows(table: &Table) -> Result<Vec<u8>> {
    let mut enc = Enc::new();
    enc.put(&table.iter().collect::<Vec<_>>());
    enc.into_bytes()
}

impl StorageEngine {
    /// Open (creating if needed) the database directory and rebuild its
    /// last durable state: each checkpointed table, then every whole WAL
    /// frame applied on top (see [`Wal::replay`]). A frame that does not
    /// apply fails the open and cuts nothing. `sync` governs all later
    /// logging and checkpointing.
    pub fn open(dir: &Path, sync: SyncMode) -> Result<(StorageEngine, Rebuilt)> {
        let images = dir.join("tables");
        fs::create_dir_all(&images)
            .map_err(|e| Error::Storage(format!("create database dir: {e}")))?;
        let catalog = Catalog::load(&dir.join("catalog.bin"))?.unwrap_or_default();
        let mut db = Database::new();
        let mut stored = BTreeMap::new();
        let mut live = HashSet::new();
        for entry in catalog.tables {
            let name = entry.schema.name.clone();
            db.create_table(entry.schema.clone())?;
            for &col in &entry.indexes {
                db.create_index(&name, &entry.schema.columns[col].name)?;
            }
            if let Some(id) = entry.image {
                let path = image_path(dir, id);
                let image = framed::load(&path, &[])?
                    .ok_or_else(|| Error::Storage(format!("{} is missing", path.display())))?;
                db.load(&name, Dec::whole::<Vec<Vec<Value>>>(&image)?)?;
                live.insert(path);
            }
            // Stamped before replay: a table the log does not touch keeps
            // its image through the next checkpoint.
            let t = db.table(&name)?;
            stored.insert(name, StoredTable::stamp(&t, entry));
        }
        // Whatever else sits under `tables/` was written by a checkpoint
        // that crashed before its catalog rename: garbage, not state.
        let listing =
            fs::read_dir(&images).map_err(|e| Error::Storage(format!("list tables dir: {e}")))?;
        for file in listing.flatten() {
            if !live.contains(&file.path()) {
                let _ = fs::remove_file(file.path());
            }
        }
        let wal_dir = dir.join("wal");
        let replay = Wal::replay(&wal_dir, catalog.wal_seq, |ops| db.apply_redo(ops))?;
        let wal = Wal::open(&wal_dir, catalog.wal_seq, replay.clean_len)?;
        let engine = StorageEngine {
            dir: dir.to_path_buf(),
            sync,
            wal: Mutex::new(wal),
            store: Mutex::new(stored),
            active_commits: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            segment_bytes: AtomicU64::new(replay.clean_len),
            wal_fsyncs: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            replayed_frames: replay.frames,
            recovery_ms: AtomicU64::new(0),
        };
        Ok((engine, (db, catalog.core_blob)))
    }

    /// Append one statement's redo ops to the WAL as one frame. Statements
    /// with no data effects are not logged. An `Err` from the append means
    /// no byte of the statement is in the log. In `SyncMode::Never` the
    /// call returns once the frame is appended: one WAL lock per statement.
    ///
    /// In `SyncMode::Always` durability is **group-committed**: after the
    /// append (and a short gather window when other commits are in flight,
    /// so their frames join), the call locks the WAL again and fsyncs only
    /// if no other commit's fsync covered its frame meanwhile (see
    /// [`Wal::sync`]). It never returns `Ok` before this statement's frame
    /// is durable, so the acknowledgment semantics of `Always` are
    /// unchanged — only the fsync count drops: under concurrent writers
    /// `wal_fsyncs` stays below the committed-statement count. A failed
    /// fsync returns `Err` for every frame it covered that was not yet
    /// acknowledged, although those frames may be durable, and makes the
    /// log refuse: every later call fails before appending, so no data
    /// change is accepted until a reopen's replay decides.
    pub fn log_statement(&self, ops: &[RedoOp]) -> Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        if self.sync == SyncMode::Never {
            return self.append(ops).map(drop);
        }
        self.active_commits.fetch_add(1, Ordering::Relaxed);
        let result = self.append(ops).and_then(|ticket| {
            if self.active_commits.load(Ordering::Relaxed) > 1 {
                std::thread::sleep(GROUP_COMMIT_WINDOW);
            }
            if self.wal.lock().expect("wal poisoned").sync(ticket)? {
                self.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        });
        self.active_commits.fetch_sub(1, Ordering::Relaxed);
        result
    }

    /// Append `ops` as one frame under the WAL lock; returns its ticket.
    fn append(&self, ops: &[RedoOp]) -> Result<u64> {
        let mut wal = self.wal.lock().expect("wal poisoned");
        let bytes = wal.append_statement(ops)?;
        self.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.segment_bytes.fetch_add(bytes, Ordering::Relaxed);
        Ok(wal.appended())
    }

    /// Write a complete checkpoint of `db` (plus the engine layers'
    /// `core_blob`) and truncate the WAL. A table keeps its image file
    /// while it is the same table at the same version as when the image
    /// was written or loaded; every other non-empty table gets a new one.
    /// Fails before it touches a file once the log refuses; a failed step
    /// makes it refuse, as `db` is then ahead of a directory that may hold
    /// the old catalog or the new one.
    pub fn checkpoint(&self, db: &Database, core_blob: Vec<u8>) -> Result<()> {
        let mut store = self.store.lock().expect("store poisoned");
        let mut wal = self.wal.lock().expect("wal poisoned");
        wal.check()?;
        self.write_checkpoint(&mut store, &mut wal, db, core_blob)
            .inspect_err(|e| wal.refuse(e))
    }

    /// The steps of [`StorageEngine::checkpoint`], in shadow-root order.
    fn write_checkpoint(
        &self,
        store: &mut BTreeMap<String, StoredTable>,
        wal: &mut Wal,
        db: &Database,
        core_blob: Vec<u8>,
    ) -> Result<()> {
        let sync = self.sync == SyncMode::Always;

        // Ids grow, so a new image never overwrites one the durable
        // catalog still names.
        let used = store.values().filter_map(|t| t.entry.image).max();
        let mut next_image = used.map_or(0, |id| id + 1);
        let mut names: Vec<&str> = db.table_names().collect();
        names.sort();
        let mut stored = BTreeMap::new();
        for name in names {
            let t = db.table(name)?;
            let mut entry = TableEntry {
                schema: t.schema().clone(),
                indexes: t.indexed_columns(),
                image: None,
            };
            match store.get(name) {
                Some(s) if s.is_clean(&t) => entry.image = s.entry.image,
                _ if t.is_empty() => {}
                _ => {
                    let bytes = encode_rows(&t)?;
                    framed::publish(&image_path(&self.dir, next_image), &[], &bytes, sync)?;
                    entry.image = Some(next_image);
                    next_image += 1;
                }
            }
            stored.insert(name.to_string(), StoredTable::stamp(&t, entry));
        }

        let new_seq = wal.seq() + 1;
        let catalog = Catalog {
            wal_seq: new_seq,
            tables: stored.values().map(|t| t.entry.clone()).collect(),
            core_blob: Some(core_blob),
        };
        catalog.save(&self.dir.join("catalog.bin"), sync)?;
        let replaced = std::mem::replace(store, stored);
        wal.truncate_to(new_seq)?;
        self.segment_bytes.store(0, Ordering::Relaxed);
        // Images of rewritten and dropped tables are unlinked only now that
        // the catalog naming their successors is durable (shadow-root
        // rule). A failed unlink leaves garbage the next `open` sweeps.
        let live: HashSet<u64> = store.values().filter_map(|t| t.entry.image).collect();
        for id in replaced.values().filter_map(|t| t.entry.image) {
            if !live.contains(&id) {
                let _ = fs::remove_file(image_path(&self.dir, id));
            }
        }
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Bytes appended to the WAL since this engine was opened.
    pub fn wal_bytes_written(&self) -> u64 {
        self.wal_bytes.load(Ordering::Relaxed)
    }

    /// Bytes in the live WAL segment: what a crash-reopen would replay.
    pub fn wal_segment_bytes(&self) -> u64 {
        self.segment_bytes.load(Ordering::Relaxed)
    }

    /// `fsync` calls issued for WAL commits: one per group-commit batch.
    pub fn wal_fsyncs(&self) -> u64 {
        self.wal_fsyncs.load(Ordering::Relaxed)
    }

    /// Group-commit fsync batches issued: [`StorageEngine::wal_fsyncs`],
    /// as each fsync covers every frame appended before it.
    pub fn group_commit_batches(&self) -> u64 {
        self.wal_fsyncs()
    }

    /// Checkpoints completed since open.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// WAL frames [`StorageEngine::open`] replayed: statements a crash
    /// left after the last checkpoint.
    pub fn replayed_frames(&self) -> u64 {
        self.replayed_frames
    }

    /// Wall-clock milliseconds the last recovery took (stored by the
    /// layer that drives recovery).
    pub fn recovery_ms(&self) -> u64 {
        self.recovery_ms.load(Ordering::Relaxed)
    }

    /// Record how long recovery took.
    pub fn set_recovery_ms(&self, ms: u64) {
        self.recovery_ms.store(ms, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quark_relational::{row, ColumnDef, ColumnType, TableSchema};

    fn tmp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicU64;
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("quark-engine-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn vendor_schema() -> TableSchema {
        TableSchema::new(
            "vendor",
            vec![
                ColumnDef::new("vid", ColumnType::Str),
                ColumnDef::new("price", ColumnType::Double),
            ],
            &["vid"],
        )
        .unwrap()
    }

    /// Every row of `table`, in key order.
    fn rows_of(db: &Database, table: &str) -> Vec<Vec<Value>> {
        db.table(table)
            .unwrap()
            .iter()
            .map(|r| r.to_vec())
            .collect()
    }

    fn fresh_db() -> Database {
        let mut db = Database::new();
        db.create_table(vendor_schema()).unwrap();
        db.create_index("vendor", "price").unwrap();
        db
    }

    #[test]
    fn checkpoint_then_open_restores_tables_and_blob() {
        let dir = tmp_dir("basic");
        let (engine, (db, blob)) = StorageEngine::open(&dir, SyncMode::Never).unwrap();
        assert_eq!(db.table_names().count(), 0);
        assert!(blob.is_none());

        let db = fresh_db();
        db.insert(
            "vendor",
            vec![
                vec![Value::str("Amazon"), Value::Double(10.0)],
                vec![Value::str("Bestbuy"), Value::Double(12.0)],
            ],
        )
        .unwrap();
        engine.checkpoint(&db, vec![7, 7, 7]).unwrap();
        drop(engine);
        // Golden bytes of the table image (CRC, row count, tagged values).
        let image = fs::read(&image_files(&dir)[0]).unwrap();
        let fnv = image.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((image.len(), fnv), (57, 0x7173_939c_e3ca_86e1));

        let (engine, (db, blob)) = StorageEngine::open(&dir, SyncMode::Never).unwrap();
        assert_eq!(db.table_names().collect::<Vec<_>>(), ["vendor"]);
        let t = db.table("vendor").unwrap();
        assert_eq!(t.schema(), &vendor_schema());
        assert_eq!(t.indexed_columns(), vec![1]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.index_lookup(1, &Value::Double(12.0)).unwrap().len(), 1);
        assert_eq!(engine.replayed_frames(), 0);
        assert_eq!(blob.as_deref(), Some(&[7u8, 7, 7][..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_batches_survive_without_checkpoint() {
        let dir = tmp_dir("wal");
        let (engine, _) = StorageEngine::open(&dir, SyncMode::Never).unwrap();
        let db = fresh_db();
        engine.checkpoint(&db, Vec::new()).unwrap();
        let ops = vec![RedoOp::Put {
            table: "vendor".into(),
            row: row([Value::str("Amazon"), Value::Double(10.0)]),
        }];
        engine.log_statement(&ops).unwrap();
        assert!(engine.wal_bytes_written() > 0);
        drop(engine);

        // The checkpoint image has no rows: the one row is the replayed
        // statement's.
        assert!(image_files(&dir).is_empty());
        let (engine, (db, _)) = StorageEngine::open(&dir, SyncMode::Never).unwrap();
        assert_eq!(engine.replayed_frames(), 1);
        let amazon = vec![Value::str("Amazon"), Value::Double(10.0)];
        assert_eq!(rows_of(&db, "vendor"), vec![amazon]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every file under `tables/`, sorted (ids are zero-padded, so name
    /// order is id order).
    fn image_files(dir: &Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = fs::read_dir(dir.join("tables"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        files
    }

    fn image_of(engine: &StorageEngine, table: &str) -> Option<u64> {
        engine.store.lock().unwrap()[table].entry.image
    }

    fn product_schema() -> TableSchema {
        TableSchema::new(
            "product",
            vec![
                ColumnDef::new("pid", ColumnType::Str),
                ColumnDef::new("pname", ColumnType::Str),
            ],
            &["pid"],
        )
        .unwrap()
    }

    #[test]
    fn multi_megabyte_image_round_trips() {
        let dir = tmp_dir("big");
        let (engine, _) = StorageEngine::open(&dir, SyncMode::Always).unwrap();
        let db = fresh_db();
        let rows: Vec<Vec<Value>> = (0..40_000)
            .map(|i| {
                vec![
                    Value::str(format!("vendor-{i:08}")),
                    Value::Double(i as f64),
                ]
            })
            .collect();
        db.insert("vendor", rows.clone()).unwrap();
        engine.checkpoint(&db, Vec::new()).unwrap();
        drop(engine);
        assert!(fs::metadata(&image_files(&dir)[0]).unwrap().len() > 1 << 20);
        let (_engine, (db, _)) = StorageEngine::open(&dir, SyncMode::Never).unwrap();
        assert_eq!(rows_of(&db, "vendor"), rows);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_image_byte_fails_open() {
        let dir = tmp_dir("corrupt");
        let (engine, _) = StorageEngine::open(&dir, SyncMode::Never).unwrap();
        let db = fresh_db();
        db.insert(
            "vendor",
            vec![vec![Value::str("Amazon"), Value::Double(10.0)]],
        )
        .unwrap();
        engine.checkpoint(&db, Vec::new()).unwrap();
        drop(engine);
        let image = image_files(&dir).pop().expect("one image");
        let mut data = fs::read(&image).unwrap();
        let n = data.len();
        data[n - 2] ^= 0x01;
        fs::write(&image, &data).unwrap();
        assert!(matches!(
            StorageEngine::open(&dir, SyncMode::Never),
            Err(Error::Storage(m)) if m.contains("corrupt")
        ));
        // A missing image is just as fatal: the catalog names it.
        fs::remove_file(&image).unwrap();
        assert!(matches!(
            StorageEngine::open(&dir, SyncMode::Never),
            Err(Error::Storage(m)) if m.contains("missing")
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    /// What a checkpoint that crashed before its catalog rename leaves
    /// behind: image files nobody names and a half-written `catalog.tmp`.
    #[test]
    fn crashed_checkpoint_leftovers_are_swept_on_open() {
        let dir = tmp_dir("orphan");
        let (engine, _) = StorageEngine::open(&dir, SyncMode::Never).unwrap();
        let db = fresh_db();
        db.insert(
            "vendor",
            vec![vec![Value::str("Amazon"), Value::Double(10.0)]],
        )
        .unwrap();
        engine.checkpoint(&db, vec![1, 2, 3]).unwrap();
        drop(engine);
        let named = image_files(&dir);
        assert_eq!(named.len(), 1);
        fs::write(image_path(&dir, 9_999), b"half an image").unwrap();
        fs::write(dir.join("tables").join("0000009999.tmp"), b"torn").unwrap();
        fs::write(dir.join("catalog.tmp"), b"torn catalog").unwrap();

        let (engine, (recovered, blob)) = StorageEngine::open(&dir, SyncMode::Never).unwrap();
        assert_eq!(recovered.table_names().count(), 1);
        assert_eq!(recovered.table("vendor").unwrap().len(), 1);
        assert_eq!(blob.as_deref(), Some(&[1u8, 2, 3][..]));
        assert_eq!(image_files(&dir), named, "orphans must be removed");
        // The stale tmp does not get in the next checkpoint's way.
        engine.checkpoint(&db, vec![4]).unwrap();
        assert!(!dir.join("catalog.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// (A table's "chain" is now a single image file.) A clean table keeps
    /// its image id, a dirty one gets a fresh id and its old file is gone.
    #[test]
    fn clean_tables_keep_their_chains_across_checkpoints() {
        let dir = tmp_dir("clean");
        let (engine, _) = StorageEngine::open(&dir, SyncMode::Never).unwrap();
        let mut db = fresh_db();
        db.create_table(product_schema()).unwrap();
        db.insert(
            "vendor",
            vec![vec![Value::str("Amazon"), Value::Double(10.0)]],
        )
        .unwrap();
        db.insert("product", vec![vec![Value::str("P1"), Value::str("CRT")]])
            .unwrap();
        engine.checkpoint(&db, Vec::new()).unwrap();
        let (vendor, product) = (image_of(&engine, "vendor"), image_of(&engine, "product"));
        assert!(vendor.is_some() && product.is_some() && vendor != product);

        db.insert("product", vec![vec![Value::str("P2"), Value::str("LCD")]])
            .unwrap();
        engine.checkpoint(&db, Vec::new()).unwrap();
        assert_eq!(image_of(&engine, "vendor"), vendor, "clean table rewritten");
        let product2 = image_of(&engine, "product");
        assert!(product2 > product, "dirty table must get a fresh id");
        assert_eq!(
            image_files(&dir),
            vec![
                image_path(&dir, vendor.unwrap()),
                image_path(&dir, product2.unwrap())
            ],
            "the replaced image must be unlinked"
        );
        assert_eq!(engine.checkpoints(), 2);
        drop(engine);

        // Another `Database`'s tables are rewritten, under ids no live file
        // uses.
        let (engine, (recovered, _)) = StorageEngine::open(&dir, SyncMode::Never).unwrap();
        assert_eq!(recovered.table_names().count(), 2);
        engine.checkpoint(&db, Vec::new()).unwrap();
        assert!(image_of(&engine, "vendor") > product2);
        assert_eq!(image_files(&dir).len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A crash-reopen whose replay touches one of two tables keeps the
    /// other's image through the checkpoint that folds the replay in (the
    /// one `Quark::open_with` takes): `open` stamps each table as its image
    /// loads, before replay.
    #[test]
    fn a_table_replay_does_not_touch_keeps_its_image() {
        let dir = tmp_dir("replay-clean");
        let (engine, _) = StorageEngine::open(&dir, SyncMode::Never).unwrap();
        let mut db = fresh_db();
        db.create_table(product_schema()).unwrap();
        db.insert(
            "vendor",
            vec![vec![Value::str("Amazon"), Value::Double(10.0)]],
        )
        .unwrap();
        db.insert("product", vec![vec![Value::str("P1"), Value::str("CRT")]])
            .unwrap();
        engine.checkpoint(&db, Vec::new()).unwrap();
        assert_eq!(
            image_files(&dir),
            [image_path(&dir, 0), image_path(&dir, 1)]
        );
        let vendor = image_of(&engine, "vendor");
        let put = RedoOp::Put {
            table: "product".into(),
            row: row([Value::str("P2"), Value::str("LCD")]),
        };
        engine.log_statement(&[put]).unwrap();
        drop(engine); // crash

        let (engine, (recovered, _)) = StorageEngine::open(&dir, SyncMode::Never).unwrap();
        assert_eq!(engine.replayed_frames(), 1);
        engine.checkpoint(&recovered, Vec::new()).unwrap();
        assert_eq!(
            image_of(&engine, "vendor"),
            vendor,
            "untouched table rewritten"
        );
        assert_eq!(
            image_files(&dir),
            [image_path(&dir, 1), image_path(&dir, 2)]
        );
        drop(engine);
        let (_engine, (reopened, _)) = StorageEngine::open(&dir, SyncMode::Never).unwrap();
        assert_eq!(rows_of(&reopened, "product").len(), 2);
        assert_eq!(rows_of(&reopened, "vendor").len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Dropped and emptied tables leave no image file behind.
    #[test]
    fn dropped_tables_leave_the_catalog_and_pages_recycle() {
        let dir = tmp_dir("drop");
        let (engine, _) = StorageEngine::open(&dir, SyncMode::Never).unwrap();
        let mut db = fresh_db();
        db.create_table(product_schema()).unwrap();
        db.insert(
            "vendor",
            vec![vec![Value::str("Amazon"), Value::Double(10.0)]],
        )
        .unwrap();
        db.insert("product", vec![vec![Value::str("P1"), Value::str("CRT")]])
            .unwrap();
        engine.checkpoint(&db, Vec::new()).unwrap();
        assert_eq!(image_files(&dir).len(), 2);

        db.drop_table("vendor").unwrap();
        db.delete_expr("product", None).unwrap();
        engine.checkpoint(&db, Vec::new()).unwrap();
        assert!(image_files(&dir).is_empty());
        drop(engine);
        let (_engine, (db, _)) = StorageEngine::open(&dir, SyncMode::Never).unwrap();
        assert_eq!(db.table_names().collect::<Vec<_>>(), ["product"]);
        assert!(db.table("product").unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A whole frame that does not apply (its `Put` names a table the
    /// catalog lacks) fails the open instead of being cut as a tear, which
    /// would drop it and every acknowledged frame behind it.
    #[test]
    fn a_frame_that_does_not_apply_fails_open_and_cuts_nothing() {
        let dir = tmp_dir("apply");
        let (engine, _) = StorageEngine::open(&dir, SyncMode::Never).unwrap();
        engine.checkpoint(&fresh_db(), Vec::new()).unwrap();
        let put = |table: &str| RedoOp::Put {
            table: table.into(),
            row: row([Value::str("Amazon"), Value::Double(10.0)]),
        };
        engine.log_statement(&[put("ghost")]).unwrap();
        engine.log_statement(&[put("vendor")]).unwrap();
        drop(engine);
        let log = || {
            let mut files: Vec<_> = fs::read_dir(dir.join("wal"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            files.sort();
            files
                .into_iter()
                .map(|f| fs::read(f).unwrap())
                .collect::<Vec<_>>()
        };
        let before = log();
        assert!(matches!(
            StorageEngine::open(&dir, SyncMode::Never),
            Err(Error::UnknownTable(t)) if t == "ghost"
        ));
        assert_eq!(log(), before, "the log is unchanged");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn always_mode_counts_fsyncs() {
        let dir = tmp_dir("fsync");
        let (engine, _) = StorageEngine::open(&dir, SyncMode::Always).unwrap();
        let ops = vec![RedoOp::Del {
            table: "vendor".into(),
            key: vec![Value::str("Amazon")],
        }];
        engine.log_statement(&ops).unwrap();
        assert_eq!(engine.wal_fsyncs(), 1);
        assert_eq!(engine.group_commit_batches(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_commits_coalesce_fsyncs() {
        use std::sync::{Arc, Barrier};
        const THREADS: u64 = 4;
        const STMTS: u64 = 50;
        let dir = tmp_dir("group");
        let (engine, (mut db, _)) = StorageEngine::open(&dir, SyncMode::Always).unwrap();
        for t in 0..THREADS {
            let columns = vec![
                ColumnDef::new("k", ColumnType::Int),
                ColumnDef::new("v", ColumnType::Str),
            ];
            db.create_table(TableSchema::new(format!("t{t}"), columns, &["k"]).unwrap())
                .unwrap();
        }
        engine.checkpoint(&db, Vec::new()).unwrap();
        let engine = Arc::new(engine);
        let barrier = Arc::new(Barrier::new(THREADS as usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let engine = Arc::clone(&engine);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..STMTS {
                        let ops = vec![RedoOp::Put {
                            table: format!("t{t}"),
                            row: row([Value::Int(i as i64), Value::str("x")]),
                        }];
                        engine.log_statement(&ops).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let committed = THREADS * STMTS;
        assert!(
            engine.wal_fsyncs() < committed,
            "group commit never coalesced: {} fsyncs for {committed} statements",
            engine.wal_fsyncs(),
        );
        assert!(engine.group_commit_batches() >= 1);
        assert!(engine.group_commit_batches() <= engine.wal_fsyncs());
        drop(engine);
        // Every acknowledged statement must be on disk.
        let (engine, (db, _)) = StorageEngine::open(&dir, SyncMode::Never).unwrap();
        assert_eq!(engine.replayed_frames(), committed);
        for t in 0..THREADS {
            assert_eq!(db.table(&format!("t{t}")).unwrap().len(), STMTS as usize);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
