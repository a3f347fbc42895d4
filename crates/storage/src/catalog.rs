//! The durable catalog: the root record of a checkpointed database image.
//!
//! `catalog.bin` names everything else: the live WAL segment (any other
//! is garbage), one entry per table (schema,
//! secondary-index columns, the id of the image file holding its row
//! stream), and an opaque **core blob** — the engine
//! layers above serialize their own state (views, triggers, trigger
//! groups) into it without the storage layer knowing its shape.
//!
//! The catalog is replaced atomically (`framed::publish`): written to
//! `catalog.tmp`, fsynced, renamed over `catalog.bin`. A crash
//! mid-checkpoint therefore leaves the previous complete catalog in place,
//! and the stale-but-intact images and WAL segments it points at — classic
//! shadow-root recovery.

use std::path::Path;

use quark_relational::wire::{Dec, Decode, Enc, Encode};
use quark_relational::{Error, Result, TableSchema};

use crate::framed;

const MAGIC: &[u8; 4] = b"QRKC";
/// Covers the WAL layout too, so a directory of another version is
/// refused by number: no reader of an older layout is kept. Version 4
/// replays one segment; a version-3 directory may hold several.
const VERSION: u32 = 4;

/// One table's durable metadata.
#[derive(Debug, Clone)]
pub struct TableEntry {
    /// The table schema (name, columns, primary key).
    pub schema: TableSchema,
    /// Columns carrying a secondary index, rebuilt at recovery.
    pub indexes: Vec<usize>,
    /// Id of the image file `tables/<id>.img` holding the encoded row
    /// stream; `None` for a table that was empty at the checkpoint.
    pub image: Option<u64>,
}

/// The decoded catalog.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    /// The WAL segment started after the checkpoint: the one replay reads.
    pub wal_seq: u64,
    /// All tables in creation order.
    pub tables: Vec<TableEntry>,
    /// Opaque engine-layer state (views, triggers, trigger groups).
    pub core_blob: Option<Vec<u8>>,
}

impl Encode for TableEntry {
    fn encode(&self, enc: &mut Enc) {
        enc.put(&self.schema);
        enc.put(&self.indexes);
        enc.put(&self.image);
    }
}

impl Decode for TableEntry {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(TableEntry {
            schema: dec.get()?,
            indexes: dec.get()?,
            image: dec.get()?,
        })
    }
}

impl Catalog {
    /// Load the catalog, or `None` when the file does not exist yet (a
    /// fresh database directory).
    pub fn load(path: &Path) -> Result<Option<Catalog>> {
        let Some(payload) = framed::load(path, MAGIC)? else {
            return Ok(None);
        };
        let mut dec = Dec::new(&payload);
        let version = dec.u32()?;
        if version != VERSION {
            return Err(Error::Storage(format!(
                "unsupported catalog version {version}"
            )));
        }
        let wal_seq = dec.u64()?;
        let tables = dec.get()?;
        let core_blob = dec.bool()?.then(|| dec.bytes()).transpose()?;
        dec.finish()?;
        Ok(Some(Catalog {
            wal_seq,
            tables,
            core_blob,
        }))
    }

    /// Write the catalog atomically (tmp + fsync + rename) and sync the
    /// directory when `sync` is set so the rename itself is durable.
    pub fn save(&self, path: &Path, sync: bool) -> Result<()> {
        let mut enc = Enc::new();
        enc.u32(VERSION);
        enc.u64(self.wal_seq);
        enc.put(&self.tables);
        enc.bool(self.core_blob.is_some());
        if let Some(blob) = &self.core_blob {
            enc.bytes(blob);
        }
        framed::publish(path, MAGIC, &enc.into_bytes()?, sync)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quark_relational::{ColumnDef, ColumnType};
    use std::path::PathBuf;

    fn tmp_file(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "quark-catalog-{tag}-{}-{n}.bin",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn sample() -> Catalog {
        let schema = TableSchema::new(
            "vendor",
            vec![
                ColumnDef::new("vid", ColumnType::Str),
                ColumnDef::new("price", ColumnType::Double),
            ],
            &["vid"],
        )
        .unwrap();
        Catalog {
            wal_seq: 3,
            tables: vec![TableEntry {
                schema,
                indexes: vec![1],
                image: Some(7),
            }],
            core_blob: Some(vec![1, 2, 3, 4]),
        }
    }

    #[test]
    fn round_trips_through_disk() {
        let path = tmp_file("roundtrip");
        sample().save(&path, false).unwrap();
        // Golden bytes of the file (magic, CRC, version-4 payload): a
        // catalog written by an earlier build of this version must keep
        // loading. 8 bytes below version 2, which held the checkpoint's LSN;
        // version 3 differs only in the version field.
        let data = std::fs::read(&path).unwrap();
        let fnv = data.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((data.len(), fnv), (90, 0xabbf_f3a7_6919_ea30));
        let back = Catalog::load(&path).unwrap().unwrap();
        assert_eq!(back.wal_seq, 3);
        assert_eq!(back.tables.len(), 1);
        assert_eq!(back.tables[0].schema.name, "vendor");
        assert_eq!(back.tables[0].indexes, vec![1]);
        assert_eq!(back.tables[0].image, Some(7));
        assert_eq!(back.core_blob.as_deref(), Some(&[1u8, 2, 3, 4][..]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_fresh_database() {
        let path = tmp_file("missing");
        assert!(Catalog::load(&path).unwrap().is_none());
    }

    /// Version 1 is the paged-store layout, version 2 the two-record WAL
    /// with LSNs, version 3 the log whose segments rotated at a fixed size;
    /// all are refused by number.
    #[test]
    fn other_catalog_versions_are_rejected() {
        let path = tmp_file("version");
        for version in [1, 2, 3] {
            let mut enc = Enc::new();
            enc.u32(version);
            enc.u64(42); // version 2's checkpoint LSN
            enc.u64(3);
            framed::publish(&path, MAGIC, &enc.into_bytes().unwrap(), false).unwrap();
            assert!(matches!(
                Catalog::load(&path),
                Err(Error::Storage(m)) if m == format!("unsupported catalog version {version}")
            ));
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Table, column and index counts larger than the bytes left are
    /// refused by `Dec::seq` before anything is reserved.
    #[test]
    fn oversized_counts_are_refused_before_reserving() {
        let path = tmp_file("counts");
        let header = |enc: &mut Enc, tables: u32| {
            enc.u32(VERSION);
            enc.u64(3); // WAL segment
            enc.u32(tables);
        };
        let mut tables = Enc::new();
        header(&mut tables, u32::MAX);
        let mut columns = Enc::new();
        header(&mut columns, 1);
        columns.str("vendor");
        columns.u32(u32::MAX);
        for enc in [tables, columns] {
            framed::publish(&path, MAGIC, &enc.into_bytes().unwrap(), false).unwrap();
            assert!(matches!(
                Catalog::load(&path),
                Err(Error::Storage(m)) if m.contains("sequence of 4294967295 items")
            ));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corruption_is_detected() {
        let path = tmp_file("corrupt");
        sample().save(&path, false).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 1] ^= 0x55;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(
            Catalog::load(&path),
            Err(Error::Storage(m)) if m.contains("checksum")
        ));
        let _ = std::fs::remove_file(&path);
    }
}
