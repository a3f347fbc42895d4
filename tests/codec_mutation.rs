//! Mutated encodings of every top-level byte format — wire responses and
//! requests, a redo batch, the Figure-3 view graph, a catalog and a core
//! blob — must decode to `Err` or to a value that re-encodes to exactly the
//! mutated bytes. Never a panic, never an allocation sized by a mutated
//! count (`Dec::seq` bounds counts by the bytes that remain), and never two
//! byte strings for one value.
//!
//! Mutations: truncate at a prefix, overwrite four bytes with `u32::MAX`
//! (wherever a count or length sits, it becomes the largest one), XOR one
//! byte. The small formats take every prefix and every offset; the core
//! blob is tens of kilobytes and each decode re-arms a database, so it
//! takes seeded random positions.

mod common;

use std::path::{Path, PathBuf};

use common::{CATALOG_VIEW, SETUP, TRIGGERS};
use proptest::prelude::*;
use quark_core::relational::wire::{Dec, Enc};
use quark_core::relational::{row, ColumnDef, ColumnType, RedoOp, TableSchema, Value};
use quark_core::storage::catalog::{Catalog, TableEntry};
use quark_core::storage::crc::crc32;
use quark_core::storage::SyncMode;
use quark_core::xml::{element, text};
use quark_core::xqgm::wire::{decode_graph, encode_graph};
use quark_core::xqgm::{fixtures, Graph};
use quark_core::{AnalysisReport, Mode, ObjectKind, Quark, Span, StatementResult};
use quark_server::protocol::{
    decode_request, decode_response, encode_error, encode_request, encode_result, Request,
    WireErrorKind, WireResult,
};

fn tmp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("quark-codec-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Decode then encode again; `None` when the decoder refuses the bytes.
type Recode = Box<dyn Fn(&[u8]) -> Option<Vec<u8>>>;

/// One byte format: a valid encoding and its decode-then-encode.
struct Format {
    name: &'static str,
    valid: Vec<u8>,
    recode: Recode,
}

#[derive(Debug, Clone, Copy)]
enum Mutation {
    Truncate,
    MaxU32,
    Xor(u8),
}

impl Format {
    fn new(
        name: &'static str,
        valid: Vec<u8>,
        recode: impl Fn(&[u8]) -> Option<Vec<u8>> + 'static,
    ) -> Format {
        let format = Format {
            name,
            valid,
            recode: Box::new(recode),
        };
        let back = (format.recode)(&format.valid);
        assert_eq!(back.as_ref(), Some(&format.valid), "{name}: valid bytes");
        format
    }

    /// Apply `mutation` at offset `at` and hold the decoder to the contract.
    fn check(&self, mutation: Mutation, at: usize) {
        let mut bytes = self.valid.clone();
        match mutation {
            Mutation::Truncate => bytes.truncate(at),
            Mutation::MaxU32 => bytes[at..].iter_mut().take(4).for_each(|b| *b = 0xFF),
            Mutation::Xor(mask) => bytes[at] ^= mask,
        }
        if let Some(back) = (self.recode)(&bytes) {
            assert_eq!(
                back, bytes,
                "{}: {mutation:?} at {at} decodes, but to a value with other bytes",
                self.name
            );
        }
    }
}

fn recode_response(bytes: &[u8]) -> Option<Vec<u8>> {
    Some(match decode_response(bytes).ok()? {
        Err(e) => encode_error(e.kind, &e.message, e.span),
        Ok(WireResult::Xml(fragments)) => {
            // The only result without a `StatementResult` twin to encode:
            // its fragments stay text on the client.
            let mut enc = Enc::new();
            enc.u8(bytes[0]);
            enc.put(&fragments);
            enc.into_bytes().unwrap()
        }
        Ok(WireResult::RowsAffected(n)) => {
            encode_result(&StatementResult::RowsAffected(n as usize))
        }
        Ok(WireResult::Rows { columns, rows }) => {
            encode_result(&StatementResult::Rows { columns, rows })
        }
        Ok(WireResult::Created { kind, name }) => {
            encode_result(&StatementResult::Created { kind, name })
        }
        Ok(WireResult::Dropped { kind, name }) => {
            encode_result(&StatementResult::Dropped { kind, name })
        }
        Ok(WireResult::Explain(text)) => encode_result(&StatementResult::Explain(text)),
        Ok(WireResult::Analysis(report)) => encode_result(&StatementResult::Analysis(report)),
    })
}

/// One response per frame tag (two ERROR frames: with and without span).
fn responses() -> Vec<Vec<u8>> {
    let node = element(
        "product",
        vec![("name".into(), "CRT 15".into())],
        vec![text("x")],
    );
    let results = [
        StatementResult::RowsAffected(7),
        StatementResult::Rows {
            columns: vec!["a".into(), "b".into()],
            rows: vec![
                row([Value::Int(1), Value::str("x")]),
                row([Value::Null, Value::Double(2.5)]),
                row([Value::Bool(true), Value::str("y")]),
            ],
        },
        StatementResult::Created {
            kind: ObjectKind::View,
            name: "v".into(),
        },
        StatementResult::Dropped {
            kind: ObjectKind::Trigger,
            name: "t".into(),
        },
        StatementResult::Explain("plan".into()),
        StatementResult::Xml(vec![node, element("empty", vec![], vec![])]),
        StatementResult::Analysis(AnalysisReport {
            groups: 3,
            errors: 1,
            warnings: 2,
            cycles_bounded: 1,
            cycles_unbounded: 0,
            commuting_pairs: 2,
            conflicting_pairs: 1,
            text: "trigger program analysis".into(),
        }),
    ];
    let mut payloads: Vec<Vec<u8>> = results.iter().map(encode_result).collect();
    payloads.push(encode_error(WireErrorKind::Busy, "queue full", None));
    payloads.push(encode_error(
        WireErrorKind::Parse,
        "oops",
        Some(Span::new(3, 9)),
    ));
    payloads
}

fn redo_batch() -> Format {
    let ops = vec![
        RedoOp::Put {
            table: "vendor".into(),
            row: row([Value::str("Amazon"), Value::Double(10.0)]),
        },
        RedoOp::Del {
            table: "vendor".into(),
            key: vec![Value::str("Amazon")],
        },
    ];
    let mut enc = Enc::new();
    enc.put(&ops);
    Format::new("redo batch", enc.into_bytes().unwrap(), |bytes| {
        let mut dec = Dec::new(bytes);
        let ops: Vec<RedoOp> = dec.get().ok()?;
        dec.finish().ok()?;
        let mut enc = Enc::new();
        enc.put(&ops);
        enc.into_bytes().ok()
    })
}

fn figure3_graph() -> Format {
    let mut graph = Graph::new();
    let (top, _) = fixtures::catalog_path_graph(&mut graph);
    let mut enc = Enc::new();
    encode_graph(&mut enc, &graph, top);
    Format::new("view graph", enc.into_bytes().unwrap(), |bytes| {
        let mut dec = Dec::new(bytes);
        let (graph, root) = decode_graph(&mut dec).ok()?;
        dec.finish().ok()?;
        let mut enc = Enc::new();
        encode_graph(&mut enc, &graph, root);
        enc.into_bytes().ok()
    })
}

/// `catalog.bin` is `[magic: 4][crc32 of payload: 4][payload]`; the format
/// under test is the payload, so each mutant gets a matching checksum.
fn write_catalog(path: &Path, magic: &[u8], payload: &[u8]) {
    let mut file = magic.to_vec();
    file.extend_from_slice(&crc32(payload).to_le_bytes());
    file.extend_from_slice(payload);
    std::fs::write(path, file).unwrap();
}

fn read_catalog_payload(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap().split_off(8)
}

/// A durable database directory with the Figure-3 view and two triggers,
/// checkpointed and closed.
fn durable_fixture() -> PathBuf {
    let dir = tmp_dir("fixture");
    let session = quark_xquery::open_session_with(&dir, Mode::Grouped, SyncMode::Never).unwrap();
    for statement in SETUP {
        session.execute(statement).unwrap();
    }
    session.execute(CATALOG_VIEW).unwrap();
    session.register_action("notify", |_, _| Ok(())).unwrap();
    for trigger in TRIGGERS {
        session.execute(trigger).unwrap();
    }
    session.close().unwrap();
    dir
}

fn catalog(scratch: &Path) -> Format {
    let schema = TableSchema::new(
        "vendor",
        vec![
            ColumnDef::new("vid", ColumnType::Str),
            ColumnDef::new("price", ColumnType::Double),
        ],
        &["vid"],
    )
    .unwrap();
    let catalog = Catalog {
        wal_seq: 3,
        tables: vec![TableEntry {
            schema,
            indexes: vec![1],
            image: Some(7),
        }],
        core_blob: Some(vec![1, 2, 3, 4]),
    };
    let path = scratch.join("catalog.bin");
    catalog.save(&path, false).unwrap();
    let magic = std::fs::read(&path).unwrap()[..4].to_vec();
    Format::new("catalog", read_catalog_payload(&path), move |payload| {
        write_catalog(&path, &magic, payload);
        let catalog = Catalog::load(&path).ok()??;
        catalog.save(&path, false).ok()?;
        Some(read_catalog_payload(&path))
    })
}

/// The core blob only decodes inside `Quark::open`, against the tables its
/// plans name: each candidate is opened in a fresh copy of the fixture
/// directory whose catalog carries it, and re-encoded by a checkpoint.
fn core_blob(fixture: &Path) -> Format {
    let fixture = fixture.to_path_buf();
    let original = Catalog::load(&fixture.join("catalog.bin"))
        .unwrap()
        .unwrap();
    let valid = original.core_blob.clone().expect("fixture has a core blob");
    Format::new("core blob", valid, move |blob| {
        let dir = tmp_dir("core");
        std::fs::create_dir_all(dir.join("tables")).unwrap();
        for image in std::fs::read_dir(fixture.join("tables")).unwrap() {
            let image = image.unwrap();
            std::fs::copy(image.path(), dir.join("tables").join(image.file_name())).unwrap();
        }
        let mut catalog = original.clone();
        catalog.core_blob = Some(blob.to_vec());
        catalog.save(&dir.join("catalog.bin"), false).unwrap();
        let reopened = Quark::open_with(&dir, Mode::Ungrouped, SyncMode::Never).ok();
        let back = reopened.map(|quark| {
            quark.checkpoint().unwrap();
            let catalog = Catalog::load(&dir.join("catalog.bin")).unwrap().unwrap();
            catalog.core_blob.expect("checkpoint writes the blob")
        });
        let _ = std::fs::remove_dir_all(&dir);
        back
    })
}

#[test]
fn every_prefix_and_offset_of_the_small_formats() {
    let scratch = tmp_dir("small");
    let mut formats: Vec<Format> = responses()
        .into_iter()
        .map(|valid| Format::new("response", valid, recode_response))
        .collect();
    let request = encode_request("UPDATE t SET a = 1 WHERE k = 'x'");
    formats.push(Format::new("request", request, |bytes| {
        let Request::Execute(statement) = decode_request(bytes).ok()?;
        Some(encode_request(&statement))
    }));
    formats.extend([redo_batch(), figure3_graph(), catalog(&scratch)]);
    for format in &formats {
        for at in 0..format.valid.len() {
            format.check(Mutation::Truncate, at);
            format.check(Mutation::MaxU32, at);
            for mask in [0x01, 0x80, 0xFF] {
                format.check(Mutation::Xor(mask), at);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

proptest! {
    // Deterministic in CI; sweep PROPTEST_SEED manually for wider hunts.
    #![proptest_config(ProptestConfig {
        cases: 4,
        rng_seed: Some(0x1cde_2005_0016),
        ..ProptestConfig::default()
    })]

    #[test]
    fn sampled_offsets_of_the_core_blob(
        mutants in proptest::collection::vec((0usize..3, any::<u32>(), 1u8..255), 96..97)
    ) {
        let fixture = durable_fixture();
        let format = core_blob(&fixture);
        for (kind, at, mask) in mutants {
            let mutation = [Mutation::Truncate, Mutation::MaxU32, Mutation::Xor(mask)][kind];
            format.check(mutation, at as usize % format.valid.len());
        }
        let _ = std::fs::remove_dir_all(&fixture);
    }
}
