//! The wire format: length-prefixed, CRC-framed request/response payloads.
//!
//! Every frame, in both directions, is
//!
//! ```text
//! +----------------+----------------+------------------------+
//! | len: u32 LE    | crc: u32 LE    | payload (len bytes)    |
//! +----------------+----------------+------------------------+
//! ```
//!
//! where `crc` is the CRC-32 (IEEE) of the payload: the write-ahead log's
//! frame, sealed and peeled by the same two functions
//! ([`quark_core::storage::frame`]), so a flipped bit anywhere in a frame
//! is caught before the payload is interpreted. `len` is bounded by the
//! server's configured maximum frame size; an oversized header is rejected
//! *before* buffering, so a malicious length cannot make the server
//! allocate.
//!
//! Payloads go through the same codec as everything persisted
//! ([`quark_core::relational::wire`], whose module docs state the rules
//! every format follows). The first payload byte is the frame tag:
//!
//! | tag | direction | body |
//! |---|---|---|
//! | `0x01` EXECUTE | request | statement text |
//! | `0x80` ROWS_AFFECTED | response | `u64` count |
//! | `0x81` ROWS | response | column names, then rows of typed values |
//! | `0x82` CREATED | response | object kind + name |
//! | `0x83` DROPPED | response | object kind + name |
//! | `0x84` EXPLAIN | response | rendering text |
//! | `0x85` XML | response | serialized XML fragments |
//! | `0x86` ANALYSIS | response | analysis counts, then the rendered report |
//! | `0xE0` ERROR | response | error kind, message, optional byte span |
//!
//! Error kinds distinguish *statement* errors (parse errors with their
//! byte span, engine errors — the connection stays open) from
//! *connection* errors (protocol violations, shutdown, admission
//! rejection — the server closes the connection after responding).
//! `ShuttingDown` and `Busy` are **retriable**: the statement was never
//! executed.

use std::fmt;
use std::io::{self, Write};

use quark_core::relational::wire::{Dec, Enc, WireTag};
use quark_core::relational::{self, Row, Value};
use quark_core::storage::frame::{self, Peeled};
use quark_core::{AnalysisReport, ObjectKind, Span, StatementError, StatementResult};

pub use quark_core::storage::frame::HEADER_LEN;

/// Default maximum payload size (16 MiB).
pub const MAX_FRAME_DEFAULT: usize = 16 * 1024 * 1024;

const REQ_EXECUTE: u8 = 0x01;
const RESP_ROWS_AFFECTED: u8 = 0x80;
const RESP_ROWS: u8 = 0x81;
const RESP_CREATED: u8 = 0x82;
const RESP_DROPPED: u8 = 0x83;
const RESP_EXPLAIN: u8 = 0x84;
const RESP_XML: u8 = 0x85;
const RESP_ANALYSIS: u8 = 0x86;
const RESP_ERROR: u8 = 0xE0;

/// One decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Execute one statement of the session surface.
    Execute(String),
}

/// Wire-level mirror of [`StatementResult`]: XML results travel as
/// serialized text (the tree is rebuilt client-side on demand), everything
/// else round-trips typed.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResult {
    /// Rows changed by a data-change statement.
    RowsAffected(u64),
    /// `SELECT` / `STATS` output.
    Rows {
        /// Projected column names.
        columns: Vec<String>,
        /// Result rows.
        rows: Vec<Row>,
    },
    /// A schema object was created.
    Created {
        /// What was created.
        kind: ObjectKind,
        /// Its name.
        name: String,
    },
    /// A schema object was dropped.
    Dropped {
        /// What was dropped.
        kind: ObjectKind,
        /// Its name.
        name: String,
    },
    /// `EXPLAIN TRIGGER` rendering.
    Explain(String),
    /// `MATERIALIZE` output, one serialized fragment per monitored node.
    Xml(Vec<String>),
    /// `ANALYZE TRIGGERS` output: the summary counts and rendered report.
    Analysis(AnalysisReport),
}

impl WireResult {
    /// Rows affected, if this is a data-change result.
    pub fn rows_affected(&self) -> Option<u64> {
        match self {
            WireResult::RowsAffected(n) => Some(*n),
            _ => None,
        }
    }
}

/// What kind of failure an ERROR frame reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorKind {
    /// Statement parse/bind failure (span points into the statement text).
    Parse,
    /// Engine error executing a well-formed statement.
    Db,
    /// Protocol violation (torn/oversized/CRC-bad frame, unknown tag).
    /// The server closes the connection after sending this.
    Protocol,
    /// The server is draining for shutdown; the statement was **not**
    /// executed and can be retried against a restarted server.
    ShuttingDown,
    /// The worker pool's admission queue was full; the connection was
    /// never served. Retriable.
    Busy,
}

impl WireTag for WireErrorKind {
    const TAGS: &'static [(Self, u8)] = &[
        (WireErrorKind::Parse, 0),
        (WireErrorKind::Db, 1),
        (WireErrorKind::Protocol, 2),
        (WireErrorKind::ShuttingDown, 3),
        (WireErrorKind::Busy, 4),
    ];
}

impl WireErrorKind {
    /// `true` if the statement was provably never executed and can be
    /// resent verbatim ([`ShuttingDown`](WireErrorKind::ShuttingDown) /
    /// [`Busy`](WireErrorKind::Busy)).
    pub fn is_retriable(self) -> bool {
        matches!(self, WireErrorKind::ShuttingDown | WireErrorKind::Busy)
    }
}

/// An error frame, decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Failure class.
    pub kind: WireErrorKind,
    /// Human-readable message.
    pub message: String,
    /// Byte span into the statement text, for parse errors.
    pub span: Option<Span>,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.kind, self.span) {
            (WireErrorKind::Parse, Some(span)) => {
                write!(f, "parse error at {span}: {}", self.message)
            }
            _ => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for WireError {}

fn malformed(msg: String) -> relational::Error {
    relational::Error::Storage(msg)
}

/// The bytes of a finished payload. Only an XML value has no encoding, and
/// result rows are flattened before they are put.
fn payload(enc: Enc) -> Vec<u8> {
    enc.into_bytes().expect("wire payloads hold no XML value")
}

// ----------------------------------------------------------------------
// Framing
// ----------------------------------------------------------------------

/// Write one frame: header (length + CRC) followed by the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame::seal(payload))?;
    w.write_all(payload)
}

/// Outcome of one framing step over a receive buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Framing {
    /// Not enough buffered bytes for a complete frame yet.
    Need,
    /// One complete, CRC-verified payload (consumed from the buffer).
    Frame(Vec<u8>),
    /// Unrecoverable framing violation; the connection must close.
    Bad(String),
}

/// Try to peel one frame off the front of `buf`. Oversized length headers
/// and CRC mismatches are [`Framing::Bad`] — a stream that has lost frame
/// alignment cannot be resynchronized, only closed.
pub fn decode_frame(buf: &mut Vec<u8>, max_frame: usize) -> Framing {
    match frame::peel(buf, max_frame) {
        Peeled::Need => Framing::Need,
        Peeled::Bad(msg) => Framing::Bad(msg),
        Peeled::Frame { payload, len } => {
            let payload = payload.to_vec();
            buf.drain(..len);
            Framing::Frame(payload)
        }
    }
}

// ----------------------------------------------------------------------
// Requests
// ----------------------------------------------------------------------

/// Encode an EXECUTE request payload.
pub fn encode_request(statement: &str) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u8(REQ_EXECUTE);
    enc.str(statement);
    payload(enc)
}

/// Decode a request payload (CRC already verified by the framing layer, so
/// any failure here is a protocol violation, not line noise).
pub fn decode_request(payload: &[u8]) -> Result<Request, String> {
    let decode = || {
        let mut dec = Dec::new(payload);
        let request = match dec.u8()? {
            REQ_EXECUTE => Request::Execute(dec.str()?),
            other => return Err(malformed(format!("unknown request tag 0x{other:02x}"))),
        };
        dec.finish()?;
        Ok(request)
    };
    decode().map_err(|e| e.to_string())
}

// ----------------------------------------------------------------------
// Responses
// ----------------------------------------------------------------------

/// Encode a successful statement result. [`Value::Xml`] cells (possible in
/// principle for computed outputs) are downgraded to their serialized text
/// — stored tables cannot contain XML, so `SELECT`/`STATS` rows round-trip
/// typed.
pub fn encode_result(result: &StatementResult) -> Vec<u8> {
    let mut enc = Enc::new();
    match result {
        StatementResult::RowsAffected(n) => {
            enc.u8(RESP_ROWS_AFFECTED);
            enc.u64(*n as u64);
        }
        StatementResult::Rows { columns, rows } => {
            enc.u8(RESP_ROWS);
            enc.put(columns);
            let is_xml = |v: &Value| matches!(v, Value::Xml(_));
            if rows.iter().any(|row| row.iter().any(is_xml)) {
                let flat = |v: &Value| match v {
                    Value::Xml(x) => Value::str(x.to_xml()),
                    other => other.clone(),
                };
                let rows = rows.iter().map(|row| row.iter().map(flat).collect());
                enc.put(&rows.collect::<Vec<Row>>());
            } else {
                enc.put(rows);
            }
        }
        StatementResult::Created { kind, name } => {
            enc.u8(RESP_CREATED);
            enc.tag(*kind);
            enc.str(name);
        }
        StatementResult::Dropped { kind, name } => {
            enc.u8(RESP_DROPPED);
            enc.tag(*kind);
            enc.str(name);
        }
        StatementResult::Explain(text) => {
            enc.u8(RESP_EXPLAIN);
            enc.str(text);
        }
        StatementResult::Xml(nodes) => {
            enc.u8(RESP_XML);
            enc.put(&nodes.iter().map(|n| n.to_xml()).collect::<Vec<_>>());
        }
        StatementResult::Analysis(report) => {
            enc.u8(RESP_ANALYSIS);
            enc.u64(report.groups);
            enc.u64(report.errors);
            enc.u64(report.warnings);
            enc.u64(report.cycles_bounded);
            enc.u64(report.cycles_unbounded);
            enc.u64(report.commuting_pairs);
            enc.u64(report.conflicting_pairs);
            enc.str(&report.text);
        }
    }
    payload(enc)
}

/// Encode an ERROR response payload.
pub fn encode_error(kind: WireErrorKind, message: &str, span: Option<Span>) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u8(RESP_ERROR);
    enc.tag(kind);
    enc.str(message);
    enc.put(&span.map(|s| (s.start as u64, s.end as u64)));
    payload(enc)
}

/// Encode a [`StatementError`] (parse errors keep their span).
pub fn encode_statement_error(e: &StatementError) -> Vec<u8> {
    match e {
        StatementError::Parse { message, span } => {
            encode_error(WireErrorKind::Parse, message, Some(*span))
        }
        StatementError::Db(db) => encode_error(WireErrorKind::Db, &db.to_string(), None),
    }
}

/// Decode a response payload. The outer `Err` is a protocol violation
/// (malformed payload); the inner `Err` is a well-formed ERROR frame.
#[allow(clippy::type_complexity)]
pub fn decode_response(payload: &[u8]) -> Result<Result<WireResult, WireError>, String> {
    let decode = || {
        let mut dec = Dec::new(payload);
        let response = match dec.u8()? {
            RESP_ROWS_AFFECTED => Ok(WireResult::RowsAffected(dec.u64()?)),
            RESP_ROWS => Ok(WireResult::Rows {
                columns: dec.get()?,
                rows: dec.get()?,
            }),
            RESP_CREATED => Ok(WireResult::Created {
                kind: dec.tag()?,
                name: dec.str()?,
            }),
            RESP_DROPPED => Ok(WireResult::Dropped {
                kind: dec.tag()?,
                name: dec.str()?,
            }),
            RESP_EXPLAIN => Ok(WireResult::Explain(dec.str()?)),
            RESP_XML => Ok(WireResult::Xml(dec.get()?)),
            RESP_ANALYSIS => Ok(WireResult::Analysis(AnalysisReport {
                groups: dec.u64()?,
                errors: dec.u64()?,
                warnings: dec.u64()?,
                cycles_bounded: dec.u64()?,
                cycles_unbounded: dec.u64()?,
                commuting_pairs: dec.u64()?,
                conflicting_pairs: dec.u64()?,
                text: dec.str()?,
            })),
            RESP_ERROR => Err(WireError {
                kind: dec.tag()?,
                message: dec.str()?,
                span: dec
                    .get::<Option<(u64, u64)>>()?
                    .map(|(start, end)| Span::new(start as usize, end as usize)),
            }),
            other => return Err(malformed(format!("unknown response tag 0x{other:02x}"))),
        };
        dec.finish()?;
        Ok(response)
    };
    decode().map_err(|e: relational::Error| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let payload = encode_request("SELECT a FROM t");
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut buf = wire.clone();
        let Framing::Frame(got) = decode_frame(&mut buf, MAX_FRAME_DEFAULT) else {
            panic!("frame must decode");
        };
        assert_eq!(got, payload);
        assert!(buf.is_empty());
        assert_eq!(decode_frame(&mut buf, MAX_FRAME_DEFAULT), Framing::Need);
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let payload = encode_request("SELECT a FROM t");
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        for cut in [0, 3, HEADER_LEN, wire.len() - 1] {
            let mut buf = wire[..cut].to_vec();
            assert_eq!(
                decode_frame(&mut buf, MAX_FRAME_DEFAULT),
                Framing::Need,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corrupt_and_oversized_frames_are_bad() {
        let payload = encode_request("SELECT a FROM t");
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        // Flip one payload bit: CRC mismatch.
        let mut corrupt = wire.clone();
        *corrupt.last_mut().unwrap() ^= 0x40;
        assert!(matches!(
            decode_frame(&mut corrupt, MAX_FRAME_DEFAULT),
            Framing::Bad(_)
        ));
        // Oversized length header: rejected before buffering.
        let mut oversized = u32::MAX.to_le_bytes().to_vec();
        oversized.extend_from_slice(&[0; 4]);
        assert!(matches!(
            decode_frame(&mut oversized, MAX_FRAME_DEFAULT),
            Framing::Bad(_)
        ));
    }

    #[test]
    fn requests_round_trip() {
        let payload = encode_request("INSERT INTO t VALUES (1)");
        assert_eq!(
            decode_request(&payload).unwrap(),
            Request::Execute("INSERT INTO t VALUES (1)".into())
        );
        assert!(decode_request(&[0x7f]).is_err(), "unknown tag");
        assert!(decode_request(&[]).is_err(), "empty payload");
    }

    #[test]
    fn results_round_trip() {
        use quark_core::relational::row;
        let cases = [
            StatementResult::RowsAffected(7),
            StatementResult::Rows {
                columns: vec!["a".into(), "b".into()],
                rows: vec![
                    row([Value::Int(1), Value::str("x")]),
                    row([Value::Null, Value::Double(2.5)]),
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
        for case in &cases {
            let wire = decode_response(&encode_result(case)).unwrap().unwrap();
            match (case, &wire) {
                (StatementResult::RowsAffected(n), WireResult::RowsAffected(m)) => {
                    assert_eq!(*n as u64, *m)
                }
                (
                    StatementResult::Rows { columns, rows },
                    WireResult::Rows {
                        columns: c,
                        rows: r,
                    },
                ) => {
                    assert_eq!(columns, c);
                    assert_eq!(rows, r);
                }
                (
                    StatementResult::Created { kind, name },
                    WireResult::Created { kind: k, name: n },
                ) => {
                    assert_eq!((kind, name.as_str()), (k, n.as_str()))
                }
                (
                    StatementResult::Dropped { kind, name },
                    WireResult::Dropped { kind: k, name: n },
                ) => {
                    assert_eq!((kind, name.as_str()), (k, n.as_str()))
                }
                (StatementResult::Explain(a), WireResult::Explain(b)) => assert_eq!(a, b),
                (StatementResult::Analysis(a), WireResult::Analysis(b)) => assert_eq!(a, b),
                other => panic!("variant mismatch: {other:?}"),
            }
        }
    }

    /// A sample of every `StatementResult` variant; the `Rows` case has an
    /// XML cell (downgraded to text on the wire).
    fn sample_results() -> Vec<StatementResult> {
        use quark_core::relational::row;
        use quark_core::xml::{element, text};
        let node = element(
            "product",
            vec![("name".into(), "CRT 15".into())],
            vec![text("x")],
        );
        vec![
            StatementResult::RowsAffected(7),
            StatementResult::Rows {
                columns: vec!["a".into(), "b".into()],
                rows: vec![
                    row([Value::Int(1), Value::str("x")]),
                    row([Value::Null, Value::Double(2.5)]),
                    row([Value::Bool(true), Value::Xml(node.clone())]),
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
        ]
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Golden bytes (length, FNV-1a) of one payload per frame tag: deployed
    /// clients and servers of different builds must keep understanding each
    /// other, so a change here is a protocol change.
    #[test]
    fn payload_bytes_are_pinned() {
        let mut payloads: Vec<Vec<u8>> = sample_results().iter().map(encode_result).collect();
        payloads.push(encode_error(WireErrorKind::Busy, "queue full", None));
        payloads.push(encode_error(
            WireErrorKind::Parse,
            "oops",
            Some(Span::new(3, 9)),
        ));
        payloads.push(encode_request("UPDATE t SET a = 1 WHERE k = 'x'"));
        let tags: Vec<u8> = payloads.iter().map(|p| p[0]).collect();
        assert_eq!(
            tags,
            [0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0xE0, 0xE0, 0x01]
        );
        let got: Vec<(usize, u64)> = payloads.iter().map(|p| (p.len(), fnv1a(p))).collect();
        assert_eq!(
            got,
            [
                (9, 0xc253_bfc5_2580_2c58),
                (97, 0xc9d4_a4cc_b987_8ddd),
                (7, 0x57eb_698d_a2ac_1496),
                (7, 0xfcd6_876a_8704_3f82),
                (9, 0xff5a_7358_b3d7_9a00),
                (55, 0x8865_3b85_b7c6_bf68),
                (85, 0x037a_08d0_4025_430d),
                (17, 0xd8de_b14b_ed07_38e5),
                (27, 0xaf76_6770_e418_0093),
                (37, 0x3413_831c_ed38_9bfb),
            ]
        );
    }

    /// A count from the peer never sizes an allocation: one larger than the
    /// bytes that follow is refused by `Dec::seq` before anything is reserved
    /// (before it existed, the first payload asked for 103 GB).
    #[test]
    fn oversized_counts_are_refused_before_reserving() {
        let payloads: [&[u8]; 3] = [
            &[0x81, 0xFF, 0xFF, 0xFF, 0xFF],             // ROWS: column count
            &[0x81, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF], // ROWS: row count
            &[0x85, 0xFF, 0xFF, 0xFF, 0xFF],             // XML: fragment count
        ];
        for payload in payloads {
            let err = decode_response(payload).unwrap_err();
            assert!(err.contains("sequence of 4294967295 items"), "{err}");
        }
    }

    #[test]
    fn errors_round_trip_with_spans() {
        let payload = encode_error(WireErrorKind::Parse, "oops", Some(Span::new(3, 9)));
        let err = decode_response(&payload).unwrap().unwrap_err();
        assert_eq!(err.kind, WireErrorKind::Parse);
        assert_eq!(err.span, Some(Span::new(3, 9)));
        assert!(!err.kind.is_retriable());
        let payload = encode_error(WireErrorKind::ShuttingDown, "draining", None);
        let err = decode_response(&payload).unwrap().unwrap_err();
        assert!(err.kind.is_retriable());
    }
}
