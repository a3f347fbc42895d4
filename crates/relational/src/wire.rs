//! The one binary codec: every persisted and wire type of the workspace is
//! written through [`Encode`] and read back through [`Decode`].
//!
//! The format is deliberately dumb — fixed-width little-endian integers,
//! `u32`-length-prefixed strings — and every compound type follows one of
//! three rules, each implemented exactly once in this module:
//!
//! * **sequence** (`[T]`, `Vec<T>`, `Arc<[T]>`, `BTreeSet<T>`, and
//!   `HashMap<K, V>` as key-ordered pairs): a `u32` count, then the items.
//!   [`Dec::seq`] is the only reader; it rejects a count larger than the
//!   bytes remaining *before* reserving (every item is at least one byte),
//!   so a length field from outside the program never sizes an allocation.
//!   Sets and maps must arrive strictly ascending, so equal values have
//!   equal bytes.
//! * **option** (`Option<T>`; `Box<T>` is transparent): a presence byte
//!   (0/1), then the item when present.
//! * **enum**: one tag byte per variant. Enums without payload pair their
//!   variants with tag bytes in one [`WireTag::TAGS`] table that both
//!   [`Enc::tag`] and [`Dec::tag`] read.
//!
//! A type implements the pair in the crate that owns it (`quark-xqgm`'s
//! `wire`, `quark-core`'s `persist`, `quark-server`'s `protocol`); this
//! module holds the relational types. There is no versioning beyond the
//! catalog-level format version — a format change is a new catalog
//! version, not an in-band negotiation.
//!
//! Two deliberate restrictions:
//!
//! * [`Value::Xml`] does not serialize. Stored tables cannot contain XML
//!   (`check_row` rejects it) and the persisted plan literals produced by
//!   the trigger translator are scalars, so hitting an XML value in a
//!   codec is a logic error reported as [`Error::Storage`].
//! * Plans serialize as an explicit node table in children-first order, so
//!   the DAG sharing that makes trigger plans compact (the affected-key
//!   subplan feeding both OLD and NEW branches) survives a round trip:
//!   decode rebuilds each shared node once and reuses the `Arc`. A row is
//!   the op's tag byte, then its inputs' (earlier) row indices — as many
//!   as [`PlanOp::input_count`] says, or a sequence for the variadic
//!   `UnionAll` — then the op's fields. A row whose input count
//!   contradicts its op (a `UnionAll` with none) is a decode error.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::sync::Arc;

use crate::expr::{AggExpr, AggFunc, BinOp, Expr, ScalarFunc};
use crate::plan::{JoinKind, PhysicalPlan, PlanOp, PlanRef, SortKey, TableEpoch, TransitionSide};
use crate::schema::{ColumnDef, TableSchema};
use crate::value::{ColumnType, Row, Value};
use crate::{Error, Event, Result};

/// One physical redo operation, captured at the mutation entry points of
/// [`Database`](crate::Database) and replayed verbatim — no trigger firing,
/// no cascades — during recovery. Full-row images make replay idempotent:
/// a `Put` upserts, a `Del` of a missing key is a no-op.
#[derive(Debug, Clone, PartialEq)]
pub enum RedoOp {
    /// Upsert one row (insert, or the post-image of an update).
    Put {
        /// Target table.
        table: String,
        /// Full row image.
        row: Row,
    },
    /// Delete one row by primary key (delete, or the pre-image key of an
    /// update whose key changed).
    Del {
        /// Target table.
        table: String,
        /// Primary-key values.
        key: Vec<Value>,
    },
}

fn bad(msg: impl Into<String>) -> Error {
    Error::Storage(msg.into())
}

/// A value with a byte encoding.
pub trait Encode {
    /// Append the encoding of `self` to `enc`.
    fn encode(&self, enc: &mut Enc);
}

/// A value that can be read back from its [`Encode`] bytes.
pub trait Decode: Sized {
    /// Read one value, consuming exactly the bytes `encode` wrote.
    fn decode(dec: &mut Dec<'_>) -> Result<Self>;
}

/// An enum without payload: its one table pairing each variant with its
/// tag byte, read by both [`Enc::tag`] and [`Dec::tag`].
pub trait WireTag: Copy + PartialEq + 'static {
    /// `(variant, tag byte)`, one row per variant.
    const TAGS: &'static [(Self, u8)];
}

/// Byte-string encoder. All integers are little-endian; strings and byte
/// strings are `u32` length + payload. Writes cannot fail one by one: a
/// value without an encoding marks the encoder failed, and
/// [`Enc::into_bytes`] reports it — one check where the bytes are taken.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
    failed: Option<&'static str>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Fresh empty encoder with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(bytes),
            failed: None,
        }
    }

    /// Consume the encoder, returning the bytes written, or the reason a
    /// value put into it has no encoding.
    pub fn into_bytes(self) -> Result<Vec<u8>> {
        match self.failed {
            None => Ok(self.buf),
            Some(why) => Err(bad(why)),
        }
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i64` (little-endian two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Write a boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Write any [`Encode`] value.
    pub fn put<T: Encode + ?Sized>(&mut self, v: &T) {
        v.encode(self)
    }

    /// Write the tag byte of a payload-free enum variant.
    pub fn tag<T: WireTag>(&mut self, v: T) {
        let (_, byte) = T::TAGS
            .iter()
            .find(|(variant, _)| *variant == v)
            .expect("every variant has a row in its tag table");
        self.u8(*byte);
    }
}

/// Byte-string decoder over a borrowed buffer. Every read is
/// bounds-checked and reports overruns or bad tags as [`Error::Storage`].
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decoder over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Decode one `T` that fills `buf` exactly.
    pub fn whole<T: Decode>(buf: &'a [u8]) -> Result<T> {
        let mut dec = Dec::new(buf);
        let value = dec.get()?;
        dec.finish()?;
        Ok(value)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the whole buffer was consumed.
    pub fn finish(self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(bad(format!(
                "{} trailing bytes after decode",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(bad(format!(
                "buffer underrun: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a boolean.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(bad(format!("bad bool byte {other}"))),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("invalid UTF-8 in string"))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// Read any [`Decode`] value.
    pub fn get<T: Decode>(&mut self) -> Result<T> {
        T::decode(self)
    }

    /// Read a payload-free enum variant from its tag byte.
    pub fn tag<T: WireTag>(&mut self) -> Result<T> {
        let byte = self.u8()?;
        match T::TAGS.iter().find(|(_, tag)| *tag == byte) {
            Some((variant, _)) => Ok(*variant),
            None => Err(bad(format!(
                "bad {} tag {byte}",
                std::any::type_name::<T>()
            ))),
        }
    }

    /// Read a `u32` count and that many items — the one sequence reader.
    /// `item` also sees the items read so far (a plan node refers to
    /// earlier nodes of its table). Every item is at least one byte, so a
    /// count larger than the bytes remaining is refused before anything is
    /// reserved: a length field from outside never sizes an allocation.
    pub fn seq<T>(&mut self, mut item: impl FnMut(&mut Self, &[T]) -> Result<T>) -> Result<Vec<T>> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(bad(format!(
                "sequence of {n} items in {} remaining bytes",
                self.remaining()
            )));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self, &out)?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// The three rules, once each.
// ---------------------------------------------------------------------

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, enc: &mut Enc) {
        (**self).encode(enc)
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, enc: &mut Enc) {
        enc.u32(self.len() as u32);
        self.iter().for_each(|item| item.encode(enc));
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, enc: &mut Enc) {
        self[..].encode(enc)
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        dec.seq(|dec, _| T::decode(dec))
    }
}

impl<T: Encode> Encode for Arc<[T]> {
    fn encode(&self, enc: &mut Enc) {
        self[..].encode(enc)
    }
}

impl<T: Decode> Decode for Arc<[T]> {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(Vec::decode(dec)?.into())
    }
}

/// Sets and maps are written in ascending key order and must be read back
/// strictly ascending, so a decoded value re-encodes to the bytes it came
/// from.
impl<T: Encode> Encode for BTreeSet<T> {
    fn encode(&self, enc: &mut Enc) {
        self.iter().collect::<Vec<_>>().encode(enc)
    }
}

impl<T: Decode + Ord> Decode for BTreeSet<T> {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        let items = Vec::<T>::decode(dec)?;
        if !items.windows(2).all(|pair| pair[0] < pair[1]) {
            return Err(bad("set items out of order"));
        }
        Ok(items.into_iter().collect())
    }
}

impl<K: Encode + Ord, V: Encode> Encode for HashMap<K, V> {
    fn encode(&self, enc: &mut Enc) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries.encode(enc)
    }
}

impl<K: Decode + Ord + Hash, V: Decode> Decode for HashMap<K, V> {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        let entries = Vec::<(K, V)>::decode(dec)?;
        if !entries.windows(2).all(|pair| pair[0].0 < pair[1].0) {
            return Err(bad("map keys out of order"));
        }
        Ok(entries.into_iter().collect())
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, enc: &mut Enc) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok((dec.get()?, dec.get()?))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, enc: &mut Enc) {
        enc.bool(self.is_some());
        if let Some(item) = self {
            item.encode(enc);
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        dec.bool()?.then(|| T::decode(dec)).transpose()
    }
}

impl<T: Encode> Encode for Box<T> {
    fn encode(&self, enc: &mut Enc) {
        (**self).encode(enc)
    }
}

impl<T: Decode> Decode for Box<T> {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        T::decode(dec).map(Box::new)
    }
}

// ---------------------------------------------------------------------
// Leaves
// ---------------------------------------------------------------------

impl Encode for String {
    fn encode(&self, enc: &mut Enc) {
        enc.str(self);
    }
}

impl Decode for String {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        dec.str()
    }
}

/// Column indices, node ids and counts travel as `u32`.
impl Encode for usize {
    fn encode(&self, enc: &mut Enc) {
        enc.u32(*self as u32);
    }
}

impl Decode for usize {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(dec.u32()? as usize)
    }
}

impl Encode for u64 {
    fn encode(&self, enc: &mut Enc) {
        enc.u64(*self);
    }
}

impl Decode for u64 {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        dec.u64()
    }
}

impl Encode for i64 {
    fn encode(&self, enc: &mut Enc) {
        enc.i64(*self);
    }
}

impl Decode for i64 {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        dec.i64()
    }
}

// ---------------------------------------------------------------------
// Tag tables of the relational enums
// ---------------------------------------------------------------------

impl WireTag for BinOp {
    const TAGS: &'static [(Self, u8)] = &[
        (BinOp::Add, 0),
        (BinOp::Sub, 1),
        (BinOp::Mul, 2),
        (BinOp::Div, 3),
        (BinOp::Eq, 4),
        (BinOp::Ne, 5),
        (BinOp::Lt, 6),
        (BinOp::Le, 7),
        (BinOp::Gt, 8),
        (BinOp::Ge, 9),
        (BinOp::And, 10),
        (BinOp::Or, 11),
    ];
}

impl WireTag for JoinKind {
    const TAGS: &'static [(Self, u8)] = &[
        (JoinKind::Inner, 0),
        (JoinKind::LeftOuter, 1),
        (JoinKind::LeftSemi, 2),
        (JoinKind::LeftAnti, 3),
    ];
}

impl WireTag for ColumnType {
    const TAGS: &'static [(Self, u8)] = &[
        (ColumnType::Bool, 0),
        (ColumnType::Int, 1),
        (ColumnType::Double, 2),
        (ColumnType::Str, 3),
    ];
}

impl WireTag for TableEpoch {
    const TAGS: &'static [(Self, u8)] = &[(TableEpoch::Current, 0), (TableEpoch::Old, 1)];
}

impl WireTag for TransitionSide {
    const TAGS: &'static [(Self, u8)] = &[(TransitionSide::Delta, 0), (TransitionSide::Nabla, 1)];
}

impl WireTag for AggFunc {
    const TAGS: &'static [(Self, u8)] = &[
        (AggFunc::CountStar, 0),
        (AggFunc::Count, 1),
        (AggFunc::Sum, 2),
        (AggFunc::Min, 3),
        (AggFunc::Max, 4),
        (AggFunc::XmlAgg, 5),
    ];
}

impl WireTag for Event {
    const TAGS: &'static [(Self, u8)] =
        &[(Event::Insert, 0), (Event::Update, 1), (Event::Delete, 2)];
}

// ---------------------------------------------------------------------
// Values, schemas, expressions, redo
// ---------------------------------------------------------------------

/// XML values are rejected — stored rows and persisted plan literals
/// never contain them.
impl Encode for Value {
    fn encode(&self, enc: &mut Enc) {
        match self {
            Value::Null => enc.u8(0),
            Value::Bool(b) => {
                enc.u8(1);
                enc.bool(*b);
            }
            Value::Int(i) => {
                enc.u8(2);
                enc.i64(*i);
            }
            Value::Double(d) => {
                enc.u8(3);
                enc.f64(*d);
            }
            Value::Str(s) => {
                enc.u8(4);
                enc.str(s);
            }
            Value::Xml(_) => enc.failed = Some("cannot serialize an XML value"),
        }
    }
}

impl Decode for Value {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(match dec.u8()? {
            0 => Value::Null,
            1 => Value::Bool(dec.bool()?),
            2 => Value::Int(dec.i64()?),
            3 => Value::Double(dec.f64()?),
            4 => Value::Str(Arc::from(dec.str()?.as_str())),
            other => return Err(bad(format!("bad value tag {other}"))),
        })
    }
}

impl Encode for ColumnDef {
    fn encode(&self, enc: &mut Enc) {
        enc.str(&self.name);
        enc.tag(self.ty);
    }
}

impl Decode for ColumnDef {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(ColumnDef::new(dec.str()?, dec.tag()?))
    }
}

/// Name, columns, primary-key column indices.
impl Encode for TableSchema {
    fn encode(&self, enc: &mut Enc) {
        enc.str(&self.name);
        enc.put(&self.columns);
        enc.put(&self.primary_key);
    }
}

impl Decode for TableSchema {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        let name = dec.str()?;
        let columns: Vec<ColumnDef> = dec.get()?;
        let primary_key: Vec<usize> = dec.get()?;
        if let Some(i) = primary_key.iter().find(|&&i| i >= columns.len()) {
            return Err(bad(format!("primary-key column {i} out of range")));
        }
        if primary_key.is_empty() {
            return Err(bad(format!("schema `{name}` has no primary key")));
        }
        Ok(TableSchema {
            name,
            columns,
            primary_key,
        })
    }
}

impl Encode for Expr {
    fn encode(&self, enc: &mut Enc) {
        match self {
            Expr::Col(i) => {
                enc.u8(0);
                enc.put(i);
            }
            Expr::Lit(v) => {
                enc.u8(1);
                enc.put(v);
            }
            Expr::Binary { op, left, right } => {
                enc.u8(2);
                enc.tag(*op);
                enc.put(left);
                enc.put(right);
            }
            Expr::Not(inner) => {
                enc.u8(3);
                enc.put(inner);
            }
            Expr::IsNull(inner) => {
                enc.u8(4);
                enc.put(inner);
            }
            Expr::Func(f, args) => {
                enc.u8(5);
                enc.put(f);
                enc.put(args);
            }
        }
    }
}

impl Decode for Expr {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(match dec.u8()? {
            0 => Expr::Col(dec.get()?),
            1 => Expr::Lit(dec.get()?),
            2 => Expr::Binary {
                op: dec.tag()?,
                left: dec.get()?,
                right: dec.get()?,
            },
            3 => Expr::Not(dec.get()?),
            4 => Expr::IsNull(dec.get()?),
            5 => Expr::Func(dec.get()?, dec.get()?),
            other => return Err(bad(format!("bad expr tag {other}"))),
        })
    }
}

impl Encode for ScalarFunc {
    fn encode(&self, enc: &mut Enc) {
        match self {
            ScalarFunc::XmlElement { name, attrs } => {
                enc.u8(0);
                enc.str(name);
                enc.put(attrs);
            }
            ScalarFunc::XmlWrap(n) => {
                enc.u8(1);
                enc.str(n);
            }
            ScalarFunc::XmlAttr(n) => {
                enc.u8(2);
                enc.str(n);
            }
            ScalarFunc::XmlChildren(n) => {
                enc.u8(3);
                enc.str(n);
            }
            ScalarFunc::XmlDescendants(n) => {
                enc.u8(4);
                enc.str(n);
            }
            ScalarFunc::NodeCount => enc.u8(5),
            ScalarFunc::XmlFilter(predicate) => {
                enc.u8(6);
                enc.put(predicate);
            }
        }
    }
}

impl Decode for ScalarFunc {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(match dec.u8()? {
            0 => ScalarFunc::XmlElement {
                name: dec.str()?,
                attrs: dec.get()?,
            },
            1 => ScalarFunc::XmlWrap(dec.str()?),
            2 => ScalarFunc::XmlAttr(dec.str()?),
            3 => ScalarFunc::XmlChildren(dec.str()?),
            4 => ScalarFunc::XmlDescendants(dec.str()?),
            5 => ScalarFunc::NodeCount,
            6 => ScalarFunc::XmlFilter(dec.get()?),
            other => return Err(bad(format!("bad scalar-func tag {other}"))),
        })
    }
}

impl Encode for AggExpr {
    fn encode(&self, enc: &mut Enc) {
        enc.tag(self.func);
        enc.put(&self.arg);
    }
}

impl Decode for AggExpr {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(AggExpr {
            func: dec.tag()?,
            arg: dec.get()?,
        })
    }
}

impl Encode for SortKey {
    fn encode(&self, enc: &mut Enc) {
        enc.put(&self.expr);
        enc.bool(self.desc);
    }
}

impl Decode for SortKey {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(SortKey {
            expr: dec.get()?,
            desc: dec.bool()?,
        })
    }
}

impl Encode for RedoOp {
    fn encode(&self, enc: &mut Enc) {
        match self {
            RedoOp::Put { table, row } => {
                enc.u8(0);
                enc.str(table);
                enc.put(row);
            }
            RedoOp::Del { table, key } => {
                enc.u8(1);
                enc.str(table);
                enc.put(key);
            }
        }
    }
}

impl Decode for RedoOp {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        Ok(match dec.u8()? {
            0 => RedoOp::Put {
                table: dec.str()?,
                row: dec.get()?,
            },
            1 => RedoOp::Del {
                table: dec.str()?,
                key: dec.get()?,
            },
            other => return Err(bad(format!("bad redo-op tag {other}"))),
        })
    }
}

// ---------------------------------------------------------------------
// Plan DAGs
// ---------------------------------------------------------------------

/// A plan DAG is a node table in children-first order. Shared nodes (by
/// `Arc` identity) are written once and referenced by index, so sharing
/// survives the round trip; the root is the last node.
impl Encode for PlanRef {
    fn encode(&self, enc: &mut Enc) {
        let nodes = RefCell::new(Vec::new());
        self.fold(&|plan, kid| {
            let kids: Vec<usize> = plan.inputs.iter().map(kid).collect();
            let mut nodes = nodes.borrow_mut();
            nodes.push(Node { plan, kids });
            nodes.len() - 1
        });
        enc.put(&nodes.into_inner());
    }
}

impl Decode for PlanRef {
    fn decode(dec: &mut Dec<'_>) -> Result<Self> {
        dec.seq(|dec, nodes| Ok(decode_node(dec, nodes)?.into_ref()))?
            .pop()
            .ok_or_else(|| bad("empty plan node table"))
    }
}

/// One row of the node table: the op's tag, the indices of its inputs'
/// (earlier) rows — a fixed count, or a length-prefixed sequence for the
/// variadic `UnionAll` — then the op's fields.
struct Node<'p> {
    plan: &'p PhysicalPlan,
    kids: Vec<usize>,
}

impl Encode for Node<'_> {
    fn encode(&self, enc: &mut Enc) {
        let op = &self.plan.op;
        let head = |enc: &mut Enc, tag: u8| {
            enc.u8(tag);
            match op.input_count() {
                Some(_) => self.kids.iter().for_each(|k| enc.put(k)),
                None => enc.put(&self.kids),
            }
        };
        match op {
            PlanOp::TableScan { table, epoch } => {
                head(enc, 0);
                enc.str(table);
                enc.tag(*epoch);
            }
            PlanOp::TransitionScan {
                table,
                side,
                pruned,
            } => {
                head(enc, 1);
                enc.str(table);
                enc.tag(*side);
                enc.bool(*pruned);
            }
            PlanOp::Values { arity, rows } => {
                head(enc, 2);
                enc.put(arity);
                enc.put(rows);
            }
            PlanOp::Filter { predicate } => {
                head(enc, 3);
                enc.put(predicate);
            }
            PlanOp::Project { exprs } => {
                head(enc, 4);
                enc.put(exprs);
            }
            PlanOp::HashJoin {
                left_keys,
                right_keys,
                kind,
                filter,
            } => {
                head(enc, 5);
                enc.put(left_keys);
                enc.put(right_keys);
                enc.tag(*kind);
                enc.put(filter);
            }
            PlanOp::IndexJoin {
                table,
                epoch,
                probe,
                kind,
                filter,
            } => {
                head(enc, 6);
                enc.str(table);
                enc.tag(*epoch);
                enc.put(probe);
                enc.tag(*kind);
                enc.put(filter);
            }
            PlanOp::NestedLoopJoin { predicate, kind } => {
                head(enc, 7);
                enc.put(predicate);
                enc.tag(*kind);
            }
            PlanOp::HashAggregate { group_exprs, aggs } => {
                head(enc, 8);
                enc.put(group_exprs);
                enc.put(aggs);
            }
            PlanOp::UnionAll => head(enc, 9),
            PlanOp::Distinct => head(enc, 10),
            PlanOp::Sort { keys } => {
                head(enc, 11);
                enc.put(keys);
            }
            PlanOp::Unnest { expr } => {
                head(enc, 12);
                enc.put(expr);
            }
        }
    }
}

fn decode_node(dec: &mut Dec<'_>, nodes: &[PlanRef]) -> Result<PhysicalPlan> {
    let kid = |dec: &mut Dec<'_>| -> Result<PlanRef> {
        let id: usize = dec.get()?;
        let node = nodes.get(id).cloned();
        node.ok_or_else(|| bad(format!("plan node reference {id} out of range")))
    };
    let tag = dec.u8()?;
    let inputs = match tag {
        0..=2 => vec![],
        3 | 4 | 6 | 8 | 10..=12 => vec![kid(dec)?],
        5 | 7 => vec![kid(dec)?, kid(dec)?],
        9 => dec.seq(|dec, _| kid(dec))?,
        other => return Err(bad(format!("bad plan node tag {other}"))),
    };
    let op = match tag {
        0 => PlanOp::TableScan {
            table: dec.str()?,
            epoch: dec.tag()?,
        },
        1 => PlanOp::TransitionScan {
            table: dec.str()?,
            side: dec.tag()?,
            pruned: dec.bool()?,
        },
        2 => PlanOp::Values {
            arity: dec.get()?,
            rows: dec.get()?,
        },
        3 => PlanOp::Filter {
            predicate: dec.get()?,
        },
        4 => PlanOp::Project { exprs: dec.get()? },
        5 => PlanOp::HashJoin {
            left_keys: dec.get()?,
            right_keys: dec.get()?,
            kind: dec.tag()?,
            filter: dec.get()?,
        },
        6 => PlanOp::IndexJoin {
            table: dec.str()?,
            epoch: dec.tag()?,
            probe: dec.get()?,
            kind: dec.tag()?,
            filter: dec.get()?,
        },
        7 => PlanOp::NestedLoopJoin {
            predicate: dec.get()?,
            kind: dec.tag()?,
        },
        8 => PlanOp::HashAggregate {
            group_exprs: dec.get()?,
            aggs: dec.get()?,
        },
        9 => PlanOp::UnionAll,
        10 => PlanOp::Distinct,
        11 => PlanOp::Sort { keys: dec.get()? },
        12 => PlanOp::Unnest { expr: dec.get()? },
        _ => unreachable!("tag checked with the inputs"),
    };
    PhysicalPlan::try_new(op, inputs).map_err(|e| bad(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::row;

    /// The tag tables other codecs share through `Enc`/`Dec`, byte for
    /// byte: these values are on disk in every catalog and WAL segment.
    #[test]
    fn shared_tag_tables_are_pinned() {
        use BinOp::*;
        let mut enc = Enc::new();
        for op in [Add, Sub, Mul, Div, Eq, Ne, Lt, Le, Gt, Ge, And, Or] {
            enc.tag(op);
        }
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::LeftSemi,
            JoinKind::LeftAnti,
        ] {
            enc.tag(kind);
        }
        enc.put(&None::<Expr>);
        enc.put(&Some(Expr::Col(7)));
        let bytes = enc.into_bytes().unwrap();
        assert_eq!(
            bytes,
            [
                0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, // BinOp
                0, 1, 2, 3, // JoinKind
                0, // None
                1, 0, 7, 0, 0, 0, // Some(Col(7))
            ]
        );
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.tag::<BinOp>().unwrap(), Add);
        for _ in 1..12 {
            dec.tag::<BinOp>().unwrap();
        }
        assert_eq!(dec.tag::<JoinKind>().unwrap(), JoinKind::Inner);
        for _ in 1..4 {
            dec.tag::<JoinKind>().unwrap();
        }
        assert_eq!(dec.get::<Option<Expr>>().unwrap(), None);
        assert_eq!(dec.get::<Option<Expr>>().unwrap(), Some(Expr::Col(7)));
        dec.finish().unwrap();
        assert!(Dec::new(&[12]).tag::<BinOp>().is_err());
        assert!(Dec::new(&[4]).tag::<JoinKind>().is_err());
        assert!(Dec::new(&[2]).get::<Option<Expr>>().is_err());
        // `NodeCount` is 5; `XmlFilter` (6), then its predicate, is the
        // last scalar-function tag.
        assert_eq!(
            Dec::new(&[5]).get::<ScalarFunc>().unwrap(),
            ScalarFunc::NodeCount
        );
        let filter = ScalarFunc::XmlFilter(Box::new(Expr::Col(1)));
        let mut enc = Enc::new();
        enc.put(&filter);
        assert_eq!(enc.into_bytes().unwrap(), [6, 0, 1, 0, 0, 0]);
        assert_eq!(
            Dec::new(&[6, 0, 1, 0, 0, 0]).get::<ScalarFunc>().unwrap(),
            filter
        );
        for tag in 7..=9 {
            assert!(Dec::new(&[tag]).get::<ScalarFunc>().is_err());
        }
    }

    #[test]
    fn scalar_values_round_trip() {
        let vals = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Double(2.5),
            Value::str("héllo"),
        ];
        let mut enc = Enc::new();
        enc.put(&vals);
        let bytes = enc.into_bytes().unwrap();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.get::<Vec<Value>>().unwrap(), vals);
        dec.finish().unwrap();
    }

    #[test]
    fn xml_values_refuse_to_serialize() {
        let v = Value::Xml(quark_xml::element("a", vec![], vec![]));
        let mut enc = Enc::new();
        enc.put(&v);
        assert!(matches!(enc.into_bytes(), Err(Error::Storage(_))));
    }

    #[test]
    fn schema_round_trips() {
        let s = TableSchema::new(
            "vendor",
            vec![
                ColumnDef::new("vid", ColumnType::Str),
                ColumnDef::new("pid", ColumnType::Str),
                ColumnDef::new("price", ColumnType::Double),
            ],
            &["vid", "pid"],
        )
        .unwrap();
        let mut enc = Enc::new();
        enc.put(&s);
        let bytes = enc.into_bytes().unwrap();
        assert_eq!(Dec::new(&bytes).get::<TableSchema>().unwrap(), s);
    }

    #[test]
    fn exprs_round_trip() {
        let e = Expr::bin(
            BinOp::And,
            Expr::eq(
                Expr::Func(ScalarFunc::XmlAttr("name".into()), vec![Expr::col(2)]),
                Expr::lit("CRT 15"),
            ),
            Expr::Not(Box::new(Expr::IsNull(Box::new(Expr::col(0))))),
        );
        let mut enc = Enc::new();
        enc.put(&e);
        let bytes = enc.into_bytes().unwrap();
        assert_eq!(Dec::new(&bytes).get::<Expr>().unwrap(), e);
    }

    #[test]
    fn redo_ops_round_trip() {
        let ops = vec![
            RedoOp::Put {
                table: "vendor".into(),
                row: row([Value::str("Amazon"), Value::Int(1)]),
            },
            RedoOp::Del {
                table: "vendor".into(),
                key: vec![Value::str("Amazon")],
            },
        ];
        let mut enc = Enc::new();
        enc.put(&ops);
        let bytes = enc.into_bytes().unwrap();
        // Golden bytes: this is the body of every WAL batch record.
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (65, 0x980d_3c69_afb9_6322));
        assert_eq!(Dec::new(&bytes).get::<Vec<RedoOp>>().unwrap(), ops);
    }

    /// `Dec::seq` refuses a count larger than the bytes left — at the top
    /// of a redo batch and inside one of its rows — before reserving.
    #[test]
    fn oversized_counts_are_refused_before_reserving() {
        let mut nested = Enc::new();
        nested.u32(1); // one op
        nested.u8(0); // Put
        nested.str("t");
        nested.u32(u32::MAX); // row arity
        let nested = nested.into_bytes().unwrap();
        for bytes in [&[0xFF; 4][..], &nested] {
            let err = Dec::new(bytes).get::<Vec<RedoOp>>().unwrap_err();
            assert!(err.to_string().contains("sequence of 4294967295 items"));
        }
        // The bound is the bytes that remain, not a fixed cap.
        let two = Dec::new(&[2, 0, 0, 0, 7, 9]).seq(|dec, _| dec.u8());
        assert_eq!(two.unwrap(), [7, 9]);
        let three = Dec::new(&[3, 0, 0, 0, 7, 9]).seq(|dec, _| dec.u8());
        assert!(three
            .unwrap_err()
            .to_string()
            .contains("sequence of 3 items"));
    }

    #[test]
    fn plan_dag_round_trips_preserving_sharing() {
        let shared = PhysicalPlan::new(
            PlanOp::TableScan {
                table: "t".into(),
                epoch: TableEpoch::Current,
            },
            vec![],
        )
        .into_ref();
        let left = PhysicalPlan::new(
            PlanOp::Filter {
                predicate: Expr::lit(true),
            },
            vec![Arc::clone(&shared)],
        )
        .into_ref();
        let right = PhysicalPlan::new(
            PlanOp::Project {
                exprs: vec![Expr::col(0)],
            },
            vec![Arc::clone(&shared)],
        )
        .into_ref();
        let root = PhysicalPlan::new(PlanOp::UnionAll, vec![left, right]).into_ref();

        let mut enc = Enc::new();
        enc.put(&root);
        let bytes = enc.into_bytes().unwrap();
        let decoded: PlanRef = Dec::new(&bytes).get().unwrap();
        assert_eq!(*decoded, *root);
        // Sharing survives: both branches point at one scan node.
        let [a, b] = &decoded.inputs[..] else {
            panic!()
        };
        assert!(Arc::ptr_eq(&a.inputs[0], &b.inputs[0]));
        assert_eq!(decoded.explain(), root.explain());
    }

    /// A node-table row whose input count contradicts its op is a decode
    /// error, not a plan: a `UnionAll` row with no inputs.
    #[test]
    fn input_counts_contradicting_the_op_are_refused() {
        // Two rows: a scan of `t`, then a `UnionAll` over a u32 count of
        // input indices.
        let table = |union_inputs: &[u32]| {
            let mut bytes = vec![2, 0, 0, 0, 0, 1, 0, 0, 0, b't', 0, 9];
            bytes.extend((union_inputs.len() as u32).to_le_bytes());
            for i in union_inputs {
                bytes.extend(i.to_le_bytes());
            }
            bytes
        };
        let err = Dec::new(&table(&[])).get::<PlanRef>().unwrap_err();
        assert!(err.to_string().contains("UnionAll"), "{err}");
        let union: PlanRef = Dec::new(&table(&[0])).get().unwrap();
        assert_eq!(union.inputs.len(), 1);
    }
}
