//! Binary wire codecs for durable storage.
//!
//! The storage layer persists rows, schemas, compiled plans and redo
//! records as flat byte strings; this module is the single place that
//! defines those encodings. The format is deliberately dumb: fixed-width
//! little-endian integers, length-prefixed strings, one tag byte per enum
//! variant. No versioning scheme beyond the catalog-level format version —
//! a format change is a new catalog version, not an in-band negotiation.
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
//!   decode rebuilds each shared node once and reuses the `Arc`.

use std::collections::HashMap;
use std::sync::Arc;

use crate::expr::{AggExpr, AggFunc, BinOp, Expr, ScalarFunc};
use crate::plan::{JoinKind, PhysicalPlan, PlanRef, SortKey, TableEpoch, TransitionSide};
use crate::schema::{ColumnDef, TableSchema};
use crate::value::{ColumnType, Row, Value};
use crate::{Error, Result};

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

/// Byte-string encoder. All integers are little-endian; strings and byte
/// strings are `u32` length + payload.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Consume the encoder, returning the bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
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

    /// Write a scalar [`Value`]. XML values are rejected — stored rows and
    /// persisted plan literals never contain them.
    pub fn value(&mut self, v: &Value) -> Result<()> {
        match v {
            Value::Null => self.u8(0),
            Value::Bool(b) => {
                self.u8(1);
                self.bool(*b);
            }
            Value::Int(i) => {
                self.u8(2);
                self.i64(*i);
            }
            Value::Double(d) => {
                self.u8(3);
                self.f64(*d);
            }
            Value::Str(s) => {
                self.u8(4);
                self.str(s);
            }
            Value::Xml(_) => return Err(bad("cannot serialize an XML value")),
        }
        Ok(())
    }

    /// Write a slice of values with a length prefix.
    pub fn values(&mut self, vals: &[Value]) -> Result<()> {
        self.u32(vals.len() as u32);
        for v in vals {
            self.value(v)?;
        }
        Ok(())
    }

    /// Write a full row.
    pub fn row(&mut self, row: &Row) -> Result<()> {
        self.values(row)
    }

    /// Write a table schema (name, columns, primary-key column indices).
    pub fn schema(&mut self, s: &TableSchema) {
        self.str(&s.name);
        self.u32(s.columns.len() as u32);
        for c in &s.columns {
            self.str(&c.name);
            self.u8(column_type_tag(c.ty));
        }
        self.u32(s.primary_key.len() as u32);
        for &i in &s.primary_key {
            self.u32(i as u32);
        }
    }

    /// Write a scalar expression.
    pub fn expr(&mut self, e: &Expr) -> Result<()> {
        match e {
            Expr::Col(i) => {
                self.u8(0);
                self.u32(*i as u32);
            }
            Expr::Lit(v) => {
                self.u8(1);
                self.value(v)?;
            }
            Expr::Binary { op, left, right } => {
                self.u8(2);
                self.binop(*op);
                self.expr(left)?;
                self.expr(right)?;
            }
            Expr::Not(inner) => {
                self.u8(3);
                self.expr(inner)?;
            }
            Expr::IsNull(inner) => {
                self.u8(4);
                self.expr(inner)?;
            }
            Expr::Func(f, args) => {
                self.u8(5);
                self.scalar_func(f);
                self.u32(args.len() as u32);
                for a in args {
                    self.expr(a)?;
                }
            }
        }
        Ok(())
    }

    /// Write a slice of expressions with a length prefix.
    pub fn exprs(&mut self, es: &[Expr]) -> Result<()> {
        self.u32(es.len() as u32);
        for e in es {
            self.expr(e)?;
        }
        Ok(())
    }

    fn scalar_func(&mut self, f: &ScalarFunc) {
        match f {
            ScalarFunc::XmlElement { name, attrs } => {
                self.u8(0);
                self.str(name);
                self.u32(attrs.len() as u32);
                for a in attrs {
                    self.str(a);
                }
            }
            ScalarFunc::XmlWrap(n) => {
                self.u8(1);
                self.str(n);
            }
            ScalarFunc::XmlAttr(n) => {
                self.u8(2);
                self.str(n);
            }
            ScalarFunc::XmlChildren(n) => {
                self.u8(3);
                self.str(n);
            }
            ScalarFunc::XmlDescendants(n) => {
                self.u8(4);
                self.str(n);
            }
            ScalarFunc::NodeCount => self.u8(5),
            ScalarFunc::XmlString => self.u8(6),
            ScalarFunc::Concat => self.u8(7),
            ScalarFunc::Coalesce => self.u8(8),
        }
    }

    /// Write an aggregate column.
    pub fn agg_expr(&mut self, a: &AggExpr) -> Result<()> {
        self.u8(match a.func {
            AggFunc::CountStar => 0,
            AggFunc::Count => 1,
            AggFunc::Sum => 2,
            AggFunc::Min => 3,
            AggFunc::Max => 4,
            AggFunc::XmlAgg => 5,
        });
        match &a.arg {
            None => self.u8(0),
            Some(e) => {
                self.u8(1);
                self.expr(e)?;
            }
        }
        Ok(())
    }

    /// Write one redo operation.
    pub fn redo_op(&mut self, op: &RedoOp) -> Result<()> {
        match op {
            RedoOp::Put { table, row } => {
                self.u8(0);
                self.str(table);
                self.row(row)?;
            }
            RedoOp::Del { table, key } => {
                self.u8(1);
                self.str(table);
                self.values(key)?;
            }
        }
        Ok(())
    }

    /// Write a batch of redo operations with a length prefix.
    pub fn redo_ops(&mut self, ops: &[RedoOp]) -> Result<()> {
        self.u32(ops.len() as u32);
        for op in ops {
            self.redo_op(op)?;
        }
        Ok(())
    }

    /// Write a plan DAG as a node table in children-first order. Shared
    /// nodes (by `Arc` identity) are emitted once and referenced by index,
    /// so sharing survives the round trip.
    pub fn plan(&mut self, root: &PlanRef) -> Result<()> {
        let mut ids: HashMap<usize, u64> = HashMap::new();
        let mut order: Vec<PlanRef> = Vec::new();
        visit_plan(root, &mut ids, &mut order);
        self.u32(order.len() as u32);
        for node in &order {
            self.plan_node(node, &ids)?;
        }
        Ok(())
    }

    fn child_id(&mut self, p: &PlanRef, ids: &HashMap<usize, u64>) {
        let id = ids[&(Arc::as_ptr(p) as usize)];
        self.u32(id as u32);
    }

    fn plan_node(&mut self, node: &PhysicalPlan, ids: &HashMap<usize, u64>) -> Result<()> {
        match node {
            PhysicalPlan::TableScan { table, epoch } => {
                self.u8(0);
                self.str(table);
                self.u8(epoch_tag(*epoch));
            }
            PhysicalPlan::TransitionScan {
                table,
                side,
                pruned,
            } => {
                self.u8(1);
                self.str(table);
                self.u8(match side {
                    TransitionSide::Delta => 0,
                    TransitionSide::Nabla => 1,
                });
                self.bool(*pruned);
            }
            PhysicalPlan::Values { arity, rows } => {
                self.u8(2);
                self.u32(*arity as u32);
                self.u32(rows.len() as u32);
                for r in rows {
                    self.row(r)?;
                }
            }
            PhysicalPlan::Filter { input, predicate } => {
                self.u8(3);
                self.child_id(input, ids);
                self.expr(predicate)?;
            }
            PhysicalPlan::Project { input, exprs } => {
                self.u8(4);
                self.child_id(input, ids);
                self.exprs(exprs)?;
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                kind,
                filter,
            } => {
                self.u8(5);
                self.child_id(left, ids);
                self.child_id(right, ids);
                self.exprs(left_keys)?;
                self.exprs(right_keys)?;
                self.join_kind(*kind);
                self.opt_expr(filter)?;
            }
            PhysicalPlan::IndexJoin {
                outer,
                table,
                epoch,
                probe,
                kind,
                filter,
            } => {
                self.u8(6);
                self.child_id(outer, ids);
                self.str(table);
                self.u8(epoch_tag(*epoch));
                self.u32(probe.len() as u32);
                for (col, e) in probe {
                    self.u32(*col as u32);
                    self.expr(e)?;
                }
                self.join_kind(*kind);
                self.opt_expr(filter)?;
            }
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                predicate,
                kind,
            } => {
                self.u8(7);
                self.child_id(left, ids);
                self.child_id(right, ids);
                self.opt_expr(predicate)?;
                self.join_kind(*kind);
            }
            PhysicalPlan::HashAggregate {
                input,
                group_exprs,
                aggs,
            } => {
                self.u8(8);
                self.child_id(input, ids);
                self.exprs(group_exprs)?;
                self.u32(aggs.len() as u32);
                for a in aggs {
                    self.agg_expr(a)?;
                }
            }
            PhysicalPlan::UnionAll { inputs } => {
                self.u8(9);
                self.u32(inputs.len() as u32);
                for i in inputs {
                    self.child_id(i, ids);
                }
            }
            PhysicalPlan::Distinct { input } => {
                self.u8(10);
                self.child_id(input, ids);
            }
            PhysicalPlan::Sort { input, keys } => {
                self.u8(11);
                self.child_id(input, ids);
                self.u32(keys.len() as u32);
                for k in keys {
                    self.expr(&k.expr)?;
                    self.bool(k.desc);
                }
            }
            PhysicalPlan::Unnest { input, expr } => {
                self.u8(12);
                self.child_id(input, ids);
                self.expr(expr)?;
            }
        }
        Ok(())
    }

    /// Write an optional expression: a presence byte (0/1), then the
    /// expression when present.
    pub fn opt_expr(&mut self, e: &Option<Expr>) -> Result<()> {
        self.bool(e.is_some());
        e.as_ref().map_or(Ok(()), |e| self.expr(e))
    }

    /// Write a binary-operator tag. The one `BinOp` tag table: every
    /// codec layered on this one (XQGM graphs, the core blob) calls it.
    pub fn binop(&mut self, op: BinOp) {
        self.u8(match op {
            BinOp::Add => 0,
            BinOp::Sub => 1,
            BinOp::Mul => 2,
            BinOp::Div => 3,
            BinOp::Eq => 4,
            BinOp::Ne => 5,
            BinOp::Lt => 6,
            BinOp::Le => 7,
            BinOp::Gt => 8,
            BinOp::Ge => 9,
            BinOp::And => 10,
            BinOp::Or => 11,
        });
    }

    /// Write a join-kind tag (the one `JoinKind` tag table).
    pub fn join_kind(&mut self, k: JoinKind) {
        self.u8(match k {
            JoinKind::Inner => 0,
            JoinKind::LeftOuter => 1,
            JoinKind::LeftSemi => 2,
            JoinKind::LeftAnti => 3,
        });
    }
}

/// Post-order DFS assigning node-table ids (children before parents).
fn visit_plan(p: &PlanRef, ids: &mut HashMap<usize, u64>, order: &mut Vec<PlanRef>) {
    let key = Arc::as_ptr(p) as usize;
    if ids.contains_key(&key) {
        return;
    }
    let children: Vec<&PlanRef> = match &**p {
        PhysicalPlan::TableScan { .. }
        | PhysicalPlan::TransitionScan { .. }
        | PhysicalPlan::Values { .. } => vec![],
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::HashAggregate { input, .. }
        | PhysicalPlan::Distinct { input }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Unnest { input, .. } => vec![input],
        PhysicalPlan::HashJoin { left, right, .. }
        | PhysicalPlan::NestedLoopJoin { left, right, .. } => vec![left, right],
        PhysicalPlan::IndexJoin { outer, .. } => vec![outer],
        PhysicalPlan::UnionAll { inputs } => inputs.iter().collect(),
    };
    for c in children {
        visit_plan(c, ids, order);
    }
    ids.insert(key, order.len() as u64);
    order.push(Arc::clone(p));
}

fn column_type_tag(t: ColumnType) -> u8 {
    match t {
        ColumnType::Bool => 0,
        ColumnType::Int => 1,
        ColumnType::Double => 2,
        ColumnType::Str => 3,
    }
}

fn epoch_tag(e: TableEpoch) -> u8 {
    match e {
        TableEpoch::Current => 0,
        TableEpoch::Old => 1,
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

    /// Read a scalar [`Value`].
    pub fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.bool()?),
            2 => Value::Int(self.i64()?),
            3 => Value::Double(self.f64()?),
            4 => Value::Str(Arc::from(self.str()?.as_str())),
            other => return Err(bad(format!("bad value tag {other}"))),
        })
    }

    /// Read a length-prefixed list of values.
    pub fn values(&mut self) -> Result<Vec<Value>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(self.value()?);
        }
        Ok(out)
    }

    /// Read a full row.
    pub fn row(&mut self) -> Result<Row> {
        Ok(self.values()?.into())
    }

    /// Read a table schema.
    pub fn schema(&mut self) -> Result<TableSchema> {
        let name = self.str()?;
        let n_cols = self.u32()? as usize;
        let mut columns = Vec::with_capacity(n_cols.min(1 << 12));
        for _ in 0..n_cols {
            let cname = self.str()?;
            let ty = match self.u8()? {
                0 => ColumnType::Bool,
                1 => ColumnType::Int,
                2 => ColumnType::Double,
                3 => ColumnType::Str,
                other => return Err(bad(format!("bad column type tag {other}"))),
            };
            columns.push(ColumnDef::new(cname, ty));
        }
        let n_pk = self.u32()? as usize;
        let mut primary_key = Vec::with_capacity(n_pk.min(1 << 8));
        for _ in 0..n_pk {
            let i = self.u32()? as usize;
            if i >= columns.len() {
                return Err(bad(format!("primary-key column {i} out of range")));
            }
            primary_key.push(i);
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

    /// Read a scalar expression.
    pub fn expr(&mut self) -> Result<Expr> {
        Ok(match self.u8()? {
            0 => Expr::Col(self.u32()? as usize),
            1 => Expr::Lit(self.value()?),
            2 => {
                let op = self.binop()?;
                let left = Box::new(self.expr()?);
                let right = Box::new(self.expr()?);
                Expr::Binary { op, left, right }
            }
            3 => Expr::Not(Box::new(self.expr()?)),
            4 => Expr::IsNull(Box::new(self.expr()?)),
            5 => {
                let f = self.scalar_func()?;
                let n = self.u32()? as usize;
                let mut args = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    args.push(self.expr()?);
                }
                Expr::Func(f, args)
            }
            other => return Err(bad(format!("bad expr tag {other}"))),
        })
    }

    /// Read a length-prefixed list of expressions.
    pub fn exprs(&mut self) -> Result<Vec<Expr>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 12));
        for _ in 0..n {
            out.push(self.expr()?);
        }
        Ok(out)
    }

    /// Read a binary-operator tag written by [`Enc::binop`].
    pub fn binop(&mut self) -> Result<BinOp> {
        Ok(match self.u8()? {
            0 => BinOp::Add,
            1 => BinOp::Sub,
            2 => BinOp::Mul,
            3 => BinOp::Div,
            4 => BinOp::Eq,
            5 => BinOp::Ne,
            6 => BinOp::Lt,
            7 => BinOp::Le,
            8 => BinOp::Gt,
            9 => BinOp::Ge,
            10 => BinOp::And,
            11 => BinOp::Or,
            other => return Err(bad(format!("bad binop tag {other}"))),
        })
    }

    fn scalar_func(&mut self) -> Result<ScalarFunc> {
        Ok(match self.u8()? {
            0 => {
                let name = self.str()?;
                let n = self.u32()? as usize;
                let mut attrs = Vec::with_capacity(n.min(1 << 8));
                for _ in 0..n {
                    attrs.push(self.str()?);
                }
                ScalarFunc::XmlElement { name, attrs }
            }
            1 => ScalarFunc::XmlWrap(self.str()?),
            2 => ScalarFunc::XmlAttr(self.str()?),
            3 => ScalarFunc::XmlChildren(self.str()?),
            4 => ScalarFunc::XmlDescendants(self.str()?),
            5 => ScalarFunc::NodeCount,
            6 => ScalarFunc::XmlString,
            7 => ScalarFunc::Concat,
            8 => ScalarFunc::Coalesce,
            other => return Err(bad(format!("bad scalar-func tag {other}"))),
        })
    }

    /// Read an aggregate column.
    pub fn agg_expr(&mut self) -> Result<AggExpr> {
        let func = match self.u8()? {
            0 => AggFunc::CountStar,
            1 => AggFunc::Count,
            2 => AggFunc::Sum,
            3 => AggFunc::Min,
            4 => AggFunc::Max,
            5 => AggFunc::XmlAgg,
            other => return Err(bad(format!("bad agg-func tag {other}"))),
        };
        let arg = match self.u8()? {
            0 => None,
            1 => Some(self.expr()?),
            other => return Err(bad(format!("bad option tag {other}"))),
        };
        Ok(AggExpr { func, arg })
    }

    /// Read one redo operation.
    pub fn redo_op(&mut self) -> Result<RedoOp> {
        Ok(match self.u8()? {
            0 => RedoOp::Put {
                table: self.str()?,
                row: self.row()?,
            },
            1 => RedoOp::Del {
                table: self.str()?,
                key: self.values()?,
            },
            other => return Err(bad(format!("bad redo-op tag {other}"))),
        })
    }

    /// Read a length-prefixed batch of redo operations.
    pub fn redo_ops(&mut self) -> Result<Vec<RedoOp>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(self.redo_op()?);
        }
        Ok(out)
    }

    /// Read a plan DAG written by [`Enc::plan`]. The root is the last node
    /// of the table.
    pub fn plan(&mut self) -> Result<PlanRef> {
        let n = self.u32()? as usize;
        let mut nodes: Vec<PlanRef> = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let node = self.plan_node(&nodes)?;
            nodes.push(node.into_ref());
        }
        nodes.pop().ok_or_else(|| bad("empty plan node table"))
    }

    fn child(&mut self, nodes: &[PlanRef]) -> Result<PlanRef> {
        let id = self.u32()? as usize;
        nodes
            .get(id)
            .cloned()
            .ok_or_else(|| bad(format!("plan node reference {id} out of range")))
    }

    fn plan_node(&mut self, nodes: &[PlanRef]) -> Result<PhysicalPlan> {
        Ok(match self.u8()? {
            0 => PhysicalPlan::TableScan {
                table: self.str()?,
                epoch: self.epoch()?,
            },
            1 => PhysicalPlan::TransitionScan {
                table: self.str()?,
                side: match self.u8()? {
                    0 => TransitionSide::Delta,
                    1 => TransitionSide::Nabla,
                    other => return Err(bad(format!("bad transition side {other}"))),
                },
                pruned: self.bool()?,
            },
            2 => {
                let arity = self.u32()? as usize;
                let n = self.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    rows.push(self.row()?);
                }
                PhysicalPlan::Values { arity, rows }
            }
            3 => PhysicalPlan::Filter {
                input: self.child(nodes)?,
                predicate: self.expr()?,
            },
            4 => PhysicalPlan::Project {
                input: self.child(nodes)?,
                exprs: self.exprs()?,
            },
            5 => PhysicalPlan::HashJoin {
                left: self.child(nodes)?,
                right: self.child(nodes)?,
                left_keys: self.exprs()?,
                right_keys: self.exprs()?,
                kind: self.join_kind()?,
                filter: self.opt_expr()?,
            },
            6 => {
                let outer = self.child(nodes)?;
                let table = self.str()?;
                let epoch = self.epoch()?;
                let n = self.u32()? as usize;
                let mut probe = Vec::with_capacity(n.min(1 << 8));
                for _ in 0..n {
                    let col = self.u32()? as usize;
                    probe.push((col, self.expr()?));
                }
                PhysicalPlan::IndexJoin {
                    outer,
                    table,
                    epoch,
                    probe,
                    kind: self.join_kind()?,
                    filter: self.opt_expr()?,
                }
            }
            7 => PhysicalPlan::NestedLoopJoin {
                left: self.child(nodes)?,
                right: self.child(nodes)?,
                predicate: self.opt_expr()?,
                kind: self.join_kind()?,
            },
            8 => {
                let input = self.child(nodes)?;
                let group_exprs = self.exprs()?;
                let n = self.u32()? as usize;
                let mut aggs = Vec::with_capacity(n.min(1 << 8));
                for _ in 0..n {
                    aggs.push(self.agg_expr()?);
                }
                PhysicalPlan::HashAggregate {
                    input,
                    group_exprs,
                    aggs,
                }
            }
            9 => {
                let n = self.u32()? as usize;
                let mut inputs = Vec::with_capacity(n.min(1 << 8));
                for _ in 0..n {
                    inputs.push(self.child(nodes)?);
                }
                PhysicalPlan::UnionAll { inputs }
            }
            10 => PhysicalPlan::Distinct {
                input: self.child(nodes)?,
            },
            11 => {
                let input = self.child(nodes)?;
                let n = self.u32()? as usize;
                let mut keys = Vec::with_capacity(n.min(1 << 8));
                for _ in 0..n {
                    let expr = self.expr()?;
                    let desc = self.bool()?;
                    keys.push(SortKey { expr, desc });
                }
                PhysicalPlan::Sort { input, keys }
            }
            12 => PhysicalPlan::Unnest {
                input: self.child(nodes)?,
                expr: self.expr()?,
            },
            other => return Err(bad(format!("bad plan node tag {other}"))),
        })
    }

    fn epoch(&mut self) -> Result<TableEpoch> {
        Ok(match self.u8()? {
            0 => TableEpoch::Current,
            1 => TableEpoch::Old,
            other => return Err(bad(format!("bad table epoch {other}"))),
        })
    }

    /// Read a join-kind tag written by [`Enc::join_kind`].
    pub fn join_kind(&mut self) -> Result<JoinKind> {
        Ok(match self.u8()? {
            0 => JoinKind::Inner,
            1 => JoinKind::LeftOuter,
            2 => JoinKind::LeftSemi,
            3 => JoinKind::LeftAnti,
            other => return Err(bad(format!("bad join kind {other}"))),
        })
    }

    /// Read an optional expression written by [`Enc::opt_expr`].
    pub fn opt_expr(&mut self) -> Result<Option<Expr>> {
        self.bool()?.then(|| self.expr()).transpose()
    }
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
            enc.binop(op);
        }
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::LeftSemi,
            JoinKind::LeftAnti,
        ] {
            enc.join_kind(kind);
        }
        enc.opt_expr(&None).unwrap();
        enc.opt_expr(&Some(Expr::Col(7))).unwrap();
        let bytes = enc.into_bytes();
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
        assert_eq!(dec.binop().unwrap(), Add);
        for _ in 1..12 {
            dec.binop().unwrap();
        }
        assert_eq!(dec.join_kind().unwrap(), JoinKind::Inner);
        for _ in 1..4 {
            dec.join_kind().unwrap();
        }
        assert_eq!(dec.opt_expr().unwrap(), None);
        assert_eq!(dec.opt_expr().unwrap(), Some(Expr::Col(7)));
        dec.finish().unwrap();
        assert!(Dec::new(&[12]).binop().is_err());
        assert!(Dec::new(&[4]).join_kind().is_err());
        assert!(Dec::new(&[2]).opt_expr().is_err());
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
        enc.values(&vals).unwrap();
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.values().unwrap(), vals);
        dec.finish().unwrap();
    }

    #[test]
    fn xml_values_refuse_to_serialize() {
        let v = Value::Xml(quark_xml::element("a", vec![], vec![]));
        let mut enc = Enc::new();
        assert!(matches!(enc.value(&v), Err(Error::Storage(_))));
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
        enc.schema(&s);
        let bytes = enc.into_bytes();
        assert_eq!(Dec::new(&bytes).schema().unwrap(), s);
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
        enc.expr(&e).unwrap();
        let bytes = enc.into_bytes();
        assert_eq!(Dec::new(&bytes).expr().unwrap(), e);
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
        enc.redo_ops(&ops).unwrap();
        let bytes = enc.into_bytes();
        // Golden bytes: this is the body of every WAL batch record.
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (65, 0x980d_3c69_afb9_6322));
        assert_eq!(Dec::new(&bytes).redo_ops().unwrap(), ops);
    }

    #[test]
    fn plan_dag_round_trips_preserving_sharing() {
        let shared = PhysicalPlan::TableScan {
            table: "t".into(),
            epoch: TableEpoch::Current,
        }
        .into_ref();
        let left = PhysicalPlan::Filter {
            input: Arc::clone(&shared),
            predicate: Expr::lit(true),
        }
        .into_ref();
        let right = PhysicalPlan::Project {
            input: Arc::clone(&shared),
            exprs: vec![Expr::col(0)],
        }
        .into_ref();
        let root = PhysicalPlan::UnionAll {
            inputs: vec![left, right],
        }
        .into_ref();

        let mut enc = Enc::new();
        enc.plan(&root).unwrap();
        let bytes = enc.into_bytes();
        let decoded = Dec::new(&bytes).plan().unwrap();
        assert_eq!(*decoded, *root);
        // Sharing survives: both branches point at one scan node.
        let PhysicalPlan::UnionAll { inputs } = &*decoded else {
            panic!()
        };
        let PhysicalPlan::Filter { input: a, .. } = &*inputs[0] else {
            panic!()
        };
        let PhysicalPlan::Project { input: b, .. } = &*inputs[1] else {
            panic!()
        };
        assert!(Arc::ptr_eq(a, b));
        assert_eq!(decoded.explain(), root.explain());
    }
}
