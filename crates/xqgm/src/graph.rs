//! The XML Query Graph Model (XQGM).
//!
//! XQGM is XPERANTO/Quark's internal representation for XQuery queries and
//! views (§2.1, Table 1 of the paper): a graph of relational-style operators
//! whose column values are XML nodes/values, with XML-manipulating functions
//! (element constructors, `aggXMLFrag`) embedded in the operators.
//!
//! A [`Graph`] is an append-only arena of [`Operator`]s; subgraphs are
//! shared by id, which is how `CreateAKGraph` reuses the original view
//! operators (e.g. joining box 4 with its Δ-side counterpart in Fig. 10).
//!
//! Operators are **hash-consed**: pushing an operator whose kind and inputs
//! structurally match an existing arena entry returns the existing id
//! instead of appending a duplicate. Because inputs are themselves interned
//! ids, structural equality of whole subgraphs collapses to id equality —
//! the Δ/∇/old-epoch variants that trigger translation derives per source
//! event share every untouched subtree by construction, and the memo tables
//! keyed on [`OpId`] (compilation, keys, skeletons) hit across variants.
//! Per-operator `arity`/`column_names`/`key` are memoized for the same
//! reason: a naive recursive walk revisits shared nodes once per *path*,
//! which is exponential in view depth.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use quark_relational::expr::{AggExpr, Expr};
use quark_relational::plan::TableEpoch;
use quark_relational::{Database, Result};

/// Operator id within a [`Graph`] arena.
pub type OpId = usize;

/// Join variants (mirrors the physical kinds; XQGM graphs produced by
/// `CreateANGraph` need anti joins for INSERT/DELETE events).
pub type JoinKind = quark_relational::plan::JoinKind;

/// Where a `Table` operator reads its rows from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableSource {
    /// The stored table, current or reconstructed-old epoch.
    Base(TableEpoch),
    /// Δtable of the firing statement (`4T`), optionally pruned (App. F).
    Delta {
        /// Apply Appendix-F pruning.
        pruned: bool,
    },
    /// ∇table of the firing statement (`5T`), optionally pruned.
    Nabla {
        /// Apply Appendix-F pruning.
        pruned: bool,
    },
}

/// Operator kinds — exactly Table 1 of the paper.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Represents a relational table.
    Table {
        /// Table name.
        table: String,
        /// Data source (base / transition).
        source: TableSource,
    },
    /// Restricts its input.
    Select {
        /// Predicate over the input row.
        predicate: Expr,
    },
    /// Computes results based on its input.
    Project {
        /// Output column expressions over the input row.
        exprs: Vec<Expr>,
        /// Output column names (same length as `exprs`).
        names: Vec<String>,
    },
    /// Joins two inputs. The predicate is over the concatenated row
    /// (left columns first).
    Join {
        /// Join variant.
        kind: JoinKind,
        /// Optional join predicate.
        predicate: Option<Expr>,
    },
    /// Applies aggregate functions and grouping.
    GroupBy {
        /// Input columns to group on.
        group_cols: Vec<usize>,
        /// Aggregates (paired with output names).
        aggs: Vec<AggExpr>,
        /// Names for the aggregate output columns.
        agg_names: Vec<String>,
    },
    /// Unions inputs and removes duplicates (Table 1).
    Union,
    /// Applies super-scalar functions to input: emits one row per item of
    /// the XML sequence `expr` evaluates to, appending the item as a new
    /// last column.
    Unnest {
        /// Sequence-valued expression over the input row.
        expr: Expr,
        /// Name of the appended column.
        name: String,
    },
}

/// One operator node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Operator {
    /// What the operator does.
    pub kind: OpKind,
    /// Input operator ids (0, 1, or 2+ depending on kind).
    pub inputs: Vec<OpId>,
}

/// An XQGM graph: an arena of operators. Any operator id can serve as a
/// root; trigger translation evaluates several roots over shared subgraphs.
///
/// The arena hash-conses operators (see the module docs) and memoizes
/// per-operator arity, column names and canonical key ([`Graph::key`]).
/// The memos resolve table schemas against the `Database` passed to the
/// *first* call; a graph must only be used with databases whose referenced
/// tables keep their schemas (the engine has no `ALTER TABLE`, so this
/// holds for every database the graph was built against).
#[derive(Debug, Clone, Default)]
pub struct Graph {
    ops: Vec<Operator>,
    /// Structural hash per operator (kind + input ids).
    hashes: Vec<u64>,
    /// Hash-consing table: structural hash → candidate ids.
    intern: HashMap<u64, Vec<OpId>>,
    /// Memoized output arity per operator.
    arities: Vec<OnceLock<usize>>,
    /// Memoized output column names per operator.
    names: Vec<OnceLock<Vec<String>>>,
    /// Memoized canonical key per operator.
    keys: Vec<OnceLock<Vec<usize>>>,
}

/// Graphs compare by operator content; the intern table and memo caches are
/// derived state.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.ops == other.ops
    }
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of operators in the arena.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when no operators exist.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Access an operator.
    pub fn op(&self, id: OpId) -> &Operator {
        &self.ops[id]
    }

    /// Iterate over `(id, op)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, &Operator)> {
        self.ops.iter().enumerate()
    }

    pub(crate) fn push(&mut self, op: Operator) -> OpId {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        op.hash(&mut hasher);
        for &i in &op.inputs {
            self.hashes[i].hash(&mut hasher);
        }
        let h = hasher.finish();
        if let Some(candidates) = self.intern.get(&h) {
            for &id in candidates {
                if self.ops[id] == op {
                    return id;
                }
            }
        }
        let id = self.ops.len();
        self.ops.push(op);
        self.hashes.push(h);
        self.arities.push(OnceLock::new());
        self.names.push(OnceLock::new());
        self.keys.push(OnceLock::new());
        self.intern.entry(h).or_default().push(id);
        id
    }

    /// Add a `Table` operator reading the current base state.
    pub fn table(&mut self, table: impl Into<String>) -> OpId {
        self.table_from(table, TableSource::Base(TableEpoch::Current))
    }

    /// Add a `Table` operator with an explicit source.
    pub fn table_from(&mut self, table: impl Into<String>, source: TableSource) -> OpId {
        self.push(Operator {
            kind: OpKind::Table {
                table: table.into(),
                source,
            },
            inputs: vec![],
        })
    }

    /// Add a `Select`.
    pub fn select(&mut self, input: OpId, predicate: Expr) -> OpId {
        self.push(Operator {
            kind: OpKind::Select { predicate },
            inputs: vec![input],
        })
    }

    /// Add a `Project`.
    pub fn project(&mut self, input: OpId, exprs: Vec<Expr>, names: Vec<String>) -> OpId {
        debug_assert_eq!(exprs.len(), names.len());
        self.push(Operator {
            kind: OpKind::Project { exprs, names },
            inputs: vec![input],
        })
    }

    /// Add a `Join` with an arbitrary predicate.
    pub fn join(
        &mut self,
        kind: JoinKind,
        left: OpId,
        right: OpId,
        predicate: Option<Expr>,
    ) -> OpId {
        self.push(Operator {
            kind: OpKind::Join { kind, predicate },
            inputs: vec![left, right],
        })
    }

    /// Add an equi-`Join` on `(left column, right column)` pairs; right
    /// columns are given in the right input's own coordinates.
    pub fn equi_join(
        &mut self,
        kind: JoinKind,
        left: OpId,
        right: OpId,
        pairs: &[(usize, usize)],
        left_arity: usize,
    ) -> OpId {
        let preds = pairs
            .iter()
            .map(|(l, r)| Expr::eq(Expr::col(*l), Expr::col(left_arity + r)))
            .collect();
        self.join(kind, left, right, Some(Expr::and_all(preds)))
    }

    /// Add a `GroupBy`.
    pub fn group_by(
        &mut self,
        input: OpId,
        group_cols: Vec<usize>,
        aggs: Vec<(AggExpr, String)>,
    ) -> OpId {
        let (aggs, agg_names): (Vec<_>, Vec<_>) = aggs.into_iter().unzip();
        self.push(Operator {
            kind: OpKind::GroupBy {
                group_cols,
                aggs,
                agg_names,
            },
            inputs: vec![input],
        })
    }

    /// Add a duplicate-removing `Union`.
    pub fn union(&mut self, inputs: Vec<OpId>) -> OpId {
        self.push(Operator {
            kind: OpKind::Union,
            inputs,
        })
    }

    /// Add an `Unnest`.
    pub fn unnest(&mut self, input: OpId, expr: Expr, name: impl Into<String>) -> OpId {
        self.push(Operator {
            kind: OpKind::Unnest {
                expr,
                name: name.into(),
            },
            inputs: vec![input],
        })
    }

    /// Number of output columns of `op`, resolving table schemas in `db`.
    /// Memoized per operator (see the type docs for the schema-stability
    /// invariant).
    pub fn arity(&self, id: OpId, db: &Database) -> Result<usize> {
        if let Some(&a) = self.arities[id].get() {
            return Ok(a);
        }
        let a = self.arity_uncached(id, db)?;
        let _ = self.arities[id].set(a);
        Ok(a)
    }

    fn arity_uncached(&self, id: OpId, db: &Database) -> Result<usize> {
        let op = self.op(id);
        Ok(match &op.kind {
            OpKind::Table { table, .. } => db.table(table)?.schema().arity(),
            OpKind::Select { .. } => self.arity(op.inputs[0], db)?,
            OpKind::Project { exprs, .. } => exprs.len(),
            OpKind::Join { kind, .. } => {
                if kind.keeps_right() {
                    self.arity(op.inputs[0], db)? + self.arity(op.inputs[1], db)?
                } else {
                    self.arity(op.inputs[0], db)?
                }
            }
            OpKind::GroupBy {
                group_cols, aggs, ..
            } => group_cols.len() + aggs.len(),
            OpKind::Union => self.arity(op.inputs[0], db)?,
            OpKind::Unnest { .. } => self.arity(op.inputs[0], db)? + 1,
        })
    }

    /// Output column names of `op` (synthesized where unnamed). Memoized
    /// per operator.
    pub fn column_names(&self, id: OpId, db: &Database) -> Result<Vec<String>> {
        if let Some(hit) = self.names[id].get() {
            return Ok(hit.clone());
        }
        let names = self.column_names_uncached(id, db)?;
        let _ = self.names[id].set(names.clone());
        Ok(names)
    }

    fn column_names_uncached(&self, id: OpId, db: &Database) -> Result<Vec<String>> {
        let op = self.op(id);
        Ok(match &op.kind {
            OpKind::Table { table, .. } => db
                .table(table)?
                .schema()
                .columns
                .iter()
                .map(|c| c.name.clone())
                .collect(),
            OpKind::Select { .. } => self.column_names(op.inputs[0], db)?,
            OpKind::Project { names, .. } => names.clone(),
            OpKind::Join { kind, .. } => {
                let mut names = self.column_names(op.inputs[0], db)?;
                if kind.keeps_right() {
                    names.extend(self.column_names(op.inputs[1], db)?);
                }
                names
            }
            OpKind::GroupBy {
                group_cols,
                agg_names,
                ..
            } => {
                let input = self.column_names(op.inputs[0], db)?;
                group_cols
                    .iter()
                    .map(|&c| input[c].clone())
                    .chain(agg_names.iter().cloned())
                    .collect()
            }
            OpKind::Union => self.column_names(op.inputs[0], db)?,
            OpKind::Unnest { name, .. } => {
                let mut names = self.column_names(op.inputs[0], db)?;
                names.push(name.clone());
                names
            }
        })
    }

    /// Canonical key columns of `op` in its output coordinates (Definition
    /// 1), derived from its kind and its inputs' keys as in Table 3:
    ///
    /// | operator | canonical key                                         |
    /// |----------|-------------------------------------------------------|
    /// | Table    | the relational primary key                            |
    /// | Select   | the input's key                                       |
    /// | Project  | the input key columns' positions, empty if one is cut |
    /// | Join     | the left key, then the shifted right key if kept      |
    /// | GroupBy  | the grouping columns                                  |
    /// | Union    | the union of the input keys (identity column mapping) |
    ///
    /// Empty means keyless: a Project that drops a key column (normalized
    /// graphs have none, see [`crate::keys::normalize`]) or an Unnest.
    /// Memoized per operator.
    pub fn key(&self, id: OpId, db: &Database) -> Result<&[usize]> {
        if let Some(hit) = self.keys[id].get() {
            return Ok(hit);
        }
        let key = self.key_uncached(id, db)?;
        Ok(self.keys[id].get_or_init(|| key))
    }

    fn key_uncached(&self, id: OpId, db: &Database) -> Result<Vec<usize>> {
        let op = self.op(id);
        Ok(match &op.kind {
            OpKind::Table { table, .. } => db.table(table)?.schema().primary_key.clone(),
            OpKind::Select { .. } => self.key(op.inputs[0], db)?.to_vec(),
            OpKind::Project { exprs, .. } => self
                .key(op.inputs[0], db)?
                .iter()
                .map(|&kc| {
                    exprs
                        .iter()
                        .position(|e| matches!(e, Expr::Col(c) if *c == kc))
                })
                .collect::<Option<_>>()
                .unwrap_or_default(),
            OpKind::Join { kind, .. } => {
                let mut key = self.key(op.inputs[0], db)?.to_vec();
                if kind.keeps_right() {
                    let shift = self.arity(op.inputs[0], db)?;
                    key.extend(self.key(op.inputs[1], db)?.iter().map(|&c| c + shift));
                }
                key
            }
            OpKind::GroupBy { group_cols, .. } => (0..group_cols.len()).collect(),
            OpKind::Union => {
                let mut key = Vec::new();
                for &i in &op.inputs {
                    key.extend_from_slice(self.key(i, db)?);
                }
                key.sort_unstable();
                key.dedup();
                key
            }
            OpKind::Unnest { .. } => Vec::new(),
        })
    }

    /// Human-readable rendering of the subgraph under `root` (box-numbered
    /// like the paper's figures).
    pub fn explain(&self, root: OpId, db: &Database) -> String {
        let mut out = String::new();
        let mut visited = vec![false; self.ops.len()];
        self.explain_rec(root, db, &mut out, &mut visited, 0);
        out
    }

    fn explain_rec(
        &self,
        id: OpId,
        db: &Database,
        out: &mut String,
        visited: &mut [bool],
        depth: usize,
    ) {
        let pad = "  ".repeat(depth);
        if visited[id] {
            let _ = writeln!(out, "{pad}[box {id}] (shared, see above)");
            return;
        }
        visited[id] = true;
        let op = self.op(id);
        let desc = match &op.kind {
            OpKind::Table { table, source } => format!("Table {table} {source:?}"),
            OpKind::Select { predicate } => format!("Select {predicate:?}"),
            OpKind::Project { names, .. } => format!("Project {names:?}"),
            OpKind::Join { kind, predicate } => format!("Join {kind:?} {predicate:?}"),
            OpKind::GroupBy {
                group_cols,
                agg_names,
                ..
            } => {
                let names = self
                    .column_names(op.inputs[0], db)
                    .map(|n| {
                        group_cols
                            .iter()
                            .map(|&c| n.get(c).cloned().unwrap_or_else(|| format!("#{c}")))
                            .collect::<Vec<_>>()
                    })
                    .unwrap_or_default();
                format!("GroupBy {names:?} aggs {agg_names:?}")
            }
            OpKind::Union => "Union".to_string(),
            OpKind::Unnest { name, .. } => format!("Unnest -> {name}"),
        };
        let _ = writeln!(out, "{pad}[box {id}] {desc}");
        for &i in &op.inputs {
            self.explain_rec(i, db, out, visited, depth + 1);
        }
    }

    /// Table names referenced under `root` with a [`TableSource::Base`]
    /// source (the view's base relations).
    pub fn base_tables(&self, root: OpId) -> Vec<String> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        let mut seen = vec![false; self.ops.len()];
        while let Some(id) = stack.pop() {
            if seen[id] {
                continue;
            }
            seen[id] = true;
            let op = self.op(id);
            if let OpKind::Table {
                table,
                source: TableSource::Base(_),
            } = &op.kind
            {
                if !out.contains(table) {
                    out.push(table.clone());
                }
            }
            stack.extend(&op.inputs);
        }
        out.sort();
        out
    }

    /// Rebuild the subgraph under `root` with every [`TableSource::Base`]
    /// access to `table` reading `source` instead, sharing every subtree
    /// that does not read it. The `Old` epoch gives the paper's `G_old`,
    /// "identical to G with the sole exception that B is replaced by
    /// B_old" (§4.2); the Δ/∇ sources feed the GROUPED-AGG compensation
    /// (Fig. 16's `deltaCount`). Returns the new root and the original →
    /// rebuilt operator map (identity for shared operators).
    pub fn replace_source(
        &mut self,
        root: OpId,
        table: &str,
        source: TableSource,
    ) -> (OpId, HashMap<OpId, OpId>) {
        let mut memo = HashMap::new();
        let new_root = self.replace_source_rec(root, table, source, &mut memo);
        (new_root, memo)
    }

    fn replace_source_rec(
        &mut self,
        id: OpId,
        table: &str,
        source: TableSource,
        memo: &mut HashMap<OpId, OpId>,
    ) -> OpId {
        if let Some(&m) = memo.get(&id) {
            return m;
        }
        let op = self.op(id).clone();
        let new_id = match &op.kind {
            OpKind::Table {
                table: t,
                source: TableSource::Base(_),
            } if t == table => self.table_from(t.clone(), source),
            _ => {
                let new_inputs: Vec<OpId> = op
                    .inputs
                    .iter()
                    .map(|&i| self.replace_source_rec(i, table, source, memo))
                    .collect();
                if new_inputs == op.inputs {
                    id // untouched subtree: share it
                } else {
                    self.push(Operator {
                        kind: op.kind,
                        inputs: new_inputs,
                    })
                }
            }
        };
        memo.insert(id, new_id);
        new_id
    }
}
