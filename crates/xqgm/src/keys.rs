//! Canonical keys of XQGM operators (Definition 1 and Appendix A of the
//! paper) and the graph normalization that makes them *present* in operator
//! outputs.
//!
//! The paper derives, for every operator, a minimal set of existing **or
//! derivable** columns that uniquely identify its output tuples (Table 3):
//!
//! | operator      | canonical key                                        |
//! |---------------|------------------------------------------------------|
//! | Table         | the relational primary key                           |
//! | Select/Project| the input operator's key, propagated                 |
//! | Join          | concatenation of the input keys                      |
//! | Union         | union of the mapped input key columns                |
//! | GroupBy       | the grouping columns                                 |
//!
//! "Derivable" keys (like the `$pname` key of box 7 in Fig. 5, which the
//! Project does not output) are materialized here by *rebuilding* the graph
//! with key columns appended to `Project` outputs — the same bookkeeping as
//! line 57 of `CreateAKGraph` ("Add K to O.outputColumns"), done once up
//! front so every later phase can join on keys positionally.

use std::collections::HashMap;

use quark_relational::expr::{AggExpr, Expr};
use quark_relational::{Database, Error, Result};

use crate::graph::{Graph, JoinKind, OpId, OpKind, Operator, TableSource};

/// A normalized XQGM graph with canonical keys tracked per operator.
///
/// All mutation goes through methods that keep the key map consistent, so
/// the trigger-translation algorithms can grow the graph (affected-key
/// subgraphs, old-version mirrors) without recomputing keys from scratch.
#[derive(Debug, Clone)]
pub struct KeyedGraph {
    /// The underlying operator arena.
    pub graph: Graph,
    keys: HashMap<OpId, Vec<usize>>,
}

impl KeyedGraph {
    /// Normalize `root`'s subgraph: rebuild it so every operator's
    /// canonical key columns are present in its output, and derive the keys.
    ///
    /// Fails when a view is not trigger-specifiable: a base table without a
    /// primary key cannot occur (the engine enforces keys), but an `Unnest`
    /// operator has no canonical key — per Theorem 1's proof it must first
    /// be removed by view composition.
    pub fn normalize(graph: &Graph, root: OpId, db: &Database) -> Result<(Self, OpId)> {
        let mut out = KeyedGraph {
            graph: Graph::new(),
            keys: HashMap::new(),
        };
        let mut memo: HashMap<OpId, (OpId, Vec<usize>)> = HashMap::new();
        let new_root = out.rebuild(graph, root, db, &mut memo)?;
        Ok((out, new_root))
    }

    /// Canonical key columns of an operator (output coordinates).
    pub fn key(&self, op: OpId) -> &[usize] {
        self.keys.get(&op).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `true` if key information is recorded for `op`.
    pub fn has_key(&self, op: OpId) -> bool {
        self.keys.contains_key(&op)
    }

    /// Rebuild one operator; returns `(new id, column map old→new)`.
    fn rebuild(
        &mut self,
        src: &Graph,
        id: OpId,
        db: &Database,
        memo: &mut HashMap<OpId, (OpId, Vec<usize>)>,
    ) -> Result<OpId> {
        Ok(self.rebuild_mapped(src, id, db, memo)?.0)
    }

    fn rebuild_mapped(
        &mut self,
        src: &Graph,
        id: OpId,
        db: &Database,
        memo: &mut HashMap<OpId, (OpId, Vec<usize>)>,
    ) -> Result<(OpId, Vec<usize>)> {
        if let Some(hit) = memo.get(&id) {
            return Ok(hit.clone());
        }
        let op = src.op(id).clone();
        // The arms below index column maps with the columns the operator
        // names; a graph decoded from damaged bytes can name one its inputs
        // lack, which is an error to report, not an index to trust.
        let mut named = Vec::new();
        match &op.kind {
            OpKind::Table { .. } | OpKind::Union => {}
            OpKind::Select { predicate } => predicate.columns(&mut named),
            OpKind::Project { exprs, .. } => exprs.iter().for_each(|e| e.columns(&mut named)),
            OpKind::Join { predicate, .. } => predicate.iter().for_each(|p| p.columns(&mut named)),
            OpKind::GroupBy {
                group_cols, aggs, ..
            } => {
                named.extend(group_cols);
                let args = aggs.iter().filter_map(|a| a.arg.as_ref());
                args.for_each(|e| e.columns(&mut named));
            }
            OpKind::Unnest { expr, .. } => expr.columns(&mut named),
        }
        let mut width = 0;
        for &input in &op.inputs {
            width += src.arity(input, db)?;
        }
        if let Some(c) = named.iter().find(|&&c| c >= width) {
            return Err(Error::Plan(format!(
                "operator {id} names column {c} of a {width}-column input"
            )));
        }
        let (new_id, colmap) = match &op.kind {
            OpKind::Table { table, source } => {
                let new_id = self.table_from(table.clone(), *source, db)?;
                let arity = db.table(table)?.schema().arity();
                (new_id, (0..arity).collect())
            }
            OpKind::Select { predicate } => {
                let (input, m) = self.rebuild_mapped(src, op.inputs[0], db, memo)?;
                let pred = predicate.remap_columns(&|c| m[c]);
                let new_id = self.select(input, pred);
                (new_id, m)
            }
            OpKind::Project { exprs, names } => {
                let (input, m) = self.rebuild_mapped(src, op.inputs[0], db, memo)?;
                let mut exprs: Vec<Expr> =
                    exprs.iter().map(|e| e.remap_columns(&|c| m[c])).collect();
                let mut names = names.clone();
                let input_names = self.graph.column_names(input, db)?;
                // Materialize any derivable key column that the projection
                // dropped (paper: "existing or derivable" columns, Def. 1).
                for &kc in self.key(input).to_vec().iter() {
                    if !exprs.iter().any(|e| matches!(e, Expr::Col(c) if *c == kc)) {
                        exprs.push(Expr::col(kc));
                        names.push(
                            input_names
                                .get(kc)
                                .cloned()
                                .unwrap_or_else(|| format!("key_{kc}")),
                        );
                    }
                }
                let colmap = (0..exprs.len()).collect();
                let new_id = self.project(input, exprs, names);
                (new_id, colmap)
            }
            OpKind::Join { kind, predicate } => {
                let old_left_arity = src.arity(op.inputs[0], db)?;
                let (left, ml) = self.rebuild_mapped(src, op.inputs[0], db, memo)?;
                let (right, mr) = self.rebuild_mapped(src, op.inputs[1], db, memo)?;
                let new_left_arity = self.graph.arity(left, db)?;
                let remap = |c: usize| {
                    if c < old_left_arity {
                        ml[c]
                    } else {
                        new_left_arity + mr[c - old_left_arity]
                    }
                };
                let pred = predicate.as_ref().map(|p| p.remap_columns(&remap));
                let new_id = self.join(*kind, left, right, pred, db)?;
                let colmap = if kind.keeps_right() {
                    let old_right_arity = src.arity(op.inputs[1], db)?;
                    (0..old_left_arity + old_right_arity).map(remap).collect()
                } else {
                    ml
                };
                (new_id, colmap)
            }
            OpKind::GroupBy {
                group_cols,
                aggs,
                agg_names,
            } => {
                let (input, m) = self.rebuild_mapped(src, op.inputs[0], db, memo)?;
                let group_cols: Vec<usize> = group_cols.iter().map(|&c| m[c]).collect();
                let aggs: Vec<AggExpr> = aggs
                    .iter()
                    .map(|a| AggExpr {
                        func: a.func,
                        arg: a.arg.as_ref().map(|e| e.remap_columns(&|c| m[c])),
                    })
                    .collect();
                let n_out = group_cols.len() + aggs.len();
                let new_id = self.group_by(
                    input,
                    group_cols,
                    aggs.into_iter().zip(agg_names.iter().cloned()).collect(),
                );
                (new_id, (0..n_out).collect())
            }
            OpKind::Union => {
                let mut new_inputs = Vec::with_capacity(op.inputs.len());
                for &i in &op.inputs {
                    new_inputs.push(self.rebuild_mapped(src, i, db, memo)?.0);
                }
                let arity = self.graph.arity(new_inputs[0], db)?;
                for &i in &new_inputs[1..] {
                    if self.graph.arity(i, db)? != arity {
                        return Err(Error::Plan(
                            "Union branches must expose identically-positioned key columns; \
                             project keys explicitly in each branch"
                                .into(),
                        ));
                    }
                }
                let new_id = self.union(new_inputs, db)?;
                (new_id, (0..arity).collect())
            }
            OpKind::Unnest { .. } => {
                return Err(Error::Plan(
                    "canonical keys are undefined for Unnest; remove it by view composition \
                     (Theorem 1) before trigger translation"
                        .into(),
                ))
            }
        };
        memo.insert(id, (new_id, colmap.clone()));
        Ok((new_id, colmap))
    }

    // ------------------------------------------------------------------
    // Key-tracking builders (used by normalization and by the trigger
    // translation algorithms when they extend the graph)
    // ------------------------------------------------------------------

    /// Add a table operator; key = primary key of the table.
    pub fn table_from(
        &mut self,
        table: impl Into<String>,
        source: TableSource,
        db: &Database,
    ) -> Result<OpId> {
        let table = table.into();
        let pk = db.table(&table)?.schema().primary_key.clone();
        let id = self.graph.table_from(table, source);
        self.keys.insert(id, pk);
        Ok(id)
    }

    /// Add a select; key propagates from the input.
    pub fn select(&mut self, input: OpId, predicate: Expr) -> OpId {
        let key = self.key(input).to_vec();
        let id = self.graph.select(input, predicate);
        self.keys.insert(id, key);
        id
    }

    /// Add a project. The caller must keep the input's key columns among
    /// `exprs` as direct column references; their output positions become
    /// the key (normalization guarantees this for rebuilt graphs).
    pub fn project(&mut self, input: OpId, exprs: Vec<Expr>, names: Vec<String>) -> OpId {
        let key: Vec<usize> = self
            .key(input)
            .iter()
            .filter_map(|&kc| {
                exprs
                    .iter()
                    .position(|e| matches!(e, Expr::Col(c) if *c == kc))
            })
            .collect();
        let expected = self.key(input).len();
        let id = self.graph.project(input, exprs, names);
        // A projection that drops key columns loses its key; record what
        // survived (empty ⇒ treated as keyless by consumers).
        if key.len() == expected {
            self.keys.insert(id, key);
        }
        id
    }

    /// Add a join; key = concatenated input keys (left key only for
    /// semi/anti joins).
    pub fn join(
        &mut self,
        kind: JoinKind,
        left: OpId,
        right: OpId,
        predicate: Option<Expr>,
        db: &Database,
    ) -> Result<OpId> {
        let left_arity = self.graph.arity(left, db)?;
        let mut key = self.key(left).to_vec();
        if kind.keeps_right() {
            key.extend(self.key(right).iter().map(|&c| c + left_arity));
        }
        let id = self.graph.join(kind, left, right, predicate);
        self.keys.insert(id, key);
        Ok(id)
    }

    /// Add an equi-join on `(left col, right col)` pairs.
    pub fn equi_join(
        &mut self,
        kind: JoinKind,
        left: OpId,
        right: OpId,
        pairs: &[(usize, usize)],
        db: &Database,
    ) -> Result<OpId> {
        let left_arity = self.graph.arity(left, db)?;
        let preds = pairs
            .iter()
            .map(|(l, r)| Expr::eq(Expr::col(*l), Expr::col(left_arity + r)))
            .collect();
        self.join(kind, left, right, Some(Expr::and_all(preds)), db)
    }

    /// Add a group-by; key = the grouping columns.
    pub fn group_by(
        &mut self,
        input: OpId,
        group_cols: Vec<usize>,
        aggs: Vec<(AggExpr, String)>,
    ) -> OpId {
        let key: Vec<usize> = (0..group_cols.len()).collect();
        let id = self.graph.group_by(input, group_cols, aggs);
        self.keys.insert(id, key);
        id
    }

    /// Add a duplicate-removing union; key = positional union of the input
    /// keys (Table 3 of the paper, with the identity column mapping).
    pub fn union(&mut self, inputs: Vec<OpId>, db: &Database) -> Result<OpId> {
        let arity = self.graph.arity(inputs[0], db)?;
        for &i in &inputs[1..] {
            if self.graph.arity(i, db)? != arity {
                return Err(Error::Plan("union of mismatched arities".into()));
            }
        }
        let mut key: Vec<usize> = inputs.iter().flat_map(|&i| self.key(i).to_vec()).collect();
        key.sort_unstable();
        key.dedup();
        let id = self.graph.union(inputs);
        self.keys.insert(id, key);
        Ok(id)
    }

    /// Mirror the subgraph under `root` with base accesses to `table`
    /// switched to the old epoch (`G_old`), preserving key metadata.
    pub fn old_version(&mut self, root: OpId, table: &str) -> OpId {
        self.old_version_mapped(root, table).0
    }

    /// Like [`KeyedGraph::old_version`], additionally returning the
    /// original → mirrored operator mapping (identity for untouched shared
    /// subtrees). The trigger-pushdown phase uses it to pair old-epoch
    /// group-bys with their current-epoch counterparts.
    pub fn old_version_mapped(&mut self, root: OpId, table: &str) -> (OpId, HashMap<OpId, OpId>) {
        let mut memo: HashMap<OpId, OpId> = HashMap::new();
        let new_root = self.replace_source_rec(
            root,
            table,
            TableSource::Base(quark_relational::plan::TableEpoch::Old),
            &mut memo,
        );
        (new_root, memo)
    }

    /// Mirror the subgraph under `root` with base accesses to `table`
    /// replaced by `source` (Δ/∇ variants feed the GROUPED-AGG
    /// compensation; see Fig. 16's `deltaCount`).
    pub fn variant_with_source(&mut self, root: OpId, table: &str, source: TableSource) -> OpId {
        let mut memo: HashMap<OpId, OpId> = HashMap::new();
        self.replace_source_rec(root, table, source, &mut memo)
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
        let op = self.graph.op(id).clone();
        let new_id = match &op.kind {
            OpKind::Table {
                table: t,
                source: TableSource::Base(_),
            } if t == table => {
                let nid = self.graph.table_from(t.clone(), source);
                self.keys.insert(nid, self.key(id).to_vec());
                nid
            }
            _ => {
                let new_inputs: Vec<OpId> = op
                    .inputs
                    .iter()
                    .map(|&i| self.replace_source_rec(i, table, source, memo))
                    .collect();
                if new_inputs == op.inputs {
                    id
                } else {
                    let nid = self.push_mirror(Operator {
                        kind: op.kind,
                        inputs: new_inputs,
                    });
                    self.keys.insert(nid, self.key(id).to_vec());
                    nid
                }
            }
        };
        memo.insert(id, new_id);
        new_id
    }

    fn push_mirror(&mut self, op: Operator) -> OpId {
        // Route through Graph's typed builders to keep invariants local.
        match op.kind {
            OpKind::Table { table, source } => self.graph.table_from(table, source),
            OpKind::Select { predicate } => self.graph.select(op.inputs[0], predicate),
            OpKind::Project { exprs, names } => self.graph.project(op.inputs[0], exprs, names),
            OpKind::Join { kind, predicate } => {
                self.graph.join(kind, op.inputs[0], op.inputs[1], predicate)
            }
            OpKind::GroupBy {
                group_cols,
                aggs,
                agg_names,
            } => self.graph.group_by(
                op.inputs[0],
                group_cols,
                aggs.into_iter().zip(agg_names).collect(),
            ),
            OpKind::Union => self.graph.union(op.inputs),
            OpKind::Unnest { expr, name } => self.graph.unnest(op.inputs[0], expr, name),
        }
    }
}

/// Theorem 1: a view is trigger-specifiable if all its table operators have
/// canonical keys (and Unnest has been removed by composition). Returns the
/// offending reason when not.
pub fn check_trigger_specifiable(graph: &Graph, root: OpId, db: &Database) -> Result<()> {
    let mut stack = vec![root];
    let mut seen = vec![false; graph.len()];
    while let Some(id) = stack.pop() {
        if seen[id] {
            continue;
        }
        seen[id] = true;
        let op = graph.op(id);
        match &op.kind {
            OpKind::Table { table, .. }
                // The engine requires primary keys at creation; re-check to
                // surface a trigger-specific diagnostic.
                if db.table(table)?.schema().primary_key.is_empty() => {
                    return Err(Error::MissingPrimaryKey(table.clone()));
                }
            OpKind::Unnest { .. } => {
                return Err(Error::Plan(
                    "view contains Unnest: not trigger-specifiable without composition".into(),
                ))
            }
            _ => {}
        }
        stack.extend(&op.inputs);
    }
    Ok(())
}
