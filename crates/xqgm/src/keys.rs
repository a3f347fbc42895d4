//! Graph normalization: making canonical keys (Definition 1 and Appendix A
//! of the paper) *present* in operator outputs.
//!
//! [`Graph::key`] derives every operator's key from its kind and its
//! inputs' keys (Table 3). The paper's keys are sets of existing **or
//! derivable** columns: the `$pname` key of box 7 in Fig. 5 is one the
//! Project does not output. [`normalize`] materializes such keys by
//! *rebuilding* the graph with key columns appended to `Project` outputs —
//! the same bookkeeping as line 57 of `CreateAKGraph` ("Add K to
//! O.outputColumns"), done once up front so every later phase can join on
//! keys positionally.

use std::collections::HashMap;

use quark_relational::expr::{AggExpr, Expr};
use quark_relational::{Database, Error, Result};

use crate::graph::{Graph, OpId, OpKind};

/// Normalize `root`'s subgraph into a fresh graph, rebuilt so every
/// operator's canonical key columns are present in its output.
///
/// Fails when a view is not trigger-specifiable: a base table without a
/// primary key cannot occur (the engine enforces keys), but an `Unnest`
/// operator has no canonical key — per Theorem 1's proof it must first
/// be removed by view composition. It also refuses an operator naming a
/// column its inputs lack and Union branches of different widths, which
/// only a graph decoded from damaged bytes can hold.
pub fn normalize(graph: &Graph, root: OpId, db: &Database) -> Result<(Graph, OpId)> {
    let mut out = Graph::new();
    let new_root = rebuild(&mut out, graph, root, db, &mut HashMap::new())?.0;
    Ok((out, new_root))
}

/// Rebuild one operator into `out`; returns `(new id, column map old→new)`.
fn rebuild(
    out: &mut Graph,
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
            let arity = db.table(table)?.schema().arity();
            (out.table_from(table.clone(), *source), (0..arity).collect())
        }
        OpKind::Select { predicate } => {
            let (input, m) = rebuild(out, src, op.inputs[0], db, memo)?;
            let pred = predicate.remap_columns(&|c| m[c]);
            (out.select(input, pred), m)
        }
        OpKind::Project { exprs, names } => {
            let (input, m) = rebuild(out, src, op.inputs[0], db, memo)?;
            let mut exprs: Vec<Expr> = exprs.iter().map(|e| e.remap_columns(&|c| m[c])).collect();
            let mut names = names.clone();
            let input_names = out.column_names(input, db)?;
            // Materialize any derivable key column that the projection
            // dropped (paper: "existing or derivable" columns, Def. 1).
            for &kc in out.key(input, db)? {
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
            (out.project(input, exprs, names), colmap)
        }
        OpKind::Join { kind, predicate } => {
            let old_left_arity = src.arity(op.inputs[0], db)?;
            let (left, ml) = rebuild(out, src, op.inputs[0], db, memo)?;
            let (right, mr) = rebuild(out, src, op.inputs[1], db, memo)?;
            let new_left_arity = out.arity(left, db)?;
            let remap = |c: usize| {
                if c < old_left_arity {
                    ml[c]
                } else {
                    new_left_arity + mr[c - old_left_arity]
                }
            };
            let pred = predicate.as_ref().map(|p| p.remap_columns(&remap));
            let new_id = out.join(*kind, left, right, pred);
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
            let (input, m) = rebuild(out, src, op.inputs[0], db, memo)?;
            let group_cols: Vec<usize> = group_cols.iter().map(|&c| m[c]).collect();
            let aggs: Vec<AggExpr> = aggs
                .iter()
                .map(|a| AggExpr {
                    func: a.func,
                    arg: a.arg.as_ref().map(|e| e.remap_columns(&|c| m[c])),
                })
                .collect();
            let n_out = group_cols.len() + aggs.len();
            let new_id = out.group_by(
                input,
                group_cols,
                aggs.into_iter().zip(agg_names.iter().cloned()).collect(),
            );
            (new_id, (0..n_out).collect())
        }
        OpKind::Union => {
            let mut new_inputs = Vec::with_capacity(op.inputs.len());
            for &i in &op.inputs {
                new_inputs.push(rebuild(out, src, i, db, memo)?.0);
            }
            let arity = out.arity(new_inputs[0], db)?;
            for &i in &new_inputs[1..] {
                if out.arity(i, db)? != arity {
                    return Err(Error::Plan(
                        "Union branches must expose identically-positioned key columns; \
                         project keys explicitly in each branch"
                            .into(),
                    ));
                }
            }
            (out.union(new_inputs), (0..arity).collect())
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
