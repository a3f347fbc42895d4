//! `CreateAKGraph` (Figure 8): compute the *affected keys* of a view under
//! a relational transition, correctly through arbitrarily nested
//! predicates.
//!
//! The naive propagate-phase approach — substituting the transition table
//! for the base table and re-evaluating the view — breaks under nested
//! predicates: with a single inserted vendor row, the catalog view's
//! `count(*) ≥ 2` selection sees a count of 1 and reports no change
//! (§4.1). `CreateAKGraph` instead builds, for each operator `O` of the
//! Path graph, a parallel operator `O′` maintaining the invariant that
//! joining `O ⋈ O′` on the returned key columns yields exactly the
//! `O`-tuples affected by the transition. At a `GroupBy`, the input is
//! joined with its affected-keys operator and re-grouped, so *whole groups*
//! containing any changed row are identified and their aggregates can later
//! be recomputed over complete groups.

use quark_relational::expr::Expr;
use quark_relational::{Database, Error, Result};
use quark_xqgm::{Graph, JoinKind, OpId, OpKind, TableSource};

/// Which transition feeds the affected-keys computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AkSide {
    /// `ΔB` — rows after the statement (runs over `G`).
    Delta,
    /// `∇B` — rows before the statement (runs over `G_old`).
    Nabla,
}

impl AkSide {
    /// The side's transition table, pruned (Appendix F, Definition 8):
    /// always sound, and required for the injective-view optimization.
    fn source(self) -> TableSource {
        match self {
            AkSide::Delta => TableSource::Delta { pruned: true },
            AkSide::Nabla => TableSource::Nabla { pruned: true },
        }
    }
}

/// Result of `CreateAKGraph` for one operator: the affected-keys operator
/// plus the column correspondence `O.cols_in_o[i] ⟷ O′.cols_in_ak[i]` on
/// which the invariant join runs.
#[derive(Debug, Clone)]
pub struct AkResult {
    /// Top operator of the affected-keys subgraph (same arena).
    pub op: OpId,
    /// Key columns in the original operator's output coordinates. May be a
    /// *partial* key when only one join input changed (the `$vid`-only
    /// stage of Fig. 9); group-bys above restore full keys (Fig. 10).
    pub cols_in_o: Vec<usize>,
    /// Corresponding columns of the affected-keys operator.
    pub cols_in_ak: Vec<usize>,
}

/// `CreateAKGraph(O, T, dT)`: build the affected-keys subgraph for the
/// operator `root` w.r.t. statement transitions on `table`. Returns `None`
/// when the subtree cannot be affected (line 8 of Fig. 8).
///
/// For [`AkSide::Nabla`], `root` must be the `G_old` version of the path
/// graph (base accesses to `table` switched to the old epoch), matching the
/// paper's `CreateAKGraph(o_Gold, B_old, ∇B)`.
pub fn create_ak_graph(
    g: &mut Graph,
    root: OpId,
    table: &str,
    side: AkSide,
    db: &Database,
) -> Result<Option<AkResult>> {
    build(g, root, table, side, db)
}

fn build(
    g: &mut Graph,
    id: OpId,
    table: &str,
    side: AkSide,
    db: &Database,
) -> Result<Option<AkResult>> {
    let op = g.op(id).clone();
    match &op.kind {
        // Lines 3-9: the base case.
        OpKind::Table { table: t, source } => {
            let relevant = t == table && matches!(source, TableSource::Base(_));
            if !relevant {
                return Ok(None);
            }
            let table = db.table(t)?;
            let schema = table.schema();
            let pk = schema.primary_key.clone();
            let names: Vec<String> = pk.iter().map(|&c| schema.columns[c].name.clone()).collect();
            let trans = g.table_from(t.clone(), side.source());
            let ak = g.project(trans, pk.iter().map(|&c| Expr::col(c)).collect(), names);
            let n = pk.len();
            Ok(Some(AkResult {
                op: ak,
                cols_in_o: pk,
                cols_in_ak: (0..n).collect(),
            }))
        }

        // Lines 10-18: GroupBy joins its input with the input's
        // affected-keys operator and projects the affected group keys.
        OpKind::GroupBy { group_cols, .. } => {
            let input = op.inputs[0];
            let Some(inner) = build(g, input, table, side, db)? else {
                return Ok(None);
            };
            let pairs: Vec<(usize, usize)> = inner
                .cols_in_o
                .iter()
                .zip(&inner.cols_in_ak)
                .map(|(&o, &a)| (o, a))
                .collect();
            let input_arity = g.arity(input, db)?;
            let joined = g.equi_join(JoinKind::Inner, input, inner.op, &pairs, input_arity);
            // Distinct group keys of affected input rows = affected groups.
            let ak = g.group_by(joined, group_cols.clone(), vec![]);
            let n = group_cols.len();
            Ok(Some(AkResult {
                op: ak,
                cols_in_o: (0..n).collect(),
                cols_in_ak: (0..n).collect(),
            }))
        }

        // Lines 19-21: Select and Project propagate.
        OpKind::Select { .. } => build(g, op.inputs[0], table, side, db),
        OpKind::Project { exprs, .. } => {
            let Some(inner) = build(g, op.inputs[0], table, side, db)? else {
                return Ok(None);
            };
            // Map each input key column to its output position. Keys are
            // materialized by normalization, so direct references exist.
            let mut cols_in_o = Vec::with_capacity(inner.cols_in_o.len());
            for &ic in &inner.cols_in_o {
                let pos = exprs
                    .iter()
                    .position(|e| matches!(e, Expr::Col(c) if *c == ic))
                    .ok_or_else(|| {
                        Error::Plan(format!(
                            "projection drops key column {ic}; normalize the graph first"
                        ))
                    })?;
                cols_in_o.push(pos);
            }
            Ok(Some(AkResult {
                op: inner.op,
                cols_in_o,
                cols_in_ak: inner.cols_in_ak,
            }))
        }

        // Lines 22-40: Join.
        OpKind::Join { kind, .. } => {
            if *kind != JoinKind::Inner {
                return Err(Error::Plan(
                    "CreateAKGraph supports inner joins in Path graphs".into(),
                ));
            }
            let (l, r) = (op.inputs[0], op.inputs[1]);
            let left_arity = g.arity(l, db)?;
            let la = build(g, l, table, side, db)?;
            let ra = build(g, r, table, side, db)?;
            match (la, ra) {
                (None, None) => Ok(None),
                // Lines 33-34: one affected input — propagate its (partial)
                // key through the join.
                (Some(a), None) => Ok(Some(a)),
                (None, Some(a)) => Ok(Some(AkResult {
                    op: a.op,
                    cols_in_o: a.cols_in_o.iter().map(|&c| c + left_arity).collect(),
                    cols_in_ak: a.cols_in_ak,
                })),
                // Lines 36-39: both inputs affected — union of
                // cross-products.
                (Some(a), Some(b)) => {
                    let a_arity = g.arity(a.op, db)?;
                    let l_arity = left_arity;

                    // Ja = Project(K)(Join(A′, R)): affected-left keys ×
                    // all right rows.
                    let ja_join = g.join(JoinKind::Inner, a.op, r, None);
                    let ja_exprs: Vec<Expr> = a
                        .cols_in_ak
                        .iter()
                        .map(|&c| Expr::col(c))
                        .chain(b.cols_in_o.iter().map(|&c| Expr::col(a_arity + c)))
                        .collect();
                    let n = ja_exprs.len();
                    let names: Vec<String> = (0..n).map(|i| format!("ak_{i}")).collect();
                    let ja = g.project(ja_join, ja_exprs, names.clone());

                    // Jb = Project(K)(Join(L, B′)).
                    let jb_join = g.join(JoinKind::Inner, l, b.op, None);
                    let jb_exprs: Vec<Expr> = a
                        .cols_in_o
                        .iter()
                        .map(|&c| Expr::col(c))
                        .chain(b.cols_in_ak.iter().map(|&c| Expr::col(l_arity + c)))
                        .collect();
                    let jb = g.project(jb_join, jb_exprs, names);

                    let union = g.union(vec![ja, jb]);
                    let cols_in_o: Vec<usize> = a
                        .cols_in_o
                        .iter()
                        .copied()
                        .chain(b.cols_in_o.iter().map(|&c| c + left_arity))
                        .collect();
                    Ok(Some(AkResult {
                        op: union,
                        cols_in_o,
                        cols_in_ak: (0..n).collect(),
                    }))
                }
            }
        }

        // Lines 41-53: Union.
        OpKind::Union => {
            let mut branches = Vec::new();
            for &i in &op.inputs {
                if let Some(a) = build(g, i, table, side, db)? {
                    branches.push(a);
                }
            }
            if branches.is_empty() {
                return Ok(None);
            }
            // All affected branches must agree on the key columns (the
            // positional column mapping M of Table 3).
            let cols: Vec<usize> = branches[0].cols_in_o.clone();
            for b in &branches[1..] {
                if b.cols_in_o != cols {
                    return Err(Error::Plan(
                        "Union branches disagree on affected-key columns".into(),
                    ));
                }
            }
            if branches.len() == 1 {
                return Ok(branches.pop());
            }
            let names: Vec<String> = (0..cols.len()).map(|i| format!("ak_{i}")).collect();
            let projected: Vec<OpId> = branches
                .iter()
                .map(|b| {
                    g.project(
                        b.op,
                        b.cols_in_ak.iter().map(|&c| Expr::col(c)).collect(),
                        names.clone(),
                    )
                })
                .collect();
            let u = g.union(projected);
            let n = cols.len();
            Ok(Some(AkResult {
                op: u,
                cols_in_o: cols,
                cols_in_ak: (0..n).collect(),
            }))
        }

        OpKind::Unnest { .. } => Err(Error::Plan(
            "Unnest in a Path graph is not trigger-specifiable (Theorem 1)".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quark_relational::exec::transitions;
    use quark_relational::exec::{execute, ExecContext};
    use quark_relational::plan::TableEpoch;
    use quark_relational::{row, Event, Value};
    use quark_xqgm::fixtures::{catalog_path_graph, product_vendor_db};
    use quark_xqgm::{normalize, Compiler};

    fn setup() -> (quark_relational::Database, Graph, OpId) {
        let db = product_vendor_db();
        let mut src = Graph::new();
        let (top, _) = catalog_path_graph(&mut src);
        let (g, root) = normalize(&src, top, &db).unwrap();
        (db, g, root)
    }

    /// The §4.1 counter-example: inserting one vendor row for P2 must
    /// identify "LCD 19" as an affected key even though the transition
    /// table alone yields count = 1 < 2.
    #[test]
    fn nested_predicate_counterexample_yields_affected_key() {
        let (db, mut g, root) = setup();
        let ak = create_ak_graph(&mut g, root, "vendor", AkSide::Delta, &db)
            .unwrap()
            .expect("vendor affects the view");

        // Apply the insert: Amazon starts selling P2 at 500.
        db.load(
            "vendor",
            vec![vec![
                Value::str("Amazon"),
                Value::str("P2"),
                Value::Double(500.0),
            ]],
        )
        .unwrap();
        let trans = transitions(
            "vendor",
            Event::Insert,
            vec![row([
                Value::str("Amazon"),
                Value::str("P2"),
                Value::Double(500.0),
            ])],
            vec![],
        );
        let plan = Compiler::new(&g, &db).compile(ak.op).unwrap();
        let ctx = ExecContext::new(&db, Some(&trans));
        let rows = execute(&plan, &ctx).unwrap();
        let keys: Vec<String> = rows
            .iter()
            .map(|r| r[ak.cols_in_ak[0]].to_string())
            .collect();
        assert_eq!(keys, vec!["LCD 19".to_string()]);
        // The key columns correspond to the path graph's canonical key.
        assert_eq!(ak.cols_in_o, g.key(root, &db).unwrap());
    }

    /// An update to one vendor of "CRT 15" flags exactly that product name.
    #[test]
    fn vendor_update_flags_one_group() {
        let (db, mut g, root) = setup();
        let ak = create_ak_graph(&mut g, root, "vendor", AkSide::Delta, &db)
            .unwrap()
            .unwrap();
        db.update_by_key(
            "vendor",
            &[Value::str("Amazon"), Value::str("P1")],
            &[(2, Value::Double(75.0))],
        )
        .unwrap();
        let trans = transitions(
            "vendor",
            Event::Update,
            vec![row([
                Value::str("Amazon"),
                Value::str("P1"),
                Value::Double(75.0),
            ])],
            vec![row([
                Value::str("Amazon"),
                Value::str("P1"),
                Value::Double(100.0),
            ])],
        );
        let plan = Compiler::new(&g, &db).compile(ak.op).unwrap();
        let ctx = ExecContext::new(&db, Some(&trans));
        let rows = execute(&plan, &ctx).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::str("CRT 15"));
    }

    /// Pruned transitions drop no-op updates: an UPDATE that rewrites a row
    /// to its current value yields no affected keys (Appendix F).
    #[test]
    fn pruned_transitions_suppress_noop_updates() {
        let (db, mut g, root) = setup();
        let ak = create_ak_graph(&mut g, root, "vendor", AkSide::Delta, &db)
            .unwrap()
            .unwrap();
        let same = row([Value::str("Amazon"), Value::str("P1"), Value::Double(100.0)]);
        let trans = transitions("vendor", Event::Update, vec![same.clone()], vec![same]);
        let plan = Compiler::new(&g, &db).compile(ak.op).unwrap();
        let ctx = ExecContext::new(&db, Some(&trans));
        let rows = execute(&plan, &ctx).unwrap();
        assert!(rows.is_empty(), "no-op update produced {rows:?}");
    }

    /// A table that the path graph never reads yields no AK graph.
    #[test]
    fn unrelated_table_yields_none() {
        let (db, mut g, root) = setup();
        let ak = create_ak_graph(&mut g, root, "no_such_table", AkSide::Delta, &db).unwrap();
        assert!(ak.is_none());
    }

    /// The ∇ side runs over G_old and reads the ∇ transition source.
    #[test]
    fn nabla_side_uses_old_graph() {
        let (db, mut g, root) = setup();
        let old = TableSource::Base(TableEpoch::Old);
        let (old_root, _) = g.replace_source(root, "vendor", old);
        let ak = create_ak_graph(&mut g, old_root, "vendor", AkSide::Nabla, &db)
            .unwrap()
            .unwrap();

        // Delete Buy.com/P2: ∇ identifies "LCD 19" against the old state.
        let key = [Value::str("Buy.com"), Value::str("P2")];
        let old_row = db.table("vendor").unwrap().get(&key).unwrap().clone();
        db.delete_by_key("vendor", &key).unwrap();
        let trans = transitions("vendor", Event::Delete, vec![], vec![old_row]);
        let plan = Compiler::new(&g, &db).compile(ak.op).unwrap();
        let ctx = ExecContext::new(&db, Some(&trans));
        let rows = execute(&plan, &ctx).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::str("LCD 19"));
    }

    /// Product-side changes propagate through the left join input.
    #[test]
    fn product_update_side() {
        let (db, mut g, root) = setup();
        let ak = create_ak_graph(&mut g, root, "product", AkSide::Delta, &db)
            .unwrap()
            .unwrap();
        db.update_by_key("product", &[Value::str("P2")], &[(2, Value::str("LG"))])
            .unwrap();
        let trans = transitions(
            "product",
            Event::Update,
            vec![row([
                Value::str("P2"),
                Value::str("LCD 19"),
                Value::str("LG"),
            ])],
            vec![row([
                Value::str("P2"),
                Value::str("LCD 19"),
                Value::str("Samsung"),
            ])],
        );
        let plan = Compiler::new(&g, &db).compile(ak.op).unwrap();
        let ctx = ExecContext::new(&db, Some(&trans));
        let rows = execute(&plan, &ctx).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::str("LCD 19"));
    }
}
