//! Appendix F: injective views and XML-skeleton pruning.
//!
//! *Injectivity* (Definitions 9–11): a view is transitively injective with
//! respect to a base table `T` when every column of `T` flows into the
//! view output through injective constructors only (direct projection, XML
//! element construction, `aggXMLFrag`). For such views, pruned transition
//! tables guarantee no spurious UPDATE events, so the generated trigger can
//! skip the `OLD_NODE ≠ NEW_NODE` comparison (Theorem 3). The sufficient
//! conditions implemented here are those of §F.2.
//!
//! *Skeleton pruning* supports the §5.2 optimization of not computing what
//! the trigger does not need: when the condition touches only scalar
//! attributes of `OLD_NODE` and the action ignores it, the old side only
//! has to establish *qualification* (was the node in the old view?) and
//! key/attribute values. [`skeleton`] rebuilds a path graph with every
//! XML-constructing column and `aggXMLFrag` aggregate removed, keeping
//! keys, scalar attributes and the aggregates that feed predicates.

use std::collections::{BTreeSet, HashMap};

use quark_relational::expr::{AggFunc, Expr, ScalarFunc};
use quark_relational::{Database, Result};
use quark_xqgm::{KeyedGraph, OpId, OpKind, TableSource};

/// Outcome of tracing `table`'s columns up through the view.
#[derive(Debug, Clone, PartialEq)]
enum Image {
    /// Subtree does not read the table.
    Absent,
    /// The table's columns inject into these output columns.
    Cols(BTreeSet<usize>),
    /// Injectivity broken (column dropped or folded through a lossy
    /// aggregate).
    Broken,
}

/// Is the path graph under `root` transitively injective w.r.t. `table`
/// (§F.2's sufficient conditions)? `false` means UPDATE triggers for
/// `table` events must keep the explicit `OLD_NODE ≠ NEW_NODE` check.
pub fn is_injective(kg: &KeyedGraph, root: OpId, table: &str, db: &Database) -> Result<bool> {
    Ok(matches!(image(kg, root, table, db)?, Image::Cols(_)))
}

fn image(kg: &KeyedGraph, id: OpId, table: &str, db: &Database) -> Result<Image> {
    let op = kg.graph.op(id);
    Ok(match &op.kind {
        OpKind::Table {
            table: t,
            source: TableSource::Base(_),
        } if t == table => {
            let arity = db.table(t)?.schema().arity();
            Image::Cols((0..arity).collect())
        }
        OpKind::Table { .. } => Image::Absent,
        OpKind::Select { .. } => image(kg, op.inputs[0], table, db)?,
        OpKind::Project { exprs, .. } => match image(kg, op.inputs[0], table, db)? {
            Image::Absent => Image::Absent,
            Image::Broken => Image::Broken,
            Image::Cols(cols) => {
                let mut out = BTreeSet::new();
                for c in cols {
                    match exprs.iter().position(|e| carries_injectively(e, c)) {
                        Some(pos) => {
                            out.insert(pos);
                        }
                        None => return Ok(Image::Broken),
                    }
                }
                Image::Cols(out)
            }
        },
        OpKind::Join { kind, .. } => {
            let left_arity = kg.graph.arity(op.inputs[0], db)?;
            let li = image(kg, op.inputs[0], table, db)?;
            let ri = image(kg, op.inputs[1], table, db)?;
            if !kind.keeps_right() {
                // Semi/anti joins drop the right side entirely.
                return Ok(match ri {
                    Image::Absent => li,
                    _ => Image::Broken,
                });
            }
            match (li, ri) {
                (Image::Broken, _) | (_, Image::Broken) => Image::Broken,
                (Image::Absent, Image::Absent) => Image::Absent,
                (Image::Cols(l), Image::Absent) => Image::Cols(l),
                (Image::Absent, Image::Cols(r)) => {
                    Image::Cols(r.into_iter().map(|c| c + left_arity).collect())
                }
                (Image::Cols(l), Image::Cols(r)) => Image::Cols(
                    l.into_iter()
                        .chain(r.into_iter().map(|c| c + left_arity))
                        .collect(),
                ),
            }
        }
        OpKind::GroupBy {
            group_cols, aggs, ..
        } => {
            match image(kg, op.inputs[0], table, db)? {
                Image::Absent => Image::Absent,
                Image::Broken => Image::Broken,
                Image::Cols(cols) => {
                    let glen = group_cols.len();
                    let mut out = BTreeSet::new();
                    'cols: for c in cols {
                        if let Some(pos) = group_cols.iter().position(|&g| g == c) {
                            out.insert(pos);
                            continue;
                        }
                        // aggXMLFrag preserves its argument injectively
                        // (§F.2); every other aggregate is lossy.
                        for (i, a) in aggs.iter().enumerate() {
                            if a.func == AggFunc::XmlAgg {
                                if let Some(arg) = &a.arg {
                                    if carries_injectively(arg, c) {
                                        out.insert(glen + i);
                                        continue 'cols;
                                    }
                                }
                            }
                        }
                        return Ok(Image::Broken);
                    }
                    Image::Cols(out)
                }
            }
        }
        OpKind::Union => {
            // Duplicate elimination may merge tuples from different
            // branches; require every branch to inject at identical
            // positions (cf. proof case 4 of Lemma 3).
            let mut common: Option<BTreeSet<usize>> = None;
            for &i in &op.inputs {
                match image(kg, i, table, db)? {
                    Image::Absent => continue,
                    Image::Broken => return Ok(Image::Broken),
                    Image::Cols(c) => match &common {
                        None => common = Some(c),
                        Some(prev) if *prev == c => {}
                        Some(_) => return Ok(Image::Broken),
                    },
                }
            }
            common.map_or(Image::Absent, Image::Cols)
        }
        OpKind::Unnest { .. } => Image::Broken,
    })
}

/// Does `expr` carry input column `col` through injective constructors
/// only? Direct references qualify; so do XML element constructors, whose
/// output preserves every argument's value distinguishably.
fn carries_injectively(expr: &Expr, col: usize) -> bool {
    match expr {
        Expr::Col(c) => *c == col,
        Expr::Func(ScalarFunc::XmlElement { .. } | ScalarFunc::XmlWrap(_), args) => {
            args.iter().any(|a| carries_injectively(a, col))
        }
        _ => false,
    }
}

/// Column mapping from an original operator's outputs to its skeleton's
/// outputs (`None` = dropped XML column).
pub type SkeletonMap = Vec<Option<usize>>;

/// Rebuild the path graph under `root` with all XML construction removed:
/// keys, scalar columns and predicate-feeding aggregates survive; element
/// constructors and `aggXMLFrag` disappear. Returns `None` when a
/// predicate or join depends on a dropped column (the skeleton would
/// change semantics).
pub fn skeleton(
    kg: &mut KeyedGraph,
    root: OpId,
    db: &Database,
) -> Result<Option<(OpId, SkeletonMap)>> {
    let mut memo = HashMap::new();
    build(kg, root, db, &mut memo)
}

fn build(
    kg: &mut KeyedGraph,
    id: OpId,
    db: &Database,
    memo: &mut HashMap<OpId, Option<(OpId, SkeletonMap)>>,
) -> Result<Option<(OpId, SkeletonMap)>> {
    if let Some(hit) = memo.get(&id) {
        return Ok(hit.clone());
    }
    let op = kg.graph.op(id).clone();
    let result: Option<(OpId, SkeletonMap)> = match &op.kind {
        // Base tables carry no XML; share the operator.
        OpKind::Table { table, .. } => {
            let arity = db.table(table)?.schema().arity();
            Some((id, (0..arity).map(Some).collect()))
        }
        OpKind::Select { predicate } => match build(kg, op.inputs[0], db, memo)? {
            None => None,
            Some((input, map)) => remap(predicate, &map).map(|pred| (kg.select(input, pred), map)),
        },
        OpKind::Project { exprs, names } => match build(kg, op.inputs[0], db, memo)? {
            None => None,
            Some((input, map)) => {
                let mut out_exprs = Vec::new();
                let mut out_names = Vec::new();
                let mut out_map: SkeletonMap = Vec::with_capacity(exprs.len());
                for (e, n) in exprs.iter().zip(names) {
                    if contains_xml(e) {
                        out_map.push(None);
                        continue;
                    }
                    match remap(e, &map) {
                        None => out_map.push(None),
                        Some(re) => {
                            out_map.push(Some(out_exprs.len()));
                            out_exprs.push(re);
                            out_names.push(n.clone());
                        }
                    }
                }
                if out_exprs.is_empty() {
                    None
                } else {
                    Some((kg.project(input, out_exprs, out_names), out_map))
                }
            }
        },
        OpKind::Join { kind, predicate } => {
            let left_old_arity = kg.graph.arity(op.inputs[0], db)?;
            let Some((l, lm)) = build(kg, op.inputs[0], db, memo)? else {
                return Ok(None);
            };
            let Some((r, rm)) = build(kg, op.inputs[1], db, memo)? else {
                return Ok(None);
            };
            let left_new_arity = kg.graph.arity(l, db)?;
            let joint_map: SkeletonMap = lm
                .iter()
                .cloned()
                .chain(rm.iter().map(|m| m.map(|c| c + left_new_arity)))
                .collect();
            let pred = match predicate {
                None => None,
                Some(p) => {
                    let shifted: SkeletonMap = (0..left_old_arity)
                        .map(|c| lm.get(c).cloned().flatten())
                        .chain(rm.iter().map(|m| m.map(|c| c + left_new_arity)))
                        .collect();
                    match remap(p, &shifted) {
                        None => return Ok(None),
                        Some(p) => Some(p),
                    }
                }
            };
            let out_map = if kind.keeps_right() { joint_map } else { lm };
            Some((kg.join(*kind, l, r, pred, db)?, out_map))
        }
        OpKind::GroupBy {
            group_cols,
            aggs,
            agg_names,
        } => {
            match build(kg, op.inputs[0], db, memo)? {
                None => None,
                Some((input, map)) => {
                    let mut new_groups = Vec::with_capacity(group_cols.len());
                    for &g in group_cols {
                        match map.get(g).cloned().flatten() {
                            Some(ng) => new_groups.push(ng),
                            None => return Ok(None), // grouping on XML
                        }
                    }
                    let glen = group_cols.len();
                    let mut out_map: SkeletonMap = (0..glen).map(Some).collect();
                    let mut new_aggs = Vec::new();
                    for (a, n) in aggs.iter().zip(agg_names) {
                        if a.func == AggFunc::XmlAgg {
                            out_map.push(None);
                            continue;
                        }
                        let arg = match &a.arg {
                            None => None,
                            Some(e) => match remap(e, &map) {
                                None => return Ok(None),
                                Some(re) => Some(re),
                            },
                        };
                        out_map.push(Some(glen + new_aggs.len()));
                        new_aggs.push((
                            quark_relational::expr::AggExpr { func: a.func, arg },
                            n.clone(),
                        ));
                    }
                    Some((kg.group_by(input, new_groups, new_aggs), out_map))
                }
            }
        }
        OpKind::Union => {
            let mut inputs = Vec::new();
            let mut common: Option<SkeletonMap> = None;
            for &i in &op.inputs {
                let Some((ni, m)) = build(kg, i, db, memo)? else {
                    return Ok(None);
                };
                match &common {
                    None => common = Some(m),
                    Some(prev) if *prev == m => {}
                    Some(_) => return Ok(None),
                }
                inputs.push(ni);
            }
            let map = common.unwrap_or_default();
            Some((kg.union(inputs, db)?, map))
        }
        OpKind::Unnest { .. } => None,
    };
    memo.insert(id, result.clone());
    Ok(result)
}

fn contains_xml(e: &Expr) -> bool {
    match e {
        Expr::Func(
            ScalarFunc::XmlElement { .. }
            | ScalarFunc::XmlWrap(_)
            | ScalarFunc::XmlAttr(_)
            | ScalarFunc::XmlChildren(_)
            | ScalarFunc::XmlDescendants(_)
            | ScalarFunc::XmlString,
            _,
        ) => true,
        Expr::Func(_, args) => args.iter().any(contains_xml),
        Expr::Binary { left, right, .. } => contains_xml(left) || contains_xml(right),
        Expr::Not(i) | Expr::IsNull(i) => contains_xml(i),
        Expr::Col(_) | Expr::Lit(_) => false,
    }
}

/// Rewrite column references through the skeleton map; `None` if the
/// expression uses a dropped column.
fn remap(e: &Expr, map: &SkeletonMap) -> Option<Expr> {
    let mut cols = Vec::new();
    e.columns(&mut cols);
    for c in &cols {
        map.get(*c).cloned().flatten()?;
    }
    Some(e.remap_columns(&|c| map[c].expect("checked above")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quark_xqgm::fixtures::{catalog_path_graph, minprice_path_graph, product_vendor_db};
    use quark_xqgm::Graph;

    fn normalized(
        build_graph: impl Fn(&mut Graph) -> OpId,
    ) -> (quark_relational::Database, KeyedGraph, OpId) {
        let db = product_vendor_db();
        let mut g = Graph::new();
        let top = build_graph(&mut g);
        let (kg, root) = KeyedGraph::normalize(&g, top, &db).unwrap();
        (db, kg, root)
    }

    /// §F.1: the catalog view is injective w.r.t. vendor — every vendor
    /// column reaches the product node through element constructors and
    /// aggXMLFrag.
    #[test]
    fn catalog_view_injective_wrt_vendor() {
        let (db, kg, root) = normalized(|g| catalog_path_graph(g).0);
        assert!(is_injective(&kg, root, "vendor", &db).unwrap());
    }

    /// product.mfr never reaches the view output, so the view is *not*
    /// injective w.r.t. product: an mfr-only update must not be reported,
    /// which forces the explicit OLD ≠ NEW check for product events.
    #[test]
    fn catalog_view_not_injective_wrt_product() {
        let (db, kg, root) = normalized(|g| catalog_path_graph(g).0);
        assert!(!is_injective(&kg, root, "product", &db).unwrap());
    }

    /// The Appendix E.1 min-price view folds prices through min():
    /// not injective w.r.t. vendor.
    #[test]
    fn minprice_view_not_injective_wrt_vendor() {
        let (db, kg, root) = normalized(minprice_path_graph);
        assert!(!is_injective(&kg, root, "vendor", &db).unwrap());
    }

    /// Skeleton pruning keeps keys and counts, drops XML construction, and
    /// evaluates to the same qualification rows.
    #[test]
    fn skeleton_preserves_qualification() {
        let (db, mut kg, root) = normalized(|g| catalog_path_graph(g).0);
        let (skel_root, map) = skeleton(&mut kg, root, &db).unwrap().expect("prunable");
        // pname (col 0) survives; the product element (col 1) is dropped.
        assert_eq!(map[0], Some(0));
        assert_eq!(map[1], None);

        let full = quark_xqgm::eval::evaluate(&kg.graph, root, &db).unwrap();
        let skel = quark_xqgm::eval::evaluate(&kg.graph, skel_root, &db).unwrap();
        assert_eq!(full.len(), skel.len());
        let mut full_names: Vec<String> = full.iter().map(|r| r[0].to_string()).collect();
        let mut skel_names: Vec<String> = skel.iter().map(|r| r[0].to_string()).collect();
        full_names.sort();
        skel_names.sort();
        assert_eq!(full_names, skel_names);
        // No XML values anywhere in the skeleton output.
        assert!(skel.iter().all(|r| r
            .iter()
            .all(|v| !matches!(v, quark_relational::Value::Xml(_)))));
    }

    /// The min-price skeleton keeps the min aggregate (it feeds no XML) —
    /// pruning succeeds and keeps both aggregates.
    #[test]
    fn minprice_skeleton_keeps_scalar_aggregates() {
        let (db, mut kg, root) = normalized(minprice_path_graph);
        let (skel_root, _) = skeleton(&mut kg, root, &db).unwrap().expect("prunable");
        let rows = quark_xqgm::eval::evaluate(&kg.graph, skel_root, &db).unwrap();
        assert_eq!(rows.len(), 2); // groups "CRT 15" and "LCD 19"
    }
}
