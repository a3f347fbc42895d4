//! Appendix F: injective views and XML-skeleton pruning.
//!
//! *Injectivity* (Definitions 9–11): a view is transitively injective with
//! respect to a base table `T` when every column of `T` flows into the
//! view output through injective constructors only (direct projection, XML
//! element construction, `aggXMLFrag`). For such views, pruned transition
//! tables guarantee no spurious UPDATE events, so the generated trigger can
//! skip the `OLD_NODE ≠ NEW_NODE` comparison (Theorem 3). The sufficient
//! conditions implemented here are those of §F.2. The trace keeps, per
//! table column, the *set* of output columns carrying it (its carriers): a
//! column projected both bare and inside an element survives a group-by
//! that keeps only the element's `aggXMLFrag`, as every leaf column of the
//! §6.1 benchmark hierarchy does.
//!
//! *Skeleton pruning* supports the §5.2 optimization of not computing what
//! the trigger does not need: when the condition touches only scalar
//! attributes of `OLD_NODE` and the action ignores it, the old side only
//! has to establish *qualification* (was the node in the old view?) and
//! key/attribute values. The same holds for an INSERT's OLD and a
//! DELETE's NEW side, which are only anti-join partners, and for the
//! affected-key graphs, which need only keys. [`skeleton`] rebuilds a path
//! graph with every XML-constructing column and `aggXMLFrag` aggregate
//! removed, keeping keys, scalar attributes and the aggregates that feed
//! predicates. It keeps every scalar expression, read or not, so a firing
//! evaluates the view's scalar columns as `MATERIALIZE` does: one that
//! fails (a division by zero) fails the firing too.

use std::collections::{BTreeSet, HashMap};

use quark_relational::expr::{AggFunc, Expr, ScalarFunc};
use quark_relational::{Database, Result};
use quark_xqgm::{Graph, OpId, OpKind, TableSource};

/// Outcome of tracing `table`'s columns up through the view.
#[derive(Debug, Clone, PartialEq)]
enum Image {
    /// Subtree does not read the table.
    Absent,
    /// Per table column, its *carriers*: every output column that holds it
    /// injectively (never empty). A column reached both bare and inside an
    /// element keeps both, so an operator that drops one of them does not
    /// lose it. A self-join appends the right side's copies as entries of
    /// their own, so each copy needs a carrier.
    Cols(Vec<BTreeSet<usize>>),
    /// Injectivity broken (a column lost its last carrier, or was folded
    /// through a lossy aggregate).
    Broken,
}

/// Is the path graph under `root` transitively injective w.r.t. `table`
/// (§F.2's sufficient conditions)? `false` means UPDATE triggers for
/// `table` events must keep the explicit `OLD_NODE ≠ NEW_NODE` check.
pub fn is_injective(g: &Graph, root: OpId, table: &str, db: &Database) -> Result<bool> {
    Ok(matches!(image(g, root, table, db)?, Image::Cols(_)))
}

/// Carry every tracked column through one operator: `out` maps a column's
/// input carriers to its output carriers. Broken once a column has none.
fn survive(
    carriers: Vec<BTreeSet<usize>>,
    out: impl Fn(&BTreeSet<usize>) -> BTreeSet<usize>,
) -> Image {
    let next: Vec<BTreeSet<usize>> = carriers.iter().map(out).collect();
    if next.iter().any(BTreeSet::is_empty) {
        Image::Broken
    } else {
        Image::Cols(next)
    }
}

fn image(g: &Graph, id: OpId, table: &str, db: &Database) -> Result<Image> {
    let op = g.op(id);
    let input = |i: usize| image(g, op.inputs[i], table, db);
    let carried = |e: &Expr, cs: &BTreeSet<usize>| cs.iter().any(|&c| carries_injectively(e, c));
    Ok(match &op.kind {
        OpKind::Table {
            table: t,
            source: TableSource::Base(_),
        } if t == table => {
            let arity = db.table(t)?.schema().arity();
            Image::Cols((0..arity).map(|c| BTreeSet::from([c])).collect())
        }
        OpKind::Table { .. } => Image::Absent,
        OpKind::Select { .. } => input(0)?,
        OpKind::Project { exprs, .. } => match input(0)? {
            Image::Cols(cols) => survive(cols, |cs| {
                (0..exprs.len())
                    .filter(|&p| carried(&exprs[p], cs))
                    .collect()
            }),
            other => other,
        },
        OpKind::Join { kind, .. } => {
            let left_arity = g.arity(op.inputs[0], db)?;
            let shift = |r: Vec<BTreeSet<usize>>| -> Vec<BTreeSet<usize>> {
                r.into_iter()
                    .map(|cs| cs.into_iter().map(|c| c + left_arity).collect())
                    .collect()
            };
            match (input(0)?, input(1)?) {
                // Semi/anti joins drop the right side entirely.
                (li, Image::Absent) => li,
                _ if !kind.keeps_right() => Image::Broken,
                (Image::Broken, _) | (_, Image::Broken) => Image::Broken,
                (Image::Absent, Image::Cols(r)) => Image::Cols(shift(r)),
                // A self-join: the two sides come from different rows, so
                // each side's copy of a column needs its own carrier.
                (Image::Cols(l), Image::Cols(r)) => {
                    Image::Cols(l.into_iter().chain(shift(r)).collect())
                }
            }
        }
        OpKind::GroupBy {
            group_cols, aggs, ..
        } => match input(0)? {
            // A grouping column survives at its group position; aggXMLFrag
            // preserves its argument injectively (§F.2); every other
            // aggregate is lossy.
            Image::Cols(cols) => survive(cols, |cs| {
                let groups = (0..group_cols.len()).filter(|&p| cs.contains(&group_cols[p]));
                let frags = aggs.iter().enumerate().filter_map(|(i, a)| match &a.arg {
                    Some(arg) if a.func == AggFunc::XmlAgg && carried(arg, cs) => {
                        Some(group_cols.len() + i)
                    }
                    _ => None,
                });
                groups.chain(frags).collect()
            }),
            other => other,
        },
        OpKind::Union => {
            // Duplicate elimination may merge tuples from different
            // branches; require every branch to inject at identical
            // positions (cf. proof case 4 of Lemma 3).
            let mut common: Option<Vec<BTreeSet<usize>>> = None;
            for &i in &op.inputs {
                match image(g, i, table, db)? {
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
pub fn skeleton(g: &mut Graph, root: OpId, db: &Database) -> Result<Option<(OpId, SkeletonMap)>> {
    let mut memo = HashMap::new();
    build(g, root, db, &mut memo)
}

fn build(
    g: &mut Graph,
    id: OpId,
    db: &Database,
    memo: &mut HashMap<OpId, Option<(OpId, SkeletonMap)>>,
) -> Result<Option<(OpId, SkeletonMap)>> {
    if let Some(hit) = memo.get(&id) {
        return Ok(hit.clone());
    }
    let op = g.op(id).clone();
    let result: Option<(OpId, SkeletonMap)> = match &op.kind {
        // Base tables carry no XML; share the operator.
        OpKind::Table { table, .. } => {
            let arity = db.table(table)?.schema().arity();
            Some((id, (0..arity).map(Some).collect()))
        }
        OpKind::Select { predicate } => match build(g, op.inputs[0], db, memo)? {
            None => None,
            Some((input, map)) => remap(predicate, &map).map(|pred| (g.select(input, pred), map)),
        },
        OpKind::Project { exprs, names } => match build(g, op.inputs[0], db, memo)? {
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
                    Some((g.project(input, out_exprs, out_names), out_map))
                }
            }
        },
        OpKind::Join { kind, predicate } => {
            let left_old_arity = g.arity(op.inputs[0], db)?;
            let Some((l, lm)) = build(g, op.inputs[0], db, memo)? else {
                return Ok(None);
            };
            let Some((r, rm)) = build(g, op.inputs[1], db, memo)? else {
                return Ok(None);
            };
            let left_new_arity = g.arity(l, db)?;
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
            Some((g.join(*kind, l, r, pred), out_map))
        }
        OpKind::GroupBy {
            group_cols,
            aggs,
            agg_names,
        } => {
            match build(g, op.inputs[0], db, memo)? {
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
                    Some((g.group_by(input, new_groups, new_aggs), out_map))
                }
            }
        }
        OpKind::Union => {
            let mut inputs = Vec::new();
            let mut common: Option<SkeletonMap> = None;
            for &i in &op.inputs {
                let Some((ni, m)) = build(g, i, db, memo)? else {
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
            Some((g.union(inputs), map))
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
            | ScalarFunc::XmlDescendants(_),
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
pub(crate) mod tests {
    use super::*;
    use quark_xqgm::fixtures::{catalog_path_graph, minprice_path_graph, product_vendor_db};

    fn normalized(
        build_graph: impl Fn(&mut Graph) -> OpId,
    ) -> (quark_relational::Database, Graph, OpId) {
        let db = product_vendor_db();
        let mut g = Graph::new();
        let top = build_graph(&mut g);
        let (ng, root) = quark_xqgm::normalize(&g, top, &db).unwrap();
        (db, ng, root)
    }

    /// The §6.1 benchmark hierarchy `t0 ← t1 ← … ← t{levels-1}` (`t0(id,
    /// name, price)`, `ti(id, parent, name, price)`) behind the chain view
    /// the XQuery crate's row-bound view trees build: per level `[id,
    /// parent?, e{i}, attr_name]`, `e{i}` carrying the `name` attribute and
    /// its children's `aggXMLFrag`, the leaf element wrapping every leaf
    /// column, and `count ≥ 2` on the leaf's parent. The path graph's
    /// output is `[id, e0, attr_name]`.
    pub(crate) fn chain_view(levels: usize) -> (Database, Graph, OpId) {
        use quark_relational::expr::{AggExpr, BinOp};
        use quark_relational::{ColumnDef, ColumnType, TableSchema};
        use quark_xqgm::JoinKind;

        fn level(g: &mut Graph, i: usize, levels: usize) -> OpId {
            let columns: &[&str] = if i == 0 {
                &["id", "name", "price"]
            } else {
                &["id", "parent", "name", "price"]
            };
            let arity = columns.len();
            let base = g.table(format!("t{i}"));
            let (input, frag) = if i + 1 < levels {
                // Child level rows are [id, parent, e{i+1}, attr_name].
                let child = level(g, i + 1, levels);
                let agg = g.group_by(
                    child,
                    vec![1],
                    vec![
                        (
                            AggExpr::over(AggFunc::XmlAgg, Expr::col(2)),
                            "children".into(),
                        ),
                        (AggExpr::count_star(), "cnt".into()),
                    ],
                );
                let join = g.equi_join(JoinKind::Inner, base, agg, &[(0, 0)], arity);
                let input = if i + 2 == levels {
                    g.select(
                        join,
                        Expr::bin(BinOp::Ge, Expr::col(arity + 2), Expr::lit(2i64)),
                    )
                } else {
                    join
                };
                (input, Some(arity + 1))
            } else {
                (base, None)
            };
            let name = arity - 2;
            let mut args = vec![Expr::col(name)];
            if frag.is_none() {
                args.extend(columns.iter().enumerate().map(|(c, n)| {
                    Expr::Func(ScalarFunc::XmlWrap((*n).into()), vec![Expr::col(c)])
                }));
            }
            args.extend(frag.map(Expr::col));
            let element = ScalarFunc::XmlElement {
                name: format!("e{i}"),
                attrs: vec!["name".into()],
            };
            let mut exprs = vec![Expr::col(0)];
            exprs.extend((i > 0).then(|| Expr::col(1)));
            exprs.push(Expr::Func(element, args));
            exprs.push(Expr::col(name));
            let names = (0..exprs.len()).map(|c| format!("c{c}")).collect();
            g.project(input, exprs, names)
        }

        let mut db = Database::new();
        for i in 0..levels {
            let mut columns = vec![ColumnDef::new("id", ColumnType::Int)];
            if i > 0 {
                columns.push(ColumnDef::new("parent", ColumnType::Int));
            }
            columns.push(ColumnDef::new("name", ColumnType::Str));
            columns.push(ColumnDef::new("price", ColumnType::Double));
            let schema = TableSchema::new(format!("t{i}"), columns, &["id"]).unwrap();
            db.create_table(schema).unwrap();
        }
        let mut g = Graph::new();
        let top = level(&mut g, 0, levels);
        let (ng, root) = quark_xqgm::normalize(&g, top, &db).unwrap();
        (db, ng, root)
    }

    /// The benchmark view is injective w.r.t. its leaf table at every depth
    /// — each leaf column reaches `e0` inside the leaf element, although the
    /// leaf's group-by drops its bare `id` — and not w.r.t. the upper
    /// tables, whose `price` never reaches the view.
    #[test]
    fn chain_view_injective_wrt_leaf_only() {
        for levels in 2..=4 {
            let (db, ng, root) = chain_view(levels);
            for i in 0..levels {
                let leaf = i == levels - 1;
                let injective = is_injective(&ng, root, &format!("t{i}"), &db).unwrap();
                assert_eq!(injective, leaf, "depth {levels}, t{i}");
            }
        }
    }

    /// A column projected both bare and inside an element survives a
    /// group-by that keeps only the element's `aggXMLFrag`: one carrier is
    /// enough.
    #[test]
    fn column_survives_through_its_element_when_the_bare_copy_drops() {
        let (db, ng, root) = normalized(|g| {
            let vendor = g.table("vendor"); // vid, pid, price
            let el = Expr::Func(
                ScalarFunc::XmlElement {
                    name: "vendor".into(),
                    attrs: vec![],
                },
                (0..3).map(Expr::col).collect(),
            );
            let p = g.project(
                vendor,
                vec![Expr::col(1), Expr::col(0), el],
                vec!["pid".into(), "vid".into(), "vendor".into()],
            );
            g.group_by(
                p,
                vec![0],
                vec![(
                    quark_relational::expr::AggExpr::over(AggFunc::XmlAgg, Expr::col(2)),
                    "vendors".into(),
                )],
            )
        });
        assert!(is_injective(&ng, root, "vendor", &db).unwrap());
    }

    /// `vendor v1 JOIN vendor v2 ON v1.pid = v2.pid`: the two sides are
    /// different rows, so each side's columns need a carrier of their own.
    /// Projecting only v1's element is not injective (a v2-only update
    /// leaves the output unchanged); projecting both elements is.
    #[test]
    fn self_join_needs_a_carrier_per_side() {
        let self_join = |sides: &'static [usize]| {
            normalized(move |g| {
                let v1 = g.table("vendor"); // vid, pid, price
                let v2 = g.table("vendor");
                let j = g.equi_join(quark_xqgm::JoinKind::Inner, v1, v2, &[(1, 1)], 3);
                let mut exprs = vec![Expr::col(0)];
                let mut names = vec!["vid".to_string()];
                for &side in sides {
                    exprs.push(Expr::Func(
                        ScalarFunc::XmlElement {
                            name: "vendor".into(),
                            attrs: vec![],
                        },
                        (3 * side..3 * side + 3).map(Expr::col).collect(),
                    ));
                    names.push(format!("v{side}"));
                }
                g.project(j, exprs, names)
            })
        };
        let (db, ng, root) = self_join(&[0]);
        assert!(!is_injective(&ng, root, "vendor", &db).unwrap());
        let (db, ng, root) = self_join(&[0, 1]);
        assert!(is_injective(&ng, root, "vendor", &db).unwrap());
    }

    /// The chain view's skeleton keeps the key and the `name` attribute and
    /// drops the `e0` element.
    #[test]
    fn chain_skeleton_maps_key_and_attr() {
        let (db, mut ng, root) = chain_view(3);
        let (_, map) = skeleton(&mut ng, root, &db).unwrap().expect("prunable");
        assert_eq!(map[0], Some(0));
        assert_eq!(map[1], None);
        assert_eq!(map[2], Some(1));
    }

    /// §F.1: the catalog view is injective w.r.t. vendor — every vendor
    /// column reaches the product node through element constructors and
    /// aggXMLFrag.
    #[test]
    fn catalog_view_injective_wrt_vendor() {
        let (db, ng, root) = normalized(|g| catalog_path_graph(g).0);
        assert!(is_injective(&ng, root, "vendor", &db).unwrap());
    }

    /// product.mfr never reaches the view output, so the view is *not*
    /// injective w.r.t. product: an mfr-only update must not be reported,
    /// which forces the explicit OLD ≠ NEW check for product events.
    #[test]
    fn catalog_view_not_injective_wrt_product() {
        let (db, ng, root) = normalized(|g| catalog_path_graph(g).0);
        assert!(!is_injective(&ng, root, "product", &db).unwrap());
    }

    /// The Appendix E.1 min-price view folds prices through min():
    /// not injective w.r.t. vendor.
    #[test]
    fn minprice_view_not_injective_wrt_vendor() {
        let (db, ng, root) = normalized(minprice_path_graph);
        assert!(!is_injective(&ng, root, "vendor", &db).unwrap());
    }

    /// Skeleton pruning keeps keys and counts, drops XML construction, and
    /// evaluates to the same qualification rows.
    #[test]
    fn skeleton_preserves_qualification() {
        let (db, mut ng, root) = normalized(|g| catalog_path_graph(g).0);
        let (skel_root, map) = skeleton(&mut ng, root, &db).unwrap().expect("prunable");
        // pname (col 0) survives; the product element (col 1) is dropped.
        assert_eq!(map[0], Some(0));
        assert_eq!(map[1], None);

        let full = quark_xqgm::eval::evaluate(&ng, root, &db).unwrap();
        let skel = quark_xqgm::eval::evaluate(&ng, skel_root, &db).unwrap();
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
        let (db, mut ng, root) = normalized(minprice_path_graph);
        let (skel_root, _) = skeleton(&mut ng, root, &db).unwrap().expect("prunable");
        let rows = quark_xqgm::eval::evaluate(&ng, skel_root, &db).unwrap();
        assert_eq!(rows.len(), 2); // groups "CRT 15" and "LCD 19"
    }
}
