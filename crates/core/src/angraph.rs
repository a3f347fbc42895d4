//! `CreateANGraph` (Figure 12): assemble the plan that produces
//! `(OLD_NODE, NEW_NODE)` pairs for one `(table, statement)` source.
//!
//! Structure, following the paper:
//!
//! 1. affected keys from the Δ side over `G` and the ∇ side over `G_old`
//!    ([`crate::akgraph`]), normalized to the full canonical key and
//!    unioned (`Ou`). Only keys are read from them, so both run over the
//!    §5.2 skeleton and its `G_old` mirror whenever the skeleton keeps
//!    every key column: no element constructor or `aggXMLFrag` is built
//!    to be dropped (a view without such a skeleton uses the full graphs).
//!    A partial key (only one join input changed) is
//!    *completed* where it can be: a missing key column that the graph's
//!    own join or select predicates equate with a present one is copied
//!    from it (Definition 1's "derivable" columns), so the branch stays
//!    `Distinct(Project(AK))`. Only a key no equality determines is joined
//!    back with the path graph to read the missing columns;
//! 2. `O_new = Ou ⋈ G` and `O_old = Ou ⋈ G_old`, compiled *restricted* so
//!    the join on affected keys is pushed down to index probes (§5.2);
//! 3. the event-specific join: inner for UPDATE (both nodes exist), left
//!    anti for INSERT (new only), right anti for DELETE (old only);
//! 4. for UPDATE, the `OLD_NODE ≠ NEW_NODE` guard — elided when the view
//!    is injective w.r.t. the table and transition tables are pruned
//!    (Theorem 3, Appendix F).
//!
//! Two §5.2 cost optimizations apply per side: a side whose constructed
//! node is not needed (condition touches only mapped attributes, action
//! ignores it), and an anti-join partner (INSERT's OLD and DELETE's NEW
//! side, which only establishes qualification), evaluates the *skeleton*
//! graph instead, and — in
//! GROUPED-AGG mode — old-epoch group-bys over the skeleton are replaced
//! by `old = new ∓ transition` compensation instead of re-aggregating the
//! old children. Compensation needs the group-by's input to be linear in
//! the table (every input row from exactly one table row); a group-by above
//! a nested aggregate and its `count ≥ 2` selection is re-aggregated.

use std::collections::HashMap;

use quark_relational::expr::{AggFunc, BinOp, Expr};
use quark_relational::plan::{JoinKind, PhysicalPlan, PlanOp, PlanRef, TableEpoch};
use quark_relational::{ColumnType, Database, Result, Value};
use quark_xqgm::{AggCompensation, Compiler, Driver, Graph, OpId, OpKind, TableSource};

use crate::akgraph::{create_ak_graph, AkResult, AkSide};
use crate::inject::{is_injective, skeleton, SkeletonMap};
use crate::spec::{PathGraph, XmlEvent};
use crate::system::Mode;

/// The source `G_old` reads a table from: its state before the firing
/// statement.
const OLD: TableSource = TableSource::Base(TableEpoch::Old);

/// What each side of the affected-node pair must supply.
#[derive(Debug, Clone, Copy, Default)]
pub struct SideNeeds {
    /// The constructed XML node value is required (action parameter or a
    /// condition path into node content).
    pub node: bool,
}

/// Requirements for both sides.
#[derive(Debug, Clone, Copy, Default)]
pub struct Needs {
    /// OLD side requirements.
    pub old: SideNeeds,
    /// NEW side requirements.
    pub new: SideNeeds,
}

/// Column layout of the affected-node plan output.
#[derive(Debug, Clone, Default)]
pub struct AffectedLayout {
    /// Number of leading canonical-key columns.
    pub key_len: usize,
    /// Column with `OLD_NODE` (NULL for INSERT events / skeleton sides).
    pub old_node: Option<usize>,
    /// Column with `NEW_NODE`.
    pub new_node: Option<usize>,
    /// Scalar OLD attribute columns.
    pub old_attrs: HashMap<String, usize>,
    /// Scalar NEW attribute columns.
    pub new_attrs: HashMap<String, usize>,
}

/// The affected-node plan for one `(table, relational event)` pair.
#[derive(Debug, Clone)]
pub struct AffectedNodePlan {
    /// Plan producing one row per affected node, in [`AffectedLayout`]
    /// layout, when executed with the firing statement's transitions.
    pub plan: PlanRef,
    /// Output layout.
    pub layout: AffectedLayout,
}

/// One side (old or new) of the affected computation.
struct SidePlan {
    plan: PlanRef,
    arity: usize,
    key_cols: Vec<usize>,
    node_col: Option<usize>,
    attr_cols: HashMap<String, usize>,
}

/// Build the affected-node plan under translation mode `mode`: only
/// [`Mode::GroupedAgg`] changes it, by compensating old aggregates.
/// Returns `None` when `table` cannot affect the path graph at all.
pub fn build_affected(
    pg: &mut PathGraph,
    table: &str,
    event: XmlEvent,
    needs: Needs,
    mode: Mode,
    db: &Database,
) -> Result<Option<AffectedNodePlan>> {
    let root = pg.root;
    let key = pg.key(db)?.to_vec();

    // ---------- Phase A: graph construction ----------
    let injective = is_injective(&pg.graph, root, table, db)?;
    // A side whose node nobody reads may be a skeleton. For UPDATE that is
    // only sound when the injective shortcut removes the value comparison;
    // an anti-join partner (INSERT's OLD, DELETE's NEW side) reads only
    // keys, whatever the trigger reads.
    let may_skel = |side: SideNeeds, partner: bool| {
        partner || !side.node && (event != XmlEvent::Update || injective)
    };
    let may_skel_old = may_skel(needs.old, event == XmlEvent::Insert);
    let may_skel_new = may_skel(needs.new, event == XmlEvent::Delete);

    let skel = skeleton(&mut pg.graph, root, db)?;
    let old_root = pg.graph.replace_source(root, table, OLD).0;
    // The skeleton's `G_old` mirror and its operator map; the mirror keeps
    // the skeleton's column map.
    let skel_old: Option<(OpId, HashMap<OpId, OpId>)> = skel
        .as_ref()
        .map(|(skel_root, _)| pg.graph.replace_source(*skel_root, table, OLD));

    let recipes = match &skel_old {
        Some((_, mirror)) if mode == Mode::GroupedAgg && (may_skel_old || may_skel_new) => {
            compensation_recipes(&mut pg.graph, mirror, table)
        }
        _ => Vec::new(),
    };

    let (aks, ak_key) = key_graphs(&mut pg.graph, root, skel.as_ref(), &key, table, db)?;
    if aks.iter().all(Option::is_none) {
        return Ok(None);
    }

    // ---------- Phase B: plan assembly ----------
    let mut compiler = Compiler::new(&pg.graph, db);
    for (op, recipe) in recipes {
        compiler.add_compensation(op, recipe);
    }

    let mut key_branches: Vec<PlanRef> = Vec::new();
    for (ak, side_root) in aks.iter().flatten() {
        let completed = complete_key(&pg.graph, ak, *side_root, &ak_key, db)?;
        key_branches.push(full_key_plan(
            &mut compiler,
            ak,
            *side_root,
            &ak_key,
            completed.as_deref(),
        )?);
    }
    let union = PhysicalPlan::new(PlanOp::UnionAll, key_branches).into_ref();
    let ou = PhysicalPlan::new(PlanOp::Distinct, vec![union]).into_ref();
    let driver = Driver {
        plan: ou,
        cols: (0..key.len()).collect(),
    };

    let skel_side = |skel_root: Option<OpId>, may: bool| {
        skel_root
            .filter(|_| may)
            .zip(skel.as_ref().map(|(_, map)| map))
    };
    let new_skel = skel_side(skel.as_ref().map(|(r, _)| *r), may_skel_new);
    let old_skel = skel_side(skel_old.map(|(r, _)| r), may_skel_old);
    let new_side = build_side(&mut compiler, pg, root, new_skel, &key, &driver, db)?;
    let old_side = build_side(&mut compiler, pg, old_root, old_skel, &key, &driver, db)?;

    Ok(Some(assemble(event, new_side, old_side, &key, injective)))
}

/// The Δ and ∇ affected keys, each with the root it ran over (`None`: the
/// table cannot affect that side).
type KeyGraphs = [Option<(AkResult, OpId)>; 2];

/// `CreateAKGraph` (Fig. 8) for `table`: the Δ side over `root` and the ∇
/// side over its `G_old` mirror, each with the root it ran over, and `key`
/// renumbered for those roots. The affected keys are all it yields, so it
/// runs over the skeleton `skel` (§5.2) whenever that keeps every key
/// column: no element constructor or `aggXMLFrag` enters a key branch.
fn key_graphs(
    g: &mut Graph,
    root: OpId,
    skel: Option<&(OpId, SkeletonMap)>,
    key: &[usize],
    table: &str,
    db: &Database,
) -> Result<(KeyGraphs, Vec<usize>)> {
    let (root, key) = skel
        .and_then(|(skel_root, map)| Some((*skel_root, mapped(map, key)?)))
        .unwrap_or_else(|| (root, key.to_vec()));
    let old_root = g.replace_source(root, table, OLD).0;
    let mut sides = [None, None];
    for (slot, (side_root, side)) in sides
        .iter_mut()
        .zip([(root, AkSide::Delta), (old_root, AkSide::Nabla)])
    {
        *slot = create_ak_graph(g, side_root, table, side, db)?.map(|ak| (ak, side_root));
    }
    Ok((sides, key))
}

/// GROUPED-AGG compensation recipes (§5.2): pair each old-epoch group-by of
/// the skeleton (`mirror` maps the skeleton's operators to their `G_old`
/// mirrors, identity where `table` is not read) with its current-epoch
/// twin, so the old aggregates come out as `old = new − Δ + ∇` instead of
/// re-aggregating the old children. Only distributive aggregates qualify,
/// and only over an input linear in `table` ([`linear_in`]): the identity
/// needs every input row to stem from exactly one `table` row. Above a
/// nested group-by and its `count ≥ 2` selection it does not hold — a moved
/// leaf lifting a group over the threshold changes the input by more than
/// its own Δ/∇ rows, and the compensated old count would be wrong.
fn compensation_recipes(
    g: &mut Graph,
    mirror: &HashMap<OpId, OpId>,
    table: &str,
) -> Vec<(OpId, AggCompensation)> {
    let reads = |id: OpId| mirror.get(&id).is_some_and(|&old| old != id);
    let mut recipes = Vec::new();
    for (&gb_new, &gb_old) in mirror {
        if gb_new == gb_old {
            continue;
        }
        let op = g.op(gb_new).clone();
        let OpKind::GroupBy { aggs, .. } = &op.kind else {
            continue;
        };
        let distributive = aggs.iter().all(|a| {
            matches!(a.func, AggFunc::CountStar) || (a.func == AggFunc::Sum && a.arg.is_some())
        });
        if !distributive || !linear_in(g, op.inputs[0], table, &reads) {
            continue;
        }
        let existence_agg = aggs
            .iter()
            .position(|a| matches!(a.func, AggFunc::CountStar));
        let input = op.inputs[0];
        let (delta_input, _) = g.replace_source(input, table, TableSource::Delta { pruned: true });
        let (nabla_input, _) = g.replace_source(input, table, TableSource::Nabla { pruned: true });
        recipes.push((
            gb_old,
            AggCompensation {
                new_op: gb_new,
                delta_input,
                nabla_input,
                existence_agg,
            },
        ));
    }
    recipes
}

/// Does every row of `id` stem from exactly one `table` row, reached through
/// Select, Project and inner joins whose other side does not read `table`
/// (`reads`)? Then `id` over `B_old` is `id` over `B`, minus `id` over `ΔB`,
/// plus `id` over `∇B`, row for row.
fn linear_in(g: &Graph, id: OpId, table: &str, reads: &dyn Fn(OpId) -> bool) -> bool {
    let op = g.op(id);
    match &op.kind {
        OpKind::Table { table: t, .. } => t == table,
        OpKind::Select { .. } | OpKind::Project { .. } => linear_in(g, op.inputs[0], table, reads),
        OpKind::Join {
            kind: JoinKind::Inner,
            ..
        } => match (reads(op.inputs[0]), reads(op.inputs[1])) {
            (true, false) => linear_in(g, op.inputs[0], table, reads),
            (false, true) => linear_in(g, op.inputs[1], table, reads),
            _ => false,
        },
        _ => false,
    }
}

/// Normalize an affected-keys result to a plan producing distinct full
/// canonical-key rows of the path root: the affected-keys columns
/// `completed` names, one per key column ([`complete_key`]), or else the
/// partial keys joined back with the path graph.
fn full_key_plan(
    compiler: &mut Compiler<'_>,
    ak: &AkResult,
    root: OpId,
    key: &[usize],
    completed: Option<&[usize]>,
) -> Result<PlanRef> {
    let ak_plan = compiler.compile(ak.op)?;
    if let Some(cols) = completed {
        return Ok(distinct_cols(ak_plan, cols));
    }
    // Join back with the path graph (restricted by the partial keys) and
    // project the full key.
    let driver = Driver {
        plan: distinct_cols(ak_plan, &ak.cols_in_ak),
        cols: (0..ak.cols_in_ak.len()).collect(),
    };
    let restricted = compiler.compile_restricted(root, &ak.cols_in_o, &driver)?;
    Ok(distinct_cols(restricted, key))
}

/// The affected-keys columns that spell out `root`'s full canonical key, in
/// key order, or `None` when the partial key must be joined back. A key
/// column the result lacks is read from one it has that every `root` row
/// holds equal ([`equal_cols`]); then `O ⋈ AK′` on the full key is
/// `O ⋈ AK` on the partial one. `AK′` may hold a key no `root` row has
/// (a group whose parent row is missing), which the restricted `O_new` /
/// `O_old` joins drop. Every affected-keys column must be read, or the
/// completed key would restrict less than the partial one.
///
/// Type guard: the two columns must trace to base-table columns of one
/// declared type, or of two numeric ones. Joins match by [`Value`]
/// equality, under which a string never equals a number, while a
/// predicate's SQL comparison may parse one into the other.
fn complete_key(
    graph: &Graph,
    ak: &AkResult,
    root: OpId,
    key: &[usize],
    db: &Database,
) -> Result<Option<Vec<usize>>> {
    if ak.cols_in_o == key {
        return Ok(Some(ak.cols_in_ak.clone()));
    }
    let classes = equal_cols(graph, root, db)?;
    let mut read = vec![false; ak.cols_in_o.len()];
    let mut picked = Vec::with_capacity(key.len());
    let equal = |c: usize, k: usize| {
        classes[c] == classes[k]
            && comparable(base_type(graph, root, c, db), base_type(graph, root, k, db))
    };
    for &k in key {
        let cols = &ak.cols_in_o;
        let found = cols.iter().position(|&c| c == k);
        let Some(i) = found.or_else(|| cols.iter().position(|&c| equal(c, k))) else {
            return Ok(None);
        };
        read[i] = true;
        picked.push(ak.cols_in_ak[i]);
    }
    Ok(read.iter().all(|&r| r).then_some(picked))
}

/// Per output column of `id`, a label shared by every column each row holds
/// equal: `Col = Col` conjuncts of select and inner-join predicates, carried
/// up through Select, Project and inner Join. Other operators start every
/// column in a class of its own.
fn equal_cols(graph: &Graph, id: OpId, db: &Database) -> Result<Vec<usize>> {
    let op = graph.op(id);
    let mut classes: Vec<usize> = (0..graph.arity(id, db)?).collect();
    match &op.kind {
        OpKind::Select { predicate } => {
            classes = equal_cols(graph, op.inputs[0], db)?;
            merge_equalities(&mut classes, predicate);
        }
        OpKind::Project { exprs, .. } => {
            let input = equal_cols(graph, op.inputs[0], db)?;
            let class_of = |e: &Expr| match e {
                Expr::Col(c) => Some(input[*c]),
                _ => None,
            };
            // Label each class by its first output position.
            for (p, e) in exprs.iter().enumerate() {
                if let Some(class) = class_of(e) {
                    classes[p] = exprs
                        .iter()
                        .position(|f| class_of(f) == Some(class))
                        .expect("position p itself is in the class");
                }
            }
        }
        OpKind::Join {
            kind: JoinKind::Inner,
            predicate,
        } => {
            let left = equal_cols(graph, op.inputs[0], db)?;
            let shift = left.len();
            let right = equal_cols(graph, op.inputs[1], db)?;
            classes = left
                .into_iter()
                .chain(right.into_iter().map(|c| c + shift))
                .collect();
            if let Some(p) = predicate {
                merge_equalities(&mut classes, p);
            }
        }
        _ => {}
    }
    Ok(classes)
}

/// Merge the classes of the columns each `Col = Col` conjunct of `e` equates.
fn merge_equalities(classes: &mut [usize], e: &Expr) {
    let Expr::Binary { op, left, right } = e else {
        return;
    };
    match (op, left.as_ref(), right.as_ref()) {
        (BinOp::And, _, _) => {
            merge_equalities(classes, left);
            merge_equalities(classes, right);
        }
        (BinOp::Eq, Expr::Col(a), Expr::Col(b)) => {
            let (keep, gone) = (classes[*a], classes[*b]);
            for class in classes.iter_mut().filter(|c| **c == gone) {
                *class = keep;
            }
        }
        _ => {}
    }
}

/// The declared type of the base-table column that output column `col` of
/// `id` copies, if it copies one.
fn base_type(graph: &Graph, id: OpId, col: usize, db: &Database) -> Option<ColumnType> {
    let op = graph.op(id);
    match &op.kind {
        OpKind::Table { table, .. } => {
            let table = db.table(table).ok()?;
            Some(table.schema().columns.get(col)?.ty)
        }
        OpKind::Select { .. } => base_type(graph, op.inputs[0], col, db),
        OpKind::Project { exprs, .. } => match exprs.get(col)? {
            Expr::Col(c) => base_type(graph, op.inputs[0], *c, db),
            _ => None,
        },
        OpKind::Join { kind, .. } => {
            let left_arity = graph.arity(op.inputs[0], db).ok()?;
            match col.checked_sub(left_arity) {
                None => base_type(graph, op.inputs[0], col, db),
                Some(c) if kind.keeps_right() => base_type(graph, op.inputs[1], c, db),
                Some(_) => None,
            }
        }
        OpKind::GroupBy { group_cols, .. } => {
            base_type(graph, op.inputs[0], *group_cols.get(col)?, db)
        }
        OpKind::Union | OpKind::Unnest { .. } => None,
    }
}

/// Do columns of these declared types compare alike under [`Value`]
/// equality and under SQL comparison?
fn comparable(a: Option<ColumnType>, b: Option<ColumnType>) -> bool {
    let numeric = |t| matches!(t, ColumnType::Int | ColumnType::Double);
    match (a, b) {
        (Some(a), Some(b)) => a == b || (numeric(a) && numeric(b)),
        _ => false,
    }
}

/// The distinct rows of `plan` projected onto `cols`.
fn distinct_cols(plan: PlanRef, cols: &[usize]) -> PlanRef {
    let exprs = cols.iter().map(|&c| Expr::col(c)).collect();
    let projected = PhysicalPlan::project(exprs, plan).into_ref();
    PhysicalPlan::new(PlanOp::Distinct, vec![projected]).into_ref()
}

/// One side restricted to the affected keys: over the skeleton when `skel`
/// is given and keeps every key and attribute column, else over the full
/// path graph `side_root`.
fn build_side(
    compiler: &mut Compiler<'_>,
    pg: &PathGraph,
    side_root: OpId,
    skel: Option<(OpId, &SkeletonMap)>,
    key: &[usize],
    driver: &Driver,
    db: &Database,
) -> Result<SidePlan> {
    let skeleton_side = skel.and_then(|(skel_root, map)| {
        let attrs: Option<HashMap<String, usize>> = (pg.attr_cols.iter())
            .map(|(a, &c)| Some((a.clone(), map.get(c).copied().flatten()?)))
            .collect();
        Some((skel_root, mapped(map, key)?, attrs?))
    });
    let (root, key_cols, node_col, attr_cols) = match skeleton_side {
        Some((skel_root, key_cols, attrs)) => (skel_root, key_cols, None, attrs),
        None => (
            side_root,
            key.to_vec(),
            Some(pg.node_col),
            pg.attr_cols.clone(),
        ),
    };
    let plan = compiler.compile_restricted(root, &key_cols, driver)?;
    let arity = plan.arity(db)?;
    Ok(SidePlan {
        plan,
        arity,
        key_cols,
        node_col,
        attr_cols,
    })
}

/// `cols` renumbered through a skeleton map, `None` if one was dropped.
fn mapped(map: &SkeletonMap, cols: &[usize]) -> Option<Vec<usize>> {
    cols.iter()
        .map(|&c| map.get(c).copied().flatten())
        .collect()
}

/// Event-specific join and final projection to [`AffectedLayout`].
fn assemble(
    event: XmlEvent,
    new_side: SidePlan,
    old_side: SidePlan,
    key: &[usize],
    skip_value_check: bool,
) -> AffectedNodePlan {
    let key_len = key.len();
    // The two sides hash-joined on their canonical keys.
    let join = |left: &SidePlan, right: &SidePlan, kind| {
        let keyed = |side: &SidePlan| side.key_cols.iter().map(|&c| Expr::col(c)).collect();
        let op = PlanOp::HashJoin {
            left_keys: keyed(left),
            right_keys: keyed(right),
            kind,
            filter: None,
        };
        PhysicalPlan::new(op, vec![left.plan.clone(), right.plan.clone()]).into_ref()
    };

    // Final layout: [key…, old_node, new_node, old attrs…, new attrs…].
    let mut layout = AffectedLayout {
        key_len,
        ..Default::default()
    };
    let mut attr_names: Vec<String> = old_side.attr_cols.keys().cloned().collect();
    attr_names.sort();
    let mut new_attr_names: Vec<String> = new_side.attr_cols.keys().cloned().collect();
    new_attr_names.sort();

    let (plan, old_base, new_base): (PlanRef, Option<usize>, Option<usize>) = match event {
        XmlEvent::Update => {
            let joined = join(&new_side, &old_side, JoinKind::Inner);
            let plan = match (skip_value_check, new_side.node_col, old_side.node_col) {
                (false, Some(nn), Some(on)) => {
                    let predicate = Expr::bin(
                        quark_relational::expr::BinOp::Ne,
                        Expr::col(nn),
                        Expr::col(new_side.arity + on),
                    );
                    PhysicalPlan::new(PlanOp::Filter { predicate }, vec![joined]).into_ref()
                }
                _ => joined,
            };
            (plan, Some(new_side.arity), Some(0))
        }
        XmlEvent::Insert => {
            let plan = join(&new_side, &old_side, JoinKind::LeftAnti);
            (plan, None, Some(0))
        }
        XmlEvent::Delete => {
            let plan = join(&old_side, &new_side, JoinKind::LeftAnti);
            (plan, Some(0), None)
        }
    };

    // Column accessors into the joined row.
    let old_col = |c: usize| old_base.map(|b| b + c);
    let new_col = |c: usize| new_base.map(|b| b + c);

    let mut exprs: Vec<Expr> = Vec::new();
    // Keys come from whichever side exists (prefer new).
    let key_src: Vec<usize> = match (new_base, old_base) {
        (Some(_), _) => new_side
            .key_cols
            .iter()
            .map(|&c| new_col(c).expect("new"))
            .collect(),
        (None, Some(_)) => old_side
            .key_cols
            .iter()
            .map(|&c| old_col(c).expect("old"))
            .collect(),
        (None, None) => unreachable!("one side always present"),
    };
    exprs.extend(key_src.into_iter().map(Expr::col));

    layout.old_node = match (old_base, old_side.node_col) {
        (Some(_), Some(nc)) => {
            exprs.push(Expr::col(old_col(nc).expect("old base")));
            Some(exprs.len() - 1)
        }
        _ => {
            exprs.push(Expr::lit(Value::Null));
            None
        }
    };
    layout.new_node = match (new_base, new_side.node_col) {
        (Some(_), Some(nc)) => {
            exprs.push(Expr::col(new_col(nc).expect("new base")));
            Some(exprs.len() - 1)
        }
        _ => {
            exprs.push(Expr::lit(Value::Null));
            None
        }
    };
    for a in &attr_names {
        if let (Some(_), Some(&c)) = (old_base, old_side.attr_cols.get(a)) {
            exprs.push(Expr::col(old_col(c).expect("old base")));
            layout.old_attrs.insert(a.clone(), exprs.len() - 1);
        }
    }
    for a in &new_attr_names {
        if let (Some(_), Some(&c)) = (new_base, new_side.attr_cols.get(a)) {
            exprs.push(Expr::col(new_col(c).expect("new base")));
            layout.new_attrs.insert(a.clone(), exprs.len() - 1);
        }
    }

    let projected = PhysicalPlan::project(exprs, plan).into_ref();
    AffectedNodePlan {
        plan: projected,
        layout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::tests::chain_view;

    /// GROUPED-AGG compensates the chain view's leaf-level group-by, whose
    /// input is the leaf table through a projection, and not the top-level
    /// one, whose input reaches the leaf table through the nested group-by
    /// and its `count ≥ 2` selection.
    #[test]
    fn compensation_stops_at_nested_aggregates() {
        let (db, mut ng, root) = chain_view(3);
        let (skel, _) = skeleton(&mut ng, root, &db).unwrap().expect("prunable");
        let (_, mirror) = ng.replace_source(skel, "t2", OLD);
        let is_group_by = |ng: &Graph, id: OpId| matches!(ng.op(id).kind, OpKind::GroupBy { .. });
        let mirrored = mirror
            .iter()
            .filter(|&(&new, &old)| new != old && is_group_by(&ng, new))
            .count();
        assert_eq!(mirrored, 2, "both group-bys read t2");

        let recipes = compensation_recipes(&mut ng, &mirror, "t2");
        let [(old_op, recipe)] = recipes.as_slice() else {
            panic!("expected one recipe, got {}", recipes.len());
        };
        assert_eq!(*old_op, mirror[&recipe.new_op]);
        let input = ng.op(recipe.new_op).inputs[0];
        assert!(matches!(ng.op(input).kind, OpKind::Project { .. }));
        let base = ng.op(input).inputs[0];
        assert!(
            matches!(&ng.op(base).kind, OpKind::Table { table, .. } if table == "t2"),
            "{:?}",
            ng.op(base).kind
        );
    }

    /// The Δ and ∇ key graphs of the chain and catalog views, for every
    /// table, construct no element and no `aggXMLFrag`: `CreateAKGraph`
    /// runs over the skeleton, not the view.
    #[test]
    fn key_graphs_construct_no_xml() {
        use quark_relational::expr::ScalarFunc;
        use quark_xqgm::fixtures::{catalog_path_graph, product_vendor_db};

        fn constructs(e: &Expr) -> bool {
            match e {
                Expr::Func(f, args) => {
                    matches!(f, ScalarFunc::XmlElement { .. } | ScalarFunc::XmlWrap(_))
                        || args.iter().any(constructs)
                }
                Expr::Binary { left, right, .. } => constructs(left) || constructs(right),
                Expr::Not(e) | Expr::IsNull(e) => constructs(e),
                Expr::Col(_) | Expr::Lit(_) => false,
            }
        }
        /// Every operator under `id` that builds XML.
        fn xml_ops(graph: &Graph, id: OpId, out: &mut Vec<OpId>) {
            let op = graph.op(id);
            let builds = match &op.kind {
                OpKind::Project { exprs, .. } => exprs.iter().any(constructs),
                OpKind::GroupBy { aggs, .. } => aggs.iter().any(|a| a.func == AggFunc::XmlAgg),
                _ => false,
            };
            if builds {
                out.push(id);
            }
            for &input in &op.inputs {
                xml_ops(graph, input, out);
            }
        }

        let catalog = {
            let db = product_vendor_db();
            let mut g = Graph::new();
            let (top, _) = catalog_path_graph(&mut g);
            let (ng, root) = quark_xqgm::normalize(&g, top, &db).unwrap();
            (db, ng, root)
        };
        for ((db, mut ng, root), tables) in [
            (chain_view(3), &["t0", "t1", "t2"][..]),
            (catalog, &["product", "vendor"][..]),
        ] {
            let mut full = Vec::new();
            xml_ops(&ng, root, &mut full);
            assert!(!full.is_empty(), "the view builds XML");
            let key = ng.key(root, &db).unwrap().to_vec();
            let skel = skeleton(&mut ng, root, &db).unwrap();
            for table in tables {
                let (aks, _) = key_graphs(&mut ng, root, skel.as_ref(), &key, table, &db).unwrap();
                assert!(
                    aks.iter().all(Option::is_some),
                    "{table} affects both sides"
                );
                for (ak, _) in aks.iter().flatten() {
                    let mut built = Vec::new();
                    xml_ops(&ng, ak.op, &mut built);
                    assert_eq!(built, [], "{table}");
                }
            }
        }
    }

    /// The affected keys of `table` over `root` (Δ) and over its `G_old`
    /// mirror (∇), each with the root it completes against.
    fn both_sides(ng: &mut Graph, root: OpId, table: &str, db: &Database) -> [(AkResult, OpId); 2] {
        let old_root = ng.replace_source(root, table, OLD).0;
        [(root, AkSide::Delta), (old_root, AkSide::Nabla)].map(|(side_root, side)| {
            let ak = create_ak_graph(ng, side_root, table, side, db)
                .unwrap()
                .expect("table affects the view");
            (ak, side_root)
        })
    }

    /// The depth-3 chain view's key is `[t0.id, parent]` of the top join. A
    /// leaf change reaches it through the top group-by as `parent` alone,
    /// and the join's `t0.id = parent` completes it on both key branches:
    /// one affected-keys column read twice, no join-back.
    #[test]
    fn chain_view_completes_both_key_branches() {
        let (db, mut ng, root) = chain_view(3);
        let key = ng.key(root, &db).unwrap().to_vec();
        assert_eq!(key.len(), 2, "{key:?}");
        for (ak, side_root) in both_sides(&mut ng, root, "t2", &db) {
            assert_eq!(ak.cols_in_o, [key[1]], "partial key");
            let completed = complete_key(&ng, &ak, side_root, &key, &db).unwrap();
            assert_eq!(completed, Some(vec![ak.cols_in_ak[0]; 2]));
        }
    }

    /// `top(id, grp, name) ⋈ GroupBy_parent(leaf(id, parent, name))` on
    /// `top.#on = parent` (`id` is 0, `grp` 1), with `leaf.parent` declared
    /// `parent_type`: what completion makes of a leaf change's affected keys.
    fn two_level(on: usize, parent_type: ColumnType) -> Option<Vec<usize>> {
        use quark_relational::expr::AggExpr;
        use quark_relational::{ColumnDef, TableSchema};

        let mut db = Database::new();
        let columns = |second: &str, ty| {
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new(second, ty),
                ColumnDef::new("name", ColumnType::Str),
            ]
        };
        for (table, second, ty) in [
            ("top", "grp", ColumnType::Int),
            ("leaf", "parent", parent_type),
        ] {
            let schema = TableSchema::new(table, columns(second, ty), &["id"]).unwrap();
            db.create_table(schema).unwrap();
        }
        let mut g = Graph::new();
        let (top, leaf) = (g.table("top"), g.table("leaf"));
        let groups = g.group_by(leaf, vec![1], vec![(AggExpr::count_star(), "cnt".into())]);
        let join = g.equi_join(JoinKind::Inner, top, groups, &[(on, 0)], 3);
        let (mut ng, root) = quark_xqgm::normalize(&g, join, &db).unwrap();
        let key = ng.key(root, &db).unwrap().to_vec();
        assert_eq!(key, [0, 3]);
        let completions = both_sides(&mut ng, root, "leaf", &db).map(|(ak, side_root)| {
            assert_eq!(ak.cols_in_o, [3], "partial key");
            complete_key(&ng, &ak, side_root, &key, &db).unwrap()
        });
        assert_eq!(completions[0], completions[1], "Δ and ∇ agree");
        let [completed, _] = completions;
        completed
    }

    /// Completion needs the equality to compare alike under `Value` and SQL
    /// equality: `Int = Int` completes, `Int = Str` keeps the join-back.
    #[test]
    fn mixed_type_equality_keeps_the_join_back() {
        assert_eq!(two_level(0, ColumnType::Int), Some(vec![0, 0]));
        assert_eq!(two_level(0, ColumnType::Double), Some(vec![0, 0]));
        assert_eq!(two_level(0, ColumnType::Str), None);
    }

    /// Joined on a non-key column, no equality determines `top.id` from
    /// `parent`: the partial key is joined back.
    #[test]
    fn undetermined_partial_key_keeps_the_join_back() {
        assert_eq!(two_level(1, ColumnType::Int), None);
    }

    /// The catalog fixture's affected keys are full keys for both tables, so
    /// completion never engages. The golden pins the rendering of every
    /// affected-node plan: it moves only when the translator emits other
    /// plans for this view.
    #[test]
    fn catalog_plans_render_as_before_completion() {
        use quark_xqgm::fixtures::{catalog_path_graph, product_vendor_db};

        let db = product_vendor_db();
        let mut g = Graph::new();
        let (top, _) = catalog_path_graph(&mut g);
        let (ng, root) = quark_xqgm::normalize(&g, top, &db).unwrap();
        let attr_cols = HashMap::from([("name".to_string(), 0)]);
        let pg = PathGraph {
            graph: ng,
            root,
            node_col: 1,
            attr_cols,
        };
        let mut text = String::new();
        for table in ["product", "vendor"] {
            for event in [XmlEvent::Update, XmlEvent::Insert, XmlEvent::Delete] {
                for old_node in [false, true] {
                    let needs = Needs {
                        old: SideNeeds { node: old_node },
                        new: SideNeeds { node: true },
                    };
                    let mode = Mode::GroupedAgg;
                    let affected = build_affected(&mut pg.clone(), table, event, needs, mode, &db)
                        .unwrap()
                        .expect("table affects the view");
                    text += &affected.plan.explain();
                }
            }
        }
        let crc = quark_storage::crc::crc32(text.as_bytes());
        assert_eq!((text.len(), crc), (36_292, 0xa64d_ddcb), "{text}");
    }
}
