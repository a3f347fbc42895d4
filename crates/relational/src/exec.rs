//! Plan execution.
//!
//! [`execute`] evaluates a [`PhysicalPlan`] DAG against a database state
//! plus (optionally) the transition tables of the statement being
//! processed. Results of shared subplans are memoized by node identity
//! within one [`ExecContext`], so a plan that reuses `AffectedKeys` in four
//! places (like Fig. 16 of the paper) computes it once. Nothing else
//! outlives the context, with one exception: in a firing (transition
//! tables present), an XML-constructing `Project` keeps its output rows in
//! its node's reuse slot (`plan::ReuseSlot`), and the next firing takes
//! the rows of unchanged input rows from there instead of building their
//! elements again. The slot's lock is only ever tried: an execution that
//! finds it held evaluates without it. Every other node reads its inputs
//! afresh.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::expr::{eval_all, AggState, Expr};
use crate::plan::{JoinKind, PhysicalPlan, PlanOp, PlanRef, SortKey, TableEpoch, TransitionSide};
use crate::value::{ExactRow, Row, Value};
use crate::{Counter, Database, Error, Event, Result, TransitionTables};

/// Shared, memoized result of one plan node.
pub type RowsRef = Arc<Vec<Row>>;

/// A hash-join build side materialized for probing: key tuple → rows.
type BuildSide = HashMap<Box<[Value]>, Vec<Row>>;

/// Execution context: database state + optional transition tables.
pub struct ExecContext<'a> {
    /// The database (post-statement state).
    pub db: &'a Database,
    /// Transition tables of the firing statement, if any.
    pub trans: Option<&'a TransitionTables>,
    memo: RefCell<HashMap<usize, RowsRef>>,
}

impl<'a> ExecContext<'a> {
    /// Create a context. `trans` must be `Some` when the plan contains
    /// `TransitionScan` or old-epoch accesses.
    pub fn new(db: &'a Database, trans: Option<&'a TransitionTables>) -> Self {
        ExecContext {
            db,
            trans,
            memo: RefCell::new(HashMap::new()),
        }
    }

    fn transition(&self, table: &str) -> Result<&'a TransitionTables> {
        match self.trans {
            Some(t) if t.table == table => Ok(t),
            _ => Err(Error::NoTransitionContext),
        }
    }

    /// Δ rows of `table` if the firing statement targeted it, else empty.
    fn delta_rows(&self, table: &str) -> &[Row] {
        match self.trans {
            Some(t) if t.table == table => &t.inserted,
            _ => &[],
        }
    }

    fn nabla_rows(&self, table: &str) -> &[Row] {
        match self.trans {
            Some(t) if t.table == table => &t.deleted,
            _ => &[],
        }
    }
}

/// Execute a plan, memoizing shared nodes within this context.
pub fn execute(plan: &PlanRef, ctx: &ExecContext<'_>) -> Result<RowsRef> {
    let key = Arc::as_ptr(plan) as usize;
    if let Some(hit) = ctx.memo.borrow().get(&key) {
        return Ok(Arc::clone(hit));
    }
    let rows = Arc::new(run(plan, ctx)?);
    ctx.memo.borrow_mut().insert(key, Arc::clone(&rows));
    Ok(rows)
}

fn run(plan: &PhysicalPlan, ctx: &ExecContext<'_>) -> Result<Vec<Row>> {
    let input = |i: usize| &plan.inputs[i];
    match &plan.op {
        PlanOp::TableScan { table, epoch } => scan_table(table, *epoch, ctx),
        PlanOp::TransitionScan {
            table,
            side,
            pruned,
        } => {
            let trans = ctx.transition(table)?;
            let (main, other) = match side {
                TransitionSide::Delta => (&trans.inserted, &trans.deleted),
                TransitionSide::Nabla => (&trans.deleted, &trans.inserted),
            };
            if *pruned && !other.is_empty() {
                // Appendix F (Def. 8): drop rows unchanged in value —
                // present in both Δ and ∇.
                let other_set: HashSet<&Row> = other.iter().collect();
                Ok(main
                    .iter()
                    .filter(|r| !other_set.contains(r))
                    .cloned()
                    .collect())
            } else {
                Ok(main.clone())
            }
        }
        PlanOp::Values { rows, .. } => Ok(rows.clone()),
        PlanOp::Filter { predicate } => {
            let rows = execute(input(0), ctx)?;
            let mut out = Vec::new();
            for r in rows.iter() {
                if predicate.eval(r)?.is_true() {
                    out.push(Arc::clone(r));
                }
            }
            Ok(out)
        }
        PlanOp::Project { exprs } => {
            let rows = execute(input(0), ctx)?;
            // A constructor projection reuses its last firing's rows; a
            // query, or a slot that is held or poisoned, evaluates afresh.
            let slot = plan.reuse.as_ref().filter(|_| ctx.trans.is_some());
            if let Some(mut last) = slot.and_then(|s| s.0.try_lock().ok()) {
                return project_reusing(exprs, &rows, &mut last, ctx.db);
            }
            rows.iter().map(|r| eval_all(exprs, r)).collect()
        }
        PlanOp::HashJoin {
            left_keys,
            right_keys,
            kind,
            filter,
        } => hash_join(
            input(0),
            input(1),
            left_keys,
            right_keys,
            *kind,
            filter.as_ref(),
            ctx,
        ),
        PlanOp::IndexJoin {
            table,
            epoch,
            probe,
            kind,
            filter,
        } => index_join(input(0), table, *epoch, probe, *kind, filter.as_ref(), ctx),
        PlanOp::NestedLoopJoin { predicate, kind } => {
            nl_join(input(0), input(1), predicate.as_ref(), *kind, ctx)
        }
        PlanOp::HashAggregate { group_exprs, aggs } => {
            let rows = execute(input(0), ctx)?;
            aggregate(&rows, group_exprs, aggs)
        }
        PlanOp::UnionAll => {
            let mut out = Vec::new();
            for i in &plan.inputs {
                out.extend(execute(i, ctx)?.iter().cloned());
            }
            Ok(out)
        }
        PlanOp::Distinct => {
            let rows = execute(input(0), ctx)?;
            let mut seen: HashSet<Row> = HashSet::with_capacity(rows.len());
            let mut out = Vec::new();
            for r in rows.iter() {
                if seen.insert(Arc::clone(r)) {
                    out.push(Arc::clone(r));
                }
            }
            Ok(out)
        }
        PlanOp::Sort { keys } => {
            let rows = execute(input(0), ctx)?;
            sort_rows(&rows, keys)
        }
        PlanOp::Unnest { expr } => {
            let rows = execute(input(0), ctx)?;
            let mut out = Vec::new();
            for r in rows.iter() {
                match expr.eval(r)? {
                    Value::Null => {}
                    Value::Xml(x) if crate::expr::is_fragment(&x) => {
                        for child in x.children() {
                            out.push(append(r, Value::Xml(Arc::clone(child))));
                        }
                    }
                    item => out.push(append(r, item)),
                }
            }
            Ok(out)
        }
    }
}

fn append(row: &Row, value: Value) -> Row {
    row.iter().cloned().chain(std::iter::once(value)).collect()
}

/// `Project` through a constructor's reuse slot (`plan::ReuseSlot`),
/// holding `last`, the rows of the slot's last execution: an input row
/// exactly equal to one of them gets that output row back, any other row
/// is evaluated, and a row holding XML is evaluated and not kept.
/// Afterwards `last` holds this execution's rows only, so the slot never
/// keeps more than one firing materialized.
fn project_reusing(
    exprs: &[Expr],
    rows: &[Row],
    last: &mut HashMap<ExactRow, Row>,
    db: &Database,
) -> Result<Vec<Row>> {
    let mut previous = std::mem::replace(last, HashMap::with_capacity(rows.len()));
    let mut hits = 0;
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        if r.iter().any(|v| matches!(v, Value::Xml(_))) {
            out.push(eval_all(exprs, r)?);
            continue;
        }
        let key = ExactRow(Arc::clone(r));
        let row = match previous.remove(&key) {
            Some(kept) => {
                hits += 1;
                kept
            }
            None => eval_all(exprs, r)?,
        };
        last.insert(key, Arc::clone(&row));
        out.push(row);
    }
    db.bump(Counter::BuildCacheHits, hits);
    Ok(out)
}

/// Scan the current table, or reconstruct the pre-statement state:
/// `B_old = (B ∖ pk(ΔB)) ∪ ∇B` (§4.2 of the paper).
///
/// Ordered storage makes scans primary-key-ordered by construction (view
/// materialization and `aggXMLFrag` output stay deterministic); the
/// `Old`-epoch reconstruction merges the (small) sorted ∇ rows into the
/// ordered walk instead of re-sorting the whole table per firing.
fn scan_table(table: &str, epoch: TableEpoch, ctx: &ExecContext<'_>) -> Result<Vec<Row>> {
    let t = ctx.db.table(table)?;
    let schema = t.schema();
    let out: Vec<Row> = match epoch {
        TableEpoch::Current => t.iter().cloned().collect(),
        TableEpoch::Old => {
            let delta = ctx.delta_rows(table);
            let nabla = ctx.nabla_rows(table);
            if delta.is_empty() && nabla.is_empty() {
                t.iter().cloned().collect()
            } else {
                let delta_keys: HashSet<Box<[Value]>> =
                    delta.iter().map(|r| schema.key_of(r)).collect();
                let mut nabla_sorted: Vec<(Box<[Value]>, &Row)> =
                    nabla.iter().map(|r| (schema.key_of(r), r)).collect();
                nabla_sorted.sort_by(|a, b| a.0.cmp(&b.0));
                let mut out = Vec::with_capacity(t.len() + nabla_sorted.len());
                let mut ni = 0;
                for (key, row) in t.entries() {
                    if delta_keys.contains(key) {
                        continue;
                    }
                    // ∇ rows strictly before this key slot in first; a ∇
                    // row *equal* to a stored key sorts after it, matching
                    // the stable sort this merge replaces.
                    while ni < nabla_sorted.len() && nabla_sorted[ni].0.as_ref() < key.as_ref() {
                        out.push(Arc::clone(nabla_sorted[ni].1));
                        ni += 1;
                    }
                    out.push(Arc::clone(row));
                }
                for (_, row) in &nabla_sorted[ni..] {
                    out.push(Arc::clone(row));
                }
                out
            }
        }
    };
    ctx.db.bump(Counter::RowsScanned, out.len() as u64);
    Ok(out)
}

fn key_values(exprs: &[Expr], row: &[Value]) -> Result<Box<[Value]>> {
    let mut out = Vec::with_capacity(exprs.len());
    for e in exprs {
        out.push(e.eval(row)?);
    }
    Ok(out.into())
}

fn concat(left: &[Value], right: &[Value]) -> Row {
    left.iter().cloned().chain(right.iter().cloned()).collect()
}

fn nulls(n: usize) -> Vec<Value> {
    vec![Value::Null; n]
}

fn hash_join(
    left: &PlanRef,
    right: &PlanRef,
    left_keys: &[Expr],
    right_keys: &[Expr],
    kind: JoinKind,
    filter: Option<&Expr>,
    ctx: &ExecContext<'_>,
) -> Result<Vec<Row>> {
    let lrows = execute(left, ctx)?;
    let right_arity = right.arity(ctx.db)?;

    // Build on the right, probe from the left (generated plans put the
    // small transition-derived side on the left).
    let rrows = execute(right, ctx)?;
    let mut build: BuildSide = HashMap::with_capacity(rrows.len());
    for r in rrows.iter() {
        build
            .entry(key_values(right_keys, r)?)
            .or_default()
            .push(Arc::clone(r));
    }

    let null_fill = nulls(right_arity);
    let mut out = Vec::new();
    for l in lrows.iter() {
        let key = key_values(left_keys, l)?;
        let matches = build.get(&key).map(|v| v.as_slice());
        emit_joined(l, matches, &null_fill, kind, filter, &mut out)?;
    }
    Ok(out)
}

/// Shared row-emission logic for all join implementations. `null_fill` is
/// the right-arity NULL padding, allocated once per join instead of once
/// per unmatched row.
fn emit_joined(
    left: &Row,
    matches: Option<&[Row]>,
    null_fill: &[Value],
    kind: JoinKind,
    filter: Option<&Expr>,
    out: &mut Vec<Row>,
) -> Result<()> {
    let mut any = false;
    if let Some(ms) = matches {
        for m in ms {
            let joined = concat(left, m);
            if let Some(f) = filter {
                if !f.eval(&joined)?.is_true() {
                    continue;
                }
            }
            any = true;
            match kind {
                JoinKind::Inner | JoinKind::LeftOuter => out.push(joined),
                JoinKind::LeftSemi => {
                    out.push(Arc::clone(left));
                    return Ok(());
                }
                JoinKind::LeftAnti => return Ok(()),
            }
        }
    }
    if !any {
        match kind {
            JoinKind::LeftOuter => out.push(concat(left, null_fill)),
            JoinKind::LeftAnti => out.push(Arc::clone(left)),
            JoinKind::Inner | JoinKind::LeftSemi => {}
        }
    }
    Ok(())
}

fn index_join(
    outer: &PlanRef,
    table: &str,
    epoch: TableEpoch,
    probe: &[(usize, Expr)],
    kind: JoinKind,
    filter: Option<&Expr>,
    ctx: &ExecContext<'_>,
) -> Result<Vec<Row>> {
    let orows = execute(outer, ctx)?;
    let t = ctx.db.table(table)?;
    let schema = t.schema();
    let inner_arity = schema.arity();
    let probe_cols: Vec<usize> = probe.iter().map(|(c, _)| *c).collect();
    let is_pk_probe = probe_cols == schema.primary_key;
    if !(is_pk_probe || (probe_cols.len() == 1 && t.has_index(probe_cols[0]))) {
        return Err(Error::Plan(format!(
            "IndexJoin on {table} cols {probe_cols:?}: not the primary key and no secondary index"
        )));
    }

    // For the Old epoch, the probe must see the pre-statement state:
    // current matches minus Δ-keyed rows, plus matching ∇ rows.
    type KeySet = HashSet<Box<[Value]>>;
    type RowsByKey = HashMap<Box<[Value]>, Vec<Row>>;
    let (delta_keys, nabla_by_probe): (KeySet, RowsByKey) = if epoch == TableEpoch::Old {
        let delta_keys = ctx
            .delta_rows(table)
            .iter()
            .map(|r| schema.key_of(r))
            .collect();
        let mut by_probe: HashMap<Box<[Value]>, Vec<Row>> = HashMap::new();
        for r in ctx.nabla_rows(table) {
            let k: Box<[Value]> = probe_cols.iter().map(|&c| r[c].clone()).collect();
            by_probe.entry(k).or_default().push(Arc::clone(r));
        }
        (delta_keys, by_probe)
    } else {
        (HashSet::new(), HashMap::new())
    };

    let null_fill = nulls(inner_arity);
    let mut out = Vec::new();
    for l in orows.iter() {
        let mut probe_vals = Vec::with_capacity(probe.len());
        for (_, e) in probe {
            probe_vals.push(e.eval(l)?);
        }
        ctx.db.bump(Counter::IndexProbes, 1);
        // Collect matching inner rows for this probe. Probes yield rows in
        // primary-key order already (ordered storage / ordered index
        // buckets); only the Old-epoch reconstruction, which splices in ∇
        // rows, still needs a deterministic re-sort.
        let mut matched: Vec<Row> = Vec::new();
        let current = if is_pk_probe {
            t.get(&probe_vals).into_iter().collect()
        } else {
            t.index_lookup(probe_cols[0], &probe_vals[0])?
        };
        match epoch {
            TableEpoch::Current => matched.extend(current.into_iter().cloned()),
            TableEpoch::Old => {
                matched.extend(
                    current
                        .into_iter()
                        .filter(|r| !delta_keys.contains(&schema.key_of(r)))
                        .cloned(),
                );
                let pk: Box<[Value]> = probe_vals.clone().into_boxed_slice();
                if let Some(extra) = nabla_by_probe.get(&pk) {
                    matched.extend(extra.iter().cloned());
                }
                matched.sort_by_cached_key(|r| schema.key_of(r));
            }
        }
        emit_joined(l, Some(&matched), &null_fill, kind, filter, &mut out)?;
    }
    Ok(out)
}

fn nl_join(
    left: &PlanRef,
    right: &PlanRef,
    predicate: Option<&Expr>,
    kind: JoinKind,
    ctx: &ExecContext<'_>,
) -> Result<Vec<Row>> {
    let lrows = execute(left, ctx)?;
    let right_arity = right.arity(ctx.db)?;
    let rrows = execute(right, ctx)?;
    let null_fill = nulls(right_arity);
    let mut out = Vec::new();
    for l in lrows.iter() {
        emit_joined(l, Some(&rrows[..]), &null_fill, kind, predicate, &mut out)?;
    }
    Ok(out)
}

fn aggregate(
    rows: &[Row],
    group_exprs: &[Expr],
    aggs: &[crate::expr::AggExpr],
) -> Result<Vec<Row>> {
    // Preserve first-seen group order so aggXMLFrag output is deterministic.
    let mut order: Vec<Box<[Value]>> = Vec::new();
    let mut groups: HashMap<Box<[Value]>, Vec<AggState>> = HashMap::new();
    for r in rows {
        let key = key_values(group_exprs, r)?;
        let states = match groups.get_mut(&key) {
            Some(s) => s,
            None => {
                order.push(key.clone());
                groups
                    .entry(key.clone())
                    .or_insert_with(|| aggs.iter().map(|a| AggState::new(&a.func)).collect())
            }
        };
        for (state, agg) in states.iter_mut().zip(aggs) {
            match &agg.arg {
                None => state.update(None)?,
                Some(e) => {
                    let v = e.eval(r)?;
                    state.update(Some(&v))?;
                }
            }
        }
    }
    // Scalar aggregation (no GROUP BY) over empty input: one row of
    // identity values.
    if group_exprs.is_empty() && groups.is_empty() {
        let row: Row = aggs
            .iter()
            .map(|a| AggState::new(&a.func).finish())
            .collect();
        return Ok(vec![row]);
    }
    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let states = groups.remove(&key).expect("group recorded in order list");
        let row: Row = key
            .iter()
            .cloned()
            .chain(states.into_iter().map(AggState::finish))
            .collect();
        out.push(row);
    }
    Ok(out)
}

fn sort_rows(rows: &[Row], keys: &[SortKey]) -> Result<Vec<Row>> {
    // Precompute key tuples to keep comparator infallible.
    let mut decorated: Vec<(Vec<Value>, &Row)> = Vec::with_capacity(rows.len());
    for r in rows {
        let mut k = Vec::with_capacity(keys.len());
        for sk in keys {
            k.push(sk.expr.eval(r)?);
        }
        decorated.push((k, r));
    }
    decorated.sort_by(|(a, _), (b, _)| {
        for (i, sk) in keys.iter().enumerate() {
            let ord = a[i].cmp(&b[i]);
            let ord = if sk.desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(decorated.into_iter().map(|(_, r)| Arc::clone(r)).collect())
}

/// Convenience: execute a plan that does not reference transition tables.
pub fn execute_query(db: &Database, plan: &PlanRef) -> Result<Vec<Row>> {
    let ctx = ExecContext::new(db, None);
    let rows = execute(plan, &ctx)?;
    Ok(rows.iter().cloned().collect())
}

/// Convenience: execute a plan in a trigger-firing context.
pub fn execute_with_transitions(
    db: &Database,
    plan: &PlanRef,
    trans: &TransitionTables,
) -> Result<Vec<Row>> {
    let ctx = ExecContext::new(db, Some(trans));
    let rows = execute(plan, &ctx)?;
    Ok(rows.iter().cloned().collect())
}

/// Build a synthetic transition-tables value (tests and the oracle baseline).
pub fn transitions(
    table: impl Into<String>,
    event: Event,
    inserted: Vec<Row>,
    deleted: Vec<Row>,
) -> TransitionTables {
    TransitionTables {
        table: table.into(),
        event,
        inserted,
        deleted,
    }
}
