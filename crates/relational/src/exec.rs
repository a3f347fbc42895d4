//! Plan execution.
//!
//! [`execute`] evaluates a [`PhysicalPlan`] DAG against a database state
//! plus (optionally) the transition tables of the statement being
//! processed. Results of shared subplans are memoized by node identity
//! within one [`ExecContext`], so a plan that reuses `AffectedKeys` in four
//! places (like Fig. 16 of the paper) computes it once. Only a node held
//! by more than one `Arc` goes through the memo: one that its single
//! parent alone holds runs once because its parent does. Nothing else
//! outlives the context, with one exception: in a firing (transition
//! tables present), an XML-constructing `Project` keeps its input and
//! output rows in its node's reuse slot (`plan::ReuseSlot`), and the next
//! firing, walking its input rows alongside them, takes the rows of
//! unchanged input rows from there instead of building their elements
//! again. The slot's lock is only ever tried: an execution that finds it
//! held evaluates without it. Every other node reads its inputs afresh.
//!
//! Joins and aggregates look their keys up by borrowed slice: a hash join
//! probes with one reused key buffer, an aggregate copies a key only for
//! a group it has not seen, and an `Old`-epoch index probe checks Δ keys
//! against the stored keys it walks.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::expr::{eval_all, AggState, Expr};
use crate::plan::{JoinKind, PhysicalPlan, PlanOp, PlanRef, SortKey, TableEpoch, TransitionSide};
use crate::value::{ExactRow, Row, Value};
use crate::{Counter, Database, Error, Event, Result, TableSchema, TransitionTables};

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
    // Only a node held more than once can be reached twice. A node that
    // its one parent alone holds runs at most once per context, because
    // its parent does; so it skips the memo. Either answer is correct
    // (memoizing is only an optimization), so a count that races with a
    // clone elsewhere costs at most a lookup.
    if Arc::strong_count(plan) == 1 {
        return Ok(Arc::new(run(plan, ctx)?));
    }
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
/// holding `last`, the `(input, output)` rows of the slot's last
/// execution. The walk keeps a position in `last`: an input row exactly
/// equal to the input there, or to the one after it (a row deleted since),
/// gets that output row back and moves the position past it; any other row
/// (changed or inserted) is evaluated and leaves the position where it is;
/// a row holding XML is evaluated and not kept. Afterwards `last` holds
/// this execution's rows only, so the slot never keeps more than one
/// firing materialized.
fn project_reusing(
    exprs: &[Expr],
    rows: &[Row],
    last: &mut Vec<(Row, Row)>,
    db: &Database,
) -> Result<Vec<Row>> {
    let previous = std::mem::replace(last, Vec::with_capacity(rows.len()));
    let (mut at, mut hits) = (0, 0);
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        if r.iter().any(|v| matches!(v, Value::Xml(_))) {
            out.push(eval_all(exprs, r)?);
            continue;
        }
        let kept =
            (at..previous.len().min(at + 2)).find(|&i| ExactRow(&previous[i].0) == ExactRow(r));
        let row = match kept {
            Some(i) => {
                at = i + 1;
                hits += 1;
                Arc::clone(&previous[i].1)
            }
            None => eval_all(exprs, r)?,
        };
        last.push((Arc::clone(r), Arc::clone(&row)));
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

/// Evaluate `exprs` over `row` into `buf`, replacing its contents: one
/// buffer serves every row of a probe or grouping loop.
fn key_into(buf: &mut Vec<Value>, exprs: &[Expr], row: &[Value]) -> Result<()> {
    buf.clear();
    for e in exprs {
        buf.push(e.eval(row)?);
    }
    Ok(())
}

/// Compare two rows of `schema`'s table by primary key, as their
/// `key_of` tuples compare.
fn cmp_by_key(schema: &TableSchema, a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    (schema.primary_key.iter())
        .map(|&c| a[c].cmp(&b[c]))
        .find(|o| o.is_ne())
        .unwrap_or(std::cmp::Ordering::Equal)
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
    let mut key = Vec::with_capacity(right_keys.len());
    let mut build: BuildSide = HashMap::with_capacity(rrows.len());
    for r in rrows.iter() {
        key_into(&mut key, right_keys, r)?;
        build
            .entry(key.as_slice().into())
            .or_default()
            .push(Arc::clone(r));
    }

    let null_fill = nulls(right_arity);
    let mut out = Vec::new();
    for l in lrows.iter() {
        key_into(&mut key, left_keys, l)?;
        let matches = build.get(key.as_slice()).map(|v| v.as_slice());
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
    let mut delta_keys: HashSet<Box<[Value]>> = HashSet::new();
    let mut nabla_by_probe: HashMap<Box<[Value]>, Vec<Row>> = HashMap::new();
    if epoch == TableEpoch::Old {
        delta_keys.extend(ctx.delta_rows(table).iter().map(|r| schema.key_of(r)));
        for r in ctx.nabla_rows(table) {
            let k: Box<[Value]> = probe_cols.iter().map(|&c| r[c].clone()).collect();
            nabla_by_probe.entry(k).or_default().push(Arc::clone(r));
        }
    }

    let null_fill = nulls(inner_arity);
    let mut probe_vals = Vec::with_capacity(probe.len());
    let mut matched: Vec<Row> = Vec::new();
    let mut out = Vec::new();
    for l in orows.iter() {
        probe_vals.clear();
        for (_, e) in probe {
            probe_vals.push(e.eval(l)?);
        }
        ctx.db.bump(Counter::IndexProbes, 1);
        // Probes yield rows in primary-key order (ordered storage / ordered
        // index buckets), each checked against the Δ keys by its stored
        // key (a primary-key probe's key is the probe itself). Only ∇ rows
        // spliced into the Old-epoch reconstruction need a re-sort.
        matched.clear();
        if is_pk_probe {
            if let Some(r) = t.get(&probe_vals) {
                if !delta_keys.contains(probe_vals.as_slice()) {
                    matched.push(Arc::clone(r));
                }
            }
        } else {
            for (key, r) in t.index_entries(probe_cols[0], &probe_vals[0])? {
                if !delta_keys.contains(key) {
                    matched.push(Arc::clone(r));
                }
            }
        }
        if let Some(extra) = nabla_by_probe.get(probe_vals.as_slice()) {
            matched.extend(extra.iter().cloned());
            matched.sort_by(|a, b| cmp_by_key(schema, a, b));
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
    // Groups are kept in first-seen order, so aggXMLFrag output is
    // deterministic; rows look their group up by borrowed key, and only a
    // new group copies its key.
    let mut numbers: HashMap<Box<[Value]>, usize> = HashMap::new();
    let mut groups: Vec<(Box<[Value]>, Vec<AggState>)> = Vec::new();
    let mut key = Vec::with_capacity(group_exprs.len());
    for r in rows {
        key_into(&mut key, group_exprs, r)?;
        let n = match numbers.get(key.as_slice()) {
            Some(&n) => n,
            None => {
                let owned: Box<[Value]> = key.as_slice().into();
                numbers.insert(owned.clone(), groups.len());
                let states = aggs.iter().map(|a| AggState::new(&a.func)).collect();
                groups.push((owned, states));
                groups.len() - 1
            }
        };
        for (state, agg) in groups[n].1.iter_mut().zip(aggs) {
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
    let rows = groups.into_iter().map(|(key, states)| {
        (key.iter().cloned())
            .chain(states.into_iter().map(AggState::finish))
            .collect()
    });
    Ok(rows.collect())
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
