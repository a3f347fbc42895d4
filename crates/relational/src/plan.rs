//! Physical query plans.
//!
//! A generated "SQL trigger" body in this system is a [`PhysicalPlan`]
//! evaluated against the database plus the firing statement's transition
//! tables. Plans are DAGs: the affected-key subplan is shared between the
//! OLD and NEW branches exactly like the `WITH AffectedKeys (…)` common
//! table expression in the paper's Figure 16, and the executor memoizes
//! shared nodes so they run once.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;

use crate::expr::{AggExpr, Expr};
use crate::value::Row;
use crate::{Database, Error, Result};

/// Shared plan handle; sharing a node means its result is computed once per
/// execution.
pub type PlanRef = Arc<PhysicalPlan>;

/// Which transition table a [`PhysicalPlan::TransitionScan`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionSide {
    /// Δtable — rows *after* the update (a.k.a. `INSERTED` / `NEW_TABLE`).
    Delta,
    /// ∇table — rows *before* the update (a.k.a. `DELETED` / `OLD_TABLE`).
    Nabla,
}

/// Whether a table access sees the current (post-statement) state or the
/// reconstructed pre-statement state `B_old = (B ∖ ΔB) ∪ ∇B` (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableEpoch {
    /// Post-statement state.
    Current,
    /// Pre-statement state, reconstructed from transition tables.
    Old,
}

/// Join variants. `RightAnti` is expressed by swapping inputs of `LeftAnti`
/// at plan-construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// Emit matched (left ++ right) rows.
    Inner,
    /// Emit every left row; unmatched rows padded with NULLs.
    LeftOuter,
    /// Emit left rows with at least one match (left columns only).
    LeftSemi,
    /// Emit left rows with no match (left columns only).
    LeftAnti,
}

impl JoinKind {
    /// Does the join output include right-side columns?
    pub fn keeps_right(self) -> bool {
        matches!(self, JoinKind::Inner | JoinKind::LeftOuter)
    }
}

/// One sort key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SortKey {
    /// Expression over the input row.
    pub expr: Expr,
    /// Descending order if `true`.
    pub desc: bool,
}

impl SortKey {
    /// Ascending sort on a column.
    pub fn asc(col: usize) -> Self {
        SortKey {
            expr: Expr::col(col),
            desc: false,
        }
    }
}

/// A physical operator. All operators are fully materializing (the engine
/// targets correctness and index-driven asymptotics, not pipelining).
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Scan a stored table (current or reconstructed-old epoch).
    TableScan {
        /// Table name.
        table: String,
        /// Which state of the table to read.
        epoch: TableEpoch,
    },
    /// Scan the firing statement's Δ or ∇ transition table. With `pruned`,
    /// rows present in *both* Δ and ∇ (no-op updates) are removed first —
    /// the pruned transition tables of Appendix F (Definition 8).
    TransitionScan {
        /// Table the statement targeted (must match the firing context).
        table: String,
        /// Δ or ∇.
        side: TransitionSide,
        /// Apply Appendix-F pruning.
        pruned: bool,
    },
    /// Literal rows (constants tables in tests; empty relations).
    Values {
        /// Column count (needed when `rows` is empty).
        arity: usize,
        /// The rows.
        rows: Vec<Row>,
    },
    /// σ — keep rows where `predicate` is true.
    Filter {
        /// Input plan.
        input: PlanRef,
        /// Boolean predicate.
        predicate: Expr,
    },
    /// π — compute one output column per expression.
    Project {
        /// Input plan.
        input: PlanRef,
        /// Output column expressions.
        exprs: Vec<Expr>,
    },
    /// Hash join on equi-key expressions, with an optional residual filter
    /// applied to the concatenated row.
    HashJoin {
        /// Build/probe sides.
        left: PlanRef,
        /// Right input.
        right: PlanRef,
        /// Key expressions over the left row.
        left_keys: Vec<Expr>,
        /// Key expressions over the right row (same length).
        right_keys: Vec<Expr>,
        /// Join variant.
        kind: JoinKind,
        /// Residual predicate over (left ++ right).
        filter: Option<Expr>,
    },
    /// Index nested-loop join: for each outer row, probe `table` by
    /// equality on `probe` columns (primary key or a secondary index).
    /// This is what keeps generated triggers O(affected) instead of
    /// O(database) — see Fig. 23.
    IndexJoin {
        /// Outer (driving) input — typically transition-derived, small.
        outer: PlanRef,
        /// Inner stored table.
        table: String,
        /// Probe the current or old epoch of the inner table.
        epoch: TableEpoch,
        /// `(inner column, outer expression)` equality pairs. Either the
        /// full primary key or a single secondary-indexed column.
        probe: Vec<(usize, Expr)>,
        /// Join variant (left = outer).
        kind: JoinKind,
        /// Residual predicate over (outer ++ inner).
        filter: Option<Expr>,
    },
    /// Cross/theta join evaluated by nested loops (used only where the
    /// paper's CreateAKGraph requires a genuine cross product, Fig. 8
    /// lines 36-39).
    NestedLoopJoin {
        /// Left input.
        left: PlanRef,
        /// Right input.
        right: PlanRef,
        /// Optional theta predicate over (left ++ right).
        predicate: Option<Expr>,
        /// Join variant.
        kind: JoinKind,
    },
    /// γ — hash aggregation. Output columns: group expressions then
    /// aggregates. With no group expressions, emits exactly one row.
    HashAggregate {
        /// Input plan.
        input: PlanRef,
        /// Grouping expressions.
        group_exprs: Vec<Expr>,
        /// Aggregate columns.
        aggs: Vec<AggExpr>,
    },
    /// UNION ALL of same-arity inputs.
    UnionAll {
        /// Inputs.
        inputs: Vec<PlanRef>,
    },
    /// Duplicate elimination over whole rows.
    Distinct {
        /// Input plan.
        input: PlanRef,
    },
    /// Stable sort by the given keys.
    Sort {
        /// Input plan.
        input: PlanRef,
        /// Sort keys, major first.
        keys: Vec<SortKey>,
    },
    /// XQGM's Unnest: evaluate `expr` per input row (an XML fragment,
    /// element or NULL) and emit `row ++ [item]` once per contained node.
    Unnest {
        /// Input plan.
        input: PlanRef,
        /// Expression yielding the sequence to unnest.
        expr: Expr,
    },
}

/// Rendering state for [`PhysicalPlan::explain`]: reference counts from the
/// pre-pass, plus labels assigned to shared nodes in render order.
struct ExplainState {
    refs: HashMap<usize, usize>,
    labels: HashMap<usize, usize>,
    next_label: usize,
}

impl PhysicalPlan {
    /// Wrap into a shared handle.
    pub fn into_ref(self) -> PlanRef {
        Arc::new(self)
    }

    /// Number of output columns, resolved against `db` for table scans.
    ///
    /// Plans are DAGs with heavy sharing (the affected-key subplan feeds
    /// both the OLD and NEW branches), so the recursion memoizes shared
    /// nodes by identity — a naive tree walk would revisit a shared node
    /// once per *path*, which is exponential in view depth.
    pub fn arity(&self, db: &Database) -> Result<usize> {
        self.arity_memo(db, &mut HashMap::new())
    }

    fn arity_memo(&self, db: &Database, memo: &mut HashMap<usize, usize>) -> Result<usize> {
        let child =
            |p: &PlanRef, db: &Database, memo: &mut HashMap<usize, usize>| -> Result<usize> {
                let key = Arc::as_ptr(p) as usize;
                if let Some(&hit) = memo.get(&key) {
                    return Ok(hit);
                }
                let a = p.arity_memo(db, memo)?;
                memo.insert(key, a);
                Ok(a)
            };
        Ok(match self {
            PhysicalPlan::TableScan { table, .. } | PhysicalPlan::TransitionScan { table, .. } => {
                db.table(table)?.schema().arity()
            }
            PhysicalPlan::Values { arity, .. } => *arity,
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Sort { input, .. } => child(input, db, memo)?,
            PhysicalPlan::Project { exprs, .. } => exprs.len(),
            PhysicalPlan::HashJoin {
                left, right, kind, ..
            } => {
                if kind.keeps_right() {
                    child(left, db, memo)? + child(right, db, memo)?
                } else {
                    child(left, db, memo)?
                }
            }
            PhysicalPlan::IndexJoin {
                outer, table, kind, ..
            } => {
                if kind.keeps_right() {
                    child(outer, db, memo)? + db.table(table)?.schema().arity()
                } else {
                    child(outer, db, memo)?
                }
            }
            PhysicalPlan::NestedLoopJoin {
                left, right, kind, ..
            } => {
                if kind.keeps_right() {
                    child(left, db, memo)? + child(right, db, memo)?
                } else {
                    child(left, db, memo)?
                }
            }
            PhysicalPlan::HashAggregate {
                group_exprs, aggs, ..
            } => group_exprs.len() + aggs.len(),
            PhysicalPlan::UnionAll { inputs } => {
                let first = inputs
                    .first()
                    .ok_or_else(|| Error::Plan("UnionAll with no inputs".into()))?;
                child(first, db, memo)?
            }
            PhysicalPlan::Unnest { input, .. } => child(input, db, memo)? + 1,
        })
    }

    /// The stored tables this plan's result is a pure function of, or
    /// `None` when the result also depends on the firing statement (a
    /// transition-table scan or a reconstructed `Old`-epoch access).
    ///
    /// This is the cacheability analysis behind the executor's
    /// cross-firing caches: a subplan with `Some(tables)` produces
    /// identical rows for as long as every named table's
    /// [`version`](crate::Table::version) stands still, so join build
    /// sides over such subplans can be reused across firings instead of
    /// being re-hashed each time.
    pub fn stable_tables(&self) -> Option<BTreeSet<String>> {
        self.stable_memo(&mut HashMap::new())
    }

    fn stable_memo(
        &self,
        memo: &mut HashMap<usize, Option<BTreeSet<String>>>,
    ) -> Option<BTreeSet<String>> {
        let mut out = BTreeSet::new();
        match self {
            PhysicalPlan::TransitionScan { .. } => return None,
            PhysicalPlan::TableScan { table, epoch } => {
                if *epoch == TableEpoch::Old {
                    return None;
                }
                out.insert(table.clone());
            }
            PhysicalPlan::IndexJoin { table, epoch, .. } => {
                if *epoch == TableEpoch::Old {
                    return None;
                }
                out.insert(table.clone());
            }
            _ => {}
        }
        for c in self.children() {
            let key = Arc::as_ptr(c) as usize;
            let child = match memo.get(&key) {
                Some(hit) => hit.clone(),
                None => {
                    let computed = c.stable_memo(memo);
                    memo.insert(key, computed.clone());
                    computed
                }
            };
            out.extend(child?);
        }
        Some(out)
    }

    /// Every stored table this plan can read, regardless of epoch: current
    /// scans and index probes, reconstructed `Old`-epoch accesses, and the
    /// base tables named by transition scans all count.
    ///
    /// Where [`PhysicalPlan::stable_tables`] answers "what must stand still
    /// for a cached result to stay valid" (and bails on statement-dependent
    /// inputs), this is the *footprint* analysis behind write scheduling: a
    /// writer whose trigger plans only touch these tables can run under
    /// per-table latches instead of the global write lock, in parallel with
    /// writers whose footprints are disjoint.
    pub fn table_footprint(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.footprint_memo(&mut HashSet::new(), &mut out);
        out
    }

    fn footprint_memo(&self, seen: &mut HashSet<usize>, out: &mut BTreeSet<String>) {
        match self {
            PhysicalPlan::TableScan { table, .. }
            | PhysicalPlan::TransitionScan { table, .. }
            | PhysicalPlan::IndexJoin { table, .. } => {
                out.insert(table.clone());
            }
            _ => {}
        }
        for c in self.children() {
            let key = Arc::as_ptr(c) as usize;
            if seen.insert(key) {
                c.footprint_memo(seen, out);
            }
        }
    }

    /// Multi-line EXPLAIN-style rendering. Subplans referenced from more
    /// than one parent are rendered once and tagged `[shared N]`; later
    /// references print a one-line back-pointer. Without this, rendering a
    /// deeply shared DAG expands every path — hundreds of megabytes for a
    /// depth-5 view's trigger plan.
    pub fn explain(&self) -> String {
        let mut refs: HashMap<usize, usize> = HashMap::new();
        self.count_refs(&mut refs);
        let mut out = String::new();
        let mut st = ExplainState {
            refs,
            labels: HashMap::new(),
            next_label: 1,
        };
        self.explain_into(&mut out, 0, &mut st);
        out
    }

    /// Count how many parents reference each node (by identity).
    fn count_refs(&self, refs: &mut HashMap<usize, usize>) {
        for c in self.children() {
            let key = Arc::as_ptr(c) as usize;
            let n = refs.entry(key).or_insert(0);
            *n += 1;
            if *n == 1 {
                c.count_refs(refs);
            }
        }
    }

    /// Input plans of this node, in rendering order.
    pub(crate) fn children(&self) -> Vec<&PlanRef> {
        match self {
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
        }
    }

    /// Render one child reference: shared nodes get a `[shared N]` label on
    /// first visit and a one-line back-pointer afterwards.
    fn explain_ref(p: &PlanRef, out: &mut String, depth: usize, st: &mut ExplainState) {
        let key = Arc::as_ptr(p) as usize;
        if st.refs.get(&key).copied().unwrap_or(0) < 2 {
            return p.explain_into(out, depth, st);
        }
        let pad = "  ".repeat(depth);
        match st.labels.get(&key) {
            Some(&n) => {
                let _ = writeln!(out, "{pad}[shared {n}] (see above)");
            }
            None => {
                let n = st.next_label;
                st.next_label += 1;
                st.labels.insert(key, n);
                let _ = writeln!(out, "{pad}[shared {n}]");
                p.explain_into(out, depth, st);
            }
        }
    }

    fn explain_into(&self, out: &mut String, depth: usize, st: &mut ExplainState) {
        let pad = "  ".repeat(depth);
        match self {
            PhysicalPlan::TableScan { table, epoch } => {
                let _ = writeln!(out, "{pad}TableScan {table} [{epoch:?}]");
            }
            PhysicalPlan::TransitionScan {
                table,
                side,
                pruned,
            } => {
                let sym = match side {
                    TransitionSide::Delta => "Δ",
                    TransitionSide::Nabla => "∇",
                };
                let p = if *pruned { " pruned" } else { "" };
                let _ = writeln!(out, "{pad}TransitionScan {sym}{table}{p}");
            }
            PhysicalPlan::Values { arity, rows } => {
                let _ = writeln!(out, "{pad}Values arity={arity} rows={}", rows.len());
            }
            PhysicalPlan::Filter { input, predicate } => {
                let _ = writeln!(out, "{pad}Filter {predicate:?}");
                Self::explain_ref(input, out, depth + 1, st);
            }
            PhysicalPlan::Project { input, exprs } => {
                let _ = writeln!(out, "{pad}Project [{}]", exprs.len());
                Self::explain_ref(input, out, depth + 1, st);
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                kind,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "{pad}HashJoin {kind:?} on {left_keys:?} = {right_keys:?}"
                );
                Self::explain_ref(left, out, depth + 1, st);
                Self::explain_ref(right, out, depth + 1, st);
            }
            PhysicalPlan::IndexJoin {
                outer,
                table,
                epoch,
                probe,
                kind,
                ..
            } => {
                let cols: Vec<usize> = probe.iter().map(|(c, _)| *c).collect();
                let _ = writeln!(
                    out,
                    "{pad}IndexJoin {kind:?} -> {table}[{epoch:?}] probe cols {cols:?}"
                );
                Self::explain_ref(outer, out, depth + 1, st);
            }
            PhysicalPlan::NestedLoopJoin {
                left, right, kind, ..
            } => {
                let _ = writeln!(out, "{pad}NestedLoopJoin {kind:?}");
                Self::explain_ref(left, out, depth + 1, st);
                Self::explain_ref(right, out, depth + 1, st);
            }
            PhysicalPlan::HashAggregate {
                input,
                group_exprs,
                aggs,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}HashAggregate groups={} aggs={}",
                    group_exprs.len(),
                    aggs.len()
                );
                Self::explain_ref(input, out, depth + 1, st);
            }
            PhysicalPlan::UnionAll { inputs } => {
                let _ = writeln!(out, "{pad}UnionAll [{}]", inputs.len());
                for i in inputs {
                    Self::explain_ref(i, out, depth + 1, st);
                }
            }
            PhysicalPlan::Distinct { input } => {
                let _ = writeln!(out, "{pad}Distinct");
                Self::explain_ref(input, out, depth + 1, st);
            }
            PhysicalPlan::Sort { input, keys } => {
                let _ = writeln!(out, "{pad}Sort [{} keys]", keys.len());
                Self::explain_ref(input, out, depth + 1, st);
            }
            PhysicalPlan::Unnest { input, expr } => {
                let _ = writeln!(out, "{pad}Unnest {expr:?}");
                Self::explain_ref(input, out, depth + 1, st);
            }
        }
    }
}
