//! Physical query plans.
//!
//! A generated "SQL trigger" body in this system is a [`PhysicalPlan`]
//! evaluated against the database plus the firing statement's transition
//! tables. Plans are DAGs: the affected-key subplan is shared between the
//! OLD and NEW branches exactly like the `WITH AffectedKeys (…)` common
//! table expression in the paper's Figure 16, and the executor memoizes
//! shared nodes so they run once.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::fmt::{self, Write as _};
use std::sync::{Arc, Mutex};

use crate::expr::{AggExpr, Expr, ScalarFunc};
use crate::value::{ExactRow, Row};
use crate::{Database, Error, Result};

/// Shared plan handle; sharing a node means its result is computed once per
/// execution.
pub type PlanRef = Arc<PhysicalPlan>;

/// Which transition table a [`PlanOp::TransitionScan`] reads.
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

/// A physical operator with its parameters; its inputs live in the
/// [`PhysicalPlan`] node that carries it. All operators are fully
/// materializing (the engine targets correctness and index-driven
/// asymptotics, not pipelining).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PlanOp {
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
    /// σ — keep the input rows where `predicate` is true.
    Filter {
        /// Boolean predicate.
        predicate: Expr,
    },
    /// π — compute one output column per expression over the input row.
    Project {
        /// Output column expressions.
        exprs: Vec<Expr>,
    },
    /// Hash join of the left and right inputs on equi-key expressions,
    /// with an optional residual filter applied to the concatenated row.
    HashJoin {
        /// Key expressions over the left row.
        left_keys: Vec<Expr>,
        /// Key expressions over the right row (same length).
        right_keys: Vec<Expr>,
        /// Join variant.
        kind: JoinKind,
        /// Residual predicate over (left ++ right).
        filter: Option<Expr>,
    },
    /// Index nested-loop join: for each row of the one (outer, typically
    /// transition-derived and small) input, probe `table` by equality on
    /// `probe` columns (primary key or a secondary index). This is what
    /// keeps generated triggers O(affected) instead of O(database) — see
    /// Fig. 23.
    IndexJoin {
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
    /// Cross/theta join of the left and right inputs evaluated by nested
    /// loops (used only where the paper's CreateAKGraph requires a genuine
    /// cross product, Fig. 8 lines 36-39).
    NestedLoopJoin {
        /// Optional theta predicate over (left ++ right).
        predicate: Option<Expr>,
        /// Join variant.
        kind: JoinKind,
    },
    /// γ — hash aggregation. Output columns: group expressions then
    /// aggregates. With no group expressions, emits exactly one row.
    HashAggregate {
        /// Grouping expressions.
        group_exprs: Vec<Expr>,
        /// Aggregate columns.
        aggs: Vec<AggExpr>,
    },
    /// UNION ALL of one or more same-arity inputs.
    UnionAll,
    /// Duplicate elimination over whole rows.
    Distinct,
    /// Stable sort by the given keys.
    Sort {
        /// Sort keys, major first.
        keys: Vec<SortKey>,
    },
    /// XQGM's Unnest: evaluate `expr` per input row (an XML fragment,
    /// element or NULL) and emit `row ++ [item]` once per contained node.
    Unnest {
        /// Expression yielding the sequence to unnest.
        expr: Expr,
    },
}

impl PlanOp {
    /// How many inputs the operator reads; `None` for [`PlanOp::UnionAll`],
    /// which takes one or more.
    pub fn input_count(&self) -> Option<usize> {
        match self {
            PlanOp::TableScan { .. } | PlanOp::TransitionScan { .. } | PlanOp::Values { .. } => {
                Some(0)
            }
            PlanOp::Filter { .. }
            | PlanOp::Project { .. }
            | PlanOp::IndexJoin { .. }
            | PlanOp::HashAggregate { .. }
            | PlanOp::Distinct
            | PlanOp::Sort { .. }
            | PlanOp::Unnest { .. } => Some(1),
            PlanOp::HashJoin { .. } | PlanOp::NestedLoopJoin { .. } => Some(2),
            PlanOp::UnionAll => None,
        }
    }
}

/// A plan node: one operator over its inputs. Joins read
/// `[left, right]`; an [`PlanOp::IndexJoin`] reads its outer side only.
#[derive(Clone)]
pub struct PhysicalPlan {
    /// The operator and its parameters.
    pub op: PlanOp,
    /// Input plans, in the order the operator reads them.
    pub inputs: Vec<PlanRef>,
    /// A constructor projection's [`ReuseSlot`]; `None` on every other node.
    pub(crate) reuse: Option<Box<ReuseSlot>>,
}

/// The output rows of an XML-constructing `Project` (one whose expressions
/// hold an element constructor) in its last firing, keyed by exact input
/// row. A projection's output is a pure function of its input row, and XML
/// nodes never change once built, so when an input row comes back in the
/// next firing the executor hands out last time's output row by `Arc`
/// clone instead of building its elements again (see `exec`'s `Project`
/// arm). A leaf
/// UPDATE of the benchmark hierarchy projects the 64 leaves of its top
/// element; 63 of them are unchanged since the last firing.
///
/// The slot is invisible to the node's value, like
/// `quark_xml::Serialized`: equality, `Debug` and the node-table codec
/// ignore it, and a clone starts empty. Living in the node, it is shared by
/// every trigger that shares the node through the compile cache.
#[derive(Default)]
pub(crate) struct ReuseSlot(pub(crate) Mutex<HashMap<ExactRow, Row>>);

impl Clone for ReuseSlot {
    fn clone(&self) -> Self {
        ReuseSlot::default()
    }
}

impl PartialEq for PhysicalPlan {
    fn eq(&self, other: &Self) -> bool {
        self.op == other.op && self.inputs == other.inputs
    }
}

impl Eq for PhysicalPlan {}

impl fmt::Debug for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysicalPlan")
            .field("op", &self.op)
            .field("inputs", &self.inputs)
            .finish()
    }
}

/// Does `e` build an XML element (`XmlElement` or `XmlWrap`)?
fn constructs_xml(e: &Expr) -> bool {
    match e {
        Expr::Func(f, args) => {
            matches!(f, ScalarFunc::XmlElement { .. } | ScalarFunc::XmlWrap(_))
                || args.iter().any(constructs_xml)
        }
        Expr::Binary { left, right, .. } => constructs_xml(left) || constructs_xml(right),
        Expr::Not(e) | Expr::IsNull(e) => constructs_xml(e),
        Expr::Col(_) | Expr::Lit(_) => false,
    }
}

/// Rendering state for [`PhysicalPlan::explain`]: the nodes referenced from
/// more than one parent (by identity), each with the `[shared N]` label it
/// was given once rendered.
struct ExplainState {
    labels: HashMap<*const PhysicalPlan, Option<usize>>,
    next_label: usize,
}

impl PhysicalPlan {
    /// A node of `op` over `inputs`.
    ///
    /// # Panics
    /// If the input count contradicts [`PlanOp::input_count`]; decoders
    /// call `try_new` instead.
    pub fn new(op: PlanOp, inputs: Vec<PlanRef>) -> Self {
        Self::try_new(op, inputs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::new`], with a contradicting input count as an error.
    pub(crate) fn try_new(op: PlanOp, inputs: Vec<PlanRef>) -> Result<Self> {
        let ok = match op.input_count() {
            Some(n) => inputs.len() == n,
            None => !inputs.is_empty(),
        };
        if !ok {
            return Err(Error::Plan(format!(
                "{op:?} cannot take {} input(s)",
                inputs.len()
            )));
        }
        let reuse = match &op {
            PlanOp::Project { exprs } if exprs.iter().any(constructs_xml) => Some(Box::default()),
            _ => None,
        };
        Ok(PhysicalPlan { op, inputs, reuse })
    }

    /// Wrap into a shared handle.
    pub fn into_ref(self) -> PlanRef {
        Arc::new(self)
    }

    /// The one memoized walk over a plan DAG: `f(node, kid)` computes a
    /// node's value, asking `kid(input)` for the value of each input it
    /// needs — computed first, and once per distinct node (`Arc` identity).
    /// Plans are DAGs with heavy sharing (the affected-key subplan feeds
    /// both the OLD and NEW branches), so a naive tree walk would revisit a
    /// shared node once per *path*, which is exponential in view depth. An
    /// input `f` does not ask for is not visited.
    pub(crate) fn fold<'p, T, F>(&'p self, f: &F) -> T
    where
        T: Clone,
        F: Fn(&'p PhysicalPlan, &mut dyn FnMut(&'p PlanRef) -> T) -> T,
    {
        fn visit<'p, T, F>(
            node: &'p PhysicalPlan,
            f: &F,
            memo: &mut HashMap<*const PhysicalPlan, T>,
        ) -> T
        where
            T: Clone,
            F: Fn(&'p PhysicalPlan, &mut dyn FnMut(&'p PlanRef) -> T) -> T,
        {
            f(node, &mut |input| {
                let key = Arc::as_ptr(input);
                if let Some(hit) = memo.get(&key) {
                    return hit.clone();
                }
                let value = visit(input, f, memo);
                memo.insert(key, value.clone());
                value
            })
        }
        visit(self, f, &mut HashMap::new())
    }

    /// Number of output columns, resolved against `db` for table scans.
    pub fn arity(&self, db: &Database) -> Result<usize> {
        self.fold(&|node, kid| {
            Ok(match &node.op {
                PlanOp::TableScan { table, .. } | PlanOp::TransitionScan { table, .. } => {
                    db.table(table)?.schema().arity()
                }
                PlanOp::Values { arity, .. } => *arity,
                PlanOp::Filter { .. }
                | PlanOp::Distinct
                | PlanOp::Sort { .. }
                | PlanOp::UnionAll => kid(&node.inputs[0])?,
                PlanOp::Project { exprs } => exprs.len(),
                PlanOp::HashJoin { kind, .. } | PlanOp::NestedLoopJoin { kind, .. } => {
                    let left = kid(&node.inputs[0])?;
                    if kind.keeps_right() {
                        left + kid(&node.inputs[1])?
                    } else {
                        left
                    }
                }
                PlanOp::IndexJoin { table, kind, .. } => {
                    let outer = kid(&node.inputs[0])?;
                    if kind.keeps_right() {
                        outer + db.table(table)?.schema().arity()
                    } else {
                        outer
                    }
                }
                PlanOp::HashAggregate { group_exprs, aggs } => group_exprs.len() + aggs.len(),
                PlanOp::Unnest { .. } => kid(&node.inputs[0])? + 1,
            })
        })
    }

    /// Every stored table this plan can read, regardless of epoch: current
    /// scans and index probes, reconstructed `Old`-epoch accesses, and the
    /// base tables named by transition scans all count.
    ///
    /// This is the *footprint* analysis behind write scheduling: a
    /// writer whose trigger plans only touch these tables can run under
    /// per-table latches instead of the global write lock, in parallel with
    /// writers whose footprints are disjoint.
    pub fn table_footprint(&self) -> BTreeSet<String> {
        let out = RefCell::new(BTreeSet::new());
        self.fold(&|node, kid| {
            if let PlanOp::TableScan { table, .. }
            | PlanOp::TransitionScan { table, .. }
            | PlanOp::IndexJoin { table, .. } = &node.op
            {
                out.borrow_mut().insert(table.clone());
            }
            node.inputs.iter().for_each(kid);
        });
        out.into_inner()
    }

    /// Multi-line EXPLAIN-style rendering. Subplans referenced from more
    /// than one parent are rendered once and tagged `[shared N]`; later
    /// references print a one-line back-pointer. Without this, rendering a
    /// deeply shared DAG expands every path — hundreds of megabytes for a
    /// depth-5 view's trigger plan.
    pub fn explain(&self) -> String {
        // How many parents reference each node (by identity).
        let parents = RefCell::new(HashMap::new());
        self.fold(&|node, kid| {
            for input in &node.inputs {
                *parents.borrow_mut().entry(Arc::as_ptr(input)).or_insert(0) += 1;
                kid(input);
            }
        });
        let shared = parents.into_inner().into_iter().filter(|&(_, n)| n > 1);
        let mut st = ExplainState {
            labels: shared.map(|(node, _)| (node, None)).collect(),
            next_label: 1,
        };
        let mut out = String::new();
        self.explain_into(&mut out, 0, &mut st);
        out
    }

    /// Render one child reference: shared nodes get a `[shared N]` label on
    /// first visit and a one-line back-pointer afterwards.
    fn explain_ref(p: &PlanRef, out: &mut String, depth: usize, st: &mut ExplainState) {
        let Some(label) = st.labels.get_mut(&Arc::as_ptr(p)) else {
            return p.explain_into(out, depth, st);
        };
        let pad = "  ".repeat(depth);
        match *label {
            Some(n) => {
                let _ = writeln!(out, "{pad}[shared {n}] (see above)");
            }
            None => {
                let n = st.next_label;
                st.next_label += 1;
                *label = Some(n);
                let _ = writeln!(out, "{pad}[shared {n}]");
                p.explain_into(out, depth, st);
            }
        }
    }

    fn explain_into(&self, out: &mut String, depth: usize, st: &mut ExplainState) {
        let pad = "  ".repeat(depth);
        let _ = match &self.op {
            PlanOp::TableScan { table, epoch } => {
                writeln!(out, "{pad}TableScan {table} [{epoch:?}]")
            }
            PlanOp::TransitionScan {
                table,
                side,
                pruned,
            } => {
                let sym = match side {
                    TransitionSide::Delta => "Δ",
                    TransitionSide::Nabla => "∇",
                };
                let p = if *pruned { " pruned" } else { "" };
                writeln!(out, "{pad}TransitionScan {sym}{table}{p}")
            }
            PlanOp::Values { arity, rows } => {
                writeln!(out, "{pad}Values arity={arity} rows={}", rows.len())
            }
            PlanOp::Filter { predicate } => writeln!(out, "{pad}Filter {predicate:?}"),
            PlanOp::Project { exprs } => writeln!(out, "{pad}Project [{}]", exprs.len()),
            PlanOp::HashJoin {
                left_keys,
                right_keys,
                kind,
                ..
            } => writeln!(
                out,
                "{pad}HashJoin {kind:?} on {left_keys:?} = {right_keys:?}"
            ),
            PlanOp::IndexJoin {
                table,
                epoch,
                probe,
                kind,
                ..
            } => {
                let cols: Vec<usize> = probe.iter().map(|(c, _)| *c).collect();
                writeln!(
                    out,
                    "{pad}IndexJoin {kind:?} -> {table}[{epoch:?}] probe cols {cols:?}"
                )
            }
            PlanOp::NestedLoopJoin { kind, .. } => writeln!(out, "{pad}NestedLoopJoin {kind:?}"),
            PlanOp::HashAggregate { group_exprs, aggs } => writeln!(
                out,
                "{pad}HashAggregate groups={} aggs={}",
                group_exprs.len(),
                aggs.len()
            ),
            PlanOp::UnionAll => writeln!(out, "{pad}UnionAll [{}]", self.inputs.len()),
            PlanOp::Distinct => writeln!(out, "{pad}Distinct"),
            PlanOp::Sort { keys } => writeln!(out, "{pad}Sort [{} keys]", keys.len()),
            PlanOp::Unnest { expr } => writeln!(out, "{pad}Unnest {expr:?}"),
        };
        for input in &self.inputs {
            Self::explain_ref(input, out, depth + 1, st);
        }
    }
}
