//! Compilation of XQGM graphs to physical plans.
//!
//! Two entry points:
//!
//! * [`compile`] — straightforward translation of a subgraph (used for view
//!   materialization, the test oracle, and as a fallback);
//! * [`compile_restricted`] — compiles a subgraph *semi-joined with a small
//!   driver relation of affected keys*, pushing the restriction down
//!   through group-bys, selects, projects and joins until it reaches base
//!   tables, where it becomes an index probe. This is the paper's §5.2
//!   "push down the join on affected keys" (visible in Fig. 16, where
//!   `ProductCount` computes vendor counts only for `AffectedKeys`), and is
//!   what keeps trigger cost proportional to the update, not the database
//!   (Fig. 23).
//!
//! Both share a memo so that subgraphs referenced multiple times (the
//! affected-key union feeding OLD and NEW branches) compile to *shared*
//! plan nodes, which the executor then evaluates once.
//!
//! Produced plan nodes are **hash-consed** within one compiler by value
//! number: a node's number is its operator plus its inputs' numbers, so
//! two nodes share a number exactly when they are structurally equal, and
//! a new node whose number is taken reuses the first node's `Arc`.
//! Together with restricted-compilation memoization keyed on the driver's
//! value number (not its allocation identity), this makes the number of
//! distinct compiled subplans proportional to the number of distinct
//! (operator, restriction) pairs — the recursion used to rebuild identical
//! driver pipelines at every join level, which blew compilation up
//! exponentially in view depth.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use quark_relational::expr::{BinOp, Expr};
use quark_relational::plan::{JoinKind, PhysicalPlan, PlanOp, PlanRef, TransitionSide};
use quark_relational::{Database, Error, Result};

use crate::graph::{Graph, OpId, OpKind, TableSource};

/// A small relation of key tuples that restricts a compiled subgraph.
///
/// Driver rows must be duplicate-free (build them with a `Distinct`); the
/// restricted compiler joins base tables directly against them.
#[derive(Debug, Clone)]
pub struct Driver {
    /// Plan producing the key rows.
    pub plan: PlanRef,
    /// Columns within the driver rows to match on, ordered like the
    /// restriction columns passed to [`compile_restricted`].
    pub cols: Vec<usize>,
}

/// Compiler state: graph + database + memo tables.
pub struct Compiler<'a> {
    graph: &'a Graph,
    db: &'a Database,
    full: HashMap<OpId, PlanRef>,
    /// Keyed on the driver's value number and columns.
    restricted: HashMap<(OpId, Vec<usize>, usize, Vec<usize>), PlanRef>,
    transition_cache: HashMap<OpId, bool>,
    compensations: HashMap<OpId, AggCompensation>,
    /// Value number per distinct `(op, input numbers)`, keyed by the
    /// first node that had it.
    interned: HashMap<Key, usize>,
    /// Value number per node met, by address. Holding the `Arc` keeps the
    /// address from being reused while it is numbered.
    numbered: HashMap<usize, (PlanRef, usize)>,
}

/// A plan node as a value-numbering key: its op and its inputs' numbers.
/// Hash and equality read only those, never the inputs themselves.
struct Key(PlanRef, Vec<usize>);

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (&self.0.op, &self.1).hash(state);
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.0.op == other.0.op && self.1 == other.1
    }
}

impl Eq for Key {}

/// Recipe for the §5.2 GROUPED-AGG optimization: compute a GroupBy's
/// *old* aggregates from its *new* aggregates plus transition-table
/// contributions (`old = new − Δ + ∇`), the inverse of incremental view
/// maintenance. Registered against the old-epoch GroupBy operator it
/// replaces; only distributive aggregates (COUNT(*), SUM) qualify.
#[derive(Debug, Clone)]
pub struct AggCompensation {
    /// The structurally identical current-epoch GroupBy.
    pub new_op: OpId,
    /// The GroupBy's input subgraph with the target table reading ΔT.
    pub delta_input: OpId,
    /// The GroupBy's input subgraph with the target table reading ∇T.
    pub nabla_input: OpId,
    /// Index (among the aggregates) of a COUNT(*) used to filter out
    /// groups that did not exist in the old state (compensated count 0).
    pub existence_agg: Option<usize>,
}

impl<'a> Compiler<'a> {
    /// New compiler over a graph.
    pub fn new(graph: &'a Graph, db: &'a Database) -> Self {
        Compiler {
            graph,
            db,
            full: HashMap::new(),
            restricted: HashMap::new(),
            transition_cache: HashMap::new(),
            compensations: HashMap::new(),
            interned: HashMap::new(),
            numbered: HashMap::new(),
        }
    }

    /// Value number of `p`: two nodes get the same number exactly when
    /// they are structurally equal. A node met for the first time (say, a
    /// caller's driver) is numbered as it is, not replaced.
    fn number(&mut self, p: &PlanRef) -> usize {
        let addr = Arc::as_ptr(p) as usize;
        if let Some(&(_, n)) = self.numbered.get(&addr) {
            return n;
        }
        let n = self.first(p).0;
        self.numbered.insert(addr, (Arc::clone(p), n));
        n
    }

    /// Hash-cons a freshly built node: the first node with its value
    /// number, which is `plan` itself if none came before.
    fn intern(&mut self, plan: PhysicalPlan) -> PlanRef {
        self.first(&plan.into_ref()).1
    }

    /// The value number of `p` and the first node that had it.
    fn first(&mut self, p: &PlanRef) -> (usize, PlanRef) {
        let inputs = p.inputs.iter().map(|i| self.number(i)).collect();
        let n = self.interned.len();
        match self.interned.entry(Key(Arc::clone(p), inputs)) {
            Entry::Occupied(first) => (*first.get(), Arc::clone(&first.key().0)),
            Entry::Vacant(slot) => {
                slot.insert(n);
                self.numbered
                    .insert(Arc::as_ptr(p) as usize, (Arc::clone(p), n));
                (n, Arc::clone(p))
            }
        }
    }

    /// Build the canonical restriction driver over `plan`: distinct
    /// projections of `cols`, hash-consed so identical drivers share one
    /// allocation (and thereby one restricted-memo key).
    fn driver_over(&mut self, plan: &PlanRef, cols: &[usize]) -> Driver {
        let exprs = cols.iter().map(|&c| Expr::col(c)).collect();
        let projected = self.intern(PhysicalPlan::project(exprs, Arc::clone(plan)));
        let distinct = self.intern(PhysicalPlan::new(PlanOp::Distinct, vec![projected]));
        Driver {
            plan: distinct,
            cols: (0..cols.len()).collect(),
        }
    }

    /// Register an aggregate compensation for an old-epoch GroupBy
    /// (see [`AggCompensation`]). Takes effect in restricted compilation.
    pub fn add_compensation(&mut self, old_op: OpId, recipe: AggCompensation) {
        self.compensations.insert(old_op, recipe);
    }

    /// Compile the subgraph rooted at `op` without restriction.
    pub fn compile(&mut self, op: OpId) -> Result<PlanRef> {
        if let Some(hit) = self.full.get(&op) {
            return Ok(Arc::clone(hit));
        }
        let plan = self.compile_uncached(op)?;
        self.full.insert(op, Arc::clone(&plan));
        Ok(plan)
    }

    fn compile_uncached(&mut self, id: OpId) -> Result<PlanRef> {
        let op = self.graph.op(id).clone();
        Ok(match &op.kind {
            OpKind::Table { table, source } => self.intern(table_plan(table, *source)),
            OpKind::Select { predicate } => {
                let input = self.compile(op.inputs[0])?;
                self.intern(PhysicalPlan::new(
                    PlanOp::Filter {
                        predicate: predicate.clone(),
                    },
                    vec![input],
                ))
            }
            OpKind::Project { exprs, .. } => {
                let input = self.compile(op.inputs[0])?;
                self.intern(PhysicalPlan::project(exprs.clone(), input))
            }
            OpKind::Join { kind, predicate } => {
                if let Some(plan) =
                    self.delta_driven_join(op.inputs[0], op.inputs[1], *kind, predicate.as_ref())?
                {
                    return Ok(plan);
                }
                let left = self.compile(op.inputs[0])?;
                let right = self.compile(op.inputs[1])?;
                let left_arity = self.graph.arity(op.inputs[0], self.db)?;
                self.intern(join_plan(
                    left,
                    right,
                    left_arity,
                    *kind,
                    predicate.as_ref(),
                ))
            }
            OpKind::GroupBy {
                group_cols, aggs, ..
            } => {
                let input = self.compile(op.inputs[0])?;
                self.intern(PhysicalPlan::new(
                    PlanOp::HashAggregate {
                        group_exprs: group_cols.iter().map(|&c| Expr::col(c)).collect(),
                        aggs: aggs.clone(),
                    },
                    vec![input],
                ))
            }
            OpKind::Union => {
                let mut inputs = Vec::with_capacity(op.inputs.len());
                for &i in &op.inputs {
                    inputs.push(self.compile(i)?);
                }
                let union = self.intern(PhysicalPlan::new(PlanOp::UnionAll, inputs));
                self.intern(PhysicalPlan::new(PlanOp::Distinct, vec![union]))
            }
            OpKind::Unnest { expr, .. } => {
                let input = self.compile(op.inputs[0])?;
                self.intern(PhysicalPlan::new(
                    PlanOp::Unnest { expr: expr.clone() },
                    vec![input],
                ))
            }
        })
    }

    /// The key trigger-pushdown rewrite (§5.2 "push down the join on
    /// affected keys"): when one join input derives from transition tables
    /// (and is therefore tiny), compile it fully and use its join-key values
    /// to *restrict* the other input instead of scanning it. This is what
    /// turns `Join(AffectedKeys, G)` into index probes.
    fn delta_driven_join(
        &mut self,
        left: OpId,
        right: OpId,
        kind: JoinKind,
        predicate: Option<&Expr>,
    ) -> Result<Option<PlanRef>> {
        let l_small = self.contains_transition(left);
        let r_small = self.contains_transition(right);
        if l_small == r_small {
            return Ok(None); // both small or both large: no driver side
        }
        let left_arity = self.graph.arity(left, self.db)?;
        let Some(pred) = predicate else {
            return Ok(None);
        };
        let (equi, _residual) = split_equi(pred, left_arity);
        if equi.is_empty() {
            return Ok(None);
        }
        if l_small {
            // Restrict the right side; valid for all left-preserving kinds.
            let small = self.compile(left)?;
            let lcols: Vec<usize> = equi.iter().map(|&(l, _)| l).collect();
            let rcols: Vec<usize> = equi.iter().map(|&(_, r)| r).collect();
            let driver = self.driver_over(&small, &lcols);
            let restricted = self.compile_restricted(right, &rcols, &driver)?;
            let plan = join_plan(small, restricted, left_arity, kind, predicate);
            return Ok(Some(self.intern(plan)));
        }
        // Small side on the right: only an inner join lets us restrict the
        // left input without changing semantics.
        if kind != JoinKind::Inner {
            return Ok(None);
        }
        let small = self.compile(right)?;
        let lcols: Vec<usize> = equi.iter().map(|&(l, _)| l).collect();
        let rcols: Vec<usize> = equi.iter().map(|&(_, r)| r).collect();
        let driver = self.driver_over(&small, &rcols);
        let restricted = self.compile_restricted(left, &lcols, &driver)?;
        let plan = join_plan(restricted, small, left_arity, kind, predicate);
        Ok(Some(self.intern(plan)))
    }

    /// Does the subtree under `op` read a transition table?
    fn contains_transition(&mut self, op: OpId) -> bool {
        if let Some(&hit) = self.transition_cache.get(&op) {
            return hit;
        }
        let node = self.graph.op(op);
        let found = matches!(
            node.kind,
            OpKind::Table {
                source: TableSource::Delta { .. } | TableSource::Nabla { .. },
                ..
            }
        ) || node
            .inputs
            .clone()
            .iter()
            .any(|&i| self.contains_transition(i));
        self.transition_cache.insert(op, found);
        found
    }

    /// Compile `op` restricted to rows whose `cols` values appear in the
    /// driver. Output columns are exactly `op`'s columns.
    pub fn compile_restricted(
        &mut self,
        id: OpId,
        cols: &[usize],
        driver: &Driver,
    ) -> Result<PlanRef> {
        debug_assert_eq!(cols.len(), driver.cols.len());
        // Keyed on the driver's *structure*, not its allocation: the
        // recursion derives equivalent drivers along many paths, and each
        // must map to one compiled subplan.
        let memo_key = (
            id,
            cols.to_vec(),
            self.number(&driver.plan),
            driver.cols.clone(),
        );
        if let Some(hit) = self.restricted.get(&memo_key) {
            return Ok(Arc::clone(hit));
        }
        let plan = self.compile_restricted_uncached(id, cols, driver)?;
        self.restricted.insert(memo_key, Arc::clone(&plan));
        Ok(plan)
    }

    fn compile_restricted_uncached(
        &mut self,
        id: OpId,
        cols: &[usize],
        driver: &Driver,
    ) -> Result<PlanRef> {
        // An unrestricted call degenerates to full compilation.
        if cols.is_empty() {
            return self.compile(id);
        }
        if let Some(recipe) = self.compensations.get(&id).cloned() {
            return self.compile_compensated(cols, driver, &recipe);
        }
        let op = self.graph.op(id).clone();
        match &op.kind {
            OpKind::Table { table, source } => {
                match source {
                    TableSource::Base(epoch) => {
                        if let Some(probe_pairs) = self.index_probe(table, cols, driver)? {
                            let table_arity = self.db.table(table)?.schema().arity();
                            let driver_arity = driver.plan.arity(self.db)?;
                            let joined = self.intern(PhysicalPlan::new(
                                PlanOp::IndexJoin {
                                    table: table.clone(),
                                    epoch: *epoch,
                                    probe: probe_pairs,
                                    kind: JoinKind::Inner,
                                    filter: None,
                                },
                                vec![Arc::clone(&driver.plan)],
                            ));
                            // Keep only the table's columns. Driver keys are
                            // distinct and probe columns functionally depend
                            // on the key, so no duplicates arise.
                            let exprs = (0..table_arity)
                                .map(|c| Expr::col(driver_arity + c))
                                .collect();
                            return Ok(self.intern(PhysicalPlan::project(exprs, joined)));
                        }
                        self.fallback_semi(id, cols, driver)
                    }
                    // Transition tables are already tiny; a hash semi-join
                    // is as good as a probe.
                    TableSource::Delta { .. } | TableSource::Nabla { .. } => {
                        self.fallback_semi(id, cols, driver)
                    }
                }
            }
            OpKind::Select { predicate } => {
                let input = self.compile_restricted(op.inputs[0], cols, driver)?;
                Ok(self.intern(PhysicalPlan::new(
                    PlanOp::Filter {
                        predicate: predicate.clone(),
                    },
                    vec![input],
                )))
            }
            OpKind::Project { exprs, .. } => {
                let mut mapped = Vec::with_capacity(cols.len());
                for &c in cols {
                    match exprs.get(c) {
                        Some(Expr::Col(i)) => mapped.push(*i),
                        _ => return self.fallback_semi(id, cols, driver),
                    }
                }
                let input = self.compile_restricted(op.inputs[0], &mapped, driver)?;
                Ok(self.intern(PhysicalPlan::project(exprs.clone(), input)))
            }
            OpKind::GroupBy {
                group_cols, aggs, ..
            } => {
                // Restriction on grouping columns selects whole groups, so
                // aggregates over the restricted input stay exact — this is
                // the step that makes Fig. 16's ProductCount correct.
                let mut mapped = Vec::with_capacity(cols.len());
                for &c in cols {
                    match group_cols.get(c) {
                        Some(&g) => mapped.push(g),
                        None => return self.fallback_semi(id, cols, driver),
                    }
                }
                let input = self.compile_restricted(op.inputs[0], &mapped, driver)?;
                Ok(self.intern(PhysicalPlan::new(
                    PlanOp::HashAggregate {
                        group_exprs: group_cols.iter().map(|&c| Expr::col(c)).collect(),
                        aggs: aggs.clone(),
                    },
                    vec![input],
                )))
            }
            OpKind::Join { kind, predicate } => {
                self.restrict_join(id, &op.inputs, *kind, predicate.as_ref(), cols, driver)
            }
            OpKind::Union => {
                let mut inputs = Vec::with_capacity(op.inputs.len());
                for &i in &op.inputs {
                    inputs.push(self.compile_restricted(i, cols, driver)?);
                }
                let union = self.intern(PhysicalPlan::new(PlanOp::UnionAll, inputs));
                Ok(self.intern(PhysicalPlan::new(PlanOp::Distinct, vec![union])))
            }
            OpKind::Unnest { expr, .. } => {
                let input_arity = self.graph.arity(op.inputs[0], self.db)?;
                if cols.iter().all(|&c| c < input_arity) {
                    let input = self.compile_restricted(op.inputs[0], cols, driver)?;
                    Ok(self.intern(PhysicalPlan::new(
                        PlanOp::Unnest { expr: expr.clone() },
                        vec![input],
                    )))
                } else {
                    self.fallback_semi(id, cols, driver)
                }
            }
        }
    }

    /// Build the compensation plan: `old = new − Δ-contributions +
    /// ∇-contributions`, grouped and summed, with vanished groups filtered
    /// by the existence count (Fig. 16 lines 27–51 generalize to this).
    fn compile_compensated(
        &mut self,
        cols: &[usize],
        driver: &Driver,
        recipe: &AggCompensation,
    ) -> Result<PlanRef> {
        let OpKind::GroupBy {
            group_cols, aggs, ..
        } = &self.graph.op(recipe.new_op).kind
        else {
            return Err(Error::Plan("compensation target is not a GroupBy".into()));
        };
        let group_cols = group_cols.clone();
        let aggs = aggs.clone();
        let glen = group_cols.len();

        // Per-aggregate contribution of one input row.
        let mut contributions = Vec::with_capacity(aggs.len());
        for a in &aggs {
            use quark_relational::expr::AggFunc;
            let c = match (&a.func, &a.arg) {
                (AggFunc::CountStar, _) => Expr::lit(1i64),
                (AggFunc::Sum, Some(arg)) => arg.clone(),
                other => {
                    return Err(Error::Plan(format!(
                        "aggregate {other:?} is not distributive; no compensation"
                    )))
                }
            };
            contributions.push(c);
        }
        let branch_exprs = |negate: bool| -> Vec<Expr> {
            group_cols
                .iter()
                .map(|&c| Expr::col(c))
                .chain(contributions.iter().map(|c| {
                    if negate {
                        Expr::bin(BinOp::Sub, Expr::lit(0i64), c.clone())
                    } else {
                        c.clone()
                    }
                }))
                .collect()
        };

        let new_rows = self.compile_restricted(recipe.new_op, cols, driver)?;
        let delta_input = self.compile(recipe.delta_input)?;
        let delta_rows = self.intern(PhysicalPlan::project(branch_exprs(true), delta_input));
        let nabla_input = self.compile(recipe.nabla_input)?;
        let nabla_rows = self.intern(PhysicalPlan::project(branch_exprs(false), nabla_input));

        let union = self.intern(PhysicalPlan::new(
            PlanOp::UnionAll,
            vec![new_rows, delta_rows, nabla_rows],
        ));
        let summed = self.intern(PhysicalPlan::new(
            PlanOp::HashAggregate {
                group_exprs: (0..glen).map(Expr::col).collect(),
                aggs: (0..aggs.len())
                    .map(|i| {
                        quark_relational::expr::AggExpr::over(
                            quark_relational::expr::AggFunc::Sum,
                            Expr::col(glen + i),
                        )
                    })
                    .collect(),
            },
            vec![union],
        ));
        Ok(match recipe.existence_agg {
            Some(e) => self.intern(PhysicalPlan::new(
                PlanOp::Filter {
                    predicate: Expr::bin(BinOp::Gt, Expr::col(glen + e), Expr::lit(0i64)),
                },
                vec![summed],
            )),
            None => summed,
        })
    }

    fn restrict_join(
        &mut self,
        id: OpId,
        inputs: &[OpId],
        kind: JoinKind,
        predicate: Option<&Expr>,
        cols: &[usize],
        driver: &Driver,
    ) -> Result<PlanRef> {
        let left_arity = self.graph.arity(inputs[0], self.db)?;
        let on_left: Vec<(usize, usize)> = cols
            .iter()
            .enumerate()
            .filter(|(_, &c)| c < left_arity)
            .map(|(i, &c)| (i, c))
            .collect();
        let on_right: Vec<(usize, usize)> = cols
            .iter()
            .enumerate()
            .filter(|(_, &c)| c >= left_arity)
            .map(|(i, &c)| (i, c - left_arity))
            .collect();

        if on_right.is_empty() {
            // All restriction columns come from the left input: restrict it
            // and re-join the right side (via index probe when possible).
            let lcols: Vec<usize> = on_left.iter().map(|&(_, c)| c).collect();
            let left = self.compile_restricted(inputs[0], &lcols, driver)?;
            return self.join_against(left, left_arity, inputs[1], kind, predicate);
        }

        if on_left.is_empty() && kind == JoinKind::Inner {
            // Mirror case: restrict the right side, then reorder columns.
            let rcols: Vec<usize> = on_right.iter().map(|&(_, c)| c).collect();
            let right = self.compile_restricted(inputs[1], &rcols, driver)?;
            let right_arity = self.graph.arity(inputs[1], self.db)?;
            // Join restricted-right (as the driving side) back to the left.
            let swapped_pred = predicate.map(|p| {
                p.remap_columns(&|c| {
                    if c < left_arity {
                        right_arity + c
                    } else {
                        c - left_arity
                    }
                })
            });
            // Drive the left side from the restricted right side's join-key
            // values when the predicate yields equi-pairs.
            let left_plan = match predicate.map(|p| split_equi(p, left_arity)) {
                Some((equi, _)) if !equi.is_empty() => {
                    let lcols: Vec<usize> = equi.iter().map(|&(l, _)| l).collect();
                    let rcols: Vec<usize> = equi.iter().map(|&(_, r)| r).collect();
                    let new_driver = self.driver_over(&right, &rcols);
                    self.compile_restricted(inputs[0], &lcols, &new_driver)?
                }
                _ => self.compile(inputs[0])?,
            };
            let joined = join_plan(
                right,
                left_plan,
                right_arity,
                JoinKind::Inner,
                swapped_pred.as_ref(),
            );
            let joined = self.intern(joined);
            // Reorder to (left ++ right).
            let exprs = (0..left_arity)
                .map(|c| Expr::col(right_arity + c))
                .chain((0..right_arity).map(Expr::col))
                .collect();
            return Ok(self.intern(PhysicalPlan::project(exprs, joined)));
        }

        if kind == JoinKind::Inner {
            // Restriction columns span both sides: restrict each side with
            // the driver projected onto that side's columns, join, then
            // apply the exact semi-join against the full driver.
            let dl_cols: Vec<usize> = on_left.iter().map(|&(i, _)| driver.cols[i]).collect();
            let dr_cols: Vec<usize> = on_right.iter().map(|&(i, _)| driver.cols[i]).collect();
            let dl = self.driver_over(&driver.plan, &dl_cols);
            let dr = self.driver_over(&driver.plan, &dr_cols);
            let lcols: Vec<usize> = on_left.iter().map(|&(_, c)| c).collect();
            let rcols: Vec<usize> = on_right.iter().map(|&(_, c)| c).collect();
            let left = self.compile_restricted(inputs[0], &lcols, &dl)?;
            let right = self.compile_restricted(inputs[1], &rcols, &dr)?;
            let joined = join_plan(left, right, left_arity, kind, predicate);
            let joined = self.intern(joined);
            return Ok(self.semi_join(joined, cols, driver));
        }

        self.fallback_semi(id, cols, driver)
    }

    /// Join an already-restricted left plan against the (unrestricted)
    /// right input, probing the right side's index when it is a base table
    /// and the join predicate supplies equi-pairs over its primary key or
    /// an indexed column.
    fn join_against(
        &mut self,
        left: PlanRef,
        left_arity: usize,
        right_id: OpId,
        kind: JoinKind,
        predicate: Option<&Expr>,
    ) -> Result<PlanRef> {
        let right_op = self.graph.op(right_id);
        if let OpKind::Table {
            table,
            source: TableSource::Base(epoch),
        } = &right_op.kind
        {
            if let Some(pred) = predicate {
                let (equi, residual) = split_equi(pred, left_arity);
                if !equi.is_empty() {
                    let t = self.db.table(table)?;
                    let schema = t.schema();
                    let rcols: Vec<usize> = equi.iter().map(|&(_, r)| r).collect();
                    let probe: Option<Vec<(usize, Expr)>> = if set_eq(&rcols, &schema.primary_key) {
                        // Order the probes to match the pk sequence.
                        Some(
                            schema
                                .primary_key
                                .iter()
                                .map(|pk| {
                                    let (l, r) = equi
                                        .iter()
                                        .find(|&&(_, r)| r == *pk)
                                        .expect("set_eq checked");
                                    (*r, Expr::col(*l))
                                })
                                .collect(),
                        )
                    } else {
                        equi.iter()
                            .find(|&&(_, r)| self.db.table(table).is_ok_and(|t| t.has_index(r)))
                            .map(|&(l, r)| vec![(r, Expr::col(l))])
                    };
                    if let Some(probe) = probe {
                        // Conjuncts not used for probing stay as a filter
                        // over (outer ++ inner) — same coordinates.
                        let mut residual = residual;
                        for &(l, r) in &equi {
                            if !probe
                                .iter()
                                .any(|(pc, pe)| *pc == r && matches!(pe, Expr::Col(c) if *c == l))
                            {
                                residual.push(Expr::eq(Expr::col(l), Expr::col(left_arity + r)));
                            }
                        }
                        let filter = if residual.is_empty() {
                            None
                        } else {
                            Some(Expr::and_all(residual))
                        };
                        let epoch = *epoch;
                        let table = table.clone();
                        return Ok(self.intern(PhysicalPlan::new(
                            PlanOp::IndexJoin {
                                table,
                                epoch,
                                probe,
                                kind,
                                filter,
                            },
                            vec![left],
                        )));
                    }
                }
            }
        }
        // Not a directly probe-able table: propagate the restriction by
        // deriving a fresh driver from the restricted left side's join-key
        // values — this is how affected keys reach group-bys nested deep in
        // a multi-level hierarchy view.
        if let Some(pred) = predicate {
            let (equi, _residual) = split_equi(pred, left_arity);
            if !equi.is_empty() {
                let lcols: Vec<usize> = equi.iter().map(|&(l, _)| l).collect();
                let rcols: Vec<usize> = equi.iter().map(|&(_, r)| r).collect();
                let new_driver = self.driver_over(&left, &lcols);
                let right = self.compile_restricted(right_id, &rcols, &new_driver)?;
                let plan = join_plan(left, right, left_arity, kind, predicate);
                return Ok(self.intern(plan));
            }
        }
        let right = self.compile(right_id)?;
        let plan = join_plan(left, right, left_arity, kind, predicate);
        Ok(self.intern(plan))
    }

    /// Try to derive index-probe pairs for restricting `table` directly on
    /// `cols` with the driver: full primary key, or one indexed column.
    fn index_probe(
        &self,
        table: &str,
        cols: &[usize],
        driver: &Driver,
    ) -> Result<Option<Vec<(usize, Expr)>>> {
        let t = self.db.table(table)?;
        let schema = t.schema();
        if set_eq(cols, &schema.primary_key) {
            let pairs = schema
                .primary_key
                .iter()
                .map(|pk| {
                    let i = cols.iter().position(|c| c == pk).expect("set_eq checked");
                    (*pk, Expr::col(driver.cols[i]))
                })
                .collect();
            return Ok(Some(pairs));
        }
        if cols.len() == 1 && t.has_index(cols[0]) {
            return Ok(Some(vec![(cols[0], Expr::col(driver.cols[0]))]));
        }
        Ok(None)
    }

    /// Correct-but-unpushed restriction: full subplan semi-joined with the
    /// driver.
    fn fallback_semi(&mut self, id: OpId, cols: &[usize], driver: &Driver) -> Result<PlanRef> {
        let full = self.compile(id)?;
        Ok(self.semi_join(full, cols, driver))
    }

    /// `plan` semi-joined with the driver on `cols`.
    fn semi_join(&mut self, plan: PlanRef, cols: &[usize], driver: &Driver) -> PlanRef {
        let op = PlanOp::HashJoin {
            left_keys: cols.iter().map(|&c| Expr::col(c)).collect(),
            right_keys: driver.cols.iter().map(|&c| Expr::col(c)).collect(),
            kind: JoinKind::LeftSemi,
            filter: None,
        };
        self.intern(PhysicalPlan::new(op, vec![plan, Arc::clone(&driver.plan)]))
    }
}

fn table_plan(table: &str, source: TableSource) -> PhysicalPlan {
    let table = table.to_string();
    let op = match source {
        TableSource::Base(epoch) => PlanOp::TableScan { table, epoch },
        TableSource::Delta { pruned } => PlanOp::TransitionScan {
            table,
            side: TransitionSide::Delta,
            pruned,
        },
        TableSource::Nabla { pruned } => PlanOp::TransitionScan {
            table,
            side: TransitionSide::Nabla,
            pruned,
        },
    };
    PhysicalPlan::new(op, vec![])
}

/// Build a hash join when the predicate yields equi-pairs, else a nested
/// loop join.
fn join_plan(
    left: PlanRef,
    right: PlanRef,
    left_arity: usize,
    kind: JoinKind,
    predicate: Option<&Expr>,
) -> PhysicalPlan {
    if let Some(pred) = predicate {
        let (equi, residual) = split_equi(pred, left_arity);
        if !equi.is_empty() {
            let filter = if residual.is_empty() {
                None
            } else {
                Some(Expr::and_all(residual))
            };
            let op = PlanOp::HashJoin {
                left_keys: equi.iter().map(|&(l, _)| Expr::col(l)).collect(),
                right_keys: equi.iter().map(|&(_, r)| Expr::col(r)).collect(),
                kind,
                filter,
            };
            return PhysicalPlan::new(op, vec![left, right]);
        }
    }
    let op = PlanOp::NestedLoopJoin {
        predicate: predicate.cloned(),
        kind,
    };
    PhysicalPlan::new(op, vec![left, right])
}

/// Split a conjunction into `(left col, right col)` equi-pairs (right cols
/// rebased to the right input's coordinates) and residual conjuncts (in
/// concatenated coordinates).
fn split_equi(pred: &Expr, left_arity: usize) -> (Vec<(usize, usize)>, Vec<Expr>) {
    let mut conjuncts = Vec::new();
    collect_conjuncts(pred, &mut conjuncts);
    let mut equi = Vec::new();
    let mut residual = Vec::new();
    for c in conjuncts {
        if let Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = &c
        {
            if let (Expr::Col(a), Expr::Col(b)) = (left.as_ref(), right.as_ref()) {
                if *a < left_arity && *b >= left_arity {
                    equi.push((*a, *b - left_arity));
                    continue;
                }
                if *b < left_arity && *a >= left_arity {
                    equi.push((*b, *a - left_arity));
                    continue;
                }
            }
        }
        residual.push(c);
    }
    (equi, residual)
}

fn collect_conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            collect_conjuncts(left, out);
            collect_conjuncts(right, out);
        }
        Expr::Lit(v) if v.is_true() => {}
        other => out.push(other.clone()),
    }
}

fn set_eq(a: &[usize], b: &[usize]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_unstable();
    sb.sort_unstable();
    sa == sb
}

/// One-shot full compilation.
pub fn compile(graph: &Graph, root: OpId, db: &Database) -> Result<PlanRef> {
    Compiler::new(graph, db).compile(root)
}

/// One-shot restricted compilation (see [`Compiler::compile_restricted`]).
pub fn compile_restricted(
    graph: &Graph,
    root: OpId,
    cols: &[usize],
    driver: &Driver,
    db: &Database,
) -> Result<PlanRef> {
    Compiler::new(graph, db).compile_restricted(root, cols, driver)
}

/// Guard for misuse in tests.
#[allow(dead_code)]
fn _static_checks() {
    fn assert_send<T: Send>() {}
    assert_send::<Error>();
}
