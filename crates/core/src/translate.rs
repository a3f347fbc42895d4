//! The translation pipeline: one new trigger group's SQL triggers, computed
//! from borrowed system state. Nothing here writes; `Quark::create_trigger`
//! commits what [`translate_group`] returns (constants-table DDL, [`install`],
//! group registration), so a translation error leaves the system as it was.
//!
//! Structure, following the paper:
//!
//! 1. [`group_key`] — §5.1 grouping: in the grouped modes the condition's
//!    constants become parameters, and triggers with equal parameterized
//!    conditions, views, events and action shapes ([`shape_of`]) share one
//!    group and one constants table;
//! 2. [`translate_group`] — for a group's first trigger: which node values
//!    the action and condition read (the §5.2 needs), event pushdown
//!    ([`source_events`], §3.3, Appendix C), then one affected-node plan per
//!    source *table* (`CreateANGraph`, Fig. 12 — `build_affected` does not
//!    depend on the relational event, so a table's INSERT/UPDATE/DELETE
//!    share it). Every new group is translated from its view: grouping is
//!    the only work shared between triggers, as in the paper;
//! 3. [`attach_condition`] — trigger pushdown (Figs. 14–16): the constants
//!    table is joined to the affected nodes, probed through its index on a
//!    `path = const` equality over a single-valued path ([`join_key`],
//!    Fig. 14's select→join conversion) and scanned otherwise, then the
//!    whole condition is applied as the plan's filter (every condition
//!    compiles; see [`Condition::compile`]);
//! 4. [`install`] / [`make_handler`] — one statement-level SQL trigger per
//!    source event, whose body runs the plan over the transition tables and
//!    activates the actions of every member whose constants set matched.
//!    Re-arming a recovered group installs through the same function.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use quark_relational::expr::{BinOp, Expr};
use quark_relational::plan::{JoinKind, PhysicalPlan, PlanOp, PlanRef, SortKey, TableEpoch};
use quark_relational::{
    ColumnDef, ColumnType, Database, Error, NativeTriggerFn, Result, Row, SqlTrigger, TableSchema,
    Value,
};

use crate::angraph::{build_affected, AffectedNodePlan, Needs, SideNeeds};
use crate::condition::{compile_path, CondLayout, CondValue, Condition, NodeRef, Step};
use crate::events::{source_events, SourceEvent};
use crate::spec::{Action, ActionParam, PathGraph, TriggerSpec};

use super::{ActionCall, ActionFn, ActionRegistry, Group, Members, Mode, SqlTriggerMeta};

/// The system state a translation reads.
pub(super) struct Context<'a> {
    pub db: &'a Database,
    pub mode: Mode,
    /// Id of the group being translated: it names the constants table and
    /// the SQL triggers.
    pub group_id: usize,
}

/// A translated group, not yet committed.
pub(super) struct NewGroup {
    /// The group with no member yet: its first trigger joins it like
    /// every later one.
    pub group: Group,
    /// The constants table to create, when the condition has constants
    /// and the mode groups.
    pub constants: Option<TableSchema>,
}

/// The group a trigger belongs to (§5.1): its signature, its condition
/// with the constants parameterized, and the constants. Ungrouped, every
/// trigger is a group of its own and keeps its constants in its condition.
pub(super) fn group_key(spec: &TriggerSpec, mode: Mode) -> (String, Condition, Vec<Value>) {
    if mode == Mode::Ungrouped {
        let signature = format!("ungrouped|{}", spec.name);
        return (signature, spec.condition.clone(), Vec::new());
    }
    let (cond, consts) = spec.condition.extract_constants();
    // The constants' column types belong to the signature: every set of a
    // group is one row of its constants table, whose columns have one type.
    let types: Vec<ColumnType> = consts.iter().map(column_type).collect();
    let signature = format!(
        "{}|{}|{}|{:?}|{:?}|{:?}",
        spec.view,
        spec.anchor,
        spec.event,
        cond,
        types,
        shape_of(&spec.action)
    );
    (signature, cond, consts)
}

/// Translate the first trigger of group `signature`, whose parameterized
/// condition is `cond` and whose first constants set is `consts`.
pub(super) fn translate_group(
    cx: &Context<'_>,
    spec: &TriggerSpec,
    template: &PathGraph,
    signature: String,
    cond: &Condition,
    consts: &[Value],
) -> Result<NewGroup> {
    let needs = needs(spec, cond, template);
    let constants = (!consts.is_empty())
        .then(|| constants_schema(cx.group_id, consts))
        .transpose()?;
    let constants_table = constants.as_ref().map(|schema| schema.name.clone());

    // Event pushdown on the composed path graph.
    let events = source_events(&template.graph, template.root, spec.event, cx.db)?;

    // One affected-node plan per source table, with the group-specific
    // condition/constants join stacked on it (`None`: the table cannot
    // affect the monitored path). One shared arena for every table's delta
    // graphs: the hash-consed graph reuses each (operator, source-variant)
    // subplan by reference instead of recloning the template per
    // source-event combination.
    let mut pg = template.clone();
    let ct = constants_table.as_deref();
    let mut stacked: HashMap<String, Option<(String, PlanRef)>> = HashMap::new();
    for src in &events {
        if !stacked.contains_key(&src.table) {
            let affected = build_affected(&mut pg, &src.table, spec.event, needs, cx.mode, cx.db)?;
            let plan = affected
                .map(|affected| attach_condition(&affected, cond, ct, consts.len(), cx.db))
                .transpose()?
                .map(|plan| (plan.explain(), plan));
            stacked.insert(src.table.clone(), plan);
        }
    }

    // One SQL trigger per source event.
    let sql_triggers = events
        .into_iter()
        .filter_map(|src| {
            let (plan, plan_ref) = stacked.get(&src.table)?.clone()?;
            Some(SqlTriggerMeta {
                name: format!("__quark_g{}_{}_{}", cx.group_id, src.table, src.event),
                plan,
                plan_ref,
                src,
            })
        })
        .collect();

    // The group's source-table footprint: every base table its stacked
    // plans touch (transitively through shared subplans — the plan walk
    // deduplicates on subplan identity), plus the constants table the
    // generated triggers join on every firing.
    let mut footprint: BTreeSet<String> = BTreeSet::new();
    for (table, (_, plan)) in stacked.iter().filter_map(|(t, p)| Some((t, p.as_ref()?))) {
        footprint.insert(table.clone());
        footprint.extend(plan.table_footprint());
    }
    footprint.extend(constants_table.iter().cloned());

    Ok(NewGroup {
        group: Group {
            signature,
            constants_table,
            params: spec.action.params.clone(),
            members: Arc::new(Mutex::new(HashMap::new())),
            next_set: 0,
            sql_triggers,
            footprint,
        },
        constants,
    })
}

/// Which node values the group actually needs: a side's constructed node
/// is built only when the action receives it or the condition reads into
/// its content (§5.2).
fn needs(spec: &TriggerSpec, cond: &Condition, template: &PathGraph) -> Needs {
    let attr_names: Vec<&str> = template.attr_cols.keys().map(String::as_str).collect();
    let side = |param: ActionParam, base: NodeRef| SideNeeds {
        node: spec.action.params.contains(&param) || cond.needs_node_content(base, &attr_names),
    };
    Needs {
        old: side(ActionParam::OldNode, NodeRef::Old),
        new: side(ActionParam::NewNode, NodeRef::New),
    }
}

/// The constants-table column type of a constant.
fn column_type(v: &Value) -> ColumnType {
    match v {
        Value::Int(_) => ColumnType::Int,
        Value::Double(_) => ColumnType::Double,
        Value::Bool(_) => ColumnType::Bool,
        _ => ColumnType::Str,
    }
}

/// The constants table of group `group_id`: `set_id` plus one column per
/// constant, of the type the group signature fixes. Every constant column
/// is indexed (see `Quark::commit_group`) so the generated trigger probes
/// instead of scanning (or hashing) all constants rows.
fn constants_schema(group_id: usize, consts: &[Value]) -> Result<TableSchema> {
    let mut columns = vec![ColumnDef::new("set_id", ColumnType::Int)];
    for (i, v) in consts.iter().enumerate() {
        columns.push(ColumnDef::new(format!("c{i}"), column_type(v)));
    }
    TableSchema::new(format!("__quark_const_{group_id}"), columns, &["set_id"])
}

fn shape_of(action: &Action) -> Vec<String> {
    action
        .params
        .iter()
        .map(|p| match p {
            ActionParam::OldNode => "OLD".to_string(),
            ActionParam::NewNode => "NEW".to_string(),
            ActionParam::Const(v) => format!("CONST({v:?})"),
        })
        .collect()
}

/// Stack the condition (and constants join) on top of the affected-node
/// plan: the compiled condition is the plan's `Filter`. Output layout:
/// `[set_id, old_node, new_node, c_0 … c_{k-1}]`.
fn attach_condition(
    affected: &AffectedNodePlan,
    cond: &Condition,
    constants_table: Option<&str>,
    n_consts: usize,
    db: &Database,
) -> Result<PlanRef> {
    let affected_arity = affected.plan.arity(db)?;
    let layout = &affected.layout;
    let old_expr = layout
        .old_node
        .map(Expr::col)
        .unwrap_or_else(|| Expr::lit(Value::Null));
    let new_expr = layout
        .new_node
        .map(Expr::col)
        .unwrap_or_else(|| Expr::lit(Value::Null));
    // The constants row, if any, follows the affected row's columns.
    let params: Vec<usize> = (0..n_consts).map(|i| affected_arity + 1 + i).collect();
    let cond_layout = CondLayout {
        old_node: layout.old_node,
        new_node: layout.new_node,
        old_attrs: layout.old_attrs.clone(),
        new_attrs: layout.new_attrs.clone(),
        params: params.clone(),
        context: None,
    };

    let affected_plan = Arc::clone(&affected.plan);
    let (joined, set_expr) = match constants_table {
        Some(ct) => {
            // Join with the constants table (Fig. 14/15): probe it through
            // its index when the condition has a join key — cost per update
            // stays proportional to the affected nodes, not to the number
            // of XML triggers (Fig. 17's flat GROUPED curve) — else
            // nested-loop.
            let join = match join_key(cond, &cond_layout) {
                Some((key_expr, param_idx)) => {
                    let op = PlanOp::IndexJoin {
                        table: ct.to_string(),
                        epoch: TableEpoch::Current,
                        probe: vec![(1 + param_idx, key_expr)],
                        kind: JoinKind::Inner,
                        filter: None,
                    };
                    PhysicalPlan::new(op, vec![affected_plan]).into_ref()
                }
                None => {
                    let const_scan = PlanOp::TableScan {
                        table: ct.to_string(),
                        epoch: TableEpoch::Current,
                    };
                    let const_scan = PhysicalPlan::new(const_scan, vec![]).into_ref();
                    let op = PlanOp::NestedLoopJoin {
                        predicate: None,
                        kind: JoinKind::Inner,
                    };
                    PhysicalPlan::new(op, vec![affected_plan, const_scan]).into_ref()
                }
            };
            (join, Expr::col(affected_arity))
        }
        None => (affected_plan, Expr::lit(0i64)),
    };

    let predicate = cond.compile(&cond_layout)?;
    let filtered = PhysicalPlan::new(PlanOp::Filter { predicate }, vec![joined]).into_ref();

    // Final projection [set_id, old, new, params…], sorted by set id.
    let mut exprs = vec![set_expr, old_expr, new_expr];
    exprs.extend(params.into_iter().map(Expr::col));
    let projected = PhysicalPlan::project(exprs, filtered).into_ref();
    let keys = vec![SortKey::asc(0)];
    let sorted = PhysicalPlan::new(PlanOp::Sort { keys }, vec![projected]).into_ref();
    Ok(sorted)
}

/// The probe of the constants table's index (Fig. 14's select→join
/// conversion): the first top-level conjunct `BASE/@attr = Param(i)`, whose
/// path has one value per node, as `(key over the affected row, i)`. Any
/// other path can select several items and compares existentially, which
/// one probe key cannot.
fn join_key(cond: &Condition, layout: &CondLayout) -> Option<(Expr, usize)> {
    match cond {
        Condition::Cmp {
            left: CondValue::Path(p),
            op: BinOp::Eq,
            right: CondValue::Param(i),
        }
        | Condition::Cmp {
            left: CondValue::Param(i),
            op: BinOp::Eq,
            right: CondValue::Path(p),
        } if matches!(p.steps.as_slice(), [Step::Attr(_)]) => {
            Some((compile_path(p.base, &p.steps, layout).ok()?, *i))
        }
        Condition::And(a, b) => join_key(a, layout).or_else(|| join_key(b, layout)),
        _ => None,
    }
}

/// Install `group`'s SQL triggers on `db`, each with a handler built from
/// its plan and source event.
pub(super) fn install(db: &mut Database, actions: &ActionRegistry, group: &Group) -> Result<()> {
    for t in &group.sql_triggers {
        let body = make_handler(
            Arc::clone(&t.plan_ref),
            t.src.clone(),
            Arc::clone(&group.members),
            group.params.clone(),
            Arc::clone(actions),
        );
        db.create_trigger(SqlTrigger {
            name: t.name.clone(),
            table: t.src.table.clone(),
            event: t.src.event,
            body,
        })?;
    }
    Ok(())
}

/// Build the SQL-trigger body: relevance check, plan execution (its rows
/// already satisfy the condition), and action activation of `members`,
/// each called with the group's action `params`.
fn make_handler(
    plan: PlanRef,
    src: SourceEvent,
    members: Members,
    params: Vec<ActionParam>,
    actions: ActionRegistry,
) -> Arc<NativeTriggerFn> {
    Arc::new(move |db, trans| {
        // Column-level relevance (event pushdown's UPDATE(o, C)).
        if !src.statement_relevant(&trans.inserted, &trans.deleted) {
            return Ok(());
        }
        let rows: Vec<Row> = quark_relational::exec::execute_with_transitions(db, &plan, trans)?;
        for row in rows {
            let Value::Int(set_id) = row[0] else {
                return Err(Error::Eval("set_id must be an integer".into()));
            };
            // `attach_condition`'s layout: set id, then the OLD and NEW
            // nodes (or NULL).
            let args: Vec<Value> = params
                .iter()
                .map(|p| match p {
                    ActionParam::OldNode => row[1].clone(),
                    ActionParam::NewNode => row[2].clone(),
                    ActionParam::Const(v) => v.clone(),
                })
                .collect();
            // Resolve the row's calls under both locks, each distinct
            // action once, then run them with neither held: an action's
            // cascade may fire this handler again. An unregistered action
            // fails the row before any of its actions runs. The registry
            // is locked before the members, the order every other holder
            // of both keeps (`Group::declared_writes`).
            let (fns, calls) = {
                let registry = actions.lock().expect("actions");
                let members = members.lock().expect("members");
                let Some(firing) = members.get(&set_id) else {
                    continue;
                };
                let mut names: Vec<&str> = Vec::new();
                let mut fns: Vec<ActionFn> = Vec::new();
                let mut calls = Vec::with_capacity(firing.len());
                for m in firing {
                    let at = match names.iter().position(|n| *n == m.function) {
                        Some(at) => at,
                        None => {
                            let entry = registry.get(&m.function).ok_or_else(|| {
                                Error::Plan(format!("unregistered action `{}`", m.function))
                            })?;
                            names.push(&m.function);
                            fns.push(Arc::clone(&entry.f));
                            fns.len() - 1
                        }
                    };
                    let call = ActionCall {
                        trigger: m.trigger.clone(),
                        params: args.clone(),
                    };
                    calls.push((at, call));
                }
                (fns, calls)
            };
            for (at, call) in &calls {
                fns[*at](db, call)?;
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::NodePath;
    use crate::spec::{Action, XmlEvent};

    /// The catalog's `NotifyP1` trigger translates from a borrowed database
    /// alone: one SQL trigger per source event, each probing the constants
    /// table through its index, and nothing borrowed changes.
    #[test]
    fn catalog_trigger_translates_from_borrowed_state() {
        let db = quark_xqgm::fixtures::product_vendor_db();
        let mut g = quark_xqgm::Graph::new();
        let (top, _) = quark_xqgm::fixtures::catalog_path_graph(&mut g);
        let (graph, root) = quark_xqgm::normalize(&g, top, &db).unwrap();
        let template = PathGraph {
            graph,
            root,
            node_col: 1,
            attr_cols: HashMap::from([("name".to_string(), 0)]),
        };
        let spec = TriggerSpec {
            name: "NotifyP1".into(),
            event: XmlEvent::Update,
            view: "catalog".into(),
            anchor: "product".into(),
            condition: Condition::cmp(NodePath::attr(NodeRef::Old, "name"), BinOp::Eq, "CRT 15"),
            action: Action {
                function: "notify".into(),
                params: vec![ActionParam::NewNode],
            },
        };
        let (signature, cond, consts) = group_key(&spec, Mode::Grouped);
        assert_eq!(consts, [Value::str("CRT 15")]);
        let cx = Context {
            db: &db,
            mode: Mode::Grouped,
            group_id: 7,
        };
        let new =
            translate_group(&cx, &spec, &template, signature.clone(), &cond, &consts).unwrap();

        assert_eq!(
            new.constants.map(|s| s.name).as_deref(),
            Some("__quark_const_7")
        );
        let group = &new.group;
        assert_eq!(group.signature, signature);
        assert_eq!(group.params, [ActionParam::NewNode]);
        assert_eq!(group.next_set, 0);
        assert!(group.members.lock().unwrap().is_empty());
        let mut names: Vec<&str> = group.sql_triggers.iter().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            [
                "__quark_g7_product_DELETE",
                "__quark_g7_product_INSERT",
                "__quark_g7_product_UPDATE",
                "__quark_g7_vendor_DELETE",
                "__quark_g7_vendor_INSERT",
                "__quark_g7_vendor_UPDATE",
            ]
        );
        for t in &group.sql_triggers {
            assert!(
                t.plan.contains("IndexJoin Inner -> __quark_const_7"),
                "{}",
                t.plan
            );
        }
        let footprint: Vec<&str> = group.footprint.iter().map(String::as_str).collect();
        assert_eq!(footprint, ["__quark_const_7", "product", "vendor"]);

        assert_eq!(db.trigger_count(), 0);
        assert!(db.table("__quark_const_7").is_err());
    }
}
