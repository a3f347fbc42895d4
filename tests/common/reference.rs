//! The value-space reference semantics of trigger conditions: a
//! [`Condition`] evaluated directly on materialized `OLD_NODE` /
//! `NEW_NODE` values, as XPath reads it. A path selects a sequence of
//! element nodes or attribute strings; a comparison holds if some pair of
//! items compares true under `Value::sql_cmp`, and a pair `sql_cmp` cannot
//! order (NULL, NaN) compares false.
//!
//! The library compiles every condition into its firing plans
//! (`Condition::compile`); this evaluator shares none of that code, so the
//! suite can check the compiled conditions against it.

use std::cmp::Ordering;

use quark_core::relational::expr::BinOp;
use quark_core::relational::{Error, Result, Value};
use quark_core::xml::XmlNodeRef;
use quark_core::{CondValue, Condition, NodePath, NodeRef, Step};

/// Evaluate `cond` against materialized nodes (`None`: the side is
/// absent); `params` supplies values for [`CondValue::Param`] placeholders.
pub fn eval(
    cond: &Condition,
    old: Option<&XmlNodeRef>,
    new: Option<&XmlNodeRef>,
    params: &[Value],
) -> Result<bool> {
    eval_ctx(
        cond,
        &EvalCtx {
            old,
            new,
            context: None,
            params,
        },
    )
}

struct EvalCtx<'a> {
    old: Option<&'a XmlNodeRef>,
    new: Option<&'a XmlNodeRef>,
    context: Option<&'a XmlNodeRef>,
    params: &'a [Value],
}

fn eval_ctx(cond: &Condition, ctx: &EvalCtx<'_>) -> Result<bool> {
    match cond {
        Condition::True => Ok(true),
        Condition::And(a, b) => Ok(eval_ctx(a, ctx)? && eval_ctx(b, ctx)?),
        Condition::Or(a, b) => Ok(eval_ctx(a, ctx)? || eval_ctx(b, ctx)?),
        Condition::Not(a) => Ok(!eval_ctx(a, ctx)?),
        Condition::Exists(p) => Ok(!eval_path(p, ctx)?.is_empty()),
        Condition::Cmp { left, op, right } => {
            let lv = eval_value(left, ctx)?;
            let rv = eval_value(right, ctx)?;
            // XPath general comparison: existential over both sides.
            for l in &lv {
                for r in &rv {
                    if let Some(ord) = l.sql_cmp(r) {
                        let hit = match op {
                            BinOp::Eq => ord == Ordering::Equal,
                            BinOp::Ne => ord != Ordering::Equal,
                            BinOp::Lt => ord == Ordering::Less,
                            BinOp::Le => ord != Ordering::Greater,
                            BinOp::Gt => ord == Ordering::Greater,
                            BinOp::Ge => ord != Ordering::Less,
                            other => {
                                return Err(Error::Eval(format!(
                                    "non-comparison operator {other} in condition"
                                )))
                            }
                        };
                        if hit {
                            return Ok(true);
                        }
                    }
                }
            }
            Ok(false)
        }
    }
}

fn eval_value(cv: &CondValue, ctx: &EvalCtx<'_>) -> Result<Vec<Value>> {
    Ok(match cv {
        CondValue::Const(v) => vec![v.clone()],
        CondValue::Param(i) => vec![ctx
            .params
            .get(*i)
            .cloned()
            .ok_or_else(|| Error::Eval(format!("missing condition parameter {i}")))?],
        CondValue::Count(p) => vec![Value::Int(eval_path(p, ctx)?.len() as i64)],
        CondValue::Path(p) => {
            let items = eval_path(p, ctx)?;
            items.into_iter().map(PathItem::into_value).collect()
        }
    })
}

/// A path result item: an element node or an attribute string.
enum PathItem {
    Node(XmlNodeRef),
    Atom(String),
}

impl PathItem {
    fn into_value(self) -> Value {
        match self {
            PathItem::Node(n) => Value::Xml(n),
            PathItem::Atom(s) => Value::str(s),
        }
    }
}

fn eval_path(p: &NodePath, ctx: &EvalCtx<'_>) -> Result<Vec<PathItem>> {
    let start = match p.base {
        NodeRef::Old => ctx.old,
        NodeRef::New => ctx.new,
        NodeRef::Context => ctx.context,
    };
    let Some(start) = start else {
        return Ok(vec![]);
    };
    let mut current: Vec<XmlNodeRef> = vec![start.clone()];
    let mut result_atoms: Vec<PathItem> = Vec::new();
    for (i, step) in p.steps.iter().enumerate() {
        let last = i + 1 == p.steps.len();
        match step {
            Step::Attr(name) => {
                if !last {
                    return Err(Error::Eval("attribute step must be last".into()));
                }
                for n in &current {
                    if let Some(v) = n.attr(name) {
                        result_atoms.push(PathItem::Atom(v.to_string()));
                    }
                }
                return Ok(result_atoms);
            }
            Step::Child(name, pred) | Step::Descendant(name, pred) => {
                let descend = matches!(step, Step::Descendant(..));
                let mut next = Vec::new();
                for n in &current {
                    let selected: Vec<XmlNodeRef> = if descend {
                        n.descendants_named(name).into_iter().cloned().collect()
                    } else {
                        n.children_named(name).cloned().collect()
                    };
                    for item in selected {
                        let keep = match pred {
                            None => true,
                            Some(c) => eval_ctx(
                                c,
                                &EvalCtx {
                                    old: ctx.old,
                                    new: ctx.new,
                                    context: Some(&item),
                                    params: ctx.params,
                                },
                            )?,
                        };
                        if keep {
                            next.push(item);
                        }
                    }
                }
                current = next;
            }
        }
    }
    Ok(current.into_iter().map(PathItem::Node).collect())
}
