//! Trigger conditions: Boolean XQuery expressions over `OLD_NODE` /
//! `NEW_NODE` (§2.2).
//!
//! Conditions have three lives in this system:
//!
//! 1. **Value-space evaluation** ([`Condition::eval`]) against materialized
//!    XML nodes — the reference semantics, used by the oracle and as the
//!    general fallback.
//! 2. **Relational compilation** ([`Condition::compile`]) to an [`Expr`]
//!    over the affected-node row, navigating the already-constructed node
//!    values with XML functions; attribute paths that the view maps to
//!    scalar columns compile to direct column references, which is what
//!    lets the old side skip node construction (§5.2).
//! 3. **Parameterization** ([`Condition::extract_constants`]) — constants
//!    are replaced by [`CondValue::Param`] placeholders so structurally
//!    similar triggers share one translation and differ only in rows of a
//!    constants table (§5.1).

use quark_relational::expr::{BinOp, Expr, ScalarFunc};
use quark_relational::{Error, Result, Value};
use quark_xml::XmlNodeRef;

/// Which monitored node a path starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRef {
    /// `OLD_NODE` (undefined for INSERT events).
    Old,
    /// `NEW_NODE` (undefined for DELETE events).
    New,
    /// The context item inside a step predicate (`.` in `[./price < 10]`).
    Context,
}

/// XPath axes supported by the implementation (§3.2 / Appendix D: child,
/// descendant, attribute, self).
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// `child::name`, with an optional predicate over each selected item.
    Child(String, Option<Box<Condition>>),
    /// `descendant::name`, with an optional predicate.
    Descendant(String, Option<Box<Condition>>),
    /// `attribute::name` (terminal).
    Attr(String),
}

/// A relative path from a node reference.
#[derive(Debug, Clone, PartialEq)]
pub struct NodePath {
    /// Starting node.
    pub base: NodeRef,
    /// Steps, applied left to right.
    pub steps: Vec<Step>,
}

impl NodePath {
    /// `BASE/@attr` shorthand.
    pub fn attr(base: NodeRef, name: impl Into<String>) -> Self {
        NodePath {
            base,
            steps: vec![Step::Attr(name.into())],
        }
    }

    /// `BASE/child` shorthand.
    pub fn child(base: NodeRef, name: impl Into<String>) -> Self {
        NodePath {
            base,
            steps: vec![Step::Child(name.into(), None)],
        }
    }

    fn uses(&self, base: NodeRef) -> bool {
        self.base == base
            || self.steps.iter().any(|s| match s {
                Step::Child(_, Some(p)) | Step::Descendant(_, Some(p)) => p.uses_node(base),
                _ => false,
            })
    }
}

/// A comparable value in a condition.
#[derive(Debug, Clone, PartialEq)]
pub enum CondValue {
    /// A path, atomized (attribute string / element text / node sequence
    /// with existential comparison semantics).
    Path(NodePath),
    /// A literal.
    Const(Value),
    /// A grouping placeholder: the i-th column of the group's constants
    /// table.
    Param(usize),
    /// `count(path)`.
    Count(NodePath),
}

/// A Boolean condition over `OLD_NODE`/`NEW_NODE`.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// Always true (no WHERE clause).
    True,
    /// Comparison with XPath existential semantics on node sequences.
    Cmp {
        /// Left operand.
        left: CondValue,
        /// One of `=`, `!=`, `<`, `<=`, `>`, `>=`.
        op: BinOp,
        /// Right operand.
        right: CondValue,
    },
    /// `exists(path)` / `some … satisfies` reduced form.
    Exists(NodePath),
    /// Conjunction.
    And(Box<Condition>, Box<Condition>),
    /// Disjunction.
    Or(Box<Condition>, Box<Condition>),
    /// Negation (also covers `every … satisfies` via De Morgan).
    Not(Box<Condition>),
}

impl Condition {
    /// Convenience: `path op literal`.
    pub fn cmp(path: NodePath, op: BinOp, value: impl Into<Value>) -> Self {
        Condition::Cmp {
            left: CondValue::Path(path),
            op,
            right: CondValue::Const(value.into()),
        }
    }

    /// Convenience: `count(path) op literal`.
    pub fn count_cmp(path: NodePath, op: BinOp, value: impl Into<Value>) -> Self {
        Condition::Cmp {
            left: CondValue::Count(path),
            op,
            right: CondValue::Const(value.into()),
        }
    }

    /// Does the condition reference the given node at all?
    pub fn uses_node(&self, base: NodeRef) -> bool {
        match self {
            Condition::True => false,
            Condition::Cmp { left, op: _, right } => {
                let v = |cv: &CondValue| match cv {
                    CondValue::Path(p) | CondValue::Count(p) => p.uses(base),
                    _ => false,
                };
                v(left) || v(right)
            }
            Condition::Exists(p) => p.uses(base),
            Condition::And(a, b) | Condition::Or(a, b) => a.uses_node(base) || b.uses_node(base),
            Condition::Not(a) => a.uses_node(base),
        }
    }

    /// Does the condition need more than attribute access on `base` (i.e.
    /// navigation into children/descendants, which requires the constructed
    /// node rather than scalar columns)?
    pub fn needs_node_content(&self, base: NodeRef, attrs: &[&str]) -> bool {
        let path_deep = |p: &NodePath| -> bool {
            if p.base != base {
                // Predicates nested under the other base may still reference
                // `base` via context chains — conservatively recurse.
                return p.steps.iter().any(|s| match s {
                    Step::Child(_, Some(c)) | Step::Descendant(_, Some(c)) => {
                        c.needs_node_content(base, attrs)
                    }
                    _ => false,
                });
            }
            !matches!(p.steps.as_slice(), [Step::Attr(a)] if attrs.contains(&a.as_str()))
        };
        match self {
            Condition::True => false,
            Condition::Cmp { left, right, .. } => {
                let v = |cv: &CondValue| match cv {
                    CondValue::Path(p) => path_deep(p),
                    CondValue::Count(p) => p.base == base || path_deep(p),
                    _ => false,
                };
                v(left) || v(right)
            }
            Condition::Exists(p) => path_deep(p),
            Condition::And(a, b) | Condition::Or(a, b) => {
                a.needs_node_content(base, attrs) || b.needs_node_content(base, attrs)
            }
            Condition::Not(a) => a.needs_node_content(base, attrs),
        }
    }

    /// Replace every [`CondValue::Const`] with a [`CondValue::Param`],
    /// returning the parameterized condition and the extracted constants in
    /// parameter order. The parameterized form is the group signature
    /// (§5.1: triggers "that only differ in selection constant(s)").
    pub fn extract_constants(&self) -> (Condition, Vec<Value>) {
        let mut consts = Vec::new();
        let cond = self.parameterize(&mut consts);
        (cond, consts)
    }

    fn parameterize(&self, out: &mut Vec<Value>) -> Condition {
        let pv = |cv: &CondValue, out: &mut Vec<Value>| match cv {
            CondValue::Const(v) => {
                out.push(v.clone());
                CondValue::Param(out.len() - 1)
            }
            CondValue::Path(p) => CondValue::Path(parameterize_path(p, out)),
            CondValue::Count(p) => CondValue::Count(parameterize_path(p, out)),
            other => other.clone(),
        };
        match self {
            Condition::True => Condition::True,
            Condition::Cmp { left, op, right } => Condition::Cmp {
                left: pv(left, out),
                op: *op,
                right: pv(right, out),
            },
            Condition::Exists(p) => Condition::Exists(parameterize_path(p, out)),
            Condition::And(a, b) => {
                Condition::And(Box::new(a.parameterize(out)), Box::new(b.parameterize(out)))
            }
            Condition::Or(a, b) => {
                Condition::Or(Box::new(a.parameterize(out)), Box::new(b.parameterize(out)))
            }
            Condition::Not(a) => Condition::Not(Box::new(a.parameterize(out))),
        }
    }

    // ------------------------------------------------------------------
    // Value-space evaluation (reference semantics)
    // ------------------------------------------------------------------

    /// Evaluate against materialized nodes; `params` supplies values for
    /// [`CondValue::Param`] placeholders.
    pub fn eval(
        &self,
        old: Option<&XmlNodeRef>,
        new: Option<&XmlNodeRef>,
        params: &[Value],
    ) -> Result<bool> {
        self.eval_ctx(&EvalCtx {
            old,
            new,
            context: None,
            params,
        })
    }

    fn eval_ctx(&self, ctx: &EvalCtx<'_>) -> Result<bool> {
        match self {
            Condition::True => Ok(true),
            Condition::And(a, b) => Ok(a.eval_ctx(ctx)? && b.eval_ctx(ctx)?),
            Condition::Or(a, b) => Ok(a.eval_ctx(ctx)? || b.eval_ctx(ctx)?),
            Condition::Not(a) => Ok(!a.eval_ctx(ctx)?),
            Condition::Exists(p) => Ok(!eval_path(p, ctx)?.is_empty()),
            Condition::Cmp { left, op, right } => {
                let lv = eval_value(left, ctx)?;
                let rv = eval_value(right, ctx)?;
                // XPath general comparison: existential over both sides.
                for l in &lv {
                    for r in &rv {
                        if let Some(ord) = l.sql_cmp(r) {
                            let hit = match op {
                                BinOp::Eq => ord == std::cmp::Ordering::Equal,
                                BinOp::Ne => ord != std::cmp::Ordering::Equal,
                                BinOp::Lt => ord == std::cmp::Ordering::Less,
                                BinOp::Le => ord != std::cmp::Ordering::Greater,
                                BinOp::Gt => ord == std::cmp::Ordering::Greater,
                                BinOp::Ge => ord != std::cmp::Ordering::Less,
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

    // ------------------------------------------------------------------
    // Relational compilation
    // ------------------------------------------------------------------

    /// Compile to an [`Expr`] over a row. `layout` maps node references and
    /// parameters to row columns. Paths navigate the node-valued columns
    /// with XML functions; single-attribute paths use scalar columns when
    /// the layout provides them.
    pub fn compile(&self, layout: &CondLayout) -> Result<Expr> {
        match self {
            Condition::True => Ok(Expr::lit(true)),
            Condition::And(a, b) => Ok(Expr::bin(
                BinOp::And,
                a.compile(layout)?,
                b.compile(layout)?,
            )),
            Condition::Or(a, b) => Ok(Expr::bin(BinOp::Or, a.compile(layout)?, b.compile(layout)?)),
            Condition::Not(a) => Ok(Expr::Not(Box::new(a.compile(layout)?))),
            Condition::Exists(p) => {
                let nodes = compile_path(p, layout)?;
                Ok(Expr::bin(
                    BinOp::Gt,
                    Expr::Func(ScalarFunc::NodeCount, vec![nodes]),
                    Expr::lit(0i64),
                ))
            }
            Condition::Cmp { left, op, right } => {
                let l = compile_value(left, layout)?;
                let r = compile_value(right, layout)?;
                Ok(Expr::bin(*op, l, r))
            }
        }
    }
}

fn parameterize_path(p: &NodePath, out: &mut Vec<Value>) -> NodePath {
    NodePath {
        base: p.base,
        steps: p
            .steps
            .iter()
            .map(|s| match s {
                Step::Child(n, Some(c)) => {
                    Step::Child(n.clone(), Some(Box::new(c.parameterize(out))))
                }
                Step::Descendant(n, Some(c)) => {
                    Step::Descendant(n.clone(), Some(Box::new(c.parameterize(out))))
                }
                other => other.clone(),
            })
            .collect(),
    }
}

struct EvalCtx<'a> {
    old: Option<&'a XmlNodeRef>,
    new: Option<&'a XmlNodeRef>,
    context: Option<&'a XmlNodeRef>,
    params: &'a [Value],
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
                            Some(c) => c.eval_ctx(&EvalCtx {
                                old: ctx.old,
                                new: ctx.new,
                                context: Some(&item),
                                params: ctx.params,
                            })?,
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

/// Column layout for compiling conditions over affected-node rows.
#[derive(Debug, Clone, Default)]
pub struct CondLayout {
    /// Column with the OLD node value, if constructed.
    pub old_node: Option<usize>,
    /// Column with the NEW node value, if constructed.
    pub new_node: Option<usize>,
    /// Scalar columns for OLD attributes (`@name` → column).
    pub old_attrs: std::collections::HashMap<String, usize>,
    /// Scalar columns for NEW attributes.
    pub new_attrs: std::collections::HashMap<String, usize>,
    /// Columns for `Param(i)` placeholders (the joined constants row).
    pub params: Vec<usize>,
}

/// Compile one comparison operand (also grouping's constants-table join key).
pub(crate) fn compile_value(cv: &CondValue, layout: &CondLayout) -> Result<Expr> {
    Ok(match cv {
        CondValue::Const(v) => Expr::Lit(v.clone()),
        CondValue::Param(i) => Expr::col(
            *layout
                .params
                .get(*i)
                .ok_or_else(|| Error::Plan(format!("no column for condition param {i}")))?,
        ),
        CondValue::Count(p) => Expr::Func(ScalarFunc::NodeCount, vec![compile_path(p, layout)?]),
        CondValue::Path(p) => {
            // Comparisons use XPath *existential* semantics over node
            // sequences; a relational expression compares one value. Only
            // single-attribute paths (exactly one value per node) compile;
            // anything deeper is evaluated in value space by the handler.
            if !matches!(p.steps.as_slice(), [Step::Attr(_)]) {
                return Err(Error::Plan(
                    "multi-item path comparison requires value-space evaluation".into(),
                ));
            }
            compile_path(p, layout)?
        }
    })
}

/// Compile a path to an expression producing a node fragment (or a scalar
/// for attribute-terminal paths).
fn compile_path(p: &NodePath, layout: &CondLayout) -> Result<Expr> {
    // Scalar shortcut: BASE/@attr with a mapped column.
    if let [Step::Attr(a)] = p.steps.as_slice() {
        let mapped = match p.base {
            NodeRef::Old => layout.old_attrs.get(a),
            NodeRef::New => layout.new_attrs.get(a),
            NodeRef::Context => None,
        };
        if let Some(&col) = mapped {
            return Ok(Expr::col(col));
        }
    }
    let base_col = match p.base {
        NodeRef::Old => layout.old_node,
        NodeRef::New => layout.new_node,
        NodeRef::Context => None,
    }
    .ok_or_else(|| {
        Error::Plan(format!(
            "condition path on {:?} requires the constructed node, which this layout lacks",
            p.base
        ))
    })?;
    let mut expr = Expr::col(base_col);
    for step in &p.steps {
        expr = match step {
            Step::Attr(a) => Expr::Func(ScalarFunc::XmlAttr(a.clone()), vec![expr]),
            Step::Child(n, None) => Expr::Func(ScalarFunc::XmlChildren(n.clone()), vec![expr]),
            Step::Descendant(n, None) => {
                Expr::Func(ScalarFunc::XmlDescendants(n.clone()), vec![expr])
            }
            Step::Child(_, Some(_)) | Step::Descendant(_, Some(_)) => {
                return Err(Error::Plan(
                    "step predicates are not relationally compilable; \
                     evaluate this condition in value space"
                        .into(),
                ))
            }
        };
    }
    Ok(expr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quark_xml::{element, text};

    fn product() -> XmlNodeRef {
        element(
            "product",
            vec![("name".into(), "CRT 15".into())],
            vec![
                element(
                    "vendor",
                    vec![],
                    vec![element("price", vec![], vec![text("100")])],
                ),
                element(
                    "vendor",
                    vec![],
                    vec![element("price", vec![], vec![text("150")])],
                ),
            ],
        )
    }

    #[test]
    fn attr_comparison_matches_old_node() {
        let cond = Condition::cmp(NodePath::attr(NodeRef::Old, "name"), BinOp::Eq, "CRT 15");
        let p = product();
        assert!(cond.eval(Some(&p), None, &[]).unwrap());
        let miss = Condition::cmp(NodePath::attr(NodeRef::Old, "name"), BinOp::Eq, "LCD 19");
        assert!(!miss.eval(Some(&p), None, &[]).unwrap());
    }

    #[test]
    fn absent_node_makes_paths_empty() {
        let cond = Condition::cmp(NodePath::attr(NodeRef::Old, "name"), BinOp::Eq, "CRT 15");
        assert!(!cond.eval(None, Some(&product()), &[]).unwrap());
    }

    #[test]
    fn count_with_step_predicate() {
        // count(NEW_NODE/vendor[./price < 120]) >= 1 — the §5.1 nested
        // condition shape.
        let pred = Condition::cmp(
            NodePath::child(NodeRef::Context, "price"),
            BinOp::Lt,
            Value::Int(120),
        );
        let cond = Condition::count_cmp(
            NodePath {
                base: NodeRef::New,
                steps: vec![Step::Child("vendor".into(), Some(Box::new(pred)))],
            },
            BinOp::Ge,
            Value::Int(1),
        );
        let p = product();
        assert!(cond.eval(None, Some(&p), &[]).unwrap());
        // Tightening the threshold to < 100 leaves zero vendors.
        let pred = Condition::cmp(
            NodePath::child(NodeRef::Context, "price"),
            BinOp::Lt,
            Value::Int(100),
        );
        let cond = Condition::count_cmp(
            NodePath {
                base: NodeRef::New,
                steps: vec![Step::Child("vendor".into(), Some(Box::new(pred)))],
            },
            BinOp::Ge,
            Value::Int(1),
        );
        assert!(!cond.eval(None, Some(&p), &[]).unwrap());
    }

    #[test]
    fn existential_comparison_over_sequences() {
        // NEW_NODE/vendor/price = 150 is true if ANY price matches.
        let cond = Condition::cmp(
            NodePath {
                base: NodeRef::New,
                steps: vec![
                    Step::Child("vendor".into(), None),
                    Step::Child("price".into(), None),
                ],
            },
            BinOp::Eq,
            Value::Int(150),
        );
        assert!(cond.eval(None, Some(&product()), &[]).unwrap());
    }

    #[test]
    fn constants_extraction_parameterizes() {
        let cond = Condition::And(
            Box::new(Condition::cmp(
                NodePath::attr(NodeRef::Old, "name"),
                BinOp::Eq,
                "CRT 15",
            )),
            Box::new(Condition::count_cmp(
                NodePath::child(NodeRef::New, "vendor"),
                BinOp::Ge,
                Value::Int(2),
            )),
        );
        let (sig, consts) = cond.extract_constants();
        assert_eq!(consts, vec![Value::str("CRT 15"), Value::Int(2)]);
        // Same structure with different constants gives the same signature.
        let cond2 = Condition::And(
            Box::new(Condition::cmp(
                NodePath::attr(NodeRef::Old, "name"),
                BinOp::Eq,
                "LCD 19",
            )),
            Box::new(Condition::count_cmp(
                NodePath::child(NodeRef::New, "vendor"),
                BinOp::Ge,
                Value::Int(5),
            )),
        );
        let (sig2, consts2) = cond2.extract_constants();
        assert_eq!(format!("{sig:?}"), format!("{sig2:?}"));
        assert_eq!(consts2, vec![Value::str("LCD 19"), Value::Int(5)]);
        // Evaluation honours params.
        let p = product();
        assert!(sig.eval(Some(&p), Some(&p), &consts).unwrap());
        assert!(!sig.eval(Some(&p), Some(&p), &consts2).unwrap());
    }

    #[test]
    fn compile_uses_scalar_attr_columns() {
        let cond = Condition::cmp(NodePath::attr(NodeRef::Old, "name"), BinOp::Eq, "CRT 15");
        let mut layout = CondLayout::default();
        layout.old_attrs.insert("name".into(), 3);
        let expr = cond.compile(&layout).unwrap();
        let row = vec![Value::Null, Value::Null, Value::Null, Value::str("CRT 15")];
        assert!(expr.eval(&row).unwrap().is_true());
    }

    #[test]
    fn compile_navigates_node_columns() {
        let cond = Condition::count_cmp(
            NodePath::child(NodeRef::New, "vendor"),
            BinOp::Ge,
            Value::Int(2),
        );
        let layout = CondLayout {
            new_node: Some(0),
            ..Default::default()
        };
        let expr = cond.compile(&layout).unwrap();
        let row = vec![Value::Xml(product())];
        assert!(expr.eval(&row).unwrap().is_true());
    }

    #[test]
    fn compile_rejects_step_predicates() {
        let pred = Condition::cmp(
            NodePath::child(NodeRef::Context, "price"),
            BinOp::Lt,
            Value::Int(120),
        );
        let cond = Condition::count_cmp(
            NodePath {
                base: NodeRef::New,
                steps: vec![Step::Child("vendor".into(), Some(Box::new(pred)))],
            },
            BinOp::Ge,
            Value::Int(1),
        );
        let layout = CondLayout {
            new_node: Some(0),
            ..Default::default()
        };
        assert!(cond.compile(&layout).is_err());
    }

    #[test]
    fn needs_node_content_detects_deep_paths() {
        let shallow = Condition::cmp(NodePath::attr(NodeRef::Old, "name"), BinOp::Eq, "x");
        assert!(!shallow.needs_node_content(NodeRef::Old, &["name"]));
        assert!(shallow.needs_node_content(NodeRef::Old, &[]));
        let deep = Condition::count_cmp(
            NodePath::child(NodeRef::Old, "vendor"),
            BinOp::Ge,
            Value::Int(2),
        );
        assert!(deep.needs_node_content(NodeRef::Old, &["name"]));
        assert!(!deep.needs_node_content(NodeRef::New, &["name"]));
    }
}
