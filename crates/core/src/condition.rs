//! Trigger conditions: Boolean XQuery expressions over `OLD_NODE` /
//! `NEW_NODE` (§2.2).
//!
//! Conditions have two lives in this system:
//!
//! 1. **Relational compilation** ([`Condition::compile`]) to an [`Expr`]
//!    over the affected-node row, navigating the already-constructed node
//!    values with XML functions. It is total over the language: step
//!    predicates and comparisons over node sequences compile to
//!    [`ScalarFunc::XmlFilter`], so every condition is a plan filter and
//!    nothing in the library evaluates a condition in value space.
//!    Attribute paths that the view maps to scalar columns compile to
//!    direct column references, which is what lets the old side skip node
//!    construction (§5.2).
//! 2. **Parameterization** ([`Condition::extract_constants`]) — constants
//!    are replaced by [`CondValue::Param`] placeholders so structurally
//!    similar triggers share one translation and differ only in rows of a
//!    constants table (§5.1).

use quark_relational::expr::{BinOp, Expr, ScalarFunc};
use quark_relational::{Error, Result, Value};

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

    /// Compile to an [`Expr`] over a row. `layout` maps node references and
    /// parameters to row columns. Paths navigate the node-valued columns
    /// with XML functions; single-attribute paths use scalar columns when
    /// the layout provides them.
    ///
    /// The expression is true exactly where XPath's reading of the
    /// condition holds. A comparison is existential over each operand path
    /// that can select several items (the items are filtered by
    /// [`ScalarFunc::XmlFilter`] and counted), and a comparison that
    /// `Value::sql_cmp` cannot order — NULL, NaN, an absent node — does
    /// not hold, so its negation does.
    pub fn compile(&self, layout: &CondLayout) -> Result<Expr> {
        match self {
            Condition::True => Ok(Expr::lit(true)),
            Condition::And(a, b) => Ok(Expr::bin(
                BinOp::And,
                a.compile(layout)?,
                b.compile(layout)?,
            )),
            Condition::Or(a, b) => Ok(Expr::bin(BinOp::Or, a.compile(layout)?, b.compile(layout)?)),
            // AND and OR may leave an unknown operand unknown: a filter
            // keeps only what is true. NOT must turn unknown into true.
            Condition::Not(a) => {
                let a = a.compile(layout)?;
                let unknown = Expr::IsNull(Box::new(a.clone()));
                Ok(Expr::bin(BinOp::Or, Expr::Not(Box::new(a)), unknown))
            }
            Condition::Exists(p) => Ok(nonempty(compile_path(p.base, &p.steps, layout)?)),
            Condition::Cmp { left, op, right } => {
                let (l, r) = (operand(left, layout)?, operand(right, layout)?);
                let cmp = |l, r| Expr::bin(*op, l, r);
                Ok(match (l, r) {
                    (Operand::One(l), Operand::One(r)) => cmp(l, r),
                    (Operand::Each(items, attr), Operand::One(r)) => {
                        some(items, r, cmp(atom(0, attr), Expr::col(1)))
                    }
                    (Operand::One(l), Operand::Each(items, attr)) => {
                        some(items, l, cmp(Expr::col(1), atom(0, attr)))
                    }
                    // Each left item against each right item: the inner
                    // filter's row is `[right item, left item]`.
                    (Operand::Each(li, la), Operand::Each(ri, ra)) => {
                        let inner = some(Expr::col(1), Expr::col(0), cmp(atom(1, la), atom(0, ra)));
                        some(li, ri, inner)
                    }
                })
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

/// Column layout for compiling conditions over affected-node rows.
#[derive(Debug, Clone, Default)]
pub struct CondLayout {
    /// Column with the OLD node value; `None` reads `OLD_NODE` as absent.
    pub old_node: Option<usize>,
    /// Column with the NEW node value; `None` reads `NEW_NODE` as absent.
    pub new_node: Option<usize>,
    /// Scalar columns for OLD attributes (`@name` → column).
    pub old_attrs: std::collections::HashMap<String, usize>,
    /// Scalar columns for NEW attributes.
    pub new_attrs: std::collections::HashMap<String, usize>,
    /// Columns for `Param(i)` placeholders (the joined constants row).
    pub params: Vec<usize>,
    /// Column with the context item (`.`), inside a step predicate;
    /// `None` (outside one) reads `.` as absent.
    pub context: Option<usize>,
}

/// A comparison operand: one value, or the items of a node sequence
/// (compared each by itself, or by its attribute when the path ends in one).
enum Operand {
    One(Expr),
    Each(Expr, Option<String>),
}

fn operand(cv: &CondValue, layout: &CondLayout) -> Result<Operand> {
    let one = |e| Ok(Operand::One(e));
    match cv {
        CondValue::Const(v) => one(Expr::Lit(v.clone())),
        CondValue::Param(i) => match layout.params.get(*i) {
            Some(&col) => one(Expr::col(col)),
            None => Err(Error::Plan(format!("no column for condition param {i}"))),
        },
        CondValue::Count(p) => one(Expr::Func(
            ScalarFunc::NodeCount,
            vec![compile_path(p.base, &p.steps, layout)?],
        )),
        CondValue::Path(p) => match p.steps.split_last() {
            // The node itself, or one attribute of it: one value.
            None | Some((Step::Attr(_), [])) => one(compile_path(p.base, &p.steps, layout)?),
            Some((Step::Attr(a), parents)) => Ok(Operand::Each(
                compile_path(p.base, parents, layout)?,
                Some(a.clone()),
            )),
            Some(_) => Ok(Operand::Each(compile_path(p.base, &p.steps, layout)?, None)),
        },
    }
}

/// The compared value of the item in column `col`.
fn atom(col: usize, attr: Option<String>) -> Expr {
    match attr {
        Some(a) => Expr::Func(ScalarFunc::XmlAttr(a), vec![Expr::col(col)]),
        None => Expr::col(col),
    }
}

/// Does some item of `items` satisfy `predicate`, which reads the item as
/// column 0 and `arg` as column 1?
fn some(items: Expr, arg: Expr, predicate: Expr) -> Expr {
    nonempty(Expr::Func(
        ScalarFunc::XmlFilter(Box::new(predicate)),
        vec![items, arg],
    ))
}

fn nonempty(nodes: Expr) -> Expr {
    Expr::bin(
        BinOp::Gt,
        Expr::Func(ScalarFunc::NodeCount, vec![nodes]),
        Expr::lit(0i64),
    )
}

/// The column a step predicate reads its context item from while it
/// compiles; [`filtered`] renumbers it to 0. No row is this wide.
const ITEM: usize = usize::MAX;

/// Compile a path from `base` to an expression producing a node fragment
/// (or a scalar for a lone attribute step).
pub(crate) fn compile_path(base: NodeRef, steps: &[Step], layout: &CondLayout) -> Result<Expr> {
    // Scalar shortcut: BASE/@attr with a mapped column.
    if let [Step::Attr(a)] = steps {
        let mapped = match base {
            NodeRef::Old => layout.old_attrs.get(a),
            NodeRef::New => layout.new_attrs.get(a),
            NodeRef::Context => None,
        };
        if let Some(&col) = mapped {
            return Ok(Expr::col(col));
        }
    }
    let base_col = match base {
        NodeRef::Old => layout.old_node,
        NodeRef::New => layout.new_node,
        NodeRef::Context => layout.context,
    };
    // No column: an absent node (an INSERT's OLD_NODE, a DELETE's
    // NEW_NODE), whose paths select nothing.
    let Some(base_col) = base_col else {
        return Ok(Expr::lit(Value::Null));
    };
    let mut expr = Expr::col(base_col);
    for step in steps {
        expr = match step {
            Step::Attr(a) => Expr::Func(ScalarFunc::XmlAttr(a.clone()), vec![expr]),
            Step::Child(n, pred) => {
                let items = Expr::Func(ScalarFunc::XmlChildren(n.clone()), vec![expr]);
                filtered(items, pred.as_deref(), layout)?
            }
            Step::Descendant(n, pred) => {
                let items = Expr::Func(ScalarFunc::XmlDescendants(n.clone()), vec![expr]);
                filtered(items, pred.as_deref(), layout)?
            }
        };
    }
    Ok(expr)
}

/// `items`, kept where the step predicate holds. The predicate compiles
/// with the item in column [`ITEM`]; every other column it reads becomes an
/// argument of the filter, so the filter's row is `[item, those columns…]`.
/// A predicate cannot name an enclosing step's item, so nested filters
/// may all compile against [`ITEM`].
fn filtered(items: Expr, pred: Option<&Condition>, layout: &CondLayout) -> Result<Expr> {
    let Some(pred) = pred else {
        return Ok(items);
    };
    let item_layout = CondLayout {
        context: Some(ITEM),
        ..layout.clone()
    };
    let pred = pred.compile(&item_layout)?;
    let mut outer = Vec::new();
    pred.columns(&mut outer);
    outer.retain(|&c| c != ITEM);
    outer.sort_unstable();
    outer.dedup();
    // `ITEM` is not in `outer`, so it alone lands on column 0.
    let pred = pred.remap_columns(&|c| outer.binary_search(&c).map_or(0, |at| at + 1));
    let args = std::iter::once(items).chain(outer.into_iter().map(Expr::col));
    Ok(Expr::Func(
        ScalarFunc::XmlFilter(Box::new(pred)),
        args.collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quark_xml::{element, text, XmlNodeRef};

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

    /// The layout of the rows below: OLD in column 0, NEW in column 1,
    /// then the parameters.
    fn nodes(params: usize) -> CondLayout {
        CondLayout {
            old_node: Some(0),
            new_node: Some(1),
            params: (2..2 + params).collect(),
            ..Default::default()
        }
    }

    /// Does `cond`, compiled over [`nodes`], hold on a row of `old`, `new`
    /// and `params`?
    fn holds(
        cond: &Condition,
        old: Option<&XmlNodeRef>,
        new: Option<&XmlNodeRef>,
        params: &[Value],
    ) -> bool {
        let node = |n: Option<&XmlNodeRef>| n.map_or(Value::Null, |n| Value::Xml(n.clone()));
        let mut row = vec![node(old), node(new)];
        row.extend_from_slice(params);
        let expr = cond.compile(&nodes(params.len())).unwrap();
        expr.eval(&row).unwrap().is_true()
    }

    /// `count(NEW_NODE/vendor[./price < bound]) >= 1` — the §5.1 nested
    /// condition shape.
    fn cheap_vendor(bound: i64) -> Condition {
        let pred = Condition::cmp(
            NodePath::child(NodeRef::Context, "price"),
            BinOp::Lt,
            Value::Int(bound),
        );
        Condition::count_cmp(
            NodePath {
                base: NodeRef::New,
                steps: vec![Step::Child("vendor".into(), Some(Box::new(pred)))],
            },
            BinOp::Ge,
            Value::Int(1),
        )
    }

    #[test]
    fn attr_comparison_matches_old_node() {
        let cond = Condition::cmp(NodePath::attr(NodeRef::Old, "name"), BinOp::Eq, "CRT 15");
        let p = product();
        assert!(holds(&cond, Some(&p), None, &[]));
        let miss = Condition::cmp(NodePath::attr(NodeRef::Old, "name"), BinOp::Eq, "LCD 19");
        assert!(!holds(&miss, Some(&p), None, &[]));
    }

    #[test]
    fn absent_node_makes_paths_empty() {
        let cond = Condition::cmp(NodePath::attr(NodeRef::Old, "name"), BinOp::Eq, "CRT 15");
        assert!(!holds(&cond, None, Some(&product()), &[]));
        // Empty, not unknown: the negation holds.
        assert!(holds(
            &Condition::Not(Box::new(cond)),
            None,
            Some(&product()),
            &[]
        ));
    }

    #[test]
    fn count_with_step_predicate() {
        let p = product();
        assert!(holds(&cheap_vendor(120), None, Some(&p), &[]));
        // Tightening the threshold to < 100 leaves zero vendors.
        assert!(!holds(&cheap_vendor(100), None, Some(&p), &[]));
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
        assert!(holds(&cond, None, Some(&product()), &[]));
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
        assert!(holds(&sig, Some(&p), Some(&p), &consts));
        assert!(!holds(&sig, Some(&p), Some(&p), &consts2));
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

    /// A step predicate compiles to a filter whose row is the item, then
    /// the outer columns it reads: here the parameter in column 5.
    #[test]
    fn compile_filters_step_predicates() {
        let (sig, consts) = cheap_vendor(120).extract_constants();
        let layout = CondLayout {
            new_node: Some(0),
            params: vec![5, 6],
            ..Default::default()
        };
        let expr = sig.compile(&layout).unwrap();
        let rendered = format!("{expr:?}");
        assert!(rendered.contains("XmlFilter"), "{rendered}");
        assert!(rendered.contains("Col(5)"), "{rendered}");
        let mut row = vec![Value::Xml(product()), Value::Null, Value::Null];
        row.extend([Value::Null, Value::Null]);
        row.extend(consts);
        assert!(expr.eval(&row).unwrap().is_true());
        row[5] = Value::Int(100);
        assert!(!expr.eval(&row).unwrap().is_true());
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
