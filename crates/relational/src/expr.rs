//! Scalar expressions and aggregate functions embedded in physical plans.
//!
//! XQGM embeds XML-manipulating functions inside relational operators
//! (§2.1); the same applies here: [`ScalarFunc::XmlElement`] is the element
//! constructor, [`AggFunc::XmlAgg`] is `aggXMLFrag()`, and the XML
//! navigation functions plus [`ScalarFunc::XmlFilter`] evaluate trigger
//! conditions over the already-constructed nodes of a firing.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use quark_xml::{element, text, XmlNode, XmlNodeRef};

use crate::value::{Row, Value};
use crate::{Error, Result};

/// Binary operators. Comparisons yield `Bool` (NULL-safe: unknown → NULL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // arithmetic/comparison/logical operators, self-describing
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        };
        f.write_str(s)
    }
}

/// Scalar functions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScalarFunc {
    /// XML element constructor. The first `attrs.len()` arguments supply
    /// attribute values (atomized to strings); remaining arguments become
    /// children. Scalar children are wrapped in text nodes; XML fragment
    /// children (see [`xml_fragment`]) are spliced.
    XmlElement {
        /// Tag name.
        name: String,
        /// Attribute names; values come from the leading arguments.
        attrs: Vec<String>,
    },
    /// Wrap a scalar in a named element: `XmlWrap("pid")(v) = <pid>v</pid>`.
    XmlWrap(String),
    /// Attribute access on an XML value: `@name` — the attribute's string
    /// (NULL if absent) on an element; on a fragment, per item, a fragment
    /// of text nodes holding the values of the items that have one.
    XmlAttr(String),
    /// Child elements with a tag name, as a fragment (`child::name`), per
    /// item on a fragment.
    XmlChildren(String),
    /// Descendant elements with a tag name, as a fragment (`descendant::`),
    /// per item on a fragment.
    XmlDescendants(String),
    /// Number of nodes in an XML value (fragment → child count, element → 1,
    /// NULL → 0). Used for `count()` over already-constructed nodes.
    NodeCount,
    /// The items of the node sequence in the first argument (a fragment's
    /// children, or one element) for which the predicate is true, as a
    /// fragment. The predicate runs over its own row: the item, then the
    /// remaining arguments — so it reads what it needs of the outer row
    /// through them, and filters nest.
    XmlFilter(Box<Expr>),
}

/// A scalar expression evaluated against one row.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Input column by position.
    Col(usize),
    /// Literal value.
    Lit(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation (NULL-preserving).
    Not(Box<Expr>),
    /// `IS NULL` test.
    IsNull(Box<Expr>),
    /// Function application.
    Func(ScalarFunc, Vec<Expr>),
}

impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// Binary op helper.
    pub fn bin(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Equality comparison helper.
    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::bin(BinOp::Eq, left, right)
    }

    /// Conjunction of a list of predicates (empty → TRUE).
    pub fn and_all(mut preds: Vec<Expr>) -> Expr {
        match preds.len() {
            0 => Expr::lit(true),
            1 => preds.pop().expect("len checked"),
            _ => {
                let mut it = preds.into_iter();
                let first = it.next().expect("len checked");
                it.fold(first, |acc, p| Expr::bin(BinOp::And, acc, p))
            }
        }
    }

    /// Evaluate against a row.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        match self {
            Expr::Col(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| Error::Eval(format!("column {i} out of range ({})", row.len()))),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Binary { op, left, right } => {
                // Short-circuit three-valued logic for AND/OR.
                match op {
                    BinOp::And | BinOp::Or => {
                        let l = left.eval(row)?;
                        return eval_logic(*op, l, || right.eval(row));
                    }
                    _ => {}
                }
                let l = left.eval(row)?;
                let r = right.eval(row)?;
                eval_binary(*op, &l, &r)
            }
            Expr::Not(e) => match e.eval(row)? {
                Value::Bool(b) => Ok(Value::Bool(!b)),
                Value::Null => Ok(Value::Null),
                other => Err(Error::Eval(format!("NOT of non-boolean {other:?}"))),
            },
            Expr::IsNull(e) => Ok(Value::Bool(e.eval(row)?.is_null())),
            Expr::Func(f, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(row)?);
                }
                eval_func(f, vals)
            }
        }
    }

    /// All column indices referenced by this expression.
    pub fn columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::Lit(_) => {}
            Expr::Binary { left, right, .. } => {
                left.columns(out);
                right.columns(out);
            }
            Expr::Not(e) | Expr::IsNull(e) => e.columns(out),
            Expr::Func(_, args) => {
                for a in args {
                    a.columns(out);
                }
            }
        }
    }

    /// Rewrite column references through `map` (old index → new index).
    pub fn remap_columns(&self, map: &dyn Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Col(i) => Expr::Col(map(*i)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.remap_columns(map)),
                right: Box::new(right.remap_columns(map)),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.remap_columns(map))),
            Expr::IsNull(e) => Expr::IsNull(Box::new(e.remap_columns(map))),
            Expr::Func(f, args) => Expr::Func(
                f.clone(),
                args.iter().map(|a| a.remap_columns(map)).collect(),
            ),
        }
    }
}

fn eval_logic(op: BinOp, left: Value, right: impl FnOnce() -> Result<Value>) -> Result<Value> {
    let to_opt = |v: Value| -> Result<Option<bool>> {
        match v {
            Value::Bool(b) => Ok(Some(b)),
            Value::Null => Ok(None),
            other => Err(Error::Eval(format!("logical op on non-boolean {other:?}"))),
        }
    };
    let l = to_opt(left)?;
    match (op, l) {
        (BinOp::And, Some(false)) => Ok(Value::Bool(false)),
        (BinOp::Or, Some(true)) => Ok(Value::Bool(true)),
        _ => {
            let r = to_opt(right()?)?;
            let out = match op {
                BinOp::And => match (l, r) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                },
                BinOp::Or => match (l, r) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                },
                _ => unreachable!("eval_logic only handles AND/OR"),
            };
            Ok(out.map_or(Value::Null, Value::Bool))
        }
    }
}

fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            match (l, r) {
                (Value::Int(a), Value::Int(b)) => Ok(match op {
                    BinOp::Add => Value::Int(a + b),
                    BinOp::Sub => Value::Int(a - b),
                    BinOp::Mul => Value::Int(a * b),
                    BinOp::Div => {
                        if *b == 0 {
                            return Err(Error::Eval("division by zero".into()));
                        }
                        Value::Int(a / b)
                    }
                    _ => unreachable!(),
                }),
                _ => {
                    let a = as_num(l)?;
                    let b = as_num(r)?;
                    Ok(Value::Double(match op {
                        BinOp::Add => a + b,
                        BinOp::Sub => a - b,
                        BinOp::Mul => a * b,
                        BinOp::Div => a / b,
                        _ => unreachable!(),
                    }))
                }
            }
        }
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            Ok(match l.sql_cmp(r) {
                None => Value::Null,
                Some(ord) => Value::Bool(match op {
                    BinOp::Eq => ord == Ordering::Equal,
                    BinOp::Ne => ord != Ordering::Equal,
                    BinOp::Lt => ord == Ordering::Less,
                    BinOp::Le => ord != Ordering::Greater,
                    BinOp::Gt => ord == Ordering::Greater,
                    BinOp::Ge => ord != Ordering::Less,
                    _ => unreachable!(),
                }),
            })
        }
        BinOp::And | BinOp::Or => unreachable!("handled by eval_logic"),
    }
}

fn as_num(v: &Value) -> Result<f64> {
    match v {
        Value::Int(i) => Ok(*i as f64),
        Value::Double(d) => Ok(*d),
        other => Err(Error::Eval(format!("expected number, got {other:?}"))),
    }
}

/// Name used for XML *fragment* nodes: a fragment is an element with an
/// empty tag name whose children are the sequence items. Element
/// constructors splice fragments instead of nesting them.
pub fn xml_fragment(children: Vec<XmlNodeRef>) -> XmlNodeRef {
    element("", vec![], children)
}

/// `true` if the node is a splice-on-embed fragment.
pub fn is_fragment(node: &XmlNode) -> bool {
    matches!(node, XmlNode::Element { name, .. } if name.is_empty())
}

/// Convert a value to child nodes for element construction.
fn value_to_children(v: &Value, out: &mut Vec<XmlNodeRef>) {
    match v {
        Value::Null => {}
        Value::Xml(x) if is_fragment(x) => out.extend(x.children().iter().cloned()),
        Value::Xml(x) => out.push(Arc::clone(x)),
        other => out.push(text(other.to_string())),
    }
}

/// The items of a node sequence: a fragment's children, or the node itself.
fn items(x: &XmlNodeRef) -> &[XmlNodeRef] {
    if is_fragment(x) {
        x.children()
    } else {
        std::slice::from_ref(x)
    }
}

fn eval_func(f: &ScalarFunc, args: Vec<Value>) -> Result<Value> {
    match f {
        ScalarFunc::XmlElement { name, attrs } => {
            if args.len() < attrs.len() {
                return Err(Error::Eval(format!(
                    "XmlElement `{name}` expects at least {} args",
                    attrs.len()
                )));
            }
            let attr_vals: Vec<(String, String)> = attrs
                .iter()
                .zip(&args)
                .map(|(k, v)| (k.clone(), v.to_string()))
                .collect();
            let mut children = Vec::new();
            for v in &args[attrs.len()..] {
                value_to_children(v, &mut children);
            }
            Ok(Value::Xml(element(name.clone(), attr_vals, children)))
        }
        ScalarFunc::XmlWrap(name) => {
            let mut children = Vec::new();
            for v in &args {
                value_to_children(v, &mut children);
            }
            Ok(Value::Xml(element(name.clone(), vec![], children)))
        }
        ScalarFunc::XmlAttr(name) => match args.first() {
            Some(Value::Xml(x)) if is_fragment(x) => Ok(Value::Xml(xml_fragment(
                x.children()
                    .iter()
                    .filter_map(|item| item.attr(name).map(text))
                    .collect(),
            ))),
            Some(Value::Xml(x)) => Ok(x.attr(name).map_or(Value::Null, Value::str)),
            Some(Value::Null) | None => Ok(Value::Null),
            Some(other) => Err(Error::Eval(format!("@{name} on non-XML {other:?}"))),
        },
        ScalarFunc::XmlChildren(name) => match args.first() {
            Some(Value::Xml(x)) => Ok(Value::Xml(xml_fragment(
                items(x)
                    .iter()
                    .flat_map(|item| item.children_named(name))
                    .cloned()
                    .collect(),
            ))),
            Some(Value::Null) | None => Ok(Value::Null),
            Some(other) => Err(Error::Eval(format!("child::{name} on non-XML {other:?}"))),
        },
        ScalarFunc::XmlDescendants(name) => match args.first() {
            Some(Value::Xml(x)) => Ok(Value::Xml(xml_fragment(
                items(x)
                    .iter()
                    .flat_map(|item| item.descendants_named(name))
                    .cloned()
                    .collect(),
            ))),
            Some(Value::Null) | None => Ok(Value::Null),
            Some(other) => Err(Error::Eval(format!(
                "descendant::{name} on non-XML {other:?}"
            ))),
        },
        ScalarFunc::XmlFilter(predicate) => {
            let mut args = args.into_iter();
            let seq = match args.next() {
                Some(Value::Xml(x)) => x,
                Some(Value::Null) | None => return Ok(Value::Null),
                Some(other) => return Err(Error::Eval(format!("filter on non-XML {other:?}"))),
            };
            let mut row: Vec<Value> = std::iter::once(Value::Null).chain(args).collect();
            let mut kept = Vec::new();
            for item in items(&seq) {
                row[0] = Value::Xml(Arc::clone(item));
                if predicate.eval(&row)?.is_true() {
                    kept.push(Arc::clone(item));
                }
            }
            Ok(Value::Xml(xml_fragment(kept)))
        }
        ScalarFunc::NodeCount => match args.first() {
            Some(Value::Xml(x)) if is_fragment(x) => Ok(Value::Int(x.children().len() as i64)),
            Some(Value::Xml(_)) => Ok(Value::Int(1)),
            Some(Value::Null) | None => Ok(Value::Int(0)),
            Some(_) => Ok(Value::Int(1)),
        },
    }
}

/// Aggregate functions for `HashAggregate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)`.
    CountStar,
    /// `COUNT(expr)` — non-NULL count.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `aggXMLFrag(expr)` — collect XML values into a fragment, ordered by
    /// the group's sort columns (the executor feeds rows in input order).
    XmlAgg,
}

/// One aggregate column: function plus argument expression (`None` only for
/// `CountStar`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggExpr {
    /// Aggregate function.
    pub func: AggFunc,
    /// Argument, evaluated per input row.
    pub arg: Option<Expr>,
}

impl AggExpr {
    /// `COUNT(*)`.
    pub fn count_star() -> Self {
        AggExpr {
            func: AggFunc::CountStar,
            arg: None,
        }
    }

    /// Aggregate over an expression.
    pub fn over(func: AggFunc, arg: Expr) -> Self {
        AggExpr {
            func,
            arg: Some(arg),
        }
    }
}

/// Running accumulator for one aggregate within one group.
#[derive(Debug)]
#[allow(missing_docs)] // internal accumulator states mirror AggFunc variants
pub enum AggState {
    Count(i64),
    Sum {
        acc: f64,
        int_only: bool,
        seen: bool,
    },
    MinMax {
        best: Option<Value>,
        is_min: bool,
    },
    XmlAgg(Vec<XmlNodeRef>),
}

impl AggState {
    /// Fresh accumulator for an aggregate function.
    pub fn new(func: &AggFunc) -> AggState {
        match func {
            AggFunc::CountStar | AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                acc: 0.0,
                int_only: true,
                seen: false,
            },
            AggFunc::Min => AggState::MinMax {
                best: None,
                is_min: true,
            },
            AggFunc::Max => AggState::MinMax {
                best: None,
                is_min: false,
            },
            AggFunc::XmlAgg => AggState::XmlAgg(Vec::new()),
        }
    }

    /// Fold one input value (already evaluated; `None` for `COUNT(*)`).
    pub fn update(&mut self, value: Option<&Value>) -> Result<()> {
        match self {
            AggState::Count(n) => match value {
                None => *n += 1,                    // COUNT(*)
                Some(v) if !v.is_null() => *n += 1, // COUNT(expr)
                Some(_) => {}
            },
            AggState::Sum {
                acc,
                int_only,
                seen,
            } => {
                if let Some(v) = value {
                    match v {
                        Value::Null => {}
                        Value::Int(i) => {
                            *acc += *i as f64;
                            *seen = true;
                        }
                        Value::Double(d) => {
                            *acc += d;
                            *int_only = false;
                            *seen = true;
                        }
                        other => return Err(Error::Eval(format!("SUM of non-number {other:?}"))),
                    }
                }
            }
            AggState::MinMax { best, is_min } => {
                if let Some(v) = value {
                    if v.is_null() {
                        return Ok(());
                    }
                    let replace = match best {
                        None => true,
                        Some(b) => {
                            let ord = v.cmp(b);
                            if *is_min {
                                ord == Ordering::Less
                            } else {
                                ord == Ordering::Greater
                            }
                        }
                    };
                    if replace {
                        *best = Some(v.clone());
                    }
                }
            }
            AggState::XmlAgg(items) => {
                if let Some(v) = value {
                    match v {
                        Value::Null => {}
                        Value::Xml(x) if is_fragment(x) => {
                            items.extend(x.children().iter().cloned())
                        }
                        Value::Xml(x) => items.push(Arc::clone(x)),
                        other => items.push(text(other.to_string())),
                    }
                }
            }
        }
        Ok(())
    }

    /// Final value of the accumulator.
    pub fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum {
                acc,
                int_only,
                seen,
            } => {
                if !seen {
                    Value::Null
                } else if int_only {
                    Value::Int(acc as i64)
                } else {
                    Value::Double(acc)
                }
            }
            AggState::MinMax { best, .. } => best.unwrap_or(Value::Null),
            AggState::XmlAgg(items) => Value::Xml(xml_fragment(items)),
        }
    }
}

/// Evaluate a full row of expressions.
pub fn eval_all(exprs: &[Expr], row: &[Value]) -> Result<Row> {
    let mut out = Vec::with_capacity(exprs.len());
    for e in exprs {
        out.push(e.eval(row)?);
    }
    Ok(out.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(vals: Vec<Value>) -> Vec<Value> {
        vals
    }

    #[test]
    fn arithmetic_int_preserving() {
        let e = Expr::bin(BinOp::Add, Expr::col(0), Expr::lit(2i64));
        assert_eq!(e.eval(&r(vec![Value::Int(3)])).unwrap(), Value::Int(5));
        let e = Expr::bin(BinOp::Mul, Expr::col(0), Expr::lit(2.0));
        assert_eq!(e.eval(&r(vec![Value::Int(3)])).unwrap(), Value::Double(6.0));
    }

    #[test]
    fn division_by_zero_errors() {
        let e = Expr::bin(BinOp::Div, Expr::lit(1i64), Expr::lit(0i64));
        assert!(e.eval(&[]).is_err());
    }

    #[test]
    fn three_valued_logic() {
        let null = Expr::lit(Value::Null);
        let t = Expr::lit(true);
        let f = Expr::lit(false);
        assert_eq!(
            Expr::bin(BinOp::And, f.clone(), null.clone())
                .eval(&[])
                .unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            Expr::bin(BinOp::Or, t.clone(), null.clone())
                .eval(&[])
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::bin(BinOp::And, t, null.clone()).eval(&[]).unwrap(),
            Value::Null
        );
        assert_eq!(
            Expr::bin(BinOp::Or, f, null).eval(&[]).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn comparison_with_null_is_null() {
        let e = Expr::eq(Expr::lit(Value::Null), Expr::lit(1i64));
        assert_eq!(e.eval(&[]).unwrap(), Value::Null);
        assert!(!e.eval(&[]).unwrap().is_true());
    }

    #[test]
    fn xml_element_constructor_with_attrs_and_splice() {
        let frag = xml_fragment(vec![element("vendor", vec![], vec![])]);
        let e = Expr::Func(
            ScalarFunc::XmlElement {
                name: "product".into(),
                attrs: vec!["name".into()],
            },
            vec![Expr::lit("CRT 15"), Expr::lit(Value::Xml(frag))],
        );
        let v = e.eval(&[]).unwrap();
        let Value::Xml(x) = v else {
            panic!("expected XML")
        };
        assert_eq!(x.to_xml(), "<product name=\"CRT 15\"><vendor/></product>");
    }

    #[test]
    fn xml_wrap_and_attr_and_children() {
        let e = Expr::Func(ScalarFunc::XmlWrap("pid".into()), vec![Expr::lit("P1")]);
        let v = e.eval(&[]).unwrap();
        assert_eq!(v.to_string(), "<pid>P1</pid>");

        let prod = element(
            "product",
            vec![("name".into(), "CRT 15".into())],
            vec![
                element("vendor", vec![], vec![]),
                element("vendor", vec![], vec![]),
            ],
        );
        let attr = Expr::Func(ScalarFunc::XmlAttr("name".into()), vec![Expr::col(0)]);
        assert_eq!(
            attr.eval(&[Value::Xml(prod.clone())]).unwrap(),
            Value::str("CRT 15")
        );
        let kids = Expr::Func(ScalarFunc::XmlChildren("vendor".into()), vec![Expr::col(0)]);
        let count = Expr::Func(ScalarFunc::NodeCount, vec![kids]);
        assert_eq!(count.eval(&[Value::Xml(prod)]).unwrap(), Value::Int(2));
    }

    /// On a fragment, `@name` and `descendant::` act per item (an item is
    /// not its own descendant), and `XmlFilter` keeps the items whose
    /// predicate, over `[item, the remaining arguments…]`, is true.
    #[test]
    fn navigation_and_filter_act_per_item() {
        let vendor = |vid: Option<&str>, price: i64, inner: Vec<XmlNodeRef>| {
            let attrs = vid.map(|v| ("vid".to_string(), v.to_string()));
            let mut children = vec![element("price", vec![], vec![text(price.to_string())])];
            children.extend(inner);
            element("vendor", attrs.into_iter().collect(), children)
        };
        let nested = vendor(None, 5, vec![]);
        let seq = xml_fragment(vec![
            vendor(Some("A"), 120, vec![nested]),
            vendor(None, 90, vec![]),
        ]);
        let row = [Value::Xml(seq), Value::Int(100)];
        let count = |e: Expr| {
            Expr::Func(ScalarFunc::NodeCount, vec![e])
                .eval(&row)
                .unwrap()
        };
        let on_seq = |f: ScalarFunc| Expr::Func(f, vec![Expr::col(0)]);
        assert_eq!(
            count(on_seq(ScalarFunc::XmlAttr("vid".into()))),
            Value::Int(1)
        );
        assert_eq!(
            count(on_seq(ScalarFunc::XmlDescendants("vendor".into()))),
            Value::Int(1)
        );
        // Vendors priced over the second argument: the item's price child
        // against column 1 of the filter's own row.
        let price = Expr::Func(ScalarFunc::XmlChildren("price".into()), vec![Expr::col(0)]);
        let over = Expr::bin(BinOp::Gt, price, Expr::col(1));
        let filter = |arg| {
            Expr::Func(
                ScalarFunc::XmlFilter(Box::new(over.clone())),
                vec![Expr::col(0), arg],
            )
        };
        assert_eq!(count(filter(Expr::col(1))), Value::Int(1));
        assert_eq!(count(filter(Expr::lit(10i64))), Value::Int(2));
        let none = Expr::Func(
            ScalarFunc::XmlFilter(Box::new(over)),
            vec![Expr::lit(Value::Null)],
        );
        assert_eq!(none.eval(&row).unwrap(), Value::Null);
    }

    #[test]
    fn agg_count_sum_min_max() {
        let vals = [Value::Int(3), Value::Null, Value::Int(5)];
        let mut count = AggState::new(&AggFunc::Count);
        let mut star = AggState::new(&AggFunc::CountStar);
        let mut sum = AggState::new(&AggFunc::Sum);
        let mut min = AggState::new(&AggFunc::Min);
        let mut max = AggState::new(&AggFunc::Max);
        for v in &vals {
            count.update(Some(v)).unwrap();
            star.update(None).unwrap();
            sum.update(Some(v)).unwrap();
            min.update(Some(v)).unwrap();
            max.update(Some(v)).unwrap();
        }
        assert_eq!(count.finish(), Value::Int(2));
        assert_eq!(star.finish(), Value::Int(3));
        assert_eq!(sum.finish(), Value::Int(8));
        assert_eq!(min.finish(), Value::Int(3));
        assert_eq!(max.finish(), Value::Int(5));
    }

    #[test]
    fn agg_empty_group_values() {
        assert_eq!(AggState::new(&AggFunc::Count).finish(), Value::Int(0));
        assert_eq!(AggState::new(&AggFunc::Sum).finish(), Value::Null);
        assert_eq!(AggState::new(&AggFunc::Min).finish(), Value::Null);
    }

    #[test]
    fn xml_agg_collects_in_order_and_splices() {
        let mut agg = AggState::new(&AggFunc::XmlAgg);
        agg.update(Some(&Value::Xml(element("a", vec![], vec![]))))
            .unwrap();
        agg.update(Some(&Value::Xml(xml_fragment(vec![element(
            "b",
            vec![],
            vec![],
        )]))))
        .unwrap();
        agg.update(Some(&Value::Null)).unwrap();
        let Value::Xml(frag) = agg.finish() else {
            panic!()
        };
        assert!(is_fragment(&frag));
        assert_eq!(frag.children().len(), 2);
        assert_eq!(frag.children()[0].name(), Some("a"));
        assert_eq!(frag.children()[1].name(), Some("b"));
    }

    #[test]
    fn remap_columns_rewrites_references() {
        let e = Expr::bin(BinOp::Add, Expr::col(0), Expr::col(2));
        let shifted = e.remap_columns(&|i| i + 5);
        let mut cols = Vec::new();
        shifted.columns(&mut cols);
        assert_eq!(cols, vec![5, 7]);
    }
}
