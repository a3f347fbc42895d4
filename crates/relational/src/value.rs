//! Runtime values flowing through tables and query plans.
//!
//! Stored relational data only ever uses `Null`/`Bool`/`Int`/`Double`/`Str`;
//! the `Xml` variant appears in *query outputs* when a plan constructs XML
//! nodes (XQGM element constructors and `aggXMLFrag`). Keeping one unified
//! value type lets XQGM graphs compile to ordinary relational plans, exactly
//! as XPERANTO embeds XML-constructing functions in relational operators
//! (§2.1 of the paper).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use quark_xml::XmlNodeRef;

/// Column types for stored tables. Query outputs may additionally carry
/// [`Value::Xml`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // primitive type names, self-describing
pub enum ColumnType {
    Bool,
    Int,
    Double,
    Str,
}

/// A single relational value.
#[derive(Clone)]
pub enum Value {
    /// SQL NULL. For grouping, joins and `Ord`, `Null` compares equal to
    /// itself and smallest overall; *predicate* comparisons against `Null`
    /// are unknown (see [`Value::sql_cmp`]).
    Null,
    /// Boolean (predicate results).
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float; `Eq`/`Hash` use IEEE total order with NaN normalized.
    Double(f64),
    /// Interned string payload; cloning is a refcount bump.
    Str(Arc<str>),
    /// An XML node or fragment produced by a query.
    Xml(XmlNodeRef),
}

impl Value {
    /// Convenience constructor from `&str`.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// `true` if this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used for arithmetic/comparison coercion.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// The string a value atomizes to in comparisons: XML nodes atomize to
    /// their text content (attribute-style values), strings to themselves
    /// (borrowed — string-vs-string comparisons never allocate).
    fn atomized(&self) -> Option<Cow<'_, str>> {
        match self {
            Value::Str(s) => Some(Cow::Borrowed(s.as_ref())),
            Value::Xml(x) => Some(Cow::Owned(x.text_content())),
            _ => None,
        }
    }

    /// Truthiness for predicate results (`Null`/unknown is false).
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// SQL-style comparison: `None` when either side is NULL or the types
    /// are incomparable. Numeric types compare after promotion to `f64`;
    /// XML values compare to strings via atomization (XPath semantics for
    /// the attribute/text comparisons the trigger language allows); two XML
    /// values compare equal iff structurally equal.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Xml(a), Xml(b)) => {
                if a == b {
                    Some(Ordering::Equal)
                } else {
                    // Order XML fragments by serialization so sorts are stable.
                    Some(a.to_xml().cmp(&b.to_xml()))
                }
            }
            _ => {
                if let (Some(a), Some(b)) = (self.as_f64(), other.as_f64()) {
                    return a.partial_cmp(&b);
                }
                // Numeric-vs-string comparisons attempt a numeric parse of
                // the atomized side, matching XPath general comparisons.
                if let (Some(n), Some(s)) = (self.as_f64(), other.atomized()) {
                    return s.trim().parse::<f64>().ok().and_then(|v| n.partial_cmp(&v));
                }
                if let (Some(s), Some(n)) = (self.atomized(), other.as_f64()) {
                    return s.trim().parse::<f64>().ok().and_then(|v| v.partial_cmp(&n));
                }
                if let (Some(a), Some(b)) = (self.atomized(), other.atomized()) {
                    return Some(a.cmp(&b));
                }
                None
            }
        }
    }

    fn discriminant_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Double(_) => 2, // shares rank with Int: numeric
            Value::Str(_) => 3,
            Value::Xml(_) => 4,
        }
    }
}

/// Structural equality used for grouping, join keys, `Distinct` and
/// transition-table pruning: total (NULL == NULL, NaN == NaN).
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

/// Total order: rank by kind (numeric kinds unified), then value. `Double`
/// uses IEEE total ordering with NaN normalized so `Eq`/`Hash` agree.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => total_f64(*a).cmp(&total_f64(*b)),
            (Int(a), Double(b)) => total_f64(*a as f64).cmp(&total_f64(*b)),
            (Double(a), Int(b)) => total_f64(*a).cmp(&total_f64(*b as f64)),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            (Xml(a), Xml(b)) => {
                if a == b {
                    Ordering::Equal
                } else {
                    a.to_xml().cmp(&b.to_xml())
                }
            }
            _ => self.discriminant_rank().cmp(&other.discriminant_rank()),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Map an `f64` to a totally ordered integer key (IEEE-754 total order),
/// normalizing NaN and negative zero. A negative double's magnitude bits
/// are flipped, so a larger magnitude maps lower and the sign bit keeps
/// every negative below every positive.
fn total_f64(f: f64) -> i64 {
    let f = if f.is_nan() { f64::NAN } else { f }; // canonical NaN
    let f = if f == 0.0 { 0.0 } else { f }; // -0.0 -> +0.0
    let bits = f.to_bits() as i64;
    if bits < 0 {
        bits ^ i64::MAX
    } else {
        bits
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Double must hash identically when numerically equal
            // (they compare equal); hash every numeric through total_f64.
            Value::Int(i) => {
                2u8.hash(state);
                total_f64(*i as f64).hash(state);
            }
            Value::Double(d) => {
                2u8.hash(state);
                total_f64(*d).hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Xml(x) => {
                4u8.hash(state);
                x.hash(state);
            }
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Xml(x) => write!(f, "XML({})", x.to_xml()),
        }
    }
}

/// The text a value renders to in XML and in results. Both zeros render as
/// `0` (XPath 1.0 number-to-string), so a double's text depends only on its
/// equality class: `0.0 = −0.0`, and transition pruning (Appendix F)
/// treats an update between them as no change.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => Ok(()),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) if *d == 0.0 => write!(f, "0"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Xml(x) => write!(f, "{}", x.to_xml()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<XmlNodeRef> for Value {
    fn from(v: XmlNodeRef) -> Self {
        Value::Xml(v)
    }
}

/// A materialized row. `Arc<[Value]>` so transition tables and join outputs
/// share storage with the base table.
pub type Row = Arc<[Value]>;

/// Build a [`Row`] from an iterator of values.
pub fn row(values: impl IntoIterator<Item = Value>) -> Row {
    values.into_iter().collect()
}

/// A row compared by exact representation instead of by [`Value`]'s
/// grouping equality: the variant, an `f64`'s bits and a string's bytes
/// must all match (an XML value matches only its own node). Under `Eq`,
/// `Int(2^53 + 1) = Double(2^53)` and `0.0 = −0.0`, yet the first pair
/// renders differently; a constructor's reuse slot, which hands a row
/// what it rendered to last time, needs this equality.
pub(crate) struct ExactRow<'a>(pub(crate) &'a [Value]);

impl PartialEq for ExactRow<'_> {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        self.0.len() == other.0.len()
            && self.0.iter().zip(other.0.iter()).all(|pair| match pair {
                (Null, Null) => true,
                (Bool(a), Bool(b)) => a == b,
                (Int(a), Int(b)) => a == b,
                (Double(a), Double(b)) => a.to_bits() == b.to_bits(),
                (Str(a), Str(b)) => a == b,
                (Xml(a), Xml(b)) => Arc::ptr_eq(a, b),
                _ => false,
            })
    }
}

impl Eq for ExactRow<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn numeric_coercion_in_sql_cmp() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Double(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(3).sql_cmp(&Value::Double(2.5)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn null_equals_null_for_grouping() {
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(h(&Value::Null), h(&Value::Null));
    }

    #[test]
    fn int_double_hash_consistent_with_eq() {
        assert_eq!(Value::Int(7), Value::Double(7.0));
        assert_eq!(h(&Value::Int(7)), h(&Value::Double(7.0)));
    }

    #[test]
    fn negative_zero_and_nan_normalize() {
        assert_eq!(Value::Double(0.0), Value::Double(-0.0));
        assert_eq!(h(&Value::Double(0.0)), h(&Value::Double(-0.0)));
        assert_eq!(Value::Double(f64::NAN), Value::Double(f64::NAN));
    }

    /// Negative doubles order below zero by magnitude, and no negative
    /// equals its absolute value: −2.0 < −1.0 < −0.0 == 0.0 < 1.0, with
    /// `Hash` agreeing with `Eq` across `Int` and `Double`.
    #[test]
    fn negative_doubles_order_below_zero() {
        let d = Value::Double;
        assert!(d(-2.0) < d(-1.0));
        assert!(d(-1.0) < d(-0.0));
        assert_eq!(d(-0.0), d(0.0));
        assert!(d(0.0) < d(1.0));
        assert_ne!(Value::Double(-1.0), Value::Double(1.0));
        assert_ne!(Value::Int(-1), Value::Double(1.0));
        assert!(Value::Int(-1) < Value::Double(-0.5));
        assert_eq!(Value::Int(-1), Value::Double(-1.0));
        assert_eq!(h(&Value::Int(-1)), h(&Value::Double(-1.0)));
        assert_ne!(h(&Value::Int(-1)), h(&Value::Double(1.0)));
        assert_eq!(h(&Value::Double(-0.0)), h(&Value::Int(0)));
    }

    /// Equal values render equally: both zeros are `0`, and a whole double
    /// renders like the integer it equals.
    #[test]
    fn both_zeros_render_as_zero() {
        assert_eq!(Value::Double(-0.0).to_string(), "0");
        assert_eq!(Value::Double(0.0).to_string(), "0");
        assert_eq!(Value::Double(3.0).to_string(), Value::Int(3).to_string());
        assert_eq!(Value::Double(-1.5).to_string(), "-1.5");
    }

    #[test]
    fn xml_atomizes_against_strings() {
        let x = Value::Xml(quark_xml::element(
            "name",
            vec![],
            vec![quark_xml::text("CRT 15")],
        ));
        assert_eq!(x.sql_cmp(&Value::str("CRT 15")), Some(Ordering::Equal));
        assert_eq!(x.sql_cmp(&Value::str("LCD 19")), Some(Ordering::Less));
    }

    #[test]
    fn xml_atomizes_numerically_against_numbers() {
        let x = Value::Xml(quark_xml::element(
            "price",
            vec![],
            vec![quark_xml::text("99.5")],
        ));
        assert_eq!(x.sql_cmp(&Value::Double(99.5)), Some(Ordering::Equal));
        assert_eq!(x.sql_cmp(&Value::Int(100)), Some(Ordering::Less));
    }

    #[test]
    fn total_order_sorts_across_kinds() {
        let mut vals = [
            Value::str("a"),
            Value::Int(1),
            Value::Null,
            Value::Bool(true),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Int(1));
        assert_eq!(vals[3], Value::str("a"));
    }
}
