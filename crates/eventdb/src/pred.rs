//! Event-selection predicates: the `WHERE` clause of an S-cuboid
//! specification (step 1 of Figure 4).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};
use crate::schema::AttrId;
use crate::store::EventDb;
use crate::value::{RowId, Value};

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the operator against an [`Ordering`].
    pub fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// An event predicate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pred {
    /// Always true (an omitted `WHERE` clause).
    True,
    /// `attr <op> literal`.
    Cmp {
        /// The attribute compared.
        attr: AttrId,
        /// The comparison operator.
        op: CmpOp,
        /// The literal to compare with.
        value: Value,
    },
    /// `attr IN (v1, v2, …)`.
    In {
        /// The attribute tested.
        attr: AttrId,
        /// The allowed values.
        values: Vec<Value>,
    },
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// Builds `attr <op> value`.
    pub fn cmp(attr: AttrId, op: CmpOp, value: impl Into<Value>) -> Pred {
        Pred::Cmp {
            attr,
            op,
            value: value.into(),
        }
    }

    /// Builds `self AND other`.
    pub fn and(self, other: Pred) -> Pred {
        Pred::And(Box::new(self), Box::new(other))
    }

    /// Builds `self OR other`.
    pub fn or(self, other: Pred) -> Pred {
        Pred::Or(Box::new(self), Box::new(other))
    }

    /// Builds `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Pred {
        Pred::Not(Box::new(self))
    }

    /// Evaluates `attr <op> value` against event `row` without building a
    /// [`Pred`], so a caller holding the literal by reference copies nothing.
    pub fn eval_cmp(
        db: &EventDb,
        row: RowId,
        attr: AttrId,
        op: CmpOp,
        value: &Value,
    ) -> Result<bool> {
        Ok(op.test(compare(db, row, attr, value)?))
    }

    /// Evaluates the predicate against event `row`.
    pub fn eval(&self, db: &EventDb, row: RowId) -> Result<bool> {
        match self {
            Pred::True => Ok(true),
            Pred::Cmp { attr, op, value } => Pred::eval_cmp(db, row, *attr, *op, value),
            Pred::In { attr, values } => {
                for v in values {
                    if compare(db, row, *attr, v)? == Ordering::Equal {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Pred::And(a, b) => Ok(a.eval(db, row)? && b.eval(db, row)?),
            Pred::Or(a, b) => Ok(a.eval(db, row)? || b.eval(db, row)?),
            Pred::Not(p) => Ok(!p.eval(db, row)?),
        }
    }

    /// Renders the predicate in the query language, resolving attribute
    /// names through `db`.
    pub fn render(&self, db: &EventDb) -> String {
        match self {
            Pred::True => "TRUE".into(),
            Pred::Cmp { attr, op, value } => format!(
                "{} {} {}",
                db.schema().column(*attr).name,
                op.symbol(),
                render_literal(value)
            ),
            Pred::In { attr, values } => format!(
                "{} IN ({})",
                db.schema().column(*attr).name,
                values
                    .iter()
                    .map(render_literal)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Pred::And(a, b) => format!("({} AND {})", a.render(db), b.render(db)),
            Pred::Or(a, b) => format!("({} OR {})", a.render(db), b.render(db)),
            Pred::Not(p) => format!("(NOT {})", p.render(db)),
        }
    }
}

/// Renders a literal value as it appears in query text.
pub fn render_literal(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("\"{s}\""),
        Value::Time(t) => format!("\"{}\"", crate::time::format_timestamp(*t)),
        other => other.to_string(),
    }
}

/// Compares the stored value of `(row, attr)` with a literal, coercing the
/// literal to the column type (string timestamps compare against time
/// columns, integers against float columns).
fn compare(db: &EventDb, row: RowId, attr: AttrId, lit: &Value) -> Result<Ordering> {
    use crate::schema::ColumnType;
    let def = db.schema().column(attr);
    let mismatch = || Error::TypeMismatch {
        attribute: def.name.clone(),
        expected: def.ctype.name(),
        actual: lit.type_name(),
    };
    match def.ctype {
        ColumnType::Int => {
            let l = lit.as_int().ok_or_else(mismatch)?;
            Ok(db.int(row, attr).expect("int column").cmp(&l))
        }
        ColumnType::Time => {
            let l = lit.as_time().ok_or_else(mismatch)?;
            Ok(db.int(row, attr).expect("time column").cmp(&l))
        }
        ColumnType::Float => {
            let l = lit.as_float().ok_or_else(mismatch)?;
            Ok(db
                .float(row, attr)
                .expect("float column")
                .partial_cmp(&l)
                .unwrap_or(Ordering::Equal))
        }
        ColumnType::Str => {
            let l = lit.as_str().ok_or_else(mismatch)?;
            let id = db.str_id(row, attr).expect("str column");
            let s = db
                .dict(attr)
                .expect("str column has dict")
                .resolve(id)
                .expect("interned id resolves");
            Ok(s.cmp(l))
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A helper wrapper so predicates can key hash maps even though [`Value`]
/// contains floats: [`Pred`] already implements `Hash`/`Eq` via bit-equality.
pub fn pred_fingerprint(p: &Pred) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    p.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::store::EventDbBuilder;
    use crate::time::timestamp;

    fn db() -> EventDb {
        let mut db = EventDbBuilder::new()
            .dimension("time", ColumnType::Time)
            .dimension("location", ColumnType::Str)
            .measure("amount", ColumnType::Float)
            .build()
            .unwrap();
        for (t, l, m) in [
            (timestamp(2007, 9, 30, 23, 59, 0), "Pentagon", 0.0),
            (timestamp(2007, 10, 1, 0, 0, 0), "Wheaton", -2.0),
            (timestamp(2007, 12, 31, 23, 59, 0), "Pentagon", 100.0),
        ] {
            db.push_row(&[Value::Time(t), Value::from(l), Value::Float(m)])
                .unwrap();
        }
        db
    }

    #[test]
    fn time_range_matches_fig3() {
        let db = db();
        // WHERE time >= 2007-10-01T00:00 AND time < 2007-12-31T24:00
        let p = Pred::cmp(0, CmpOp::Ge, Value::from("2007-10-01T00:00")).and(Pred::cmp(
            0,
            CmpOp::Lt,
            Value::from("2007-12-31T24:00"),
        ));
        let hits: Vec<bool> = (0..3).map(|r| p.eval(&db, r).unwrap()).collect();
        assert_eq!(hits, vec![false, true, true]);
    }

    #[test]
    fn string_and_float_comparisons() {
        let db = db();
        let p = Pred::cmp(1, CmpOp::Eq, "Pentagon");
        assert!(p.eval(&db, 0).unwrap());
        assert!(!p.eval(&db, 1).unwrap());
        let q = Pred::cmp(2, CmpOp::Lt, Value::Float(0.0));
        assert!(!q.eval(&db, 0).unwrap());
        assert!(q.eval(&db, 1).unwrap());
        // Int literal coerces against float column.
        let r = Pred::cmp(2, CmpOp::Ge, Value::Int(100));
        assert!(r.eval(&db, 2).unwrap());
    }

    #[test]
    fn boolean_combinators() {
        let db = db();
        let pentagon = Pred::cmp(1, CmpOp::Eq, "Pentagon");
        let cheap = Pred::cmp(2, CmpOp::Le, Value::Float(0.0));
        assert!(pentagon.clone().and(cheap.clone()).eval(&db, 0).unwrap());
        assert!(!pentagon.clone().and(cheap.clone()).eval(&db, 2).unwrap());
        assert!(pentagon.clone().or(cheap.clone()).eval(&db, 1).unwrap());
        assert!(!pentagon.clone().not().eval(&db, 0).unwrap());
        assert!(Pred::True.eval(&db, 0).unwrap());
    }

    #[test]
    fn in_list() {
        let db = db();
        let p = Pred::In {
            attr: 1,
            values: vec![Value::from("Wheaton"), Value::from("Glenmont")],
        };
        assert!(!p.eval(&db, 0).unwrap());
        assert!(p.eval(&db, 1).unwrap());
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let db = db();
        let p = Pred::cmp(1, CmpOp::Eq, Value::Int(3));
        assert!(matches!(p.eval(&db, 0), Err(Error::TypeMismatch { .. })));
    }

    #[test]
    fn render_is_stable() {
        let db = db();
        let p = Pred::cmp(0, CmpOp::Ge, Value::from("2007-10-01T00:00")).and(Pred::cmp(
            1,
            CmpOp::Eq,
            "Pentagon",
        ));
        let s = p.render(&db);
        assert!(s.contains("time >="), "{s}");
        assert!(s.contains("location = \"Pentagon\""), "{s}");
    }

    #[test]
    fn fingerprint_distinguishes() {
        let a = Pred::cmp(0, CmpOp::Eq, Value::Int(1));
        let b = Pred::cmp(0, CmpOp::Eq, Value::Int(2));
        assert_ne!(pred_fingerprint(&a), pred_fingerprint(&b));
        assert_eq!(pred_fingerprint(&a), pred_fingerprint(&a.clone()));
    }
}
