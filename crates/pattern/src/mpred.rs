//! Matching predicates over event placeholders (§3.2 step 5(c)).
//!
//! A cell restriction clause introduces a sequence of event placeholders —
//! `LEFT-MAXIMALITY (x1, y1, y2, x2)` — one per template position, and the
//! matching predicate constrains the **matched events** (not just the
//! pattern-dimension values): `x1.action = "in" AND y1.action = "out"`.

use solap_eventdb::{AttrId, CmpOp, EventDb, Result, RowId, Value};

/// A matching predicate over the events of a candidate occurrence.
///
/// Placeholders are identified positionally: placeholder `p` binds the event
/// matched at template position `p` (0-based).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MatchPred {
    /// No predicate.
    True,
    /// `placeholder.attr <op> literal`.
    Cmp {
        /// Template position of the placeholder.
        pos: usize,
        /// The event attribute inspected.
        attr: AttrId,
        /// Comparison operator.
        op: CmpOp,
        /// Literal compared against.
        value: Value,
    },
    /// Conjunction.
    And(Box<MatchPred>, Box<MatchPred>),
    /// Disjunction.
    Or(Box<MatchPred>, Box<MatchPred>),
    /// Negation.
    Not(Box<MatchPred>),
}

impl MatchPred {
    /// Builds `placeholder[pos].attr <op> value`.
    pub fn cmp(pos: usize, attr: AttrId, op: CmpOp, value: impl Into<Value>) -> MatchPred {
        MatchPred::Cmp {
            pos,
            attr,
            op,
            value: value.into(),
        }
    }

    /// Builds `self AND other`.
    pub fn and(self, other: MatchPred) -> MatchPred {
        MatchPred::And(Box::new(self), Box::new(other))
    }

    /// Builds `self OR other`.
    pub fn or(self, other: MatchPred) -> MatchPred {
        MatchPred::Or(Box::new(self), Box::new(other))
    }

    /// Builds `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> MatchPred {
        MatchPred::Not(Box::new(self))
    }

    /// Conjoins a list of predicates.
    pub fn all(preds: impl IntoIterator<Item = MatchPred>) -> MatchPred {
        preds.into_iter().fold(MatchPred::True, |acc, p| match acc {
            MatchPred::True => p,
            acc => acc.and(p),
        })
    }

    /// Whether this is the trivial predicate.
    pub fn is_true(&self) -> bool {
        matches!(self, MatchPred::True)
    }

    /// Evaluates against the matched events: `rows[p]` is the event row at
    /// template position `p`.
    pub fn eval(&self, db: &EventDb, rows: &[RowId]) -> Result<bool> {
        match self {
            MatchPred::True => Ok(true),
            MatchPred::Cmp {
                pos,
                attr,
                op,
                value,
            } => solap_eventdb::Pred::eval_cmp(db, rows[*pos], *attr, *op, value),
            MatchPred::And(a, b) => Ok(a.eval(db, rows)? && b.eval(db, rows)?),
            MatchPred::Or(a, b) => Ok(a.eval(db, rows)? || b.eval(db, rows)?),
            MatchPred::Not(p) => Ok(!p.eval(db, rows)?),
        }
    }

    /// The largest placeholder position referenced (to validate against the
    /// template length).
    pub fn max_pos(&self) -> Option<usize> {
        match self {
            MatchPred::True => None,
            MatchPred::Cmp { pos, .. } => Some(*pos),
            MatchPred::And(a, b) | MatchPred::Or(a, b) => a.max_pos().max(b.max_pos()),
            MatchPred::Not(p) => p.max_pos(),
        }
    }

    /// Evaluates only the conjuncts fully determined by positions
    /// `< limit`, for early pruning during subsequence DFS; conjuncts
    /// referencing later positions pass vacuously.
    pub fn eval_prefix(&self, db: &EventDb, rows: &[RowId], limit: usize) -> Result<bool> {
        match self {
            MatchPred::True => Ok(true),
            MatchPred::Cmp { pos, .. } => {
                if *pos < limit {
                    self.eval(db, rows)
                } else {
                    Ok(true)
                }
            }
            MatchPred::And(a, b) => {
                Ok(a.eval_prefix(db, rows, limit)? && b.eval_prefix(db, rows, limit)?)
            }
            // OR / NOT may depend on unresolved positions; only prune when
            // every referenced position is resolved.
            other => match other.max_pos() {
                Some(mp) if mp >= limit => Ok(true),
                _ => other.eval(db, rows),
            },
        }
    }

    /// Remaps placeholder positions through `f` (e.g. DE-HEAD shifts every
    /// position down by one; DE-TAIL drops the last position). A conjunct
    /// whose position is dropped (`f` returns `None`) is removed; inside
    /// `OR`/`NOT`, where removal could *strengthen* the predicate, the whole
    /// subtree is conservatively dropped instead.
    pub fn remap_positions(&self, f: &impl Fn(usize) -> Option<usize>) -> MatchPred {
        fn all_positions_mapped(p: &MatchPred, f: &impl Fn(usize) -> Option<usize>) -> bool {
            match p {
                MatchPred::True => true,
                MatchPred::Cmp { pos, .. } => f(*pos).is_some(),
                MatchPred::And(a, b) | MatchPred::Or(a, b) => {
                    all_positions_mapped(a, f) && all_positions_mapped(b, f)
                }
                MatchPred::Not(p) => all_positions_mapped(p, f),
            }
        }
        match self {
            MatchPred::True => MatchPred::True,
            MatchPred::Cmp {
                pos,
                attr,
                op,
                value,
            } => match f(*pos) {
                Some(new_pos) => MatchPred::Cmp {
                    pos: new_pos,
                    attr: *attr,
                    op: *op,
                    value: value.clone(),
                },
                None => MatchPred::True,
            },
            MatchPred::And(a, b) => {
                let (a, b) = (a.remap_positions(f), b.remap_positions(f));
                match (a.is_true(), b.is_true()) {
                    (true, _) => b,
                    (_, true) => a,
                    _ => a.and(b),
                }
            }
            sub @ (MatchPred::Or(..) | MatchPred::Not(_)) => {
                if all_positions_mapped(sub, f) {
                    match sub {
                        MatchPred::Or(a, b) => a.remap_positions(f).or(b.remap_positions(f)),
                        MatchPred::Not(p) => p.remap_positions(f).not(),
                        _ => unreachable!(),
                    }
                } else {
                    MatchPred::True
                }
            }
        }
    }

    /// Renders the predicate with placeholder names derived from the
    /// template symbols (e.g. position 0 of `(X, Y, Y, X)` renders as `x1`).
    pub fn render(&self, db: &EventDb, placeholder_names: &[String]) -> String {
        match self {
            MatchPred::True => "TRUE".into(),
            MatchPred::Cmp {
                pos,
                attr,
                op,
                value,
            } => format!(
                "{}.{} {} {}",
                placeholder_names
                    .get(*pos)
                    .map(String::as_str)
                    .unwrap_or("?"),
                db.schema().column(*attr).name,
                op.symbol(),
                solap_eventdb::pred::render_literal(value)
            ),
            MatchPred::And(a, b) => format!(
                "{} AND {}",
                a.render(db, placeholder_names),
                b.render(db, placeholder_names)
            ),
            MatchPred::Or(a, b) => format!(
                "({} OR {})",
                a.render(db, placeholder_names),
                b.render(db, placeholder_names)
            ),
            MatchPred::Not(p) => format!("(NOT {})", p.render(db, placeholder_names)),
        }
    }

    /// Derives the conventional placeholder names for a template: the
    /// lower-cased symbol name with a per-symbol occurrence counter —
    /// `(X, Y, Y, X)` yields `x1, y1, y2, x2` as in Figure 3.
    pub fn placeholder_names(template: &crate::template::PatternTemplate) -> Vec<String> {
        let mut counts = vec![0usize; template.n()];
        template
            .symbols
            .iter()
            .map(|&d| {
                counts[d] += 1;
                format!("{}{}", template.dims[d].name.to_lowercase(), counts[d])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{PatternKind, PatternTemplate};
    use solap_eventdb::{ColumnType, EventDbBuilder};

    fn db() -> EventDb {
        let mut db = EventDbBuilder::new()
            .dimension("location", ColumnType::Str)
            .dimension("action", ColumnType::Str)
            .build()
            .unwrap();
        for (l, a) in [
            ("Pentagon", "in"),
            ("Wheaton", "out"),
            ("Wheaton", "in"),
            ("Pentagon", "out"),
        ] {
            db.push_row(&[Value::from(l), Value::from(a)]).unwrap();
        }
        db
    }

    #[test]
    fn fig3_predicate() {
        let db = db();
        // x1.action = "in" AND y1.action = "out" AND y2.action = "in" AND x2.action = "out"
        let p = MatchPred::all([
            MatchPred::cmp(0, 1, CmpOp::Eq, "in"),
            MatchPred::cmp(1, 1, CmpOp::Eq, "out"),
            MatchPred::cmp(2, 1, CmpOp::Eq, "in"),
            MatchPred::cmp(3, 1, CmpOp::Eq, "out"),
        ]);
        assert!(p.eval(&db, &[0, 1, 2, 3]).unwrap());
        assert!(!p.eval(&db, &[1, 0, 2, 3]).unwrap());
        assert_eq!(p.max_pos(), Some(3));
    }

    #[test]
    fn combinators() {
        let db = db();
        let in0 = MatchPred::cmp(0, 1, CmpOp::Eq, "in");
        let out0 = MatchPred::cmp(0, 1, CmpOp::Eq, "out");
        assert!(in0.clone().or(out0.clone()).eval(&db, &[0]).unwrap());
        assert!(!in0.clone().and(out0.clone()).eval(&db, &[0]).unwrap());
        assert!(out0.not().eval(&db, &[0]).unwrap());
        assert!(MatchPred::True.eval(&db, &[]).unwrap());
        assert!(MatchPred::all([]).is_true());
    }

    #[test]
    fn prefix_eval_prunes_conservatively() {
        let db = db();
        let p = MatchPred::cmp(0, 1, CmpOp::Eq, "in").and(MatchPred::cmp(1, 1, CmpOp::Eq, "out"));
        // With only position 0 resolved, the pos-1 conjunct passes vacuously.
        assert!(p.eval_prefix(&db, &[0, 999], 1).unwrap());
        // But a failing pos-0 conjunct prunes immediately.
        assert!(!p.eval_prefix(&db, &[1, 999], 1).unwrap());
        // A disjunction touching unresolved positions must not prune.
        let q = MatchPred::cmp(0, 1, CmpOp::Eq, "out").or(MatchPred::cmp(1, 1, CmpOp::Eq, "out"));
        assert!(q.eval_prefix(&db, &[0, 999], 1).unwrap());
    }

    #[test]
    fn remap_shifts_and_drops() {
        let p = MatchPred::cmp(0, 1, CmpOp::Eq, "in")
            .and(MatchPred::cmp(1, 1, CmpOp::Eq, "out"))
            .and(MatchPred::cmp(2, 1, CmpOp::Eq, "in"));
        // DE-HEAD: drop position 0, shift the rest down.
        let q = p.remap_positions(&|pos| pos.checked_sub(1));
        assert_eq!(q.max_pos(), Some(1));
        let db = db();
        // Positions 0 and 1 of the remapped predicate are old 1 and 2.
        assert!(q.eval(&db, &[1, 2]).unwrap()); // out, in
        assert!(!q.eval(&db, &[0, 2]).unwrap());
        // DE-TAIL: drop positions ≥ 2.
        let r = p.remap_positions(&|pos| (pos < 2).then_some(pos));
        assert_eq!(r.max_pos(), Some(1));
        // Dropping everything yields True.
        let t = p.remap_positions(&|_| None);
        assert!(t.is_true());
    }

    #[test]
    fn remap_is_conservative_inside_or_and_not() {
        // (x0 = out OR x2 = out): dropping position 2 must not strengthen
        // the predicate to `x0 = out` — the whole disjunction goes away.
        let p = MatchPred::cmp(0, 1, CmpOp::Eq, "out").or(MatchPred::cmp(2, 1, CmpOp::Eq, "out"));
        let q = p.remap_positions(&|pos| (pos < 2).then_some(pos));
        assert!(q.is_true());
        // NOT(x2 = in) likewise.
        let n = MatchPred::cmp(2, 1, CmpOp::Eq, "in").not();
        assert!(n.remap_positions(&|pos| (pos < 2).then_some(pos)).is_true());
        // But fully-mapped OR/NOT subtrees survive with shifted positions.
        let kept = MatchPred::cmp(1, 1, CmpOp::Eq, "out").not();
        let shifted = kept.remap_positions(&|pos| pos.checked_sub(1));
        assert_eq!(shifted.max_pos(), Some(0));
    }

    #[test]
    fn placeholder_names_match_fig3() {
        let t = PatternTemplate::new(
            PatternKind::Substring,
            &["X", "Y", "Y", "X"],
            &[("X", 0, 0), ("Y", 0, 0)],
        )
        .unwrap();
        assert_eq!(
            MatchPred::placeholder_names(&t),
            vec!["x1", "y1", "y2", "x2"]
        );
    }

    #[test]
    fn render_uses_placeholders() {
        let db = db();
        let t = PatternTemplate::new(
            PatternKind::Substring,
            &["X", "Y"],
            &[("X", 0, 0), ("Y", 0, 0)],
        )
        .unwrap();
        let names = MatchPred::placeholder_names(&t);
        let p = MatchPred::cmp(0, 1, CmpOp::Eq, "in").and(MatchPred::cmp(1, 1, CmpOp::Eq, "out"));
        let s = p.render(&db, &names);
        assert_eq!(s, "x1.action = \"in\" AND y1.action = \"out\"");
    }
}
