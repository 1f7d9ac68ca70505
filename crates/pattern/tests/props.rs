//! Property tests for the matcher: occurrence-set relationships between
//! template kinds and restrictions, and consistency between the matcher's
//! several entry points (enumeration, containment, unique-pattern listing,
//! concrete-cell queries).

use std::collections::HashSet;

use proptest::prelude::*;

use solap_eventdb::{CmpOp, ColumnType, EventDb, EventDbBuilder, Sequence, Value};
use solap_pattern::{
    AssignedContent, CellRestriction, MatchPred, Matcher, PatternKind, PatternTemplate,
};

fn build(seqs: &[Vec<(u8, bool)>]) -> (EventDb, Vec<Sequence>) {
    let mut db = EventDbBuilder::new()
        .dimension("item", ColumnType::Str)
        .dimension("tag", ColumnType::Str)
        .build()
        .unwrap();
    let mut out = Vec::new();
    let mut row = 0u32;
    for (sid, seq) in seqs.iter().enumerate() {
        let mut rows = Vec::new();
        for &(sym, tag) in seq {
            db.push_row(&[
                Value::Str(format!("s{}", sym % 4)),
                Value::Str(if tag { "a".into() } else { "b".into() }),
            ])
            .unwrap();
            rows.push(row);
            row += 1;
        }
        out.push(Sequence {
            sid: sid as u32,
            cluster_key: vec![],
            rows,
        });
    }
    (db, out)
}

fn template(kind: PatternKind, shape: &[usize]) -> PatternTemplate {
    let names = ["A", "B", "C"];
    let syms: Vec<&str> = shape.iter().map(|&d| names[d % 3]).collect();
    let mut bindings: Vec<(&str, u32, usize)> = Vec::new();
    for &s in &syms {
        if !bindings.iter().any(|(n, _, _)| *n == s) {
            bindings.push((s, 0, 0));
        }
    }
    PatternTemplate::new(kind, &syms, &bindings).unwrap()
}

type Case = (Vec<Vec<(u8, bool)>>, Vec<usize>, Option<(usize, bool)>);

fn case() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec(prop::collection::vec((0u8..4, any::<bool>()), 0..9), 1..6),
        prop::collection::vec(0usize..3, 1..4),
        prop::option::of((0usize..3, any::<bool>())),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Substring occurrences are a subset of subsequence occurrences.
    #[test]
    fn substring_subset_of_subsequence((seqs, shape, _) in case()) {
        let (db, sequences) = build(&seqs);
        let trivial = MatchPred::True;
        let sub = template(PatternKind::Substring, &shape);
        let sseq = template(PatternKind::Subsequence, &shape);
        let m_sub = Matcher::new(&db, &sub, &trivial);
        let m_seq = Matcher::new(&db, &sseq, &trivial);
        for s in &sequences {
            let mut sub_occ = HashSet::new();
            m_sub.for_each_occurrence(s, |o| { sub_occ.insert(o.positions.clone()); true }).unwrap();
            let mut seq_occ = HashSet::new();
            m_seq.for_each_occurrence(s, |o| { seq_occ.insert(o.positions.clone()); true }).unwrap();
            prop_assert!(sub_occ.is_subset(&seq_occ));
        }
    }

    /// A predicate can only remove occurrences, and every surviving
    /// occurrence's events satisfy it.
    #[test]
    fn predicates_filter_monotonically((seqs, shape, pred) in case()) {
        let (db, sequences) = build(&seqs);
        let t = template(PatternKind::Substring, &shape);
        let trivial = MatchPred::True;
        let p = match pred {
            Some((pos, want)) if pos < t.m() =>
                MatchPred::cmp(pos, 1, CmpOp::Eq, if want { "a" } else { "b" }),
            _ => MatchPred::True,
        };
        let m_free = Matcher::new(&db, &t, &trivial);
        let m_pred = Matcher::new(&db, &t, &p);
        for s in &sequences {
            let mut free = HashSet::new();
            m_free.for_each_occurrence(s, |o| { free.insert(o.positions.clone()); true }).unwrap();
            let mut kept = HashSet::new();
            m_pred.for_each_occurrence(s, |o| {
                kept.insert(o.positions.clone());
                // Verify the predicate actually holds on the matched rows.
                let rows: Vec<u32> = o.positions.iter().map(|&i| s.rows[i as usize]).collect();
                assert!(p.eval(&db, &rows).unwrap());
                true
            }).unwrap();
            prop_assert!(kept.is_subset(&free));
        }
    }

    /// Left-maximality keeps exactly the distinct cells of all-matched, and
    /// picks each cell's leftmost occurrence.
    #[test]
    fn left_maximality_is_leftmost_distinct((seqs, shape, _) in case()) {
        let (db, sequences) = build(&seqs);
        let trivial = MatchPred::True;
        for kind in [PatternKind::Substring, PatternKind::Subsequence] {
            let t = template(kind, &shape);
            let m = Matcher::new(&db, &t, &trivial);
            for s in &sequences {
                let all = m.assignments(s, CellRestriction::AllMatchedGo).unwrap();
                let lm = m.assignments(s, CellRestriction::LeftMaximalityMatchedGo).unwrap();
                let all_cells: HashSet<_> = all.iter().map(|a| a.cell.clone()).collect();
                let lm_cells: HashSet<_> = lm.iter().map(|a| a.cell.clone()).collect();
                prop_assert_eq!(&all_cells, &lm_cells);
                prop_assert_eq!(lm.len(), lm_cells.len(), "one assignment per cell");
                // Leftmost: no all-matched occurrence of the same cell
                // starts earlier than the left-max one.
                for a in &lm {
                    let solap_pattern::AssignedContent::Matched(pos) = &a.content else {
                        unreachable!("matched-go content");
                    };
                    for other in all.iter().filter(|o| o.cell == a.cell) {
                        let solap_pattern::AssignedContent::Matched(opos) = &other.content else {
                            unreachable!()
                        };
                        prop_assert!(pos <= opos, "not leftmost: {:?} vs {:?}", pos, opos);
                    }
                }
            }
        }
    }

    /// `contains_pattern` agrees with occurrence enumeration, and
    /// `for_each_unique_pattern` lists exactly the distinct value strings.
    #[test]
    fn entry_points_agree((seqs, shape, _) in case()) {
        let (db, sequences) = build(&seqs);
        let trivial = MatchPred::True;
        for kind in [PatternKind::Substring, PatternKind::Subsequence] {
            let t = template(kind, &shape);
            let m = Matcher::new(&db, &t, &trivial);
            for s in &sequences {
                let mut enumerated: HashSet<Vec<u64>> = HashSet::new();
                m.for_each_occurrence(s, |o| {
                    enumerated.insert(t.expand_cell(&o.cell));
                    true
                }).unwrap();
                let mut unique: HashSet<Vec<u64>> = HashSet::new();
                m.for_each_unique_pattern(s, |v| {
                    unique.insert(v.to_vec());
                }).unwrap();
                prop_assert_eq!(&enumerated, &unique);
                for pat in &unique {
                    prop_assert!(m.contains_pattern(s, pat).unwrap());
                }
                // And a value string not present is not "contained".
                let absent = vec![u64::MAX; t.m()];
                prop_assert!(!m.contains_pattern(s, &absent).unwrap());
            }
        }
    }

    /// Concrete-cell counting sums to the all-matched total.
    #[test]
    fn concrete_counts_partition_total((seqs, shape, _) in case()) {
        let (db, sequences) = build(&seqs);
        let trivial = MatchPred::True;
        let t = template(PatternKind::Substring, &shape);
        let m = Matcher::new(&db, &t, &trivial);
        for s in &sequences {
            let all = m.assignments(s, CellRestriction::AllMatchedGo).unwrap();
            let cells: HashSet<_> = all.iter().map(|a| a.cell.clone()).collect();
            let mut total = 0;
            for cell in &cells {
                total += m.count_occurrences_of_cell(s, cell).unwrap();
                // And the first occurrence exists and has this cell.
                let first = m.first_occurrence_of_cell(s, cell).unwrap().unwrap();
                prop_assert_eq!(&first.cell, cell);
            }
            prop_assert_eq!(total as usize, all.len());
        }
    }
}

/// An occurrence as the brute-force reference reports it: the cell's
/// symbol values and the assigned positions (`None` = whole sequence).
type Brute = (Vec<u8>, Option<Vec<u32>>);

/// Every position tuple of length `m` in a sequence of length `len`, in
/// lexicographic order: contiguous windows for SUBSTRING, increasing
/// tuples for SUBSEQUENCE.
fn brute_tuples(len: usize, m: usize, kind: PatternKind) -> Vec<Vec<u32>> {
    let mut tuples: Vec<Vec<u32>> = vec![vec![]];
    for _ in 0..m {
        let mut longer = Vec::new();
        for t in &tuples {
            let from = t.last().map_or(0, |&l| l as usize + 1);
            let to = match (kind, t.first()) {
                (PatternKind::Substring, Some(_)) => (from + 1).min(len),
                _ => len,
            };
            for i in from..to {
                longer.push(t.iter().copied().chain([i as u32]).collect());
            }
        }
        tuples = longer;
    }
    tuples
}

/// The paper's §3.2 definitions, straight: every instantiating tuple whose
/// tagged position (if any) carries the wanted tag is an occurrence; the
/// left-maximality restrictions keep each cell's first one.
fn brute_assignments(
    seq: &[(u8, bool)],
    shape: &[usize],
    kind: PatternKind,
    pred: Option<(usize, bool)>,
    restriction: CellRestriction,
) -> Vec<Brute> {
    let syms: Vec<usize> = shape.iter().map(|&d| d % 3).collect();
    let mut dims: Vec<usize> = Vec::new();
    for &s in &syms {
        if !dims.contains(&s) {
            dims.push(s);
        }
    }
    let mut out: Vec<Brute> = Vec::new();
    for t in brute_tuples(seq.len(), syms.len(), kind) {
        let val = |p: usize| seq[t[p] as usize].0 % 4;
        let consistent =
            (0..t.len()).all(|p| (0..p).all(|q| syms[q] != syms[p] || val(q) == val(p)));
        let tagged =
            pred.is_none_or(|(pos, want)| pos >= t.len() || seq[t[pos] as usize].1 == want);
        if !consistent || !tagged {
            continue;
        }
        let cell: Vec<u8> = dims
            .iter()
            .map(|d| val(syms.iter().position(|s| s == d).unwrap()))
            .collect();
        match restriction {
            CellRestriction::AllMatchedGo => out.push((cell, Some(t))),
            _ if out.iter().any(|(c, _)| *c == cell) => {}
            CellRestriction::LeftMaximalityMatchedGo => out.push((cell, Some(t))),
            CellRestriction::LeftMaximalityDataGo => out.push((cell, None)),
        }
    }
    out
}

fn symbol_of(db: &EventDb, v: u64) -> u8 {
    db.render_level(0, 0, v)[1..].parse().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The kernel against brute force: `for_each_assignment`,
    /// `assignments()` and the reference agree exactly (cells, contents
    /// and order) for all three restrictions, both kinds, random shapes
    /// and `(X, Y, Y, X)`; `for_each_unique_pattern` lists the
    /// predicate-free occurrences' distinct value strings in first-seen
    /// order, and `contains_patterns` finds exactly those.
    #[test]
    fn kernel_matches_brute_force((seqs, shape, pred) in case()) {
        let (db, sequences) = build(&seqs);
        for shape in [shape, vec![0, 1, 1, 0]] {
            for kind in [PatternKind::Substring, PatternKind::Subsequence] {
                let t = template(kind, &shape);
                let p = match pred {
                    Some((pos, want)) if pos < t.m() =>
                        MatchPred::cmp(pos, 1, CmpOp::Eq, if want { "a" } else { "b" }),
                    _ => MatchPred::True,
                };
                let m = Matcher::new(&db, &t, &p);
                let free = MatchPred::True;
                let m_free = Matcher::new(&db, &t, &free);
                for (s, raw) in sequences.iter().zip(&seqs) {
                    for r in [
                        CellRestriction::AllMatchedGo,
                        CellRestriction::LeftMaximalityMatchedGo,
                        CellRestriction::LeftMaximalityDataGo,
                    ] {
                        let expect = brute_assignments(raw, &shape, kind, pred, r);
                        let mut visited: Vec<Brute> = Vec::new();
                        m.for_each_assignment(s, r, |cell, matched| {
                            let cell = cell.iter().map(|&v| symbol_of(&db, v)).collect();
                            visited.push((cell, matched.map(<[u32]>::to_vec)));
                            Ok(())
                        }).unwrap();
                        prop_assert_eq!(&visited, &expect, "{:?} {:?} {:?}", kind, shape, r);
                        let listed: Vec<Brute> = m.assignments(s, r).unwrap().into_iter().map(|a| (
                            a.cell.iter().map(|&v| symbol_of(&db, v)).collect(),
                            match a.content {
                                AssignedContent::Matched(p) => Some(p),
                                AssignedContent::WholeSequence => None,
                            },
                        )).collect();
                        prop_assert_eq!(&listed, &expect);
                    }
                    let first_seen = brute_assignments(raw, &shape, kind, None, CellRestriction::LeftMaximalityMatchedGo);
                    let mut unique: Vec<Vec<u64>> = Vec::new();
                    m_free.for_each_unique_pattern(s, |v| unique.push(v.to_vec())).unwrap();
                    let expect_unique: Vec<Vec<u8>> = first_seen.iter().map(|(cell, _)| {
                        t.symbols.iter().map(|&d| cell[d]).collect()
                    }).collect();
                    let got: Vec<Vec<u8>> = unique.iter().map(|v| v.iter().map(|&x| symbol_of(&db, x)).collect()).collect();
                    prop_assert_eq!(&got, &expect_unique);
                    let absent = vec![u64::MAX; t.m()];
                    let probes: Vec<&[u64]> = unique.iter().map(Vec::as_slice).chain([absent.as_slice()]).collect();
                    let mut found = Vec::new();
                    m.contains_patterns(s, &probes, &mut found).unwrap();
                    let mut want = vec![true; unique.len()];
                    want.push(false);
                    prop_assert_eq!(found, want);
                }
            }
        }
    }
}
