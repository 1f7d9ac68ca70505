//! The inverted index `L_m` and the BUILDINDEX algorithm (Figure 9).

use std::collections::HashMap;

use solap_eventdb::{EventDb, LevelValue, QueryGovernor, Result, Sequence};
use solap_pattern::{MatchPred, Matcher, PatternTemplate, TemplateSignature};

/// Which [`crate::sidset::SidSet`] encoding an index uses for its lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SetBackend {
    /// Sorted sid lists (the paper's inverted lists).
    #[default]
    List,
    /// Bitmaps (§6 optimisation).
    Bitmap,
    /// Block-compressed lists with skip tables ([`crate::codec`]).
    Compressed,
    /// Per-list choice by the [`crate::sidset::choose_encoding`] density
    /// rule, settled when the index is sealed.
    Auto,
}

impl SetBackend {
    /// An empty [`crate::sidset::SidSet`] in this backend's build-time
    /// encoding. `Auto` stages in a plain list and promotes as it grows.
    pub fn empty(self) -> crate::sidset::SidSet {
        match self {
            SetBackend::List | SetBackend::Auto => crate::sidset::SidSet::empty_list(),
            SetBackend::Bitmap => crate::sidset::SidSet::empty_bitmap(),
            SetBackend::Compressed => crate::sidset::SidSet::empty_compressed(),
        }
    }

    /// Parses the `SOLAP_INDEX` / `.backend` spelling of a backend.
    pub fn parse(name: &str) -> Option<SetBackend> {
        match name.trim().to_ascii_lowercase().as_str() {
            "list" => Some(SetBackend::List),
            "bitmap" => Some(SetBackend::Bitmap),
            "compressed" => Some(SetBackend::Compressed),
            "auto" => Some(SetBackend::Auto),
            _ => None,
        }
    }
}

/// A size-`m` inverted index over one sequence group: pattern → sid set.
///
/// An inverted list `L_m[v1, …, vm]` stores the sids of all sequences that
/// contain the length-`m` pattern `(v1, …, vm)` (as a substring or
/// subsequence, per the signature's kind). Only template instantiations are
/// keyed — for a repeated-symbol template like `(X, Y, Y, X)` the index is
/// `L^T_m`, the template-restricted subset of the paper's notation.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    /// The structural identity: per-position `(attr, level)` bindings, the
    /// symbol-equality classes, and substring/subsequence kind.
    pub sig: TemplateSignature,
    /// The non-empty inverted lists.
    pub lists: HashMap<Vec<LevelValue>, crate::sidset::SidSet>,
    /// Encoding used for new lists.
    pub backend: SetBackend,
}

impl InvertedIndex {
    /// An empty index with the given identity.
    pub fn new(sig: TemplateSignature, backend: SetBackend) -> Self {
        InvertedIndex {
            sig,
            lists: HashMap::new(),
            backend,
        }
    }

    /// Pattern length `m`.
    pub fn m(&self) -> usize {
        self.sig.m()
    }

    /// Number of non-empty lists.
    pub fn list_count(&self) -> usize {
        self.lists.len()
    }

    /// Total number of sid entries across lists.
    pub fn entry_count(&self) -> usize {
        self.lists.values().map(|s| s.len()).sum()
    }

    /// Approximate heap bytes — the "Size of II" column of Table 1.
    pub fn heap_bytes(&self) -> usize {
        self.lists
            .iter()
            .map(|(k, v)| k.len() * 8 + v.heap_bytes() + 48)
            .sum()
    }

    /// The list for a concrete pattern, if non-empty.
    pub fn list(&self, pattern: &[LevelValue]) -> Option<&crate::sidset::SidSet> {
        self.lists.get(pattern)
    }

    /// Adds `sid` to the list of `pattern` (creating it), preserving sid
    /// order — BUILDINDEX line 5. Under [`SetBackend::Auto`] the list is
    /// density-promoted as it grows. The key is copied only when the list
    /// is new.
    pub fn add(&mut self, pattern: &[LevelValue], sid: solap_eventdb::Sid) {
        let backend = self.backend;
        let push = |set: &mut crate::sidset::SidSet| match backend {
            SetBackend::Auto => set.push_promoting(sid),
            _ => set.push(sid),
        };
        if let Some(set) = self.lists.get_mut(pattern) {
            push(set);
            return;
        }
        let mut set = backend.empty();
        push(&mut set);
        self.lists.insert(pattern.to_vec(), set);
    }

    /// Canonicalizes every list for long-term storage (see
    /// [`crate::sidset::SidSet::sealed`]): compressed tails are flushed,
    /// auto settles each list's encoding from its final content, and
    /// stray encodings left by joins/unions are coerced to the backend's
    /// own. Executors call this before caching an index, so
    /// [`InvertedIndex::heap_bytes`] accounts the stored form exactly.
    pub fn seal(&mut self) {
        for v in self.lists.values_mut() {
            let s = std::mem::replace(v, crate::sidset::SidSet::empty_list());
            *v = s.sealed(self.backend);
        }
    }

    /// Iterates `(pattern, list)` pairs in deterministic (sorted-key) order.
    pub fn iter_sorted(&self) -> Vec<(&Vec<LevelValue>, &crate::sidset::SidSet)> {
        let mut v: Vec<_> = self.lists.iter().collect();
        v.sort_by(|a, b| a.0.cmp(b.0));
        v
    }
}

/// BUILDINDEX (Figure 9): scans the sequences of one group and records, for
/// each sequence, every unique pattern instantiation it contains.
///
/// The matching predicate and cell restriction are deliberately **not**
/// consulted — indices are predicate-free so one index serves every query
/// with the same structural signature; predicates are verified at counting
/// time (Figure 11 lines 13–15).
///
/// Returns the index together with the number of sequences scanned (the
/// statistic reported by Table 1 and Figure 16).
pub fn build_index<'a>(
    db: &EventDb,
    sequences: impl IntoIterator<Item = &'a Sequence>,
    template: &PatternTemplate,
    backend: SetBackend,
) -> Result<(InvertedIndex, u64)> {
    build_index_governed(
        db,
        sequences,
        template,
        backend,
        &QueryGovernor::unbounded(),
    )
}

/// [`build_index`] under a [`QueryGovernor`]: pattern enumeration ticks per
/// candidate window and each newly created inverted list is charged against
/// the cell budget.
pub fn build_index_governed<'a>(
    db: &EventDb,
    sequences: impl IntoIterator<Item = &'a Sequence>,
    template: &PatternTemplate,
    backend: SetBackend,
    gov: &QueryGovernor,
) -> Result<(InvertedIndex, u64)> {
    let trivial = MatchPred::True;
    let matcher = Matcher::new(db, template, &trivial).with_governor(gov);
    let mut index = InvertedIndex::new(template.signature(), backend);
    let mut scanned = 0u64;
    for seq in sequences {
        scanned += 1;
        let before = index.list_count();
        matcher.for_each_unique_pattern(seq, |pattern| {
            index.add(pattern, seq.sid);
        })?;
        gov.charge_cells((index.list_count() - before) as u64)?;
    }
    if let Some(rec) = gov.recorder() {
        rec.add(solap_eventdb::Counter::MatchWindows, matcher.take_windows());
    }
    index.seal();
    Ok((index, scanned))
}

#[cfg(test)]
mod tests {
    use super::*;
    use solap_eventdb::{ColumnType, EventDbBuilder, Value};
    use solap_pattern::PatternKind;

    /// The Figure 8 sequence group.
    pub(crate) fn fig8() -> (EventDb, Vec<Sequence>) {
        let mut db = EventDbBuilder::new()
            .dimension("location", ColumnType::Str)
            .dimension("action", ColumnType::Str)
            .build()
            .unwrap();
        let seq_defs: [&[&str]; 4] = [
            &[
                "Glenmont", "Pentagon", "Pentagon", "Wheaton", "Wheaton", "Pentagon",
            ],
            &["Pentagon", "Wheaton", "Wheaton", "Pentagon"],
            &["Clarendon", "Pentagon"],
            &["Wheaton", "Clarendon", "Deanwood", "Wheaton"],
        ];
        let mut seqs = Vec::new();
        let mut row = 0u32;
        for (sid, stations) in seq_defs.iter().enumerate() {
            let mut rows = Vec::new();
            for (i, st) in stations.iter().enumerate() {
                let action = if i % 2 == 0 { "in" } else { "out" };
                db.push_row(&[Value::from(*st), Value::from(action)])
                    .unwrap();
                rows.push(row);
                row += 1;
            }
            seqs.push(Sequence {
                sid: sid as u32,
                cluster_key: vec![],
                rows,
            });
        }
        (db, seqs)
    }

    pub(crate) fn template(db: &EventDb, kind: PatternKind, syms: &[&str]) -> PatternTemplate {
        let _ = db;
        let mut bindings: Vec<(&str, u32, usize)> = Vec::new();
        for &s in syms {
            if !bindings.iter().any(|(n, _, _)| *n == s) {
                bindings.push((s, 0, 0));
            }
        }
        PatternTemplate::new(kind, syms, &bindings).unwrap()
    }

    fn station(db: &EventDb, name: &str) -> u64 {
        db.dict(0).unwrap().lookup(name).unwrap() as u64
    }

    #[test]
    fn l1_matches_figure_10() {
        let (db, seqs) = fig8();
        let t = template(&db, PatternKind::Substring, &["X"]);
        let (l1, scanned) = build_index(&db, &seqs, &t, SetBackend::List).unwrap();
        assert_eq!(scanned, 4);
        let expect = [
            ("Clarendon", vec![2, 3]),
            ("Deanwood", vec![3]),
            ("Glenmont", vec![0]),
            ("Pentagon", vec![0, 1, 2]),
            ("Wheaton", vec![0, 1, 3]),
        ];
        assert_eq!(l1.list_count(), expect.len());
        for (name, sids) in expect {
            assert_eq!(
                l1.list(&[station(&db, name)]).unwrap().to_vec(),
                sids,
                "L1[{name}]"
            );
        }
    }

    #[test]
    fn l2_matches_figure_10() {
        let (db, seqs) = fig8();
        let t = template(&db, PatternKind::Substring, &["X", "Y"]);
        let (l2, _) = build_index(&db, &seqs, &t, SetBackend::List).unwrap();
        let expect = [
            (("Clarendon", "Deanwood"), vec![3]),
            (("Clarendon", "Pentagon"), vec![2]),
            (("Deanwood", "Wheaton"), vec![3]),
            (("Glenmont", "Pentagon"), vec![0]),
            (("Pentagon", "Pentagon"), vec![0]),
            (("Pentagon", "Wheaton"), vec![0, 1]),
            (("Wheaton", "Clarendon"), vec![3]),
            (("Wheaton", "Pentagon"), vec![0, 1]),
            (("Wheaton", "Wheaton"), vec![0, 1]),
        ];
        assert_eq!(
            l2.list_count(),
            expect.len(),
            "Figure 10 has 9 non-empty L2 lists"
        );
        for ((x, y), sids) in expect {
            assert_eq!(
                l2.list(&[station(&db, x), station(&db, y)])
                    .unwrap()
                    .to_vec(),
                sids,
                "L2[{x},{y}]"
            );
        }
        assert_eq!(l2.entry_count(), 12);
        assert!(l2.heap_bytes() > 0);
    }

    #[test]
    fn repeated_symbol_template_restricts_lists() {
        let (db, seqs) = fig8();
        let t = template(&db, PatternKind::Substring, &["X", "X"]);
        let (lxx, _) = build_index(&db, &seqs, &t, SetBackend::List).unwrap();
        // Footnote 7: L2^(X,X) = {l5, l9} = (Pentagon,Pentagon), (Wheaton,Wheaton).
        assert_eq!(lxx.list_count(), 2);
        assert!(lxx
            .list(&[station(&db, "Pentagon"), station(&db, "Pentagon")])
            .is_some());
        assert!(lxx
            .list(&[station(&db, "Wheaton"), station(&db, "Wheaton")])
            .is_some());
    }

    #[test]
    fn bitmap_backend_builds_identical_sets() {
        let (db, seqs) = fig8();
        let t = template(&db, PatternKind::Substring, &["X", "Y"]);
        let (ll, _) = build_index(&db, &seqs, &t, SetBackend::List).unwrap();
        let (lb, _) = build_index(&db, &seqs, &t, SetBackend::Bitmap).unwrap();
        assert_eq!(ll.list_count(), lb.list_count());
        for (k, v) in &ll.lists {
            assert_eq!(lb.lists[k].to_vec(), v.to_vec(), "pattern {k:?}");
        }
    }

    #[test]
    fn compressed_and_auto_backends_build_identical_sets() {
        let (db, seqs) = fig8();
        let t = template(&db, PatternKind::Substring, &["X", "Y"]);
        let (ll, _) = build_index(&db, &seqs, &t, SetBackend::List).unwrap();
        for backend in [SetBackend::Compressed, SetBackend::Auto] {
            let (lc, _) = build_index(&db, &seqs, &t, backend).unwrap();
            assert_eq!(ll.list_count(), lc.list_count(), "{backend:?}");
            for (k, v) in &ll.lists {
                assert_eq!(lc.lists[k].to_vec(), v.to_vec(), "{backend:?} {k:?}");
            }
        }
    }

    #[test]
    fn build_seals_compressed_lists() {
        let (db, seqs) = fig8();
        let t = template(&db, PatternKind::Substring, &["X"]);
        let (lc, _) = build_index(&db, &seqs, &t, SetBackend::Compressed).unwrap();
        for (k, v) in &lc.lists {
            match v {
                crate::sidset::SidSet::Compressed(c) => {
                    assert!(c.is_sealed(), "unsealed list for {k:?}")
                }
                other => panic!("non-compressed list {other:?} for {k:?}"),
            }
        }
    }

    #[test]
    fn subsequence_index_includes_gapped_patterns() {
        let (db, seqs) = fig8();
        let t = template(&db, PatternKind::Subsequence, &["X", "Y"]);
        let (l2, _) = build_index(&db, &seqs, &t, SetBackend::List).unwrap();
        // s0 contains (Glenmont, Wheaton) only as a gapped subsequence.
        let l = l2
            .list(&[station(&db, "Glenmont"), station(&db, "Wheaton")])
            .expect("gapped pattern must be indexed");
        assert_eq!(l.to_vec(), vec![0]);
    }

    #[test]
    fn iter_sorted_is_deterministic() {
        let (db, seqs) = fig8();
        let t = template(&db, PatternKind::Substring, &["X", "Y"]);
        let (l2, _) = build_index(&db, &seqs, &t, SetBackend::List).unwrap();
        let a: Vec<Vec<u64>> = l2.iter_sorted().iter().map(|(k, _)| (*k).clone()).collect();
        let mut b = a.clone();
        b.sort();
        assert_eq!(a, b);
    }
}
