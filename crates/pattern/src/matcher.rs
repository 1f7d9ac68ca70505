//! Occurrence enumeration and cell assignment.
//!
//! Given a data sequence and a pattern template, the matcher enumerates
//! *occurrences* — position lists whose level values instantiate the
//! template and whose events satisfy the matching predicate — and converts
//! them to *cell assignments* under a [`CellRestriction`]:
//!
//! * left-maximality-matched-go: the leftmost satisfying occurrence per
//!   cell (each sequence contributes at most once per cell — this is what
//!   makes Figure 12 of the paper count `(Pentagon, Wheaton) = 2`);
//! * all-matched-go: every satisfying occurrence;
//! * left-maximality-data-go: leftmost per cell, but the whole sequence is
//!   the assigned content.
//!
//! Every entry point runs on one kernel. It loads a sequence's level values
//! once into lanes the matcher keeps, walks the windows (SUBSTRING) or the
//! depth-first occurrence tree (SUBSEQUENCE), writes each occurrence into
//! reused position and cell buffers, and dedupes cells through one
//! arena-backed set that is cleared, not reallocated, between sequences.
//! Sinks see each occurrence as borrowed slices, so a key is copied only
//! by a sink that keeps it (a new cuboid cell or inverted list).

use std::cell::Cell;

use solap_eventdb::{EventDb, LevelValue, QueryGovernor, Result, RowId, Sequence};

use crate::mpred::MatchPred;
use crate::template::{CellRestriction, PatternKind, PatternTemplate};

/// One occurrence of a template in a sequence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Occurrence {
    /// Indices into the sequence's event list, strictly increasing;
    /// contiguous for substring templates.
    pub positions: Vec<u32>,
    /// The cell key: one value per pattern dimension.
    pub cell: Vec<LevelValue>,
}

/// What a cell receives when a sequence is assigned to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssignedContent {
    /// The matched events (their indices into the sequence).
    Matched(Vec<u32>),
    /// The whole data sequence (the *data-go* restrictions).
    WholeSequence,
}

/// A (cell, content) assignment produced for one sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// The cell key (pattern-dimension values).
    pub cell: Vec<LevelValue>,
    /// The content assigned.
    pub content: AssignedContent,
}

/// A matcher binds a database, a template and a matching predicate, and
/// reuses its per-sequence buffers across sequences and calls.
pub struct Matcher<'a> {
    db: &'a EventDb,
    template: &'a PatternTemplate,
    mpred: &'a MatchPred,
    /// Distinct `(attr, level)` pairs used by the template's dimensions.
    lanes: Vec<(u32, usize)>,
    /// Per position: the lane holding its dimension's values.
    pos_lane: Vec<usize>,
    /// Per dimension: the position where its symbol first appears, which
    /// binds the dimension's value; later positions must repeat it.
    first_pos: Vec<usize>,
    /// Optional per-query governor ticked per match-window / DFS node, so
    /// explosive occurrence enumeration stays abortable.
    gov: Option<&'a QueryGovernor>,
    /// Candidate windows / DFS nodes attempted since the last
    /// [`Matcher::take_windows`] (observability; matchers are per-thread,
    /// so a non-atomic cell suffices).
    windows: Cell<u64>,
    /// Buffers reused across calls. A call takes them out and puts them
    /// back, so a re-entrant call merely starts with empty ones.
    scratch: Cell<Scratch>,
}

/// The kernel's reusable buffers.
#[derive(Default)]
struct Scratch {
    /// The loaded sequence's level values, lane-major: lane `l`, event `i`
    /// at `l * len + i`.
    lanes: Vec<LevelValue>,
    len: usize,
    positions: Vec<u32>,
    rows: Vec<RowId>,
    cell: Vec<LevelValue>,
    /// The matched value string, one value per template position.
    values: Vec<LevelValue>,
    seen: SliceSet,
    /// Verification: per distinct pattern, whether a window matched it.
    hits: Vec<bool>,
    /// Verification: per probed pattern, its entry in `seen`.
    entry_of: Vec<usize>,
}

impl<'a> Matcher<'a> {
    /// Creates a matcher. `mpred` placeholder positions must fit the
    /// template length.
    pub fn new(db: &'a EventDb, template: &'a PatternTemplate, mpred: &'a MatchPred) -> Self {
        debug_assert!(
            mpred.max_pos().is_none_or(|p| p < template.m()),
            "matching predicate references placeholder beyond template length"
        );
        let mut lanes: Vec<(u32, usize)> = Vec::new();
        let mut dim_lane = Vec::with_capacity(template.n());
        for d in &template.dims {
            let key = (d.attr, d.level);
            let lane = match lanes.iter().position(|&l| l == key) {
                Some(i) => i,
                None => {
                    lanes.push(key);
                    lanes.len() - 1
                }
            };
            dim_lane.push(lane);
        }
        let mut first_pos = vec![usize::MAX; template.n()];
        for (p, &d) in template.symbols.iter().enumerate() {
            first_pos[d] = first_pos[d].min(p);
        }
        Matcher {
            db,
            template,
            mpred,
            lanes,
            pos_lane: template.symbols.iter().map(|&d| dim_lane[d]).collect(),
            first_pos,
            gov: None,
            windows: Cell::new(0),
            scratch: Cell::default(),
        }
    }

    /// Attaches a [`QueryGovernor`]; enumeration loops then tick it once
    /// per candidate window or DFS node and abort when a limit trips.
    pub fn with_governor(mut self, gov: &'a QueryGovernor) -> Self {
        self.gov = Some(gov);
        self
    }

    #[inline]
    fn tick(&self) -> Result<()> {
        self.windows.set(self.windows.get() + 1);
        match self.gov {
            Some(g) => g.tick(),
            None => Ok(()),
        }
    }

    /// Returns and resets the number of candidate match windows / DFS nodes
    /// attempted since the last call (flushed into the query recorder by
    /// construction loops).
    pub fn take_windows(&self) -> u64 {
        self.windows.replace(0)
    }

    /// The template this matcher works with.
    pub fn template(&self) -> &PatternTemplate {
        self.template
    }

    fn with_scratch<T>(&self, f: impl FnOnce(&mut Scratch) -> Result<T>) -> Result<T> {
        let mut s = self.scratch.take();
        let out = f(&mut s);
        self.scratch.set(s);
        out
    }

    /// Loads `seq`'s lanes into `s` and sizes the occurrence buffers.
    fn load(&self, s: &mut Scratch, seq: &Sequence) -> Result<()> {
        s.len = seq.rows.len();
        s.lanes.clear();
        for &(attr, level) in &self.lanes {
            // solint: allow(governor-tick) O(rows) lane fill per sequence; the window/DFS scan that consumes it ticks
            for &row in &seq.rows {
                s.lanes.push(self.db.value_at_level(row, attr, level)?);
            }
        }
        let (m, n) = (self.template.m(), self.template.n());
        s.positions.clear();
        s.rows.clear();
        s.rows.resize(m, 0);
        s.cell.clear();
        s.cell.resize(n, 0);
        s.values.clear();
        s.values.resize(m, 0);
        s.seen.clear(n);
        Ok(())
    }

    /// The enumeration kernel: hands every occurrence of the template in
    /// `seq` satisfying `pred` to `sink` as (cell key, matched positions,
    /// matched value string), leftmost-first; the sink returns `Ok(false)`
    /// to stop. With `dedupe`, only the first satisfying occurrence of each
    /// cell is handed on.
    fn scan<F>(
        &self,
        s: &mut Scratch,
        seq: &Sequence,
        pred: &MatchPred,
        dedupe: bool,
        sink: &mut F,
    ) -> Result<()>
    where
        F: FnMut(&[LevelValue], &[u32], &[LevelValue]) -> Result<bool>,
    {
        self.load(s, seq)?;
        let (m, len) = (self.template.m(), s.len);
        if len < m {
            return Ok(());
        }
        match self.template.kind {
            PatternKind::Substring => {
                'windows: for start in 0..=(len - m) {
                    self.tick()?;
                    for p in 0..m {
                        let v = s.lanes[self.pos_lane[p] * len + start + p];
                        s.values[p] = v;
                        let d = self.template.symbols[p];
                        if self.first_pos[d] == p {
                            s.cell[d] = v;
                        } else if s.cell[d] != v {
                            continue 'windows;
                        }
                    }
                    // A cell already assigned drops the window whatever the
                    // predicate says, so test that first.
                    if dedupe && s.seen.find(&s.cell).is_some() {
                        continue;
                    }
                    if !pred.eval(self.db, &seq.rows[start..start + m])? {
                        continue;
                    }
                    if dedupe {
                        s.seen.insert(&s.cell);
                    }
                    s.positions.clear();
                    s.positions.extend(start as u32..(start + m) as u32);
                    if !sink(&s.cell, &s.positions, &s.values)? {
                        return Ok(());
                    }
                }
                Ok(())
            }
            PatternKind::Subsequence => self.dfs(s, seq, pred, dedupe, 0, 0, sink).map(|_| ()),
        }
    }

    /// Depth-first subsequence enumeration from template position `p`,
    /// choosing events at or after `from`. Returns `Ok(false)` once the
    /// sink asked to stop.
    #[allow(clippy::too_many_arguments)]
    fn dfs<F>(
        &self,
        s: &mut Scratch,
        seq: &Sequence,
        pred: &MatchPred,
        dedupe: bool,
        p: usize,
        from: usize,
        sink: &mut F,
    ) -> Result<bool>
    where
        F: FnMut(&[LevelValue], &[u32], &[LevelValue]) -> Result<bool>,
    {
        self.tick()?;
        let m = self.template.m();
        if p == m {
            if dedupe {
                if s.seen.find(&s.cell).is_some() {
                    return Ok(true);
                }
                s.seen.insert(&s.cell);
            }
            return sink(&s.cell, &s.positions, &s.values);
        }
        // Not enough events left to complete the pattern.
        let last = s.len - (m - p);
        if from > last {
            return Ok(true);
        }
        let d = self.template.symbols[p];
        let (lane, binds) = (self.pos_lane[p] * s.len, self.first_pos[d] == p);
        for i in from..=last {
            let v = s.lanes[lane + i];
            if binds {
                s.cell[d] = v;
            } else if s.cell[d] != v {
                continue;
            }
            s.values[p] = v;
            s.positions.push(i as u32);
            s.rows[p] = seq.rows[i];
            // Prune with the conjuncts already determined.
            let go = if pred.eval_prefix(self.db, &s.rows, p + 1)? {
                self.dfs(s, seq, pred, dedupe, p + 1, i + 1, sink)?
            } else {
                true
            };
            s.positions.pop();
            if !go {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Hands each of this sequence's cell assignments under `restriction`
    /// to `sink`, leftmost-first, deterministic. The sink receives the cell
    /// key and the assigned content: `Some(positions)` of the matched
    /// events, or `None` for the whole sequence (the data-go restriction).
    /// Both are borrowed from buffers reused for the next assignment.
    pub fn for_each_assignment(
        &self,
        seq: &Sequence,
        restriction: CellRestriction,
        mut sink: impl FnMut(&[LevelValue], Option<&[u32]>) -> Result<()>,
    ) -> Result<()> {
        let dedupe = restriction != CellRestriction::AllMatchedGo;
        let whole = restriction == CellRestriction::LeftMaximalityDataGo;
        self.with_scratch(|s| {
            self.scan(s, seq, self.mpred, dedupe, &mut |cell, positions, _| {
                sink(cell, (!whole).then_some(positions))?;
                Ok(true)
            })
        })
    }

    /// Produces this sequence's cell assignments under `restriction`,
    /// leftmost-first, deterministic.
    pub fn assignments(
        &self,
        seq: &Sequence,
        restriction: CellRestriction,
    ) -> Result<Vec<Assignment>> {
        let mut out: Vec<Assignment> = Vec::new();
        self.for_each_assignment(seq, restriction, |cell, matched| {
            out.push(Assignment {
                cell: cell.to_vec(),
                content: match matched {
                    Some(positions) => AssignedContent::Matched(positions.to_vec()),
                    None => AssignedContent::WholeSequence,
                },
            });
            Ok(())
        })?;
        Ok(out)
    }

    /// Enumerates satisfying occurrences leftmost-first, calling `f` for
    /// each; `f` returns `false` to stop early.
    pub fn for_each_occurrence(
        &self,
        seq: &Sequence,
        mut f: impl FnMut(&Occurrence) -> bool,
    ) -> Result<()> {
        let mut occ = Occurrence::default();
        self.with_scratch(|s| {
            self.scan(s, seq, self.mpred, false, &mut |cell, positions, _| {
                occ.positions.clear();
                occ.positions.extend_from_slice(positions);
                occ.cell.clear();
                occ.cell.extend_from_slice(cell);
                Ok(f(&occ))
            })
        })
    }

    /// Finds the leftmost satisfying occurrence whose cell equals `cell`.
    pub fn first_occurrence_of_cell(
        &self,
        seq: &Sequence,
        cell: &[LevelValue],
    ) -> Result<Option<Occurrence>> {
        let mut found = None;
        self.for_each_occurrence(seq, |occ| {
            if occ.cell == cell {
                found = Some(occ.clone());
                false
            } else {
                true
            }
        })?;
        Ok(found)
    }

    /// Counts satisfying occurrences whose cell equals `cell`.
    pub fn count_occurrences_of_cell(&self, seq: &Sequence, cell: &[LevelValue]) -> Result<u64> {
        let mut count = 0;
        self.for_each_occurrence(seq, |occ| {
            if occ.cell == cell {
                count += 1;
            }
            true
        })?;
        Ok(count)
    }

    /// Whether `seq` contains the concrete length-`m` value string `values`
    /// (an instantiation of the template), **ignoring the matching
    /// predicate**. This is the containment test the inverted-index
    /// verification scans use (Figure 15 line 9).
    pub fn contains_pattern(&self, seq: &Sequence, values: &[LevelValue]) -> Result<bool> {
        let mut found = Vec::with_capacity(1);
        self.contains_patterns(seq, &[values], &mut found)?;
        Ok(found.first() == Some(&true))
    }

    /// [`Matcher::contains_pattern`] for several value strings over one
    /// load of `seq`: `found[i]` tells whether `seq` contains
    /// `patterns[i]`. SUBSTRING walks the windows once, probing each
    /// against every pattern, and stops when all are found; SUBSEQUENCE
    /// runs greedy leftmost containment per pattern.
    pub fn contains_patterns(
        &self,
        seq: &Sequence,
        patterns: &[&[LevelValue]],
        found: &mut Vec<bool>,
    ) -> Result<()> {
        found.clear();
        found.resize(patterns.len(), false);
        self.with_scratch(|s| {
            self.load(s, seq)?;
            let (m, len) = (self.template.m(), s.len);
            if len < m {
                return Ok(());
            }
            match self.template.kind {
                PatternKind::Substring => {
                    s.seen.clear(m);
                    s.entry_of.clear();
                    for pattern in patterns {
                        debug_assert_eq!(pattern.len(), m);
                        s.entry_of.push(s.seen.insert(pattern).0);
                    }
                    s.hits.clear();
                    s.hits.resize(s.seen.len(), false);
                    let mut missing = s.seen.len();
                    for start in 0..=(len - m) {
                        if missing == 0 {
                            break;
                        }
                        self.tick()?;
                        for p in 0..m {
                            s.values[p] = s.lanes[self.pos_lane[p] * len + start + p];
                        }
                        if let Some(e) = s.seen.find(&s.values) {
                            if !s.hits[e] {
                                s.hits[e] = true;
                                missing -= 1;
                            }
                        }
                    }
                    for (f, &e) in found.iter_mut().zip(&s.entry_of) {
                        *f = s.hits[e];
                    }
                }
                PatternKind::Subsequence => {
                    for (f, pattern) in found.iter_mut().zip(patterns) {
                        // Fixed values: greedy leftmost matching decides
                        // existence.
                        let mut p = 0;
                        for i in 0..len {
                            self.tick()?;
                            if s.lanes[self.pos_lane[p] * len + i] == pattern[p] {
                                p += 1;
                                if p == m {
                                    *f = true;
                                    break;
                                }
                            }
                        }
                    }
                }
            }
            Ok(())
        })
    }

    /// Enumerates, ignoring the matching predicate, every **unique**
    /// length-`m` value string of `seq` that instantiates the template
    /// (Figure 9 line 4 of BUILDINDEX). `f` receives each unique string
    /// once, in first-occurrence order.
    pub fn for_each_unique_pattern(
        &self,
        seq: &Sequence,
        mut f: impl FnMut(&[LevelValue]),
    ) -> Result<()> {
        // A value string and its cell determine each other, so deduping
        // cells dedupes the strings.
        self.with_scratch(|s| {
            self.scan(s, seq, &MatchPred::True, true, &mut |_, _, values| {
                f(values);
                Ok(true)
            })
        })
    }
}

/// A set of equal-width `LevelValue` strings kept in one flat arena and
/// probed by borrowed slices. Clearing keeps every buffer, so once warmed
/// up the set allocates nothing.
#[derive(Default)]
struct SliceSet {
    width: usize,
    /// Entry `e` occupies `keys[e * width..(e + 1) * width]`.
    keys: Vec<LevelValue>,
    /// Open-addressing table (power-of-two length): 0 = empty, else entry
    /// index + 1.
    slots: Vec<u32>,
    /// Occupied slot indices, so clearing touches only them.
    used: Vec<u32>,
}

impl SliceSet {
    /// Empties the set for keys of `width` values.
    fn clear(&mut self, width: usize) {
        for &slot in &self.used {
            self.slots[slot as usize] = 0;
        }
        self.used.clear();
        self.keys.clear();
        self.width = width;
    }

    fn len(&self) -> usize {
        self.used.len()
    }

    fn key(&self, e: usize) -> &[LevelValue] {
        &self.keys[e * self.width..(e + 1) * self.width]
    }

    /// The entry holding `key`, or the empty slot where it belongs. The
    /// table must be non-empty.
    fn probe(&self, key: &[LevelValue]) -> std::result::Result<usize, usize> {
        let mut h: u64 = 0;
        for &v in key {
            h = (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
        let mask = self.slots.len() - 1;
        // The multiply pushes the entropy up: take the top bits.
        let mut i = (h >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            match self.slots[i] {
                0 => return Err(i),
                e if self.key(e as usize - 1) == key => return Ok(e as usize - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The entry index of `key`, if present.
    fn find(&self, key: &[LevelValue]) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(key).ok()
    }

    /// Inserts `key` unless present; returns its entry index and whether
    /// it is new.
    fn insert(&mut self, key: &[LevelValue]) -> (usize, bool) {
        debug_assert_eq!(key.len(), self.width);
        if (self.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        match self.probe(key) {
            Ok(e) => (e, false),
            Err(slot) => {
                let e = self.len();
                self.keys.extend_from_slice(key);
                self.slots[slot] = e as u32 + 1;
                self.used.push(slot as u32);
                (e, true)
            }
        }
    }

    /// Doubles the table and re-places every entry.
    fn grow(&mut self) {
        let (entries, size) = (self.len(), (self.slots.len() * 2).max(16));
        self.slots.clear();
        self.slots.resize(size, 0);
        self.used.clear();
        for e in 0..entries {
            if let Err(slot) = self.probe(self.key(e)) {
                self.slots[slot] = e as u32 + 1;
                self.used.push(slot as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solap_eventdb::{CmpOp, ColumnType, EventDbBuilder, Value};
    use std::collections::HashMap;

    /// Builds a db holding one station-sequence per test sequence; action
    /// alternates in/out by position (as in Figure 8's note).
    fn db_and_seqs(seqs: &[&[&str]]) -> (EventDb, Vec<Sequence>) {
        let mut db = EventDbBuilder::new()
            .dimension("location", ColumnType::Str)
            .dimension("action", ColumnType::Str)
            .build()
            .unwrap();
        let mut out = Vec::new();
        let mut row = 0u32;
        for (sid, stations) in seqs.iter().enumerate() {
            let mut rows = Vec::new();
            for (i, st) in stations.iter().enumerate() {
                let action = if i % 2 == 0 { "in" } else { "out" };
                db.push_row(&[Value::from(*st), Value::from(action)])
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

    fn template(kind: PatternKind, syms: &[&str]) -> PatternTemplate {
        let mut bindings: Vec<(&str, u32, usize)> = Vec::new();
        for &s in syms {
            if !bindings.iter().any(|(n, _, _)| *n == s) {
                bindings.push((s, 0, 0));
            }
        }
        PatternTemplate::new(kind, syms, &bindings).unwrap()
    }

    /// Figure 8's s1: ⟨Glenmont,Pentagon,Pentagon,Wheaton,Wheaton,Pentagon⟩.
    const S1: &[&str] = &[
        "Glenmont", "Pentagon", "Pentagon", "Wheaton", "Wheaton", "Pentagon",
    ];

    #[test]
    fn substring_xy_occurrences() {
        let (db, seqs) = db_and_seqs(&[S1]);
        let t = template(PatternKind::Substring, &["X", "Y"]);
        let p = MatchPred::True;
        let m = Matcher::new(&db, &t, &p);
        let mut cells = Vec::new();
        m.for_each_occurrence(&seqs[0], |o| {
            cells.push(o.cell.clone());
            true
        })
        .unwrap();
        assert_eq!(cells.len(), 5); // all adjacent pairs
    }

    #[test]
    fn fig12_counts_with_in_out_predicate() {
        // Q3: SUBSTRING(X, Y) with x1.action = in, y1.action = out.
        let (db, seqs) = db_and_seqs(&[
            S1,
            &["Pentagon", "Wheaton", "Wheaton", "Pentagon"],
            &["Clarendon", "Pentagon"],
            &["Wheaton", "Clarendon", "Deanwood", "Wheaton"],
        ]);
        let t = template(PatternKind::Substring, &["X", "Y"]);
        let p = MatchPred::cmp(0, 1, CmpOp::Eq, "in").and(MatchPred::cmp(1, 1, CmpOp::Eq, "out"));
        let m = Matcher::new(&db, &t, &p);
        let mut counts: HashMap<(String, String), u64> = HashMap::new();
        for s in &seqs {
            for a in m
                .assignments(s, CellRestriction::LeftMaximalityMatchedGo)
                .unwrap()
            {
                let x = db.render_level(0, 0, a.cell[0]);
                let y = db.render_level(0, 0, a.cell[1]);
                *counts.entry((x, y)).or_default() += 1;
            }
        }
        // Figure 12 exactly:
        let expect = [
            (("Clarendon", "Pentagon"), 1),
            (("Deanwood", "Wheaton"), 1),
            (("Glenmont", "Pentagon"), 1),
            (("Pentagon", "Wheaton"), 2),
            (("Wheaton", "Clarendon"), 1),
            (("Wheaton", "Pentagon"), 2),
        ];
        assert_eq!(counts.len(), expect.len());
        for ((x, y), c) in expect {
            assert_eq!(counts[&(x.to_owned(), y.to_owned())], c, "({x},{y})");
        }
    }

    #[test]
    fn left_maximality_vs_all_matched() {
        // ⟨a,a,b,a,a⟩ with pattern (A,A): windows (0,1) and (3,4) match.
        let (db, seqs) = db_and_seqs(&[&["a", "a", "b", "a", "a"]]);
        let t = template(PatternKind::Substring, &["A", "A"]);
        let p = MatchPred::True;
        let m = Matcher::new(&db, &t, &p);
        let lm = m
            .assignments(&seqs[0], CellRestriction::LeftMaximalityMatchedGo)
            .unwrap();
        assert_eq!(lm.len(), 1);
        assert_eq!(lm[0].content, AssignedContent::Matched(vec![0, 1]));
        let all = m
            .assignments(&seqs[0], CellRestriction::AllMatchedGo)
            .unwrap();
        assert_eq!(all.len(), 2);
        let dg = m
            .assignments(&seqs[0], CellRestriction::LeftMaximalityDataGo)
            .unwrap();
        assert_eq!(dg.len(), 1);
        assert_eq!(dg[0].content, AssignedContent::WholeSequence);
    }

    #[test]
    fn repeated_symbols_require_equal_values() {
        let (db, seqs) = db_and_seqs(&[S1]);
        let t = template(PatternKind::Substring, &["X", "Y", "Y", "X"]);
        let p = MatchPred::True;
        let m = Matcher::new(&db, &t, &p);
        let a = m
            .assignments(&seqs[0], CellRestriction::LeftMaximalityMatchedGo)
            .unwrap();
        // Only (Pentagon, Wheaton, Wheaton, Pentagon) at positions 2..6.
        assert_eq!(a.len(), 1);
        assert_eq!(db.render_level(0, 0, a[0].cell[0]), "Pentagon".to_owned());
        assert_eq!(a[0].content, AssignedContent::Matched(vec![2, 3, 4, 5]));
    }

    #[test]
    fn subsequence_matches_with_gaps() {
        let (db, seqs) = db_and_seqs(&[&["a", "x", "b", "x", "c"]]);
        let t = template(PatternKind::Subsequence, &["P", "Q", "R"]);
        let p = MatchPred::True;
        let m = Matcher::new(&db, &t, &p);
        let mut found = false;
        m.for_each_occurrence(&seqs[0], |o| {
            if o.positions == vec![0, 2, 4] {
                found = true;
            }
            true
        })
        .unwrap();
        assert!(found, "gapped occurrence (a,b,c) must be enumerated");
        // Substring matcher must NOT find (a,b,c).
        let ts = template(PatternKind::Substring, &["P", "Q", "R"]);
        let ms = Matcher::new(&db, &ts, &p);
        let mut any = Vec::new();
        ms.for_each_occurrence(&seqs[0], |o| {
            any.push(o.cell.clone());
            true
        })
        .unwrap();
        assert_eq!(any.len(), 3); // only the 3 contiguous windows
    }

    #[test]
    fn subsequence_left_maximality_is_leftmost() {
        // haabaai with pattern (a,a): paper §3.2(b) — the first "aa".
        let (db, seqs) = db_and_seqs(&[&["a", "a", "b", "a", "a"]]);
        let t = template(PatternKind::Subsequence, &["A", "A"]);
        let p = MatchPred::True;
        let m = Matcher::new(&db, &t, &p);
        let lm = m
            .assignments(&seqs[0], CellRestriction::LeftMaximalityMatchedGo)
            .unwrap();
        assert_eq!(lm.len(), 1);
        assert_eq!(lm[0].content, AssignedContent::Matched(vec![0, 1]));
        // all-matched-go: subsequence pairs of a's: positions C(4,2)=6.
        let all = m
            .assignments(&seqs[0], CellRestriction::AllMatchedGo)
            .unwrap();
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn substring_occurrences_subset_of_subsequence() {
        let (db, seqs) = db_and_seqs(&[S1]);
        let p = MatchPred::True;
        let tsub = template(PatternKind::Substring, &["X", "Y"]);
        let tseq = template(PatternKind::Subsequence, &["X", "Y"]);
        let msub = Matcher::new(&db, &tsub, &p);
        let mseq = Matcher::new(&db, &tseq, &p);
        let mut sub_occ = Vec::new();
        msub.for_each_occurrence(&seqs[0], |o| {
            sub_occ.push(o.positions.clone());
            true
        })
        .unwrap();
        let mut seq_occ = Vec::new();
        mseq.for_each_occurrence(&seqs[0], |o| {
            seq_occ.push(o.positions.clone());
            true
        })
        .unwrap();
        for o in &sub_occ {
            assert!(seq_occ.contains(o));
        }
        assert!(seq_occ.len() >= sub_occ.len());
    }

    #[test]
    fn contains_pattern_concrete() {
        let (db, seqs) = db_and_seqs(&[S1]);
        let t = template(PatternKind::Substring, &["X", "Y"]);
        let p = MatchPred::True;
        let m = Matcher::new(&db, &t, &p);
        let pent = db.dict(0).unwrap().lookup("Pentagon").unwrap() as u64;
        let whea = db.dict(0).unwrap().lookup("Wheaton").unwrap() as u64;
        let glen = db.dict(0).unwrap().lookup("Glenmont").unwrap() as u64;
        assert!(m.contains_pattern(&seqs[0], &[pent, whea]).unwrap());
        assert!(m.contains_pattern(&seqs[0], &[glen, pent]).unwrap());
        assert!(!m.contains_pattern(&seqs[0], &[whea, glen]).unwrap());
        // Subsequence containment with gaps.
        let ts = template(PatternKind::Subsequence, &["X", "Y"]);
        let ms = Matcher::new(&db, &ts, &p);
        assert!(ms.contains_pattern(&seqs[0], &[glen, whea]).unwrap());
    }

    #[test]
    fn first_and_count_of_cell() {
        let (db, seqs) = db_and_seqs(&[S1]);
        let t = template(PatternKind::Substring, &["X", "Y"]);
        let p = MatchPred::True;
        let m = Matcher::new(&db, &t, &p);
        let pent = db.dict(0).unwrap().lookup("Pentagon").unwrap() as u64;
        let whea = db.dict(0).unwrap().lookup("Wheaton").unwrap() as u64;
        let first = m
            .first_occurrence_of_cell(&seqs[0], &[pent, whea])
            .unwrap()
            .unwrap();
        assert_eq!(first.positions, vec![2, 3]);
        assert_eq!(
            m.count_occurrences_of_cell(&seqs[0], &[pent, whea])
                .unwrap(),
            1
        );
        assert_eq!(
            m.count_occurrences_of_cell(&seqs[0], &[pent, pent])
                .unwrap(),
            1
        );
        assert!(m
            .first_occurrence_of_cell(&seqs[0], &[whea, whea])
            .unwrap()
            .is_some());
    }

    #[test]
    fn unique_patterns_for_index_build() {
        // Fig 10: L2 lists for s1 contain (Glenmont,Pentagon),
        // (Pentagon,Pentagon), (Pentagon,Wheaton), (Wheaton,Wheaton),
        // (Wheaton,Pentagon) — 5 unique pairs.
        let (db, seqs) = db_and_seqs(&[S1]);
        let t = template(PatternKind::Substring, &["X", "Y"]);
        let p = MatchPred::True;
        let m = Matcher::new(&db, &t, &p);
        let mut uniq = Vec::new();
        m.for_each_unique_pattern(&seqs[0], |v| uniq.push(v.to_vec()))
            .unwrap();
        assert_eq!(uniq.len(), 5);
        // Repeated-symbol template restricts enumeration to instantiations.
        let tx = template(PatternKind::Substring, &["X", "X"]);
        let mx = Matcher::new(&db, &tx, &p);
        let mut uniq2 = Vec::new();
        mx.for_each_unique_pattern(&seqs[0], |v| uniq2.push(v.to_vec()))
            .unwrap();
        assert_eq!(uniq2.len(), 2); // (Pentagon,Pentagon) and (Wheaton,Wheaton)
    }

    #[test]
    fn too_short_sequences_produce_nothing() {
        let (db, seqs) = db_and_seqs(&[&["a"]]);
        let t = template(PatternKind::Substring, &["X", "Y"]);
        let p = MatchPred::True;
        let m = Matcher::new(&db, &t, &p);
        assert!(m
            .assignments(&seqs[0], CellRestriction::AllMatchedGo)
            .unwrap()
            .is_empty());
        assert!(!m.contains_pattern(&seqs[0], &[0, 0]).unwrap());
        let ts = template(PatternKind::Subsequence, &["X", "Y"]);
        let ms = Matcher::new(&db, &ts, &p);
        assert!(ms
            .assignments(&seqs[0], CellRestriction::AllMatchedGo)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn early_stop_is_respected() {
        let (db, seqs) = db_and_seqs(&[S1]);
        let t = template(PatternKind::Substring, &["X", "Y"]);
        let p = MatchPred::True;
        let m = Matcher::new(&db, &t, &p);
        let mut n = 0;
        m.for_each_occurrence(&seqs[0], |_| {
            n += 1;
            n < 2
        })
        .unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn predicate_prunes_subsequence_dfs() {
        // Predicate forces position 0 to be an "in" event (even index).
        let (db, seqs) = db_and_seqs(&[S1]);
        let t = template(PatternKind::Subsequence, &["X", "Y"]);
        let p = MatchPred::cmp(0, 1, CmpOp::Eq, "in");
        let m = Matcher::new(&db, &t, &p);
        m.for_each_occurrence(&seqs[0], |o| {
            assert!(
                o.positions[0] % 2 == 0,
                "pruned position leaked: {:?}",
                o.positions
            );
            true
        })
        .unwrap();
    }
}
