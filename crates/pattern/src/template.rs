//! Pattern templates and cell restrictions (§3.2 step 5 of the paper).

use std::hash::{Hash, Hasher};

use solap_eventdb::{AttrId, Error, LevelValue, Result};

/// Whether a template matches contiguous windows (`SUBSTRING`) or ordered
/// gapped occurrences (`SUBSEQUENCE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// Contiguous occurrences.
    Substring,
    /// Order-preserving, possibly gapped occurrences.
    Subsequence,
}

impl PatternKind {
    /// The query-language keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            PatternKind::Substring => "SUBSTRING",
            PatternKind::Subsequence => "SUBSEQUENCE",
        }
    }
}

/// A pattern dimension: a distinct template symbol bound to an attribute at
/// an abstraction level (`X AS location AT station`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PatternDim {
    /// The symbol name (`X`).
    pub name: String,
    /// The bound attribute.
    pub attr: AttrId,
    /// The abstraction level of the attribute's hierarchy.
    pub level: usize,
}

/// How matched content is assigned to cells (§3.2 step 5(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CellRestriction {
    /// *left-maximality-matched-go*: only the leftmost satisfying occurrence
    /// of a cell's pattern is assigned to the cell (so each sequence
    /// contributes at most once per cell). The paper's default.
    #[default]
    LeftMaximalityMatchedGo,
    /// *left-maximality-data-go*: like left-maximality, but the **whole
    /// data sequence** (not just the matched content) is assigned.
    LeftMaximalityDataGo,
    /// *all-matched-go*: every satisfying occurrence is assigned.
    AllMatchedGo,
}

impl CellRestriction {
    /// The query-language keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            CellRestriction::LeftMaximalityMatchedGo => "LEFT-MAXIMALITY",
            CellRestriction::LeftMaximalityDataGo => "LEFT-MAXIMALITY-DATA",
            CellRestriction::AllMatchedGo => "ALL-MATCHED",
        }
    }
}

/// A pattern template: `m` symbols over `n ≤ m` pattern dimensions.
///
/// `symbols[p]` is the index into `dims` of the symbol at position `p`; the
/// template `(X, Y, Y, X)` has `dims = [X, Y]` and `symbols = [0, 1, 1, 0]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PatternTemplate {
    /// Substring or subsequence.
    pub kind: PatternKind,
    /// The pattern dimensions, in order of first appearance.
    pub dims: Vec<PatternDim>,
    /// Per-position dimension indices (length `m`).
    pub symbols: Vec<usize>,
}

impl PatternTemplate {
    /// Builds a template from a symbol list like `["X", "Y", "Y", "X"]` and
    /// per-dimension bindings `(name, attr, level)`.
    ///
    /// Every symbol must have a binding; every binding must be used.
    pub fn new(
        kind: PatternKind,
        symbol_names: &[&str],
        bindings: &[(&str, AttrId, usize)],
    ) -> Result<Self> {
        if symbol_names.is_empty() {
            return Err(Error::InvalidOperation(
                "pattern template must have at least one symbol".into(),
            ));
        }
        let mut dims: Vec<PatternDim> = Vec::new();
        let mut symbols = Vec::with_capacity(symbol_names.len());
        for &s in symbol_names {
            let idx = match dims.iter().position(|d| d.name == s) {
                Some(i) => i,
                None => {
                    let (_, attr, level) =
                        bindings.iter().find(|(n, _, _)| *n == s).ok_or_else(|| {
                            Error::InvalidOperation(format!("symbol `{s}` has no WITH binding"))
                        })?;
                    dims.push(PatternDim {
                        name: s.to_owned(),
                        attr: *attr,
                        level: *level,
                    });
                    dims.len() - 1
                }
            };
            symbols.push(idx);
        }
        for (n, _, _) in bindings {
            if !dims.iter().any(|d| d.name == *n) {
                return Err(Error::InvalidOperation(format!(
                    "binding for `{n}` is not used by any symbol"
                )));
            }
        }
        Ok(PatternTemplate {
            kind,
            dims,
            symbols,
        })
    }

    /// Number of symbols `m` (the pattern length).
    pub fn m(&self) -> usize {
        self.symbols.len()
    }

    /// Number of pattern dimensions `n`.
    pub fn n(&self) -> usize {
        self.dims.len()
    }

    /// The dimension bound at position `p`.
    pub fn dim_at(&self, p: usize) -> &PatternDim {
        &self.dims[self.symbols[p]]
    }

    /// Whether all symbols are pairwise distinct (`n == m`). Only then may
    /// P-ROLL-UP be answered by merging inverted lists (§4.2.2 item 4: the
    /// paper's s6 counter-example shows repeated symbols break the merge).
    pub fn all_symbols_distinct(&self) -> bool {
        self.n() == self.m()
    }

    /// Whether a concrete length-`m` value string instantiates the template
    /// (repeated symbols must carry equal values). Each position is
    /// compared with the first position of its symbol, so the check does
    /// not allocate.
    pub fn is_instantiation(&self, values: &[LevelValue]) -> bool {
        debug_assert_eq!(values.len(), self.m());
        self.symbols.iter().zip(values).all(|(&d, v)| {
            self.symbols
                .iter()
                .position(|&s| s == d)
                .and_then(|first| values.get(first))
                == Some(v)
        })
    }

    /// Projects a length-`m` instantiation onto the `n` pattern dimensions
    /// (the cell key). Caller must ensure `is_instantiation(values)`.
    pub fn cell_of(&self, values: &[LevelValue]) -> Vec<LevelValue> {
        let mut cell = vec![0; self.n()];
        let mut seen = vec![false; self.n()];
        for (p, &v) in values.iter().enumerate() {
            let d = self.symbols[p];
            if !seen[d] {
                seen[d] = true;
                cell[d] = v;
            }
        }
        cell
    }

    /// Expands a cell key back to the length-`m` value string.
    pub fn expand_cell(&self, cell: &[LevelValue]) -> Vec<LevelValue> {
        debug_assert_eq!(cell.len(), self.n());
        self.symbols.iter().map(|&d| cell[d]).collect()
    }

    /// Renders the template as it appears in the `CUBOID BY` clause, e.g.
    /// `SUBSTRING (X, Y, Y, X)`.
    pub fn render_head(&self) -> String {
        let syms: Vec<&str> = self
            .symbols
            .iter()
            .map(|&d| self.dims[d].name.as_str())
            .collect();
        format!("{} ({})", self.kind.keyword(), syms.join(", "))
    }

    /// The structural signature identifying which inverted index serves this
    /// template. Equality classes are renumbered in first-appearance order,
    /// so templates that differ only in symbol names or in the internal
    /// ordering of `dims` (as produced by PREPEND) share a signature.
    pub fn signature(&self) -> TemplateSignature {
        let mut map: Vec<Option<u8>> = vec![None; self.n()];
        let mut next = 0u8;
        let eq_classes = self
            .symbols
            .iter()
            .map(|&d| {
                let m = &mut map[d];
                if m.is_none() {
                    *m = Some(next);
                    next += 1;
                }
                m.expect("just set")
            })
            .collect();
        TemplateSignature {
            kind: self.kind,
            per_position: self
                .symbols
                .iter()
                .map(|&d| (self.dims[d].attr, self.dims[d].level))
                .collect(),
            eq_classes,
        }
    }

    /// Reconstructs a template from a structural signature, with synthetic
    /// symbol names (`P0`, `P1`, …). Used by the inverted-index engine to
    /// materialise prefix templates when walking the join ladder.
    pub fn from_signature(sig: &TemplateSignature) -> Self {
        let mut dims: Vec<PatternDim> = Vec::new();
        let mut symbols = Vec::with_capacity(sig.eq_classes.len());
        for (p, &class) in sig.eq_classes.iter().enumerate() {
            let idx = class as usize;
            if idx == dims.len() {
                let (attr, level) = sig.per_position[p];
                dims.push(PatternDim {
                    name: format!("P{idx}"),
                    attr,
                    level,
                });
            }
            symbols.push(idx);
        }
        PatternTemplate {
            kind: sig.kind,
            dims,
            symbols,
        }
    }

    /// A fresh, unused symbol name for APPEND/PREPEND (Z, A, B, …).
    pub fn fresh_symbol_name(&self) -> String {
        const CANDIDATES: &[&str] = &[
            "Z", "A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K", "L", "M", "N", "O", "P",
            "Q", "R", "S", "T", "U", "V", "W",
        ];
        for c in CANDIDATES {
            if !self.dims.iter().any(|d| d.name == *c) {
                return (*c).to_owned();
            }
        }
        let mut i = 0;
        loop {
            let name = format!("S{i}");
            if !self.dims.iter().any(|d| d.name == name) {
                return name;
            }
            i += 1;
        }
    }
}

/// The structural identity of a template for index caching: the
/// per-position `(attribute, level)` bindings plus the symbol-equality
/// classes. Two templates with the same signature are served by the same
/// inverted index (e.g. `(X, Y, Y, X)` over stations, regardless of symbol
/// names).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateSignature {
    /// Substring or subsequence.
    pub kind: PatternKind,
    /// `(attr, level)` per position.
    pub per_position: Vec<(AttrId, usize)>,
    /// Equality-class id per position (first-appearance order).
    pub eq_classes: Vec<u8>,
}

impl Hash for TemplateSignature {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.kind.hash(state);
        self.per_position.hash(state);
        self.eq_classes.hash(state);
    }
}

impl TemplateSignature {
    /// The prefix signature of the first `k` positions (used to find the
    /// largest available index to join from).
    pub fn prefix(&self, k: usize) -> TemplateSignature {
        let mut eq: Vec<u8> = self.eq_classes[..k].to_vec();
        // Renumber classes in first-appearance order so prefixes of
        // different templates with identical structure collide.
        let mut map: Vec<Option<u8>> = vec![None; 256];
        let mut next = 0u8;
        for c in eq.iter_mut() {
            let m = &mut map[*c as usize];
            if m.is_none() {
                *m = Some(next);
                next += 1;
            }
            *c = m.expect("just set");
        }
        TemplateSignature {
            kind: self.kind,
            per_position: self.per_position[..k].to_vec(),
            eq_classes: eq,
        }
    }

    /// Pattern length.
    pub fn m(&self) -> usize {
        self.per_position.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xyyx() -> PatternTemplate {
        PatternTemplate::new(
            PatternKind::Substring,
            &["X", "Y", "Y", "X"],
            &[("X", 2, 0), ("Y", 2, 0)],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let t = xyyx();
        assert_eq!(t.m(), 4);
        assert_eq!(t.n(), 2);
        assert_eq!(t.symbols, vec![0, 1, 1, 0]);
        assert_eq!(t.dim_at(2).name, "Y");
        assert!(!t.all_symbols_distinct());
        assert_eq!(t.render_head(), "SUBSTRING (X, Y, Y, X)");
    }

    #[test]
    fn missing_binding_rejected() {
        let r = PatternTemplate::new(PatternKind::Substring, &["X", "Y"], &[("X", 0, 0)]);
        assert!(r.is_err());
        let r = PatternTemplate::new(PatternKind::Substring, &[], &[]);
        assert!(r.is_err());
        let r = PatternTemplate::new(PatternKind::Substring, &["X"], &[("X", 0, 0), ("Y", 0, 0)]);
        assert!(r.is_err(), "unused binding must be rejected");
    }

    #[test]
    fn instantiation_checks_repeats() {
        let t = xyyx();
        // (Pentagon, Wheaton, Wheaton, Pentagon) instantiates (X,Y,Y,X)…
        assert!(t.is_instantiation(&[7, 3, 3, 7]));
        // …but (Pentagon, Wheaton, Glenmont, Pentagon) does not (paper §3.2).
        assert!(!t.is_instantiation(&[7, 3, 5, 7]));
        assert!(!t.is_instantiation(&[7, 3, 3, 8]));
    }

    #[test]
    fn cell_roundtrip() {
        let t = xyyx();
        let cell = t.cell_of(&[7, 3, 3, 7]);
        assert_eq!(cell, vec![7, 3]);
        assert_eq!(t.expand_cell(&cell), vec![7, 3, 3, 7]);
    }

    #[test]
    fn signatures_ignore_symbol_names() {
        let a = xyyx();
        let b = PatternTemplate::new(
            PatternKind::Substring,
            &["P", "Q", "Q", "P"],
            &[("P", 2, 0), ("Q", 2, 0)],
        )
        .unwrap();
        assert_eq!(a.signature(), b.signature());
        let c = PatternTemplate::new(
            PatternKind::Subsequence,
            &["X", "Y", "Y", "X"],
            &[("X", 2, 0), ("Y", 2, 0)],
        )
        .unwrap();
        assert_ne!(a.signature(), c.signature());
    }

    #[test]
    fn prefix_signature_renumbers() {
        // Prefix of (Y, Y, X) structure should equal an (A, A, B) template.
        let t = PatternTemplate::new(
            PatternKind::Substring,
            &["Y", "Y", "X"],
            &[("Y", 2, 0), ("X", 2, 0)],
        )
        .unwrap();
        let u = PatternTemplate::new(PatternKind::Substring, &["A", "A"], &[("A", 2, 0)]).unwrap();
        assert_eq!(t.signature().prefix(2), u.signature());
    }

    #[test]
    fn from_signature_roundtrips_structure() {
        let t = xyyx();
        let u = PatternTemplate::from_signature(&t.signature());
        assert_eq!(u.signature(), t.signature());
        assert_eq!(u.symbols, t.symbols);
        assert_eq!(u.dims[0].name, "P0");
        // Prefix signatures materialise too.
        let p = PatternTemplate::from_signature(&t.signature().prefix(3));
        assert_eq!(p.m(), 3);
        assert_eq!(p.symbols, vec![0, 1, 1]);
    }

    #[test]
    fn fresh_symbol_names() {
        let t = xyyx();
        assert_eq!(t.fresh_symbol_name(), "Z");
        let u = PatternTemplate::new(PatternKind::Substring, &["Z"], &[("Z", 0, 0)]).unwrap();
        assert_eq!(u.fresh_symbol_name(), "A");
    }

    #[test]
    fn restriction_keywords() {
        assert_eq!(
            CellRestriction::LeftMaximalityMatchedGo.keyword(),
            "LEFT-MAXIMALITY"
        );
        assert_eq!(CellRestriction::AllMatchedGo.keyword(), "ALL-MATCHED");
        assert_eq!(
            CellRestriction::default(),
            CellRestriction::LeftMaximalityMatchedGo
        );
    }
}
