//! The index store: cached inverted indices per sequence group.
//!
//! Answering a query "is a by-product: the creation of new inverted
//! indices … such indices can assist the processing of a follow-up query"
//! (§4.2). The store caches every index built — offline-precomputed or
//! created on demand — keyed by the owning sequence group and the index's
//! structural signature, with an LRU byte budget.

use std::sync::Arc;

use parking_lot::Mutex;

use solap_eventdb::lru::LruCache;
use solap_pattern::TemplateSignature;

use crate::inverted::InvertedIndex;

/// Identifies an index: which sequence-group set it was built over, which
/// group within it, the structural signature of its patterns, and — for
/// slice-restricted assemblies — the fingerprint of the pattern slice it
/// was filtered by (`0` = unsliced, covering every pattern).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IndexKey {
    /// Fingerprint of the sequence groups (spec fingerprint ⊕ db version).
    pub groups_fp: u64,
    /// Ordinal of the group within the sequence groups.
    pub group_idx: usize,
    /// Structural identity of the index's patterns.
    pub sig: TemplateSignature,
    /// Fingerprint of the position slice baked into the lists (0 = none).
    pub slice_fp: u64,
}

/// A thread-safe LRU store of inverted indices.
pub struct IndexStore {
    inner: Mutex<LruCache<IndexKey, Arc<InvertedIndex>>>,
}

impl IndexStore {
    /// Creates a store bounded by entry count and total index bytes.
    pub fn new(capacity: usize, max_bytes: usize) -> Self {
        IndexStore {
            inner: Mutex::ranked(
                parking_lot::rank::INDEX_STORE,
                "index.store",
                LruCache::with_weight(capacity, max_bytes, |ix| ix.heap_bytes()),
            ),
        }
    }

    /// Fetches an index (LRU touch).
    pub fn get(&self, key: &IndexKey) -> Option<Arc<InvertedIndex>> {
        self.inner.lock().get(key).cloned()
    }

    /// Whether an index is present (no LRU touch).
    pub fn contains(&self, key: &IndexKey) -> bool {
        self.inner.lock().contains(key)
    }

    /// Stores an index.
    pub fn insert(&self, key: IndexKey, index: Arc<InvertedIndex>) {
        self.inner.lock().insert(key, index);
    }

    /// Finds the **largest available prefix index** for a target signature:
    /// the greatest `k` in `[2, m]` such that the index keyed by
    /// `sig.prefix(k)` is cached (Figure 15 line 8 joins "the largest
    /// available inverted index"). For sliced assemblies (`slice_fp ≠ 0`) a
    /// slice-restricted prefix of the same length is preferred over the
    /// unsliced one, which is always a valid (superset) starting point.
    /// Returns the index, its length and the slice fingerprint it is
    /// cached under (`slice_fp` or 0).
    pub fn largest_prefix(
        &self,
        groups_fp: u64,
        group_idx: usize,
        sig: &TemplateSignature,
        slice_fp: u64,
    ) -> Option<(Arc<InvertedIndex>, usize, u64)> {
        let mut guard = self.inner.lock();
        for k in (2..=sig.m()).rev() {
            let mut fps = vec![0u64];
            if slice_fp != 0 {
                fps.insert(0, slice_fp);
            }
            for fp in fps {
                let key = IndexKey {
                    groups_fp,
                    group_idx,
                    sig: sig.prefix(k),
                    slice_fp: fp,
                };
                if let Some(ix) = guard.get(&key) {
                    return Some((Arc::clone(ix), k, fp));
                }
            }
        }
        None
    }

    /// Total bytes of cached indices.
    pub fn total_bytes(&self) -> usize {
        self.inner.lock().weight()
    }

    /// Number of cached indices.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Drops indices belonging to sequence groups other than `keep_fp`
    /// (e.g. after incremental updates invalidate old groups).
    pub fn retain_groups(&self, keep_fp: impl Fn(u64) -> bool) {
        self.inner.lock().retain(|k, _| keep_fp(k.groups_fp));
    }

    /// Drops everything.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        self.inner.lock().stats()
    }
}

impl Default for IndexStore {
    fn default() -> Self {
        // 256 indices / 512 MiB default budget.
        IndexStore::new(256, 512 << 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverted::SetBackend;
    use solap_pattern::{PatternKind, PatternTemplate};

    fn sig(syms: &[&str]) -> TemplateSignature {
        let mut bindings: Vec<(&str, u32, usize)> = Vec::new();
        for &s in syms {
            if !bindings.iter().any(|(n, _, _)| *n == s) {
                bindings.push((s, 0, 0));
            }
        }
        PatternTemplate::new(PatternKind::Substring, syms, &bindings)
            .unwrap()
            .signature()
    }

    fn key(syms: &[&str]) -> IndexKey {
        IndexKey {
            groups_fp: 42,
            group_idx: 0,
            sig: sig(syms),
            slice_fp: 0,
        }
    }

    fn empty_index(syms: &[&str]) -> Arc<InvertedIndex> {
        Arc::new(InvertedIndex::new(sig(syms), SetBackend::List))
    }

    #[test]
    fn insert_get_roundtrip() {
        let store = IndexStore::default();
        let k = key(&["X", "Y"]);
        store.insert(k.clone(), empty_index(&["X", "Y"]));
        assert!(store.contains(&k));
        assert!(store.get(&k).is_some());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn largest_prefix_prefers_longer() {
        let store = IndexStore::default();
        store.insert(key(&["X", "Y"]), empty_index(&["X", "Y"]));
        store.insert(key(&["X", "Y", "Y"]), empty_index(&["X", "Y", "Y"]));
        let target = sig(&["X", "Y", "Y", "X"]);
        let (_, k, _) = store.largest_prefix(42, 0, &target, 0).unwrap();
        assert_eq!(k, 3, "the length-3 prefix (X,Y,Y) must win over (X,Y)");
        // A different group sees nothing.
        assert!(store.largest_prefix(42, 1, &target, 0).is_none());
        assert!(store.largest_prefix(7, 0, &target, 0).is_none());
    }

    #[test]
    fn prefix_matching_is_structural() {
        let store = IndexStore::default();
        // Cache an (A, B) index; the prefix of (P, Q, Q, P) is structurally
        // identical, so it must be found.
        store.insert(key(&["A", "B"]), empty_index(&["A", "B"]));
        let target = sig(&["P", "Q", "Q", "P"]);
        let (_, k, _) = store.largest_prefix(42, 0, &target, 0).unwrap();
        assert_eq!(k, 2);
    }

    #[test]
    fn retain_groups_invalidates() {
        let store = IndexStore::default();
        store.insert(key(&["X", "Y"]), empty_index(&["X", "Y"]));
        let mut other = key(&["X", "Y"]);
        other.groups_fp = 7;
        store.insert(other, empty_index(&["X", "Y"]));
        store.retain_groups(|fp| fp == 42);
        assert_eq!(store.len(), 1);
        store.clear();
        assert!(store.is_empty());
    }
}
