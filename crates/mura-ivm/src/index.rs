//! Column indexes over large leaf values, kept across batches.
//!
//! The delta rewrites look up the rows of a base relation or a fixpoint
//! total that match a handful of key values. An [`IndexStore`] builds the
//! index for one `(leaf, columns)` pair the first time a rewrite asks for
//! it, and from then on follows every change of that leaf in place
//! ([`IndexStore::apply`]), so a batch costs index work proportional to
//! its change, not to the leaf.

use mura_core::fxhash::{FxHashMap, FxHasher};
use mura_core::{Relation, Row, Sym, Value};
use std::hash::{Hash, Hasher};

/// Identity of a leaf value the rewrites read: a base relation, or a
/// fixpoint subterm by [`mura_core::term_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeafKey {
    /// A base relation of the database.
    Rel(Sym),
    /// A fixpoint's total.
    Fix(u64),
}

fn key_hash<'v>(values: impl Iterator<Item = &'v Value>) -> u64 {
    let mut h = FxHasher::default();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

/// Rows of one leaf bucketed by the values at `pos`.
#[derive(Debug)]
struct ColIndex {
    pos: Vec<usize>,
    buckets: FxHashMap<u64, Vec<Row>>,
    rows: usize,
}

impl ColIndex {
    fn build(pos: Vec<usize>, parts: &[Relation]) -> ColIndex {
        let mut idx = ColIndex { pos, buckets: FxHashMap::default(), rows: 0 };
        for part in parts {
            for row in part.iter() {
                idx.insert(row.clone());
            }
        }
        idx
    }

    fn hash_row(&self, row: &[Value]) -> u64 {
        key_hash(self.pos.iter().map(|&p| &row[p]))
    }

    fn insert(&mut self, row: Row) {
        let h = self.hash_row(&row);
        self.buckets.entry(h).or_default().push(row);
        self.rows += 1;
    }

    fn remove(&mut self, row: &[Value]) {
        let h = self.hash_row(row);
        if let Some(bucket) = self.buckets.get_mut(&h) {
            if let Some(at) = bucket.iter().position(|r| **r == *row) {
                bucket.swap_remove(at);
                self.rows -= 1;
                if bucket.is_empty() {
                    self.buckets.remove(&h);
                }
            }
        }
    }

    /// Calls `f` on every row whose values at `pos` equal `key`.
    fn matches(&self, key: &[Value], mut f: impl FnMut(&Row)) {
        let Some(bucket) = self.buckets.get(&key_hash(key.iter())) else { return };
        for row in bucket {
            if self.pos.iter().zip(key).all(|(&p, v)| row[p] == *v) {
                f(row);
            }
        }
    }
}

/// Column indexes over leaf values, built on first use and then kept
/// current by the owner through [`IndexStore::apply`]. An index must
/// always reflect the value the rewrites pass for its leaf: the current
/// database value of a base relation, the resident total of a fixpoint.
#[derive(Debug, Default)]
pub struct IndexStore {
    indexes: FxHashMap<LeafKey, Vec<ColIndex>>,
}

impl IndexStore {
    /// An empty store.
    pub fn new() -> Self {
        IndexStore::default()
    }

    /// Follows a change of `leaf` in every index built over it.
    pub fn apply(&mut self, leaf: LeafKey, plus: &Relation, minus: &Relation) {
        let Some(list) = self.indexes.get_mut(&leaf) else { return };
        for idx in list {
            for row in minus.iter() {
                idx.remove(row);
            }
            for row in plus.iter() {
                idx.insert(row.clone());
            }
        }
    }

    /// Estimated bytes held by the indexed rows.
    pub fn bytes(&self) -> u64 {
        self.indexes
            .values()
            .flatten()
            .map(|idx| {
                let arity =
                    idx.buckets.values().next().and_then(|b| b.first()).map_or(0, |r| r.len());
                mura_core::rel_bytes(idx.rows as u64, arity)
            })
            .sum()
    }

    /// Calls `f` on every row of `parts` (the value of `leaf`) whose values
    /// at `pos` equal one of `keys`, building the index on first use.
    pub(crate) fn matches<'k>(
        &mut self,
        leaf: LeafKey,
        parts: &[Relation],
        pos: &[usize],
        keys: impl Iterator<Item = &'k Row>,
        mut f: impl FnMut(&Row),
    ) {
        let list = self.indexes.entry(leaf).or_default();
        let at = match list.iter().position(|idx| idx.pos == pos) {
            Some(at) => at,
            None => {
                list.push(ColIndex::build(pos.to_vec(), parts));
                list.len() - 1
            }
        };
        for key in keys {
            list[at].matches(key, &mut f);
        }
    }
}
