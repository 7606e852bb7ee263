//! Cached build-side indexes for loop-invariant joins.
//!
//! Inside a semi-naive fixpoint the recursive step typically joins the small
//! per-iteration *delta* against a large loop-invariant constant (the edge
//! relation, a filtered subgraph, …). Rebuilding the build-side hash table on
//! every iteration — as a plain hash join does — makes the loop quadratic in
//! practice. A [`JoinIndex`] is constructed **once per fixpoint** over the
//! constant side and probed with each iteration's delta; [`KeyIndex`] is the
//! analogous cached key-set for antijoins.
//!
//! Probing is allocation-free: the index is keyed by a 64-bit hash computed
//! directly over the join-key positions of a row (no boxed key tuples), with
//! bucket entries verified by positional equality.

use crate::fxhash::{FxHashMap, FxHasher};
use crate::kernel::kernel_stats;
use crate::relation::{join_plan, Relation, Row};
use crate::schema::Schema;
use crate::value::Value;
use std::hash::{Hash, Hasher};

/// Hashes the values of `row` at `positions` (in order) to a single `u64`.
/// Both sides of a join must use the same column order for their key
/// positions so equal keys collide.
#[inline]
pub fn hash_key(row: &[Value], positions: &[usize]) -> u64 {
    let mut h = FxHasher::default();
    for &p in positions {
        row[p].hash(&mut h);
    }
    h.finish()
}

#[inline]
fn keys_match(a: &[Value], a_pos: &[usize], b: &[Value], b_pos: &[usize]) -> bool {
    a_pos.iter().zip(b_pos).all(|(&pa, &pb)| a[pa] == b[pb])
}

/// A build-side hash index for a natural join with a fixed probe schema.
///
/// Built once from the loop-invariant side; probed with delta rows each
/// iteration. Bucket values are indices into an owned row store, keyed by
/// [`hash_key`] over the build-side key positions.
#[derive(Debug, Clone)]
pub struct JoinIndex {
    out_schema: Schema,
    /// For each output position: (take from probe row?, source position).
    out_src: Vec<(bool, usize)>,
    probe_key: Vec<usize>,
    build_key: Vec<usize>,
    build_rows: Vec<Row>,
    buckets: FxHashMap<u64, Vec<u32>>,
    approx_bytes: u64,
}

impl JoinIndex {
    /// Builds the index over `build_rows` for probes with `probe_schema`.
    pub fn build_from<'a>(
        probe_schema: &Schema,
        build_schema: &Schema,
        build_rows: impl Iterator<Item = &'a Row>,
    ) -> JoinIndex {
        // join_plan(left=probe, right=build): left_key/out_src booleans then
        // refer to the probe side directly.
        let plan = join_plan(probe_schema, build_schema);
        let rows: Vec<Row> = build_rows.cloned().collect();
        let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        for (i, row) in rows.iter().enumerate() {
            let h = hash_key(row, &plan.right_key);
            buckets.entry(h).or_default().push(i as u32);
        }
        kernel_stats().record_index_build();
        let approx_bytes =
            rows.len() as u64 * build_schema.arity() as u64 * std::mem::size_of::<Value>() as u64;
        JoinIndex {
            out_schema: plan.out_schema,
            out_src: plan.out_src,
            probe_key: plan.left_key,
            build_key: plan.right_key,
            build_rows: rows,
            buckets,
            approx_bytes,
        }
    }

    /// Builds the index over a materialized relation.
    pub fn build(probe_schema: &Schema, build: &Relation) -> JoinIndex {
        JoinIndex::build_from(probe_schema, build.schema(), build.iter())
    }

    /// Schema of the join output.
    pub fn out_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// Number of build-side rows.
    pub fn build_len(&self) -> usize {
        self.build_rows.len()
    }

    /// True if the build side is empty (every probe yields nothing).
    pub fn is_empty(&self) -> bool {
        self.build_rows.is_empty()
    }

    /// Estimated footprint of the cached build side (payload values only),
    /// charged against byte budgets by the fixpoint drivers.
    pub fn approx_bytes(&self) -> u64 {
        self.approx_bytes
    }

    /// Adds one build-side row (the caller keeps the build side a set).
    /// Lets an index over a loop invariant follow a changed base relation
    /// in O(1) instead of being rebuilt.
    pub fn insert(&mut self, row: Row) {
        let h = hash_key(&row, &self.build_key);
        self.approx_bytes += row.len() as u64 * std::mem::size_of::<Value>() as u64;
        self.buckets.entry(h).or_default().push(self.build_rows.len() as u32);
        self.build_rows.push(row);
    }

    /// Removes one build-side row; returns whether it was present.
    pub fn remove(&mut self, row: &[Value]) -> bool {
        let h = hash_key(row, &self.build_key);
        let Some(bucket) = self.buckets.get_mut(&h) else { return false };
        let Some(at) = bucket.iter().position(|&i| *self.build_rows[i as usize] == *row) else {
            return false;
        };
        let slot = bucket.swap_remove(at);
        if bucket.is_empty() {
            self.buckets.remove(&h);
        }
        // Fill the hole with the last row and repoint its bucket entry.
        let last = (self.build_rows.len() - 1) as u32;
        self.build_rows.swap_remove(slot as usize);
        if slot != last {
            let moved = hash_key(&self.build_rows[slot as usize], &self.build_key);
            let b = self.buckets.get_mut(&moved).expect("moved row is indexed");
            *b.iter_mut().find(|i| **i == last).expect("moved row is indexed") = slot;
        }
        self.approx_bytes = self
            .approx_bytes
            .saturating_sub(row.len() as u64 * std::mem::size_of::<Value>() as u64);
        true
    }

    /// Probes one row, emitting each joined output row. Returns the number
    /// of rows emitted. No per-row key allocation: the probe key is hashed
    /// in place and candidates verified positionally.
    #[inline]
    pub fn probe(&self, prow: &[Value], mut emit: impl FnMut(Row)) -> u64 {
        let Some(bucket) = self.buckets.get(&hash_key(prow, &self.probe_key)) else {
            return 0;
        };
        let mut emitted = 0;
        for &i in bucket {
            let brow = &self.build_rows[i as usize];
            if keys_match(prow, &self.probe_key, brow, &self.build_key) {
                let out_row: Row = self
                    .out_src
                    .iter()
                    .map(|&(from_probe, p)| if from_probe { prow[p] } else { brow[p] })
                    .collect();
                emit(out_row);
                emitted += 1;
            }
        }
        emitted
    }
}

/// A cached antijoin key-set: the distinct join keys of the loop-invariant
/// side, hashed by position. `φ ▷ ψ` keeps the probe rows whose key is
/// *absent* from the set.
#[derive(Debug, Clone)]
pub struct KeyIndex {
    probe_key: Vec<usize>,
    /// Distinct build-side key tuples, bucketed by hash. Key tuples (not full
    /// rows) are stored, so verification reads only the key values.
    buckets: FxHashMap<u64, Vec<Box<[Value]>>>,
    /// Schemas share no columns: antijoin degenerates to all-or-nothing.
    disjoint: bool,
    build_empty: bool,
    approx_bytes: u64,
}

impl KeyIndex {
    /// Builds the key-set over `build_rows` for probes with `probe_schema`.
    pub fn build_from<'a>(
        probe_schema: &Schema,
        build_schema: &Schema,
        build_rows: impl Iterator<Item = &'a Row>,
    ) -> KeyIndex {
        let common = probe_schema.intersection(build_schema);
        let probe_key: Vec<usize> =
            common.iter().map(|&c| probe_schema.position(c).unwrap()).collect();
        let build_key: Vec<usize> =
            common.iter().map(|&c| build_schema.position(c).unwrap()).collect();
        let disjoint = common.is_empty();
        let mut buckets: FxHashMap<u64, Vec<Box<[Value]>>> = FxHashMap::default();
        let mut build_empty = true;
        for row in build_rows {
            build_empty = false;
            if disjoint {
                continue;
            }
            let h = hash_key(row, &build_key);
            let entry = buckets.entry(h).or_default();
            if !entry.iter().any(|k| k.iter().zip(&build_key).all(|(v, &p)| *v == row[p])) {
                entry.push(build_key.iter().map(|&p| row[p]).collect());
            }
        }
        kernel_stats().record_key_index_build();
        let approx_bytes =
            buckets.values().map(|b| b.iter().map(|k| k.len() as u64).sum::<u64>()).sum::<u64>()
                * std::mem::size_of::<Value>() as u64;
        KeyIndex { probe_key, buckets, disjoint, build_empty, approx_bytes }
    }

    /// Builds the key-set over a materialized relation.
    pub fn build(probe_schema: &Schema, build: &Relation) -> KeyIndex {
        KeyIndex::build_from(probe_schema, build.schema(), build.iter())
    }

    /// Estimated footprint of the cached key-set (payload values only).
    pub fn approx_bytes(&self) -> u64 {
        self.approx_bytes
    }

    /// True if `prow`'s key appears in the build side (i.e. the antijoin
    /// drops the row). With disjoint schemas this is "is the build side
    /// non-empty", matching standard antijoin semantics.
    #[inline]
    pub fn contains(&self, prow: &[Value]) -> bool {
        if self.disjoint {
            return !self.build_empty;
        }
        let Some(bucket) = self.buckets.get(&hash_key(prow, &self.probe_key)) else {
            return false;
        };
        bucket.iter().any(|k| k.iter().zip(&self.probe_key).all(|(v, &p)| *v == prow[p]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Sym;

    fn sym(i: u32) -> Sym {
        Sym(i)
    }

    fn rel(cols: &[u32], rows: &[&[i64]]) -> Relation {
        let schema = Schema::new(cols.iter().map(|&c| sym(c)).collect());
        let perm: Vec<usize> = schema
            .columns()
            .iter()
            .map(|c| cols.iter().position(|&x| sym(x) == *c).unwrap())
            .collect();
        Relation::from_rows(
            schema,
            rows.iter().map(|r| perm.iter().map(|&p| Value::Int(r[p])).collect::<Row>()),
        )
    }

    #[test]
    fn indexed_join_matches_plain_join() {
        let probe = rel(&[1, 2], &[&[1, 10], &[2, 20], &[3, 10]]);
        let build = rel(&[2, 3], &[&[10, 100], &[10, 101], &[30, 300]]);
        let idx = JoinIndex::build(probe.schema(), &build);
        let mut out = Relation::new(idx.out_schema().clone());
        for prow in probe.iter() {
            idx.probe(prow, |row| {
                out.insert(row);
            });
        }
        assert_eq!(out.sorted_rows(), probe.join(&build).sorted_rows());
    }

    #[test]
    fn updated_index_matches_rebuilt_index() {
        let probe = rel(&[1, 2], &[&[1, 10], &[2, 20], &[3, 10], &[4, 30]]);
        let build = rel(&[2, 3], &[&[10, 100], &[10, 101], &[30, 300], &[20, 200]]);
        let mut idx = JoinIndex::build(probe.schema(), &build);
        let gone: Row = vec![Value::Int(10), Value::Int(100)].into_boxed_slice();
        let added: Row = vec![Value::Int(20), Value::Int(201)].into_boxed_slice();
        assert!(idx.remove(&gone));
        assert!(!idx.remove(&gone), "a removed row is gone");
        idx.insert(added.clone());
        let mut next = build.clone();
        next.remove(&gone);
        next.insert(added);
        let mut out = Relation::new(idx.out_schema().clone());
        for prow in probe.iter() {
            idx.probe(prow, |row| {
                out.insert(row);
            });
        }
        assert_eq!(out.sorted_rows(), probe.join(&next).sorted_rows());
        assert_eq!(idx.build_len(), next.len());
    }

    #[test]
    fn indexed_join_handles_cartesian_product() {
        let probe = rel(&[1], &[&[1], &[2]]);
        let build = rel(&[2], &[&[10], &[20]]);
        let idx = JoinIndex::build(probe.schema(), &build);
        let mut n = 0;
        for prow in probe.iter() {
            n += idx.probe(prow, |_| {});
        }
        assert_eq!(n, 4);
    }

    #[test]
    fn indexed_join_empty_build() {
        let probe = rel(&[1], &[&[1]]);
        let build = rel(&[1], &[]);
        let idx = JoinIndex::build(probe.schema(), &build);
        assert!(idx.is_empty());
        assert_eq!(idx.probe(&[Value::Int(1)], |_| panic!("no match expected")), 0);
    }

    #[test]
    fn key_index_matches_antijoin() {
        let probe = rel(&[1, 2], &[&[1, 10], &[2, 20]]);
        let build = rel(&[2], &[&[10]]);
        let idx = KeyIndex::build(probe.schema(), &build);
        let kept: Vec<_> = probe.iter().filter(|r| !idx.contains(r)).cloned().collect();
        let expected = probe.antijoin(&build);
        assert_eq!(
            Relation::from_rows(probe.schema().clone(), kept.into_iter()).sorted_rows(),
            expected.sorted_rows()
        );
    }

    #[test]
    fn key_index_disjoint_schemas() {
        let probe = rel(&[1], &[&[1]]);
        let empty = rel(&[9], &[]);
        let nonempty = rel(&[9], &[&[5]]);
        assert!(!KeyIndex::build(probe.schema(), &empty).contains(&[Value::Int(1)]));
        assert!(KeyIndex::build(probe.schema(), &nonempty).contains(&[Value::Int(1)]));
    }

    #[test]
    fn probe_verifies_on_hash_collision_shape() {
        // Same bucket only matters when keys actually match; rows with
        // different keys must never be emitted even if hashed together.
        let probe = rel(&[1, 2], &[&[7, 1]]);
        let build = rel(&[2, 3], &[&[2, 9]]);
        let idx = JoinIndex::build(probe.schema(), &build);
        let mut n = 0;
        for prow in probe.iter() {
            n += idx.probe(prow, |_| {});
        }
        assert_eq!(n, 0);
    }

    #[test]
    fn build_counts_once() {
        let s = crate::kernel::kernel_stats();
        let before = s.snapshot();
        let probe = rel(&[1, 2], &[&[1, 10]]);
        let build = rel(&[2, 3], &[&[10, 100]]);
        let _ = JoinIndex::build(probe.schema(), &build);
        let _ = KeyIndex::build(probe.schema(), &build);
        let d = s.snapshot().since(&before);
        assert!(d.index_builds >= 1);
        assert!(d.key_index_builds >= 1);
    }
}
