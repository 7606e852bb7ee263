//! Distributed (partitioned) relations — the simulator's RDD/Dataset.
//!
//! A [`DistRel`] is a relation split into one partition per worker.
//! Operators either run partition-wise (free) or require data movement
//! (charged to [`CommStats`](crate::metrics::CommStats)):
//!
//! * `filter` / `rename` / `antiproject` — partition-wise;
//! * `repartition` — a shuffle (all rows written, like Spark's
//!   shuffle-write);
//! * `join` — broadcast join (small side replicated) or shuffle join
//!   (both sides co-partitioned on the join key);
//! * `union` / `minus` / `distinct` — partition-wise when both sides are
//!   co-partitioned on a common key (equal rows then colocate), otherwise
//!   preceded by a shuffle.
//!
//! Partitioning metadata (`partitioned_by`) is an *ordered* column list:
//! the hash is computed over key values in that order, so the metadata
//! stays valid under renames (values don't move) and is compared
//! positionally when deciding whether a shuffle can be skipped.

use crate::cluster::Cluster;
use mura_core::eval::apply_filter;
use mura_core::fxhash::FxHasher;
use mura_core::{Pred, Relation, Result, Row, Schema, Sym, Value};
use std::hash::{Hash, Hasher};

/// A relation partitioned across the workers of a [`Cluster`].
#[derive(Debug, Clone)]
pub struct DistRel {
    schema: Schema,
    parts: Vec<Relation>,
    /// Ordered hash key this relation is partitioned by, if any.
    partitioned_by: Option<Vec<Sym>>,
}

/// Hash of the key fields of a row (positions into the row).
fn key_hash(row: &[Value], key_pos: &[usize]) -> u64 {
    let mut h = FxHasher::default();
    for &p in key_pos {
        row[p].hash(&mut h);
    }
    h.finish()
}

/// The partition (of `n`) a row lands in under the full-row key — the
/// placement of [`DistRel::from_relation`].
pub(crate) fn row_owner(row: &[Value], n: usize) -> usize {
    let mut h = FxHasher::default();
    for v in row {
        v.hash(&mut h);
    }
    (h.finish() as usize) % n
}

impl DistRel {
    /// Empty distributed relation.
    pub fn empty(schema: Schema, cluster: &Cluster) -> Self {
        DistRel {
            parts: (0..cluster.workers()).map(|_| Relation::new(schema.clone())).collect(),
            partitioned_by: Some(schema.columns().to_vec()),
            schema,
        }
    }

    /// Loads a relation into the cluster, partitioned by full-row hash.
    /// (Initial placement of base data — not charged as a shuffle.)
    pub fn from_relation(rel: &Relation, cluster: &Cluster) -> Self {
        let schema = rel.schema().clone();
        let key: Vec<Sym> = schema.columns().to_vec();
        let key_pos: Vec<usize> = (0..schema.arity()).collect();
        let n = cluster.workers();
        let mut parts: Vec<Relation> = (0..n).map(|_| Relation::new(schema.clone())).collect();
        for row in rel.iter() {
            let p = (key_hash(row, &key_pos) as usize) % n;
            parts[p].insert(row.clone());
        }
        DistRel { schema, parts, partitioned_by: Some(key) }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total rows across partitions.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    /// True if all partitions are empty.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|p| p.is_empty())
    }

    /// The partitions.
    pub fn parts(&self) -> &[Relation] {
        &self.parts
    }

    /// Current partitioning key (ordered), if known.
    pub fn partitioned_by(&self) -> Option<&[Sym]> {
        self.partitioned_by.as_deref()
    }

    /// Gathers all partitions into one local relation (a driver collect).
    pub fn collect(&self) -> Relation {
        let mut out = Relation::new(self.schema.clone());
        for p in &self.parts {
            out.absorb(p.clone());
        }
        out
    }

    /// Partition-wise filter.
    pub fn filter_preds(&self, preds: &[Pred], cluster: &Cluster) -> Result<DistRel> {
        let parts = cluster.try_par_map(&self.parts, |_, p| apply_filter(p, preds))?;
        Ok(DistRel {
            schema: self.schema.clone(),
            parts,
            partitioned_by: self.partitioned_by.clone(),
        })
    }

    /// Partition-wise rename. Keeps partitioning metadata (values do not
    /// move; the ordered key is renamed in place).
    pub fn rename(&self, from: Sym, to: Sym, cluster: &Cluster) -> Result<DistRel> {
        let parts = cluster.par_map(&self.parts, |_, p| p.rename(from, to))?;
        let schema = parts[0].schema().clone();
        let partitioned_by = self
            .partitioned_by
            .as_ref()
            .map(|key| key.iter().map(|&c| if c == from { to } else { c }).collect());
        Ok(DistRel { schema, parts, partitioned_by })
    }

    /// Partition-wise antiprojection. Partitioning survives only if no key
    /// column is dropped.
    pub fn antiproject(&self, cols: &[Sym], cluster: &Cluster) -> Result<DistRel> {
        let parts = cluster.par_map(&self.parts, |_, p| p.antiproject(cols))?;
        let schema = parts[0].schema().clone();
        let partitioned_by = match &self.partitioned_by {
            Some(key) if key.iter().all(|c| !cols.contains(c)) => Some(key.clone()),
            _ => None,
        };
        Ok(DistRel { schema, parts, partitioned_by })
    }

    /// Repartitions by the given ordered key. Skipped (free) when the data
    /// is already partitioned exactly this way; otherwise one shuffle of
    /// every row is charged.
    ///
    /// This is the exchange the fault plan targets for message drops and
    /// duplications: a dropped bucket is detected and retransmitted
    /// (at-least-once delivery — counted, no data lost), a duplicated
    /// bucket is delivered twice and absorbed by set semantics.
    pub fn repartition(&self, key: &[Sym], cluster: &Cluster) -> Result<DistRel> {
        if self.partitioned_by.as_deref() == Some(key) {
            return Ok(self.clone());
        }
        if cluster.workers() == 1 {
            // Nothing can move between workers; only the metadata changes.
            let mut out = self.clone();
            out.partitioned_by = Some(key.to_vec());
            return Ok(out);
        }
        let key_pos: Vec<usize> = key
            .iter()
            .map(|&c| self.schema.position(c).expect("repartition key must be in schema"))
            .collect();
        let n = cluster.workers();
        cluster.metrics().record_shuffle(self.len() as u64);
        let exchange_site = cluster.fault().next_site();
        // Each worker buckets its partition; the backend moves the buckets
        // (driver-side merge on the simulator, real sockets on ProcCluster).
        let bucketed: Vec<Vec<Vec<Row>>> = cluster.par_map(&self.parts, |_, p| {
            let mut buckets: Vec<Vec<Row>> = (0..n).map(|_| Vec::new()).collect();
            for row in p.iter() {
                buckets[(key_hash(row, &key_pos) as usize) % n].push(row.clone());
            }
            buckets
        })?;
        let parts = cluster.exchange_at(exchange_site, &self.schema, bucketed)?;
        Ok(DistRel { schema: self.schema.clone(), parts, partitioned_by: Some(key.to_vec()) })
    }

    /// Global distinct: partitions are sets already, so colocating equal
    /// rows (full-row repartition) suffices. Free when already partitioned
    /// by any key (equal rows already colocate).
    pub fn distinct(&self, cluster: &Cluster) -> Result<DistRel> {
        if self.partitioned_by.is_some() {
            return Ok(self.clone());
        }
        let key: Vec<Sym> = self.schema.columns().to_vec();
        self.repartition(&key, cluster)
    }

    /// Set union. Partition-wise (free) when both sides share a
    /// partitioning key; otherwise both sides are repartitioned by full
    /// row first.
    pub fn union(&self, other: &DistRel, cluster: &Cluster) -> Result<DistRel> {
        assert_eq!(self.schema, other.schema, "union of incompatible schemas");
        let (a, b) = self.copartition(other, cluster)?;
        let pairs: Vec<(Relation, Relation)> =
            a.parts.iter().cloned().zip(b.parts.iter().cloned()).collect();
        let parts = cluster.par_map(&pairs, |_, (x, y)| x.union(y))?;
        Ok(DistRel { schema: a.schema.clone(), parts, partitioned_by: a.partitioned_by.clone() })
    }

    /// Set difference `self \ other`; co-partitions like [`DistRel::union`].
    pub fn minus(&self, other: &DistRel, cluster: &Cluster) -> Result<DistRel> {
        assert_eq!(self.schema, other.schema, "difference of incompatible schemas");
        let (a, b) = self.copartition(other, cluster)?;
        let pairs: Vec<(Relation, Relation)> =
            a.parts.iter().cloned().zip(b.parts.iter().cloned()).collect();
        let parts = cluster.par_map(&pairs, |_, (x, y)| x.minus(y))?;
        Ok(DistRel { schema: a.schema.clone(), parts, partitioned_by: a.partitioned_by.clone() })
    }

    /// Ensures both relations are partitioned by the same key (equal rows
    /// colocated). Free if they already share one.
    fn copartition(&self, other: &DistRel, cluster: &Cluster) -> Result<(DistRel, DistRel)> {
        if self.partitioned_by.is_some() && self.partitioned_by == other.partitioned_by {
            return Ok((self.clone(), other.clone()));
        }
        let key: Vec<Sym> = self.schema.columns().to_vec();
        Ok((self.repartition(&key, cluster)?, other.repartition(&key, cluster)?))
    }

    /// Shuffle (co-partitioned) natural join on the common columns.
    pub fn join_shuffle(&self, other: &DistRel, cluster: &Cluster) -> Result<DistRel> {
        let common: Vec<Sym> = self.schema.intersection(&other.schema);
        assert!(!common.is_empty(), "shuffle join requires common columns");
        let a = self.repartition(&common, cluster)?;
        let b = other.repartition(&common, cluster)?;
        let plan = mura_core::relation::join_plan(&a.schema, &b.schema);
        let pairs: Vec<(Relation, Relation)> =
            a.parts.iter().cloned().zip(b.parts.iter().cloned()).collect();
        let parts = cluster.par_map(&pairs, |_, (x, y)| plan.execute(x, y))?;
        let schema = plan.out_schema.clone();
        Ok(DistRel { schema, parts, partitioned_by: Some(common) })
    }

    /// Broadcast join: `other` is collected and replicated to every worker
    /// (the replication is charged to the metrics).
    pub fn join_broadcast(&self, other: &Relation, cluster: &Cluster) -> Result<DistRel> {
        cluster.broadcast_rel(other)?;
        self.join_local(other, cluster)
    }

    /// Joins against a relation every worker already holds (an existing
    /// broadcast variable) — no communication charged.
    pub fn join_local(&self, other: &Relation, cluster: &Cluster) -> Result<DistRel> {
        let plan = mura_core::relation::join_plan(&self.schema, other.schema());
        let parts = cluster.par_map(&self.parts, |_, p| plan.execute(p, other))?;
        // Output keeps big-side placement; metadata survives if the key is
        // still part of the output schema (it always is for natural joins).
        Ok(DistRel {
            schema: plan.out_schema.clone(),
            parts,
            partitioned_by: self.partitioned_by.clone(),
        })
    }

    /// Antijoin retaining rows of `self` without a match in `other`
    /// (broadcast of `other`, charged).
    pub fn antijoin_broadcast(&self, other: &Relation, cluster: &Cluster) -> Result<DistRel> {
        cluster.broadcast_rel(other)?;
        self.antijoin_local(other, cluster)
    }

    /// Antijoin against a relation every worker already holds — no
    /// communication charged.
    pub fn antijoin_local(&self, other: &Relation, cluster: &Cluster) -> Result<DistRel> {
        let parts = cluster.par_map(&self.parts, |_, p| p.antijoin(other))?;
        Ok(DistRel {
            schema: self.schema.clone(),
            parts,
            partitioned_by: self.partitioned_by.clone(),
        })
    }

    /// Antijoin via co-partitioning on the common columns.
    pub fn antijoin_shuffle(&self, other: &DistRel, cluster: &Cluster) -> Result<DistRel> {
        let common: Vec<Sym> = self.schema.intersection(&other.schema);
        assert!(!common.is_empty(), "shuffle antijoin requires common columns");
        let a = self.repartition(&common, cluster)?;
        let b = other.repartition(&common, cluster)?;
        let pairs: Vec<(Relation, Relation)> =
            a.parts.iter().cloned().zip(b.parts.iter().cloned()).collect();
        let parts = cluster.par_map(&pairs, |_, (x, y)| x.antijoin(y))?;
        Ok(DistRel { schema: a.schema.clone(), parts, partitioned_by: a.partitioned_by.clone() })
    }

    /// The partitions, by value.
    pub(crate) fn into_parts(self) -> Vec<Relation> {
        self.parts
    }

    /// Builds a `DistRel` from explicit partitions (used by the local
    /// fixpoint plans).
    pub fn from_parts(
        schema: Schema,
        parts: Vec<Relation>,
        partitioned_by: Option<Vec<Sym>>,
    ) -> Self {
        DistRel { schema, parts, partitioned_by }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::Value;

    fn cluster() -> Cluster {
        Cluster::new(4)
    }

    fn rel(db: &mut mura_core::Database, pairs: &[(u64, u64)]) -> Relation {
        let src = db.intern("src");
        let dst = db.intern("dst");
        Relation::from_pairs(src, dst, pairs.iter().copied())
    }

    #[test]
    fn round_trip_collect() {
        let mut db = mura_core::Database::new();
        let r = rel(&mut db, &[(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]);
        let c = cluster();
        let d = DistRel::from_relation(&r, &c);
        assert_eq!(d.len(), 5);
        assert_eq!(d.collect().sorted_rows(), r.sorted_rows());
    }

    #[test]
    fn repartition_counts_shuffle_once() {
        let mut db = mura_core::Database::new();
        let src = db.intern("src");
        let r = rel(&mut db, &[(1, 2), (1, 3), (2, 4), (3, 5)]);
        let c = cluster();
        let d = DistRel::from_relation(&r, &c);
        let before = c.metrics().snapshot();
        let d2 = d.repartition(&[src], &c).unwrap();
        let after = c.metrics().snapshot().since(&before);
        assert_eq!(after.shuffles, 1);
        assert_eq!(after.rows_shuffled, 4);
        // Idempotent: same key again is free.
        let d3 = d2.repartition(&[src], &c).unwrap();
        let after2 = c.metrics().snapshot().since(&before);
        assert_eq!(after2.shuffles, 1);
        assert_eq!(d3.collect().sorted_rows(), r.sorted_rows());
    }

    #[test]
    fn repartition_colocates_by_key() {
        let mut db = mura_core::Database::new();
        let src = db.intern("src");
        let r = rel(&mut db, &[(1, 2), (1, 3), (1, 4), (2, 5)]);
        let c = cluster();
        let d = DistRel::from_relation(&r, &c).repartition(&[src], &c).unwrap();
        // All rows with src=1 must be in a single partition.
        let mut found = None;
        for (i, p) in d.parts().iter().enumerate() {
            for row in p.iter() {
                if row[p.schema().position(src).unwrap()] == Value::node(1) {
                    match found {
                        None => found = Some(i),
                        Some(j) => assert_eq!(i, j, "src=1 rows scattered"),
                    }
                }
            }
        }
        assert!(found.is_some());
    }

    #[test]
    fn union_partitionwise_when_copartitioned() {
        let mut db = mura_core::Database::new();
        let r1 = rel(&mut db, &[(1, 2), (3, 4)]);
        let r2 = rel(&mut db, &[(3, 4), (5, 6)]);
        let c = cluster();
        let a = DistRel::from_relation(&r1, &c);
        let b = DistRel::from_relation(&r2, &c);
        let before = c.metrics().snapshot();
        let u = a.union(&b, &c).unwrap();
        // Both loaded with the same full-row key → no shuffle.
        assert_eq!(c.metrics().snapshot().since(&before).shuffles, 0);
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn minus_removes_colocated() {
        let mut db = mura_core::Database::new();
        let r1 = rel(&mut db, &[(1, 2), (3, 4), (5, 6)]);
        let r2 = rel(&mut db, &[(3, 4)]);
        let c = cluster();
        let a = DistRel::from_relation(&r1, &c);
        let b = DistRel::from_relation(&r2, &c);
        let m = a.minus(&b, &c).unwrap();
        assert_eq!(m.len(), 2);
        assert!(!m.collect().contains(&[Value::node(3), Value::node(4)]));
    }

    #[test]
    fn shuffle_join_matches_local_join() {
        let mut db = mura_core::Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let m = db.intern("m");
        let r = rel(&mut db, &[(1, 2), (2, 3), (3, 4), (2, 5)]);
        let c = cluster();
        // r renamed (dst→m) joined with r renamed (src→m): length-2 paths.
        let left = DistRel::from_relation(&r, &c).rename(dst, m, &c).unwrap();
        let right = DistRel::from_relation(&r, &c).rename(src, m, &c).unwrap();
        let j = left.join_shuffle(&right, &c).unwrap();
        let expected = r.rename(dst, m).join(&r.rename(src, m));
        assert_eq!(j.collect().sorted_rows(), expected.sorted_rows());
        assert_eq!(j.partitioned_by(), Some(&[m][..]));
    }

    #[test]
    fn broadcast_join_matches_and_counts() {
        let mut db = mura_core::Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let m = db.intern("m");
        let r = rel(&mut db, &[(1, 2), (2, 3), (3, 4)]);
        let c = cluster();
        let left = DistRel::from_relation(&r, &c).rename(dst, m, &c).unwrap();
        let small = r.rename(src, m);
        let before = c.metrics().snapshot();
        let j = left.join_broadcast(&small, &c).unwrap();
        let d = c.metrics().snapshot().since(&before);
        assert_eq!(d.broadcasts, 1);
        assert_eq!(d.rows_broadcast, 3 * 3);
        let expected = r.rename(dst, m).join(&r.rename(src, m));
        assert_eq!(j.collect().sorted_rows(), expected.sorted_rows());
    }

    #[test]
    fn antijoin_variants_match_local() {
        let mut db = mura_core::Database::new();
        let src = db.intern("src");
        let r1 = rel(&mut db, &[(1, 2), (2, 3), (3, 4)]);
        let schema = Schema::new(vec![src]);
        let filt = Relation::from_rows(schema, [vec![Value::node(2)].into_boxed_slice()]);
        let c = cluster();
        let a = DistRel::from_relation(&r1, &c);
        let expected = r1.antijoin(&filt);
        let via_broadcast = a.antijoin_broadcast(&filt, &c).unwrap();
        assert_eq!(via_broadcast.collect().sorted_rows(), expected.sorted_rows());
        let b = DistRel::from_relation(&filt, &c);
        let via_shuffle = a.antijoin_shuffle(&b, &c).unwrap();
        assert_eq!(via_shuffle.collect().sorted_rows(), expected.sorted_rows());
    }

    #[test]
    fn rename_keeps_colocation_usable() {
        // After renaming the key column, a repartition on the renamed key
        // must be skipped only if positionally identical — and results must
        // still be correct either way.
        let mut db = mura_core::Database::new();
        let src = db.intern("src");
        let q = db.intern("q");
        let r = rel(&mut db, &[(1, 2), (1, 3), (2, 4)]);
        let c = cluster();
        let d = DistRel::from_relation(&r, &c).repartition(&[src], &c).unwrap();
        let d2 = d.rename(src, q, &c).unwrap();
        assert_eq!(d2.partitioned_by(), Some(&[q][..]));
        let d3 = d2.repartition(&[q], &c).unwrap();
        assert_eq!(d3.collect().sorted_rows(), r.rename(src, q).sorted_rows());
    }

    #[test]
    fn antiproject_drops_partitioning_when_key_dropped() {
        let mut db = mura_core::Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let r = rel(&mut db, &[(1, 2), (2, 3)]);
        let c = cluster();
        let d = DistRel::from_relation(&r, &c).repartition(&[src], &c).unwrap();
        let dropped = d.antiproject(&[src], &c).unwrap();
        assert_eq!(dropped.partitioned_by(), None);
        let kept = d.antiproject(&[dst], &c).unwrap();
        assert_eq!(kept.partitioned_by(), Some(&[src][..]));
    }

    #[test]
    fn distinct_dedups_across_partitions() {
        // Build parts with duplicates across partitions explicitly.
        let mut db = mura_core::Database::new();
        let r1 = rel(&mut db, &[(1, 2)]);
        let r2 = rel(&mut db, &[(1, 2), (3, 4)]);
        let c = Cluster::new(2);
        let d = DistRel::from_parts(r1.schema().clone(), vec![r1.clone(), r2.clone()], None);
        assert_eq!(d.len(), 3, "duplicate present before distinct");
        let dd = d.distinct(&c).unwrap();
        assert_eq!(dd.len(), 2);
    }
}
