//! # mura-ivm — incremental view maintenance for recursive μ-RA views
//!
//! Turns a cached query result into a *maintained materialized view*:
//! given an edge-level delta over the base relations, this crate plans,
//! per fixpoint, how the distributed drivers (`mura-dist`) advance their
//! resident state — the rows leaving the accumulator and the frontier the
//! semi-naive loop resumes from — and computes the exact change of every
//! non-recursive term (loop invariants, the query output) from the
//! changes of its leaves.
//!
//! Every rewrite is the classic per-occurrence delta rule, evaluated from
//! the change outwards (the `delta` module): for each occurrence `k` of a
//! changed leaf, the term with occurrence `k` replaced by the changed
//! rows. Every μ-RA operator except antijoin-RHS distributes over union in
//! each argument, so the union over `k` covers every derivation that uses
//! a changed row. Under an antijoin's right side a change flips sign; a
//! non-recursive term there takes the left rows with the changed keys as
//! candidates and checks them in both worlds. Leaves are base relations and fixpoint totals read
//! through column indexes ([`IndexStore`]) kept across batches, so the
//! work is proportional to the change times its fan-out, not to the view.
//!
//! For one fixpoint with old total `T`:
//!
//! * **Deletions** use *DRed* (delete-and-rederive, Gupta–Mumick–
//!   Subrahmanian). Over-delete `D`: every row of `T` derivable in the old
//!   world from a deleted row, closed under the recursive branches. The
//!   survivors `S = T \ D` keep a deletion-free derivation, so
//!   `S ⊆ lfp(F')`.
//! * **Rederivation** is restricted to `D`: the frontier is
//!   `((F'(S) ∩ D) ∪ Δ⁺F(S)) \ S`, where `Δ⁺F(S)` is the insertion
//!   rewrite over the inserted rows. This equals `F'(S) \ S`: a row the
//!   old base derives from `S` was already in `T`, so it is in `S` or in
//!   `D`; every other new row uses an inserted row. `F'(S) ∩ D` is computed
//!   by pushing `D`'s column values down to the leaves that supply them.
//! * **Insertions** alone need no `D`: `T ⊆ lfp(F')` by monotonicity and
//!   the frontier is `Δ⁺F(T) \ T`.
//!
//! All branches take part, constant ones included, so the frontier already
//! carries the seed's change; the driver never re-evaluates the seed.
//! The driver then resumes its loop from `S ∪ frontier` and reports the
//! fixpoint's net change, which becomes a changed leaf for the terms above
//! it (enclosing fixpoints, the output).
//!
//! The work stays proportional to the change except where DRed's
//! over-deletion is large by nature: a deleted edge inside a strongly
//! connected component over-deletes everything the component reaches, and
//! rederiving that is as expensive as recomputing it (Backward/Forward-style
//! rederivation is out of scope).
//!
//! Maintenance **falls back to full recomputation** (with a typed reason)
//! when a changed leaf occurs on the right-hand side of an antijoin inside
//! a fixpoint (non-monotone in the change), or when no captured total
//! exists for an affected fixpoint (cold cache).

mod delta;
mod index;

pub use delta::Leaves;
pub use index::{IndexStore, LeafKey};

use delta::{Big, Eval, Side, Src, Variant, World};
use mura_core::analysis::decompose_fixpoint;
use mura_core::fxhash::FxHashMap;
use mura_core::{term_key, Database, MuraError, Relation, Result, Row, Schema, Sym, Term};

/// Insertions and deletions against one base relation. Both sides carry
/// the relation's own schema.
#[derive(Debug, Clone)]
pub struct RelDelta {
    /// Rows to add.
    pub insert: Relation,
    /// Rows to remove.
    pub delete: Relation,
}

impl RelDelta {
    /// An empty delta over `schema`-shaped rows.
    pub fn new(schema: mura_core::Schema) -> Self {
        RelDelta { insert: Relation::new(schema.clone()), delete: Relation::new(schema) }
    }

    /// True when neither side carries rows.
    pub fn is_empty(&self) -> bool {
        self.insert.is_empty() && self.delete.is_empty()
    }
}

/// A batch of base-relation mutations, applied atomically as
/// `R ← (R \ delete) ∪ insert` per relation.
#[derive(Debug, Clone, Default)]
pub struct DeltaBatch {
    /// Per-relation deltas.
    pub rels: FxHashMap<Sym, RelDelta>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        DeltaBatch::default()
    }

    /// Records one inserted row for `rel` (creating the entry from the
    /// database schema on first touch). Errors on unknown relations.
    pub fn push_insert(&mut self, db: &Database, rel: Sym, row: Row) -> Result<()> {
        self.entry(db, rel)?.insert.insert(row);
        Ok(())
    }

    /// Records one deleted row for `rel`.
    pub fn push_delete(&mut self, db: &Database, rel: Sym, row: Row) -> Result<()> {
        self.entry(db, rel)?.delete.insert(row);
        Ok(())
    }

    fn entry(&mut self, db: &Database, rel: Sym) -> Result<&mut RelDelta> {
        match self.rels.entry(rel) {
            std::collections::hash_map::Entry::Occupied(e) => Ok(e.into_mut()),
            std::collections::hash_map::Entry::Vacant(e) => {
                let schema =
                    db.relation(rel).ok_or(MuraError::UnboundVariable(rel))?.schema().clone();
                Ok(e.insert(RelDelta::new(schema)))
            }
        }
    }

    /// Drops no-op rows against the current database: inserts that are
    /// already present, deletes of absent rows, and delete/insert pairs of
    /// the same row. After normalization `insert` holds exactly the rows
    /// that will appear and `delete` exactly the rows that will vanish —
    /// the precondition of [`plan_fix`] and [`term_delta`]. Relations the batch does
    /// not actually change are removed entirely.
    pub fn normalize(&mut self, db: &Database) -> Result<()> {
        let mut dead = Vec::new();
        for (rel, d) in self.rels.iter_mut() {
            let cur = db.relation(*rel).ok_or(MuraError::UnboundVariable(*rel))?;
            // `(R \ delete) ∪ insert`: a row in both sides ends up present.
            let delete = filter_rows(&d.delete, |row| cur.contains(row) && !d.insert.contains(row));
            let insert = filter_rows(&d.insert, |row| !cur.contains(row));
            d.delete = delete;
            d.insert = insert;
            if d.is_empty() {
                dead.push(*rel);
            }
        }
        for rel in dead {
            self.rels.remove(&rel);
        }
        Ok(())
    }

    /// True when the (normalized) batch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.rels.values().all(RelDelta::is_empty)
    }

    /// Total rows across both sides of every relation.
    pub fn len(&self) -> usize {
        self.rels.values().map(|d| d.insert.len() + d.delete.len()).sum()
    }

    /// Applies the (normalized) batch to `db`, returning
    /// `(inserted, deleted)` row counts. Each changed relation is updated
    /// in place: its old value is the new one without `insert` and with
    /// `delete`, so maintenance reads both worlds from the new value.
    pub fn apply(&self, db: &mut Database) -> Result<(u64, u64)> {
        let (mut ins, mut del) = (0u64, 0u64);
        for (rel, d) in &self.rels {
            let mut next = db.relation(*rel).ok_or(MuraError::UnboundVariable(*rel))?.clone();
            // Drop the catalog's handle first so the copy-on-write rows are
            // not copied just to change a few of them.
            db.insert_relation_sym(*rel, Relation::new(next.schema().clone()));
            for row in d.delete.iter() {
                if next.remove(row) {
                    del += 1;
                }
            }
            for row in d.insert.iter() {
                if next.insert(row.clone()) {
                    ins += 1;
                }
            }
            db.insert_relation_sym(*rel, next);
        }
        Ok((ins, del))
    }
}

fn filter_rows(rel: &Relation, mut keep: impl FnMut(&[mura_core::Value]) -> bool) -> Relation {
    let mut out = Relation::new(rel.schema().clone());
    for row in rel.iter() {
        if keep(row) {
            out.insert(row.clone());
        }
    }
    out
}

/// Why maintenance refused a plan and a full recomputation is required.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// A changed relation occurs under an antijoin right-hand side inside
    /// a fixpoint: the fixpoint is not monotone in the change.
    NonMonotone,
    /// No captured total for an affected fixpoint (nothing to resume from).
    CacheCold,
    /// The estimated maintenance cost exceeds recomputation (decided by
    /// the caller's cost model, reported through the same channel).
    Cost,
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FallbackReason::NonMonotone => "non-monotone",
            FallbackReason::CacheCold => "cache-cold",
            FallbackReason::Cost => "cost",
        })
    }
}

/// How one fixpoint's resident state advances by a batch.
#[derive(Debug, Clone)]
pub struct FixMaintenance {
    /// Rows leaving the accumulator before the loop resumes (DRed's
    /// over-deletion `D`; empty for insert-only batches).
    pub removed: Relation,
    /// Rows the resumed loop starts from (none of them in `T \ removed`).
    pub frontier: Relation,
    /// Rows the rewrites produced (the planning work).
    pub touched: u64,
}

/// The exact change of a non-recursive term.
#[derive(Debug, Clone)]
pub struct TermDelta {
    /// Rows the term gained.
    pub plus: Relation,
    /// Rows the term lost.
    pub minus: Relation,
    /// Rows the rewrites produced (the work).
    pub touched: u64,
}

/// True when `t` reads a changed leaf of `leaves` (fixpoints registered as
/// leaves count as one leaf each).
pub fn reads_change(t: &Term, leaves: &Leaves) -> bool {
    leaves.changed_occurrences(t, None) > 0
}

/// Plans the maintenance of the fixpoint `fix` whose old total is the
/// union of `total` (indexed in `store` under [`LeafKey::Fix`] of its
/// [`term_key`]): over-deletion, survivors and the restricted
/// rederivation frontier described in the crate docs. Nested fixpoints
/// must be registered in `leaves` with their new values and changes.
pub fn plan_fix(
    fix: &Term,
    leaves: &Leaves,
    total: &[Relation],
    store: &mut IndexStore,
) -> Result<std::result::Result<FixMaintenance, FallbackReason>> {
    let Term::Fix(x, body) = fix else {
        return Err(MuraError::Other("plan_fix needs a fixpoint term".into()));
    };
    let x = *x;
    if leaves.changed_under_antijoin_rhs(body, Some(x)) {
        return Ok(Err(FallbackReason::NonMonotone));
    }
    let schema: Schema = match total.first() {
        Some(p) => p.schema().clone(),
        None => return Err(MuraError::Other("a fixpoint total needs partitions".into())),
    };
    let t = Big::new(LeafKey::Fix(term_key(fix)), &schema, total);
    let (consts, recs) = decompose_fixpoint(x, body)?;
    let branches: Vec<&Term> = consts.iter().chain(recs.iter()).copied().collect();
    let mut ev = Eval { store, touched: 0 };
    let occurrences: Vec<usize> =
        branches.iter().map(|b| leaves.changed_occurrences(b, Some(x))).collect();

    // DRed over-deletion: D₀ from every branch with one occurrence at its
    // deleted rows and everything else at old values, then closed under
    // the recursive branches in the old world. (A variant whose driver is
    // empty costs nothing, so batches without deletes skip all of it.)
    let mut d = Relation::new(schema.clone());
    for (b, &n) in branches.iter().zip(&occurrences) {
        for k in 0..n {
            let v = Variant {
                world: World::Old,
                pick: Some((k, Side::Minus)),
                x: Some((x, Src::Big(t))),
            };
            let got = ev.driven(&leaves.build(b, &v)?)?;
            d.absorb(got.filter(|row| t.contains(row)));
        }
    }
    let mut dk = d.clone();
    while !dk.is_empty() {
        let mut next = Relation::new(schema.clone());
        for b in &recs {
            let v =
                Variant { world: World::Old, pick: None, x: Some((x, Src::Driver(dk.clone()))) };
            next.absorb(ev.driven(&leaves.build(b, &v)?)?);
        }
        dk = next.filter(|row| t.contains(row) && !d.contains(row));
        for row in dk.iter() {
            d.insert(row.clone());
        }
    }

    // Rederivation restricted to D, plus the insertion rewrite, both over
    // the survivors S = T \ D in the new world.
    let s = Big { hide: Some(&d), ..t };
    let mut frontier = Relation::new(schema.clone());
    if !d.is_empty() {
        for b in &branches {
            let v = Variant { world: World::New, pick: None, x: Some((x, Src::Big(s))) };
            frontier.absorb(ev.bound(&leaves.build(b, &v)?, Some(&d))?);
        }
    }
    for (b, &n) in branches.iter().zip(&occurrences) {
        for k in 0..n {
            let v = Variant {
                world: World::New,
                pick: Some((k, Side::Plus)),
                x: Some((x, Src::Big(s))),
            };
            frontier.absorb(ev.driven(&leaves.build(b, &v)?)?);
        }
    }
    let frontier = frontier.filter(|row| !s.contains(row));
    Ok(Ok(FixMaintenance { removed: d, frontier, touched: ev.touched }))
}

/// The exact change of the non-recursive term `t` (fixpoint subterms must
/// be registered in `leaves`). `old`, when given, is `t`'s old value; it
/// saves looking the candidate rows up in the old world.
pub fn term_delta(
    t: &Term,
    leaves: &Leaves,
    store: &mut IndexStore,
    old: Option<&Relation>,
) -> Result<TermDelta> {
    let mut ev = Eval { store, touched: 0 };
    let n = leaves.changed_occurrences(t, None);
    let mut plus = None::<Relation>;
    let mut minus = None::<Relation>;
    for k in 0..n {
        for (side, world, acc) in
            [(Side::Plus, World::New, &mut plus), (Side::Minus, World::Old, &mut minus)]
        {
            let v = Variant { world, pick: Some((k, side)), x: None };
            let got = ev.driven(&leaves.build(t, &v)?)?;
            match acc {
                Some(a) => a.absorb(got),
                None => *acc = Some(got),
            }
        }
    }
    let schema = || -> Result<Schema> {
        Ok(leaves.build(t, &Variant { world: World::New, pick: None, x: None })?.schema().clone())
    };
    let plus = match plus {
        Some(p) => p,
        None => {
            let s = schema()?;
            return Ok(TermDelta {
                plus: Relation::new(s.clone()),
                minus: Relation::new(s),
                touched: 0,
            });
        }
    };
    let minus = minus.expect("filled with plus");
    if leaves.changed_under_antijoin_rhs(t, None) {
        // A change under an antijoin's right side flips sign (see
        // `Eval::driven`), so every candidate is checked in both worlds.
        let mut cand = plus;
        cand.absorb(minus);
        let after = leaves.build(t, &Variant { world: World::New, pick: None, x: None })?;
        let now = ev.bound(&after, Some(&cand))?;
        let before = match old {
            Some(old) => cand.filter(|row| old.contains(row)),
            None => {
                let before =
                    leaves.build(t, &Variant { world: World::Old, pick: None, x: None })?;
                ev.bound(&before, Some(&cand))?
            }
        };
        return Ok(TermDelta {
            plus: now.minus(&before),
            minus: before.minus(&now),
            touched: ev.touched,
        });
    }
    // Keep the candidates that really changed: new ones absent before,
    // lost ones absent now.
    let plus = match old {
        Some(old) => plus.filter(|row| !old.contains(row)),
        None if plus.is_empty() => plus,
        None => {
            let before = leaves.build(t, &Variant { world: World::Old, pick: None, x: None })?;
            let present = ev.bound(&before, Some(&plus))?;
            plus.minus(&present)
        }
    };
    let minus = if minus.is_empty() {
        minus
    } else {
        let after = leaves.build(t, &Variant { world: World::New, pick: None, x: None })?;
        let present = ev.bound(&after, Some(&minus))?;
        let minus = minus.minus(&present);
        match old {
            Some(old) => minus.filter(|row| old.contains(row)),
            None => minus,
        }
    };
    Ok(TermDelta { plus, minus, touched: ev.touched })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::{eval, Value};

    /// Transitive-closure database and plan: `μ(X = E ∪ π̃(ρ(X) ⋈ ρ(E)))`.
    fn tc_setup(edges: &[(u64, u64)]) -> (Database, Term, Sym) {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let mid = db.intern("m");
        let x = db.intern("X");
        let e = db.insert_relation("E", Relation::from_pairs(src, dst, edges.iter().copied()));
        let step =
            Term::var(x).rename(dst, mid).join(Term::var(e).rename(src, mid)).antiproject(mid);
        let plan = Term::var(e).union(step).fix(x);
        (db, plan, e)
    }

    fn pair_row(a: u64, b: u64) -> Row {
        vec![Value::node(a), Value::node(b)].into_boxed_slice()
    }

    /// Simulates the driver's resumed loop centrally: start from
    /// `(T \ removed) ∪ frontier` and run plain semi-naive.
    fn resumed_lfp(plan: &Term, total: &Relation, m: &FixMaintenance, db: &Database) -> Relation {
        let Term::Fix(x, body) = plan else { panic!("expected fixpoint plan") };
        let (_, recs) = decompose_fixpoint(*x, body).unwrap();
        let mut acc = total.minus(&m.removed);
        let mut delta = m.frontier.clone();
        acc.absorb(delta.clone());
        while !delta.is_empty() {
            let x_d = Term::cst(delta.clone());
            let mut new = Relation::new(acc.schema().clone());
            for r in &recs {
                new.absorb(eval(&r.substitute(*x, &x_d), db).unwrap());
            }
            let new = new.minus(&acc);
            acc.absorb(new.clone());
            delta = new;
        }
        acc
    }

    fn batch_of(db: &Database, e: Sym, ins: &[(u64, u64)], del: &[(u64, u64)]) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        for &(a, b) in ins {
            batch.push_insert(db, e, pair_row(a, b)).unwrap();
        }
        for &(a, b) in del {
            batch.push_delete(db, e, pair_row(a, b)).unwrap();
        }
        batch.normalize(db).unwrap();
        batch
    }

    fn maintain_and_check(edges: &[(u64, u64)], ins: &[(u64, u64)], del: &[(u64, u64)]) {
        let (mut db, plan, e) = tc_setup(edges);
        let total = eval(&plan, &db).unwrap();
        let batch = batch_of(&db, e, ins, del);
        batch.apply(&mut db).unwrap();
        let expected = eval(&plan, &db).unwrap();
        let mut store = IndexStore::new();
        let leaves = Leaves::new(&db, &batch);
        let parts = [total.clone()];
        let m = plan_fix(&plan, &leaves, &parts, &mut store).unwrap().expect("maintainable");
        assert!(m.removed.iter().all(|r| total.contains(r)), "D ⊆ T");
        let got = resumed_lfp(&plan, &total, &m, &db);
        assert_eq!(
            got.sorted_rows(),
            expected.sorted_rows(),
            "maintained view diverged for ins={ins:?} del={del:?}"
        );
    }

    #[test]
    fn insert_extends_closure() {
        maintain_and_check(&[(1, 2), (2, 3)], &[(3, 4)], &[]);
    }

    #[test]
    fn insert_bridges_components() {
        maintain_and_check(&[(1, 2), (5, 6), (6, 7)], &[(2, 5)], &[]);
    }

    #[test]
    fn delete_cuts_closure() {
        maintain_and_check(&[(1, 2), (2, 3), (3, 4)], &[], &[(2, 3)]);
    }

    #[test]
    fn delete_with_alternative_path_keeps_rows() {
        // 1→2→3 and 1→3 directly: deleting 2→3 must keep (1,3).
        maintain_and_check(&[(1, 2), (2, 3), (1, 3), (3, 4)], &[], &[(2, 3)]);
    }

    #[test]
    fn delete_in_cycle_rederives() {
        // DRed over-deletes the whole cycle's closure, then rederives the
        // part still implied by the surviving edges.
        maintain_and_check(&[(1, 2), (2, 3), (3, 1)], &[], &[(3, 1)]);
    }

    #[test]
    fn mixed_batch_insert_and_delete() {
        maintain_and_check(&[(1, 2), (2, 3), (3, 4)], &[(4, 5), (0, 1)], &[(2, 3)]);
    }

    #[test]
    fn mixed_batch_reaches_insert_only_through_survivors() {
        // The inserted 9→10 hangs off 4, reachable from 1 only through
        // surviving rows: the restricted rederivation must still find
        // (1,10) via the insertion rewrite over S.
        maintain_and_check(&[(1, 2), (2, 4), (1, 3), (3, 4), (4, 9)], &[(9, 10)], &[(2, 4)]);
    }

    #[test]
    fn delete_everything() {
        maintain_and_check(&[(1, 2), (2, 3)], &[], &[(1, 2), (2, 3)]);
    }

    #[test]
    fn random_batches_match_recompute() {
        // Small dense graphs with cycles: every shape of over-deletion.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for _ in 0..60 {
            let edges: Vec<(u64, u64)> = (0..14).map(|_| (next(9), next(9))).collect();
            let ins: Vec<(u64, u64)> = (0..next(3)).map(|_| (next(9), next(9))).collect();
            let del: Vec<(u64, u64)> = (0..next(4)).map(|_| edges[next(14) as usize]).collect();
            maintain_and_check(&edges, &ins, &del);
        }
    }

    /// A small xorshift stream for the randomized tests.
    fn stream(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |n| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        }
    }

    /// Two labelled edge relations `E`, `F` over six nodes, plus a unary
    /// `G` for antijoins.
    fn two_label_db(next: &mut impl FnMut(u64) -> u64) -> (Database, Sym, Sym, Sym) {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let mut pairs = |n| (0..n).map(|_| (next(6), next(6))).collect::<Vec<_>>();
        let e = db.insert_relation("E", Relation::from_pairs(src, dst, pairs(9)));
        let f = db.insert_relation("F", Relation::from_pairs(src, dst, pairs(7)));
        let g_rows =
            [vec![Value::node(1)].into_boxed_slice(), vec![Value::node(4)].into_boxed_slice()];
        db.insert_relation("G", Relation::from_rows(Schema::new(vec![src]), g_rows));
        (db, e, f, dst)
    }

    fn random_two_label_batch(
        db: &Database,
        e: Sym,
        f: Sym,
        next: &mut impl FnMut(u64) -> u64,
    ) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        for rel in [e, f] {
            let rows: Vec<Row> = db.relation(rel).unwrap().sorted_rows();
            for _ in 0..next(3) {
                batch.push_insert(db, rel, pair_row(next(6), next(6))).unwrap();
            }
            for _ in 0..next(3) {
                if !rows.is_empty() {
                    batch
                        .push_delete(db, rel, rows[next(rows.len() as u64) as usize].clone())
                        .unwrap();
                }
            }
        }
        batch.normalize(db).unwrap();
        batch
    }

    #[test]
    fn term_delta_matches_recompute_on_many_shapes() {
        let mut next = stream(0x9e37_79b9_7f4a_7c15);
        for round in 0..40 {
            let (mut db, e, f, dst) = two_label_db(&mut next);
            let src = db.dict().lookup("src").unwrap();
            let g = db.dict().lookup("G").unwrap();
            let m = db.intern("m");
            let y = db.intern("y");
            let (ve, vf) = (Term::var(e), Term::var(f));
            let shapes = [
                // Two hops over different labels.
                ve.clone().rename(dst, m).join(vf.clone().rename(src, m)).antiproject(m),
                // An anchored filter beside a union.
                ve.clone().filter_eq(src, 1i64).union(vf.clone()),
                // An antijoin against a changed unary relation.
                ve.clone().antijoin(Term::var(g)),
                // An antijoin against a changed binary relation's sources.
                ve.clone().antijoin(vf.clone().antiproject(dst)),
                // Two antijoins nested on the right: the sign flips twice.
                ve.clone().antijoin(vf.clone().antiproject(dst).antijoin(Term::var(g))),
                // A join over an antijoin whose right side changes.
                ve.clone()
                    .rename(dst, m)
                    .join(vf.clone().rename(src, m).antijoin(Term::var(g).rename(src, m)))
                    .antiproject(m),
                // A whole-row antijoin of two changed relations.
                ve.clone().antijoin(vf.clone()),
                // A cartesian product of two projections.
                ve.clone().antiproject(dst).join(vf.clone().antiproject(src).rename(dst, y)),
                // A union feeding a join whose other side is anchored.
                ve.clone()
                    .union(vf.clone())
                    .rename(dst, m)
                    .join(ve.clone().filter_eq(dst, 2i64).rename(src, m).rename(dst, y))
                    .antiproject(m),
            ];
            let olds: Vec<Relation> = shapes.iter().map(|t| eval(t, &db).unwrap()).collect();
            let mut batch = random_two_label_batch(&db, e, f, &mut next);
            // G changes too, so the antijoin shapes see right-side changes.
            for _ in 0..next(2) {
                let row = vec![Value::node(next(6))].into_boxed_slice();
                batch.push_insert(&db, g, row).unwrap();
            }
            for _ in 0..next(2) {
                let row = vec![Value::node([1, 4][next(2) as usize])].into_boxed_slice();
                batch.push_delete(&db, g, row).unwrap();
            }
            batch.normalize(&db).unwrap();
            batch.apply(&mut db).unwrap();
            let mut store = IndexStore::new();
            let leaves = Leaves::new(&db, &batch);
            for (i, (t, old)) in shapes.iter().zip(&olds).enumerate() {
                let new = eval(t, &db).unwrap();
                for given in [None, Some(old)] {
                    let got = term_delta(t, &leaves, &mut store, given).unwrap();
                    let ctx = format!("round {round}, shape {i}, old given {}", given.is_some());
                    assert_eq!(got.plus.sorted_rows(), new.minus(old).sorted_rows(), "{ctx}");
                    assert_eq!(got.minus.sorted_rows(), old.minus(&new).sorted_rows(), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn anchored_union_closure_matches_recompute() {
        // μ(X = π̃src σ[src=0](E ∪ F) ∪ π̃m(ρ(X) ⋈ ρ(E ∪ F))): the
        // single-column anchored view over a label union.
        let mut next = stream(0x2545_f491_4f6c_dd1d);
        for _ in 0..60 {
            let (mut db, e, f, dst) = two_label_db(&mut next);
            let src = db.dict().lookup("src").unwrap();
            let m = db.intern("m");
            let x = db.intern("X");
            let both = Term::var(e).union(Term::var(f));
            let seed = both.clone().filter_eq(src, 0i64).antiproject(src);
            let step = Term::var(x).rename(dst, m).join(both.rename(src, m)).antiproject(m);
            let plan = seed.union(step).fix(x);
            let total = eval(&plan, &db).unwrap();
            if total.is_empty() {
                continue;
            }
            let batch = random_two_label_batch(&db, e, f, &mut next);
            batch.apply(&mut db).unwrap();
            let leaves = Leaves::new(&db, &batch);
            let parts = [total.clone()];
            let m = plan_fix(&plan, &leaves, &parts, &mut IndexStore::new()).unwrap().unwrap();
            let got = resumed_lfp(&plan, &total, &m, &db);
            assert_eq!(got.sorted_rows(), eval(&plan, &db).unwrap().sorted_rows());
        }
    }

    #[test]
    fn term_delta_follows_a_union_invariant() {
        // I = ρ(E ∪ F): deleting a row of E that F still holds changes
        // nothing; deleting one only E held removes it.
        let (mut db, _, e) = tc_setup(&[(1, 2), (2, 3)]);
        let src = db.intern("src");
        let dst = db.intern("dst");
        let m = db.intern("m");
        let f = db.insert_relation("F", Relation::from_pairs(src, dst, [(1, 2)]));
        let inv = Term::var(e).union(Term::var(f)).rename(src, m);
        let old = eval(&inv, &db).unwrap();
        let batch = batch_of(&db, e, &[(7, 8)], &[(1, 2), (2, 3)]);
        batch.apply(&mut db).unwrap();
        let mut store = IndexStore::new();
        let leaves = Leaves::new(&db, &batch);
        let got = term_delta(&inv, &leaves, &mut store, None).unwrap();
        let new = eval(&inv, &db).unwrap();
        assert_eq!(got.plus.sorted_rows(), new.minus(&old).sorted_rows());
        assert_eq!(got.minus.sorted_rows(), old.minus(&new).sorted_rows());
    }

    #[test]
    fn output_delta_through_a_fixpoint_leaf() {
        // The output ρ(μ(...)) changes exactly by the fixpoint's change.
        let (mut db, plan, e) = tc_setup(&[(1, 2), (2, 3), (3, 4)]);
        let y = db.intern("y");
        let dst = db.intern("dst");
        let out_term = plan.clone().rename(dst, y);
        let total = eval(&plan, &db).unwrap();
        let old_out = eval(&out_term, &db).unwrap();
        let batch = batch_of(&db, e, &[(4, 5)], &[(2, 3)]);
        batch.apply(&mut db).unwrap();
        let new_total = eval(&plan, &db).unwrap();
        let (plus, minus) = (new_total.minus(&total), total.minus(&new_total));
        let parts = [new_total.clone()];
        let mut leaves = Leaves::new(&db, &batch);
        leaves.fix(term_key(&plan), new_total.schema(), &parts);
        leaves.fix_change(term_key(&plan), &plus, &minus);
        let mut store = IndexStore::new();
        let got = term_delta(&out_term, &leaves, &mut store, Some(&old_out)).unwrap();
        let new_out = eval(&out_term, &db).unwrap();
        assert_eq!(got.plus.sorted_rows(), new_out.minus(&old_out).sorted_rows());
        assert_eq!(got.minus.sorted_rows(), old_out.minus(&new_out).sorted_rows());
    }

    #[test]
    fn indexes_follow_applied_changes() {
        // An index built in one batch and kept current with `apply` serves
        // the next batch exactly like a fresh one.
        let (mut db, plan, e) = tc_setup(&[(1, 2), (2, 3), (3, 1), (3, 4)]);
        let mut store = IndexStore::new();
        let mut total = eval(&plan, &db).unwrap();
        for (ins, del) in [(vec![(4, 5)], vec![(3, 1)]), (vec![(5, 1)], vec![(1, 2)])] {
            let batch = batch_of(&db, e, &ins, &del);
            batch.apply(&mut db).unwrap();
            store.apply(LeafKey::Rel(e), &batch.rels[&e].insert, &batch.rels[&e].delete);
            let parts = [total.clone()];
            let m = {
                let leaves = Leaves::new(&db, &batch);
                plan_fix(&plan, &leaves, &parts, &mut store).unwrap().unwrap()
            };
            let next = resumed_lfp(&plan, &total, &m, &db);
            assert_eq!(next.sorted_rows(), eval(&plan, &db).unwrap().sorted_rows());
            let key = LeafKey::Fix(term_key(&plan));
            store.apply(key, &next.minus(&total), &total.minus(&next));
            total = next;
        }
    }

    #[test]
    fn changed_under_antijoin_rhs_falls_back() {
        let (mut db, _, e) = tc_setup(&[(1, 2), (2, 3)]);
        let x = db.dict().lookup("X").unwrap();
        // μ(X = E ∪ (X ▷ E)): E on an antijoin RHS inside the body.
        let plan = Term::var(e).union(Term::var(x).antijoin(Term::var(e))).fix(x);
        let total = eval(&plan, &db).unwrap();
        let batch = batch_of(&db, e, &[(3, 4)], &[]);
        batch.apply(&mut db).unwrap();
        let leaves = Leaves::new(&db, &batch);
        let outcome = plan_fix(&plan, &leaves, &[total], &mut IndexStore::new()).unwrap();
        assert!(matches!(outcome, Err(FallbackReason::NonMonotone)));
    }

    #[test]
    fn vanished_relation_is_a_typed_error() {
        // A plan reading a relation the database no longer has fails with
        // a typed error (the serving layer counts it as a fallback).
        let (mut db, plan, e) = tc_setup(&[(1, 2), (2, 3)]);
        let total = eval(&plan, &db).unwrap();
        // A delete: rederivation reads every branch, the ghost's included.
        let batch = batch_of(&db, e, &[], &[(2, 3)]);
        batch.apply(&mut db).unwrap();
        let ghost = db.intern("Ghost");
        let x = db.dict().lookup("X").unwrap();
        let Term::Fix(_, body) = &plan else { unreachable!() };
        // μ(X = Ghost ∪ body): the fixpoint also reads an unknown relation.
        let plan = Term::var(ghost).union((**body).clone()).fix(x);
        let leaves = Leaves::new(&db, &batch);
        let err = plan_fix(&plan, &leaves, &[total], &mut IndexStore::new()).unwrap_err();
        assert!(matches!(err, MuraError::UnboundVariable(s) if s == ghost), "{err:?}");
    }

    #[test]
    fn unrelated_relation_is_not_read() {
        let (mut db, plan, _) = tc_setup(&[(1, 2)]);
        let src = db.intern("src");
        let dst = db.intern("dst");
        let other = db.insert_relation("Other", Relation::from_pairs(src, dst, [(9, 9)]));
        let batch = batch_of(&db, other, &[(7, 7)], &[]);
        batch.apply(&mut db).unwrap();
        assert!(!reads_change(&plan, &Leaves::new(&db, &batch)));
    }

    #[test]
    fn noop_batch_normalizes_away() {
        let (db, _, e) = tc_setup(&[(1, 2), (2, 3)]);
        let batch = batch_of(&db, e, &[(1, 2)], &[]); // already present
        assert!(batch.is_empty());
    }

    #[test]
    fn normalize_cancels_insert_delete_pairs() {
        let (db, _, e) = tc_setup(&[(1, 2)]);
        let mut batch = DeltaBatch::new();
        // Present row in both sides: net no-op under (R \ D) ∪ I.
        batch.push_insert(&db, e, pair_row(1, 2)).unwrap();
        batch.push_delete(&db, e, pair_row(1, 2)).unwrap();
        // Absent row in both sides: net insert.
        batch.push_insert(&db, e, pair_row(8, 9)).unwrap();
        batch.push_delete(&db, e, pair_row(8, 9)).unwrap();
        batch.normalize(&db).unwrap();
        let d = &batch.rels[&e];
        assert!(d.delete.is_empty());
        assert_eq!(d.insert.len(), 1);
        assert!(d.insert.contains(&pair_row(8, 9)));
    }
}
