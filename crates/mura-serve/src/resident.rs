//! Resident view state and the per-view maintenance step.
//!
//! For every cached view it maintains, the server keeps a [`ResidentView`]
//! across versions: the resident state of each fixpoint of the plan
//! ([`ResidentFix`]: accumulator partitions and prepared invariant
//! indexes) and the column indexes the delta rewrites read
//! ([`IndexStore`]). It is a cache, owned by the server and never reached
//! through the outputs handed to readers, so maintaining it never copies
//! what a reader still holds. It is never persisted: snapshots write the
//! collected totals, and the first maintenance after a restart (or after
//! the state was dropped) rebuilds it from the captured totals of the
//! cached output.
//!
//! [`maintain`] advances one view by one batch: fixpoints bottom-up
//! (each one planned by `mura_ivm` and resumed by `mura_dist`, its net
//! change becoming a changed leaf for the terms above), then the output
//! by the change of its term.

use mura_core::fxhash::FxHashMap;
use mura_core::{rel_bytes, term_key, Database, MemCharge, Relation, Result, Term};
use mura_dist::{DistEvaluator, ExecConfig, FixChange, QueryOutput, ResidentFix};
use mura_ivm::{
    plan_fix, reads_change, term_delta, DeltaBatch, FallbackReason, IndexStore, LeafKey, Leaves,
};
use std::time::{Duration, Instant};

/// The resident state of one maintained view (see the module docs).
pub(crate) struct ResidentView {
    /// The database version the state is exact at.
    pub version: u64,
    fixes: FxHashMap<u64, ResidentFix>,
    indexes: IndexStore,
    /// The output this state last replaced, with the change that brings it
    /// to the current one. Readers release it once they read the current
    /// output, so the next batch updates it in place and hands it out —
    /// the output moves by its change without copying the view.
    spare: Option<(Relation, Relation, Relation)>,
    /// Gauge charge of `indexes` and `spare` (each [`ResidentFix`]
    /// charges itself).
    charge: MemCharge,
}

impl ResidentView {
    /// Follows a batch that does not touch the view: only the indexes over
    /// the changed relations move.
    pub fn skip(&mut self, batch: &DeltaBatch, version: u64) {
        apply_base(&mut self.indexes, batch);
        self.version = version;
        self.recharge();
    }

    fn recharge(&mut self) {
        let spare = self
            .spare
            .as_ref()
            .map_or(0, |(r, _, _)| rel_bytes(r.len() as u64, r.schema().arity()));
        self.charge.resize(self.indexes.bytes() + spare);
    }

    /// The collected total of every fixpoint (for snapshots).
    pub fn totals(&self) -> Vec<(u64, Relation)> {
        self.fixes.iter().map(|(k, f)| (*k, f.collect())).collect()
    }

    /// Every fixpoint's cardinality (planner feedback).
    pub fn cardinalities(&self) -> FxHashMap<u64, f64> {
        self.fixes.iter().map(|(k, f)| (*k, f.len() as f64)).collect()
    }
}

fn apply_base(indexes: &mut IndexStore, batch: &DeltaBatch) {
    for (rel, d) in &batch.rels {
        indexes.apply(LeafKey::Rel(*rel), &d.insert, &d.delete);
    }
}

/// What one maintenance step produced.
pub(crate) struct Maintained {
    pub output: QueryOutput,
    pub view: ResidentView,
    /// Over-deleted rows that reappeared in the new totals.
    pub rederived: u64,
    /// Rows the step touched (see [`crate::DeltaSummary::touched`]).
    pub touched: u64,
}

/// Every fixpoint subterm of `t`, inner ones first, each once.
fn fixpoints_bottom_up<'t>(t: &'t Term, out: &mut Vec<(u64, &'t Term)>) {
    for c in t.children() {
        fixpoints_bottom_up(c, out);
    }
    if matches!(t, Term::Fix(..)) {
        let k = term_key(t);
        if !out.iter().any(|(seen, _)| *seen == k) {
            out.push((k, t));
        }
    }
}

/// Brings the cached view `old` (exact at `version - 1`) forward by the
/// applied, normalized `batch`, resuming from `resident` when it is exact
/// at `version - 1` and rebuilding it from `old`'s captured totals
/// otherwise. `Ok(Err(reason))` means the view cannot be maintained;
/// `Err` means maintenance failed — either way the caller recomputes.
pub(crate) fn maintain(
    old: &QueryOutput,
    resident: Option<ResidentView>,
    db: &Database,
    batch: &DeltaBatch,
    config: ExecConfig,
    version: u64,
) -> Result<std::result::Result<Maintained, FallbackReason>> {
    let start = Instant::now();
    let plan = &old.plan;
    let mut fixes = Vec::new();
    fixpoints_bottom_up(plan, &mut fixes);
    let mut ev = DistEvaluator::new(db, config);
    let warm = resident.as_ref().is_some_and(|r| r.version + 1 == version);
    let mut view = match resident {
        Some(mut r) if warm => {
            apply_base(&mut r.indexes, batch);
            r
        }
        _ => {
            // Cold: place the captured totals and prepare the branches
            // over the new database (so no invariant changes this batch).
            let mut built = FxHashMap::default();
            for (k, fix) in &fixes {
                let Some(total) = old.stats.fix_totals.as_ref().and_then(|t| t.get(k)) else {
                    return Ok(Err(FallbackReason::CacheCold));
                };
                built.insert(*k, ev.build_resident(fix, total)?);
            }
            ResidentView {
                version,
                fixes: built,
                indexes: IndexStore::new(),
                spare: None,
                charge: MemCharge::new(),
            }
        }
    };
    let (mut rederived, mut touched) = (0u64, 0u64);
    // Time in the maintenance planner (`mura_ivm`), reported apart from
    // the resumed execution so the two layers stay separable.
    let mut planning = Duration::ZERO;
    let mut changes: FxHashMap<u64, FixChange> = FxHashMap::default();
    for (k, fix) in &fixes {
        let mut r = view.fixes.remove(k).expect("resident state for every fixpoint");
        let planned = {
            let leaves = leaves_of(db, batch, &view.fixes, &changes);
            let Term::Fix(_, body) = fix else { unreachable!("collected fixpoints") };
            if !reads_change(body, &leaves) {
                None
            } else {
                let t = Instant::now();
                let m = match plan_fix(fix, &leaves, r.parts(), &mut view.indexes)? {
                    Ok(m) => m,
                    Err(reason) => return Ok(Err(reason)),
                };
                // Cost gate: maintenance wins while the rows it pushes
                // through the loop (over-deleted ∪ frontier) do not
                // outnumber the state a recompute would rebuild.
                let fresh = m.frontier.iter().filter(|row| !m.removed.contains(row)).count();
                if m.removed.len() + fresh > r.len().max(1) {
                    return Ok(Err(FallbackReason::Cost));
                }
                let mut inv = Vec::new();
                if warm {
                    for (i, t) in r.invariants().enumerate() {
                        if reads_change(t, &leaves) {
                            let d = term_delta(t, &leaves, &mut view.indexes, None)?;
                            touched += d.touched;
                            inv.push((i, d.plus, d.minus));
                        }
                    }
                }
                planning += t.elapsed();
                Some((m, inv))
            }
        };
        if let Some((m, inv)) = planned {
            let change = ev.resume_resident(&mut r, &m.removed, &m.frontier, &inv)?;
            let back = (m.removed.len() - change.minus.len()) as u64;
            rederived += back;
            touched += m.touched + change.plus.len() as u64 + back;
            view.indexes.apply(LeafKey::Fix(*k), &change.plus, &change.minus);
            changes.insert(*k, change);
        }
        view.fixes.insert(*k, r);
    }

    // The output moves by its term's change over the fixpoint changes.
    let (plus, minus) = match (plan, changes.get(&term_key(plan))) {
        (Term::Fix(..), Some(c)) => (c.plus.clone(), c.minus.clone()),
        (Term::Fix(..), None) => {
            let none = Relation::new(old.relation.schema().clone());
            (none.clone(), none)
        }
        _ => {
            let t = Instant::now();
            let leaves = leaves_of(db, batch, &view.fixes, &changes);
            let d = term_delta(plan, &leaves, &mut view.indexes, Some(&old.relation))?;
            touched += d.touched;
            planning += t.elapsed();
            (d.plus, d.minus)
        }
    };
    // The spare (the output before `old`) catches up by its pending change
    // and then takes this one; without a spare, `old` is copied once.
    let mut relation = match view.spare.take() {
        Some((mut spare, p, m)) => {
            apply_change(&mut spare, &p, &m);
            spare
        }
        None => old.relation.clone(),
    };
    apply_change(&mut relation, &plus, &minus);
    touched += (plus.len() + minus.len()) as u64;
    view.spare = Some((old.relation.clone(), plus, minus));
    view.version = version;
    view.recharge();
    let comm = ev.cluster().metrics().snapshot();
    let output = QueryOutput {
        relation,
        planning: Duration::ZERO,
        execution: start.elapsed().saturating_sub(planning),
        stats: ev.finish_stats(),
        comm,
        plan: plan.clone(),
    };
    Ok(Ok(Maintained { output, view, rederived, touched }))
}

fn apply_change(rel: &mut Relation, plus: &Relation, minus: &Relation) {
    for row in minus.iter() {
        rel.remove(row);
    }
    for row in plus.iter() {
        rel.insert(row.clone());
    }
}

/// The leaves of one step: the new database with the batch's changes,
/// every resident fixpoint (but the one being maintained, taken out of
/// `fixes`) at its current value, and the changes of those already
/// maintained.
fn leaves_of<'a>(
    db: &'a Database,
    batch: &'a DeltaBatch,
    fixes: &'a FxHashMap<u64, ResidentFix>,
    changes: &'a FxHashMap<u64, FixChange>,
) -> Leaves<'a> {
    let mut leaves = Leaves::new(db, batch);
    for (k, f) in fixes {
        leaves.fix(*k, f.schema(), f.parts());
    }
    for (k, c) in changes {
        leaves.fix_change(*k, &c.plus, &c.minus);
    }
    leaves
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::{eval, Value};
    use mura_dist::{CommSnapshot, ExecStats};

    /// A transitive closure `μ(X = E ∪ π̃m(ρ(X) ⋈ ρ(E)))` over a path, its
    /// cached output (with or without captured totals), and a batch that
    /// extends the path, already applied to the returned database.
    fn closure_after_insert(capture: bool) -> (QueryOutput, Database, DeltaBatch, Relation) {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let m = db.intern("m");
        let x = db.intern("X");
        let e = db.insert_relation("E", Relation::from_pairs(src, dst, [(1, 2), (2, 3)]));
        let step = Term::var(x).rename(dst, m).join(Term::var(e).rename(src, m)).antiproject(m);
        let plan = Term::var(e).union(step).fix(x);
        let total = eval(&plan, &db).unwrap();
        let fix_totals = capture.then(|| [(term_key(&plan), total.clone())].into_iter().collect());
        let old = QueryOutput {
            relation: total,
            planning: Duration::ZERO,
            execution: Duration::ZERO,
            stats: ExecStats { fix_totals, ..Default::default() },
            comm: CommSnapshot::default(),
            plan: plan.clone(),
        };
        let mut batch = DeltaBatch::new();
        batch.push_insert(&db, e, vec![Value::node(3), Value::node(4)].into()).unwrap();
        batch.normalize(&db).unwrap();
        batch.apply(&mut db).unwrap();
        let expected = eval(&plan, &db).unwrap();
        (old, db, batch, expected)
    }

    #[test]
    fn cold_cache_falls_back() {
        // No captured total to rebuild the resident state from: the view
        // cannot be maintained and the caller recomputes.
        let (old, db, batch, _) = closure_after_insert(false);
        let outcome = maintain(&old, None, &db, &batch, ExecConfig::default(), 1).unwrap();
        assert!(matches!(outcome, Err(FallbackReason::CacheCold)));
        // With the total captured, the same view is rebuilt and maintained.
        let (old, db, batch, expected) = closure_after_insert(true);
        let outcome = maintain(&old, None, &db, &batch, ExecConfig::default(), 1).unwrap();
        let Ok(m) = outcome else { panic!("maintainable with a captured total") };
        assert_eq!(m.output.relation.sorted_rows(), expected.sorted_rows());
    }
}
