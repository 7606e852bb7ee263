//! Resident fixpoint state for incremental view maintenance.
//!
//! A maintained view keeps, per fixpoint, the state a fresh execution
//! throws away at the end: the accumulator partitions in the driver's own
//! partitioning and the prepared recursive branches with their invariant
//! join indexes. A batch then resumes the semi-naive loop on that state
//! instead of re-placing the accumulator, re-broadcasting the invariants
//! and re-collecting the total:
//!
//! * the rows the maintenance planner removes (`D`, DRed's over-deletion)
//!   and its frontier are routed to their owners — communication
//!   proportional to the change;
//! * only the invariants the batch changed are updated, in place
//!   ([`Prepared::update`]);
//! * the loop runs against an *overlay* of each partition — the resident
//!   rows minus the removed ones plus the rows derived so far — so the
//!   resident partitions are only read while it runs, and a failed or
//!   retried attempt has nothing to undo;
//! * on success the net change (rows that appear, rows that vanish) is
//!   committed to the partitions and returned, so the caller updates its
//!   totals and outputs by the change instead of re-collecting them.
//!
//! One representation serves every plan: partition `w` holds the rows
//! whose owner under the plan's key is `w` (the stable columns under
//! `P_plw`, the full row under `P_gld` and `P_async`). Resumed loops run
//! the hash kernel whatever the fresh executions' local engine.

use crate::exec::FixPlan;
use crate::localfix::{eval_branch, supervise, LoopCtx, Prepared};
use mura_core::kernel::kernel_stats;
use mura_core::mem::{rel_bytes, MemCharge};
use mura_core::{Relation, Result, Schema, Sym, Term};
use std::time::Instant;

/// The resident state of one maintained fixpoint (see the module docs).
/// Built by [`crate::DistEvaluator::build_resident`], advanced one batch
/// at a time by [`crate::DistEvaluator::resume_resident`]. Owned by the
/// serving layer, never shared with query outputs, and charged to the
/// process memory gauge while it lives.
pub struct ResidentFix {
    pub(crate) schema: Schema,
    /// How the fixpoint resumes, fixed when its state is built.
    pub(crate) plan: FixPlan,
    pub(crate) parts: Vec<Relation>,
    /// The hoisted loop invariants of the recursive branches: the symbol
    /// each prepared branch reads, and the `x`-free subterm it stands for.
    pub(crate) invariants: Vec<(Sym, Term)>,
    pub(crate) prepared: Vec<Prepared<Relation>>,
    pub(crate) charge: MemCharge,
}

/// The net change one resumed batch made to a resident fixpoint.
#[derive(Debug, Clone)]
pub struct FixChange {
    /// Rows the fixpoint gained.
    pub plus: Relation,
    /// Rows the fixpoint lost.
    pub minus: Relation,
}

impl ResidentFix {
    /// The fixpoint's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The accumulator partitions; their union is the fixpoint's value.
    pub fn parts(&self) -> &[Relation] {
        &self.parts
    }

    /// Rows in the fixpoint.
    pub fn len(&self) -> usize {
        self.parts.iter().map(Relation::len).sum()
    }

    /// True when the fixpoint is empty.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(Relation::is_empty)
    }

    /// The `x`-free subterms hoisted out of the recursive branches, in the
    /// order [`crate::DistEvaluator::resume_resident`] expects their
    /// changes.
    pub fn invariants(&self) -> impl Iterator<Item = &Term> {
        self.invariants.iter().map(|(_, t)| t)
    }

    /// The fixpoint's value gathered into one relation.
    pub fn collect(&self) -> Relation {
        let mut out = Relation::new(self.schema.clone());
        for p in &self.parts {
            out.absorb(p.clone());
        }
        out
    }

    /// Estimated bytes held: partitions plus cached invariant state.
    fn bytes(&self) -> u64 {
        rel_bytes(self.len() as u64, self.schema.arity())
            + self.prepared.iter().map(|p| p.cached_bytes()).sum::<u64>()
    }

    /// Re-charges the memory gauge to the current footprint.
    pub(crate) fn recharge(&mut self) {
        let bytes = self.bytes();
        self.charge.resize(bytes);
    }

    /// Applies one invariant change to every prepared branch. Errors (and
    /// changes nothing) when no cached node could follow it.
    pub(crate) fn update_invariant(
        &mut self,
        i: usize,
        plus: &Relation,
        minus: &Relation,
    ) -> Result<()> {
        let sym = self.invariants[i].0;
        let updated: usize = self.prepared.iter_mut().map(|p| p.update(sym, plus, minus)).sum();
        if updated == 0 && !(plus.is_empty() && minus.is_empty()) {
            return Err(mura_core::MuraError::Other(
                "a changed loop invariant has no updatable cached state".into(),
            ));
        }
        Ok(())
    }

    /// Commits one resumed batch: partition `w` loses `removed[w]` and
    /// gains `added[w]`. Returns the net change.
    pub(crate) fn commit(&mut self, removed: &[Relation], added: &[Relation]) -> FixChange {
        let mut plus = Relation::new(self.schema.clone());
        let mut minus = Relation::new(self.schema.clone());
        for (w, part) in self.parts.iter_mut().enumerate() {
            for row in removed[w].iter() {
                if !added[w].contains(row) {
                    minus.insert(row.clone());
                }
                part.remove(row);
            }
            for row in added[w].iter() {
                if part.insert(row.clone()) && !removed[w].contains(row) {
                    plus.insert(row.clone());
                }
            }
        }
        self.recharge();
        FixChange { plus, minus }
    }
}

/// The rows of `candidates` the overlay does not hold: neither derived so
/// far (`added`) nor resident in `base` outside the batch's removals.
pub(crate) fn unseen(
    candidates: &Relation,
    base: &Relation,
    removed: &Relation,
    added: &Relation,
) -> Relation {
    candidates
        .filter(|row| !(added.contains(row) || (base.contains(row) && !removed.contains(row))))
}

/// One worker's resumed local loop: starts from the frontier rows the
/// overlay does not hold yet and runs the prepared branches to a local
/// fixpoint under the shared recovery supervisor. Returns the rows added.
pub(crate) fn resume_local(
    prepared: &[Prepared<Relation>],
    base: &Relation,
    removed: &Relation,
    frontier: &Relation,
    ctx: &LoopCtx<'_>,
) -> Result<Relation> {
    let empty = Relation::new(base.schema().clone());
    let init = || {
        let added = unseen(frontier, base, removed, &empty);
        (added.clone(), added)
    };
    let (added, _) = supervise(
        ctx,
        frontier.len() as u64,
        init,
        |(_, delta): &(Relation, Relation)| delta.is_empty(),
        |(added, delta)| (added.len() + delta.len()) as u64,
        |(added, delta)| {
            let stats = kernel_stats();
            let started = Instant::now();
            let fresh = unseen(&step_all(prepared, delta)?, base, removed, added);
            stats.record_eval_time(started.elapsed());
            stats.record_iteration();
            ctx.budget.charge(fresh.len() as u64)?;
            ctx.budget.charge_bytes(rel_bytes(fresh.len() as u64, fresh.schema().arity()))?;
            if fresh.is_empty() {
                return Ok(None);
            }
            for row in fresh.iter() {
                added.insert(row.clone());
            }
            let rows = fresh.len() as u64;
            *delta = fresh;
            Ok(Some(rows))
        },
    )?;
    Ok(added)
}

/// Every prepared branch applied once to `delta`.
pub(crate) fn step_all(prepared: &[Prepared<Relation>], delta: &Relation) -> Result<Relation> {
    let mut new: Option<Relation> = None;
    for p in prepared {
        let produced = eval_branch(p, delta)?;
        new = Some(match new {
            None => produced,
            Some(mut n) => {
                n.absorb(produced);
                n
            }
        });
    }
    Ok(new.unwrap_or_else(|| Relation::new(delta.schema().clone())))
}
