//! Worker-local fixpoint execution for the `P_plw` plan.
//!
//! Each worker receives its share of the fixpoint's constant part plus
//! broadcast copies of every loop-invariant relation, and iterates the
//! recursive step locally — no cluster communication at all during the
//! recursion (the paper's key advantage of `P_plw` over `P_gld`).
//!
//! Two interchangeable local engines implement the iteration, mirroring the
//! paper's two `P_plw` implementations (§IV-B a):
//!
//! * [`LocalEngine::SetRdd`] — hash-set relations (BigDatalog's SetRDD
//!   style);
//! * [`LocalEngine::Sorted`] — sort-merge relations standing in for the
//!   per-worker PostgreSQL instances of `P_plw^pg`.

use crate::fault::{FaultPlan, RecoveryPolicy};
use crate::sorted::SortedRelation;
use mura_core::fxhash::FxHashMap;
use mura_core::kernel::kernel_stats;
use mura_core::mem::{mem_gauge, rel_bytes};
use mura_core::{
    CancellationToken, JoinIndex, KeyIndex, MuraError, Pred, Relation, Result, Row, Schema, Sym,
    Term, Value,
};
use mura_obs::trace::{EventKind, PlanKind, RecoveryKind, TraceEvent, TraceSink};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Which local engine runs the per-worker loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalEngine {
    /// Hash-based sets (the paper's `P_plw^s`, the faster variant).
    #[default]
    SetRdd,
    /// Sort-merge engine (the paper's `P_plw^pg` stand-in).
    Sorted,
}

/// Shared row/byte budget + deadline + cancellation, checked by every
/// worker loop. Models the paper's out-of-memory failures and timeouts,
/// and gives the serving layer a handle to stop a query between
/// supersteps.
///
/// Byte charges are mirrored into the process-wide
/// [`mem_gauge`](mura_core::mem::mem_gauge) and released when the budget
/// drops (i.e. when the query's evaluation ends), so the serving layer can
/// observe the live cross-query working set.
#[derive(Debug, Default)]
pub struct Budget {
    produced: AtomicU64,
    used_bytes: AtomicU64,
    max_rows: Option<u64>,
    max_bytes: Option<u64>,
    deadline: Option<Instant>,
    cancel: Option<CancellationToken>,
}

impl Budget {
    /// A budget with optional row cap and deadline.
    pub fn new(max_rows: Option<u64>, deadline: Option<Instant>) -> Self {
        Budget {
            produced: AtomicU64::new(0),
            used_bytes: AtomicU64::new(0),
            max_rows,
            max_bytes: None,
            deadline,
            cancel: None,
        }
    }

    /// Attaches a cancellation token, consulted by [`Budget::check`].
    pub fn with_cancel(mut self, cancel: Option<CancellationToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Attaches a byte budget, consulted by [`Budget::charge_bytes`].
    pub fn with_max_bytes(mut self, max_bytes: Option<u64>) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// Charges `rows` produced rows; errors when over budget, past the
    /// deadline, or cancelled.
    pub fn charge(&self, rows: u64) -> Result<()> {
        let total = self.produced.fetch_add(rows, Ordering::Relaxed) + rows;
        if let Some(max) = self.max_rows {
            if total > max {
                return Err(MuraError::ResourceExhausted {
                    what: "materialized rows",
                    limit: max,
                    reached: total,
                });
            }
        }
        self.check()
    }

    /// Charges an estimated `bytes` of materialized memory against both
    /// this query's byte budget and the process-wide gauge. Errors with
    /// [`MuraError::MemoryExceeded`] when the per-query budget is breached.
    pub fn charge_bytes(&self, bytes: u64) -> Result<()> {
        if bytes == 0 {
            return Ok(());
        }
        mem_gauge().add(bytes);
        let total = self.used_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if let Some(limit) = self.max_bytes {
            if total > limit {
                return Err(MuraError::MemoryExceeded { used: total, limit });
            }
        }
        Ok(())
    }

    /// Superstep preemption point: errors when past the engine deadline
    /// ([`MuraError::Timeout`]) or when the attached token was cancelled or
    /// its per-request deadline passed (`Cancelled` / `DeadlineExceeded`).
    /// Charges nothing, so loops can call it before producing any rows.
    pub fn check(&self) -> Result<()> {
        if let Some(d) = self.deadline {
            if Instant::now() > d {
                return Err(MuraError::Timeout { millis: 0 });
            }
        }
        if let Some(c) = &self.cancel {
            c.check()?;
        }
        Ok(())
    }

    /// Rows charged so far.
    pub fn produced(&self) -> u64 {
        self.produced.load(Ordering::Relaxed)
    }

    /// Estimated bytes charged so far.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes.load(Ordering::Relaxed)
    }
}

impl Drop for Budget {
    fn drop(&mut self) {
        // The query is over: release its working-set estimate from the
        // process gauge (the high-water mark is monotonic and survives).
        let bytes = *self.used_bytes.get_mut();
        if bytes > 0 {
            mem_gauge().sub(bytes);
        }
    }
}

/// Local relation operations shared by the two engines. `Send + Sync` so a
/// branch prepared once can be shared by every worker of a fixpoint.
pub trait LocalRel: Sized + Clone + Send + Sync {
    fn from_relation(r: &Relation) -> Self;
    fn into_relation(self) -> Relation;
    fn schema(&self) -> &Schema;
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool;
    fn filter_preds(&self, preds: &[Pred]) -> Result<Self>;
    fn rename_col(&self, from: Sym, to: Sym) -> Self;
    fn antiproject_cols(&self, cols: &[Sym]) -> Self;
    fn join_with(&self, other: &Self) -> Self;
    fn antijoin_with(&self, other: &Self) -> Self;
    fn union_with(&self, other: &Self) -> Self;
    fn minus_with(&self, other: &Self) -> Self;
    /// Iterates rows in the engine's native storage order.
    fn iter_rows(&self) -> impl Iterator<Item = &Row>;
    /// Builds from raw rows, deduplicating as the engine requires.
    fn from_row_vec(schema: Schema, rows: Vec<Row>) -> Self;
}

/// Compiles predicates to a positional closure over a schema.
fn compile_preds(schema: &Schema, preds: &[Pred]) -> Result<Vec<CompiledPred>> {
    let mut out = Vec::with_capacity(preds.len());
    for p in preds {
        for c in p.columns() {
            if !schema.contains(c) {
                return Err(MuraError::UnknownColumn {
                    column: c,
                    schema: schema.clone(),
                    context: "local filter",
                });
            }
        }
        out.push(match p {
            Pred::Eq(c, v) => CompiledPred::Eq(schema.position(*c).unwrap(), *v),
            Pred::Neq(c, v) => CompiledPred::Neq(schema.position(*c).unwrap(), *v),
            Pred::EqCol(a, b) => {
                CompiledPred::EqCol(schema.position(*a).unwrap(), schema.position(*b).unwrap())
            }
        });
    }
    Ok(out)
}

enum CompiledPred {
    Eq(usize, Value),
    Neq(usize, Value),
    EqCol(usize, usize),
}

impl CompiledPred {
    fn matches(&self, row: &[Value]) -> bool {
        match self {
            CompiledPred::Eq(p, v) => row[*p] == *v,
            CompiledPred::Neq(p, v) => row[*p] != *v,
            CompiledPred::EqCol(a, b) => row[*a] == row[*b],
        }
    }
}

impl LocalRel for Relation {
    fn from_relation(r: &Relation) -> Self {
        r.clone()
    }
    fn into_relation(self) -> Relation {
        self
    }
    fn schema(&self) -> &Schema {
        Relation::schema(self)
    }
    fn len(&self) -> usize {
        Relation::len(self)
    }
    fn is_empty(&self) -> bool {
        Relation::is_empty(self)
    }
    fn filter_preds(&self, preds: &[Pred]) -> Result<Self> {
        let compiled = compile_preds(Relation::schema(self), preds)?;
        Ok(self.filter(|row| compiled.iter().all(|p| p.matches(row))))
    }
    fn rename_col(&self, from: Sym, to: Sym) -> Self {
        self.rename(from, to)
    }
    fn antiproject_cols(&self, cols: &[Sym]) -> Self {
        self.antiproject(cols)
    }
    fn join_with(&self, other: &Self) -> Self {
        self.join(other)
    }
    fn antijoin_with(&self, other: &Self) -> Self {
        self.antijoin(other)
    }
    fn union_with(&self, other: &Self) -> Self {
        self.union(other)
    }
    fn minus_with(&self, other: &Self) -> Self {
        self.minus(other)
    }
    fn iter_rows(&self) -> impl Iterator<Item = &Row> {
        self.iter()
    }
    fn from_row_vec(schema: Schema, rows: Vec<Row>) -> Self {
        Relation::from_rows(schema, rows)
    }
}

impl LocalRel for SortedRelation {
    fn from_relation(r: &Relation) -> Self {
        SortedRelation::from_relation(r)
    }
    fn into_relation(self) -> Relation {
        self.to_relation()
    }
    fn schema(&self) -> &Schema {
        SortedRelation::schema(self)
    }
    fn len(&self) -> usize {
        SortedRelation::len(self)
    }
    fn is_empty(&self) -> bool {
        SortedRelation::is_empty(self)
    }
    fn filter_preds(&self, preds: &[Pred]) -> Result<Self> {
        let compiled = compile_preds(SortedRelation::schema(self), preds)?;
        Ok(self.filter(|row| compiled.iter().all(|p| p.matches(row))))
    }
    fn rename_col(&self, from: Sym, to: Sym) -> Self {
        self.rename(from, to)
    }
    fn antiproject_cols(&self, cols: &[Sym]) -> Self {
        self.antiproject(cols)
    }
    fn join_with(&self, other: &Self) -> Self {
        self.join(other)
    }
    fn antijoin_with(&self, other: &Self) -> Self {
        self.antijoin(other)
    }
    fn union_with(&self, other: &Self) -> Self {
        self.union(other)
    }
    fn minus_with(&self, other: &Self) -> Self {
        self.minus(other)
    }
    fn iter_rows(&self) -> impl Iterator<Item = &Row> {
        self.iter()
    }
    fn from_row_vec(schema: Schema, rows: Vec<Row>) -> Self {
        SortedRelation::from_rows(schema, rows)
    }
}

/// A recursive branch compiled for local execution.
///
/// Built once per fixpoint by [`prepare`] and shared by every worker:
///
/// * every `x`-free subtree is **folded** into a single pre-materialized
///   [`Prepared::Const`] before iteration starts (no per-iteration
///   re-evaluation of loop-invariant expressions);
/// * every `Join(delta-side, const-side)` carries a [`JoinIndex`] over the
///   constant side, built once and probed with the delta each iteration
///   ([`Prepared::JoinIdx`]); antijoins against a constant get the analogous
///   cached key-set ([`Prepared::AntijoinIdx`]).
pub enum Prepared<R> {
    Delta,
    /// A folded loop-invariant value, tagged with the invariant's symbol
    /// when it was prepared from a bound invariant (see [`prepare_in`]).
    Const(R, Option<Sym>),
    Filter(Vec<Pred>, Box<Prepared<R>>),
    Rename(Sym, Sym, Box<Prepared<R>>),
    AntiProject(Vec<Sym>, Box<Prepared<R>>),
    Join(Box<Prepared<R>>, Box<Prepared<R>>),
    Antijoin(Box<Prepared<R>>, Box<Prepared<R>>),
    Union(Box<Prepared<R>>, Box<Prepared<R>>),
    /// Delta-dependent subtree joined against a loop-invariant side through
    /// a cached build-side index (tagged like [`Prepared::Const`]).
    JoinIdx(Box<Prepared<R>>, JoinIndex, Option<Sym>),
    /// Delta-dependent subtree antijoined against a cached key-set; the
    /// schema is the subtree's output schema.
    AntijoinIdx(Box<Prepared<R>>, KeyIndex, Schema),
}

impl<R: LocalRel> Prepared<R> {
    /// Estimated bytes held for the whole fixpoint by this branch's cached
    /// state: build-side join/antijoin indexes plus folded constants.
    /// Charged against the byte budget once per fixpoint, right after
    /// [`prepare`], so an index build that would blow the budget fails
    /// typed before iteration starts.
    pub fn cached_bytes(&self) -> u64 {
        match self {
            Prepared::Delta => 0,
            Prepared::Const(r, _) => rel_bytes(r.len() as u64, r.schema().arity()),
            Prepared::Filter(_, t) | Prepared::Rename(_, _, t) | Prepared::AntiProject(_, t) => {
                t.cached_bytes()
            }
            Prepared::Join(a, b) | Prepared::Antijoin(a, b) | Prepared::Union(a, b) => {
                a.cached_bytes() + b.cached_bytes()
            }
            Prepared::JoinIdx(t, idx, _) => t.cached_bytes() + idx.approx_bytes(),
            Prepared::AntijoinIdx(t, idx, _) => t.cached_bytes() + idx.approx_bytes(),
        }
    }
}

impl Prepared<Relation> {
    /// Follows a change of the bound invariant `inv` (see [`prepare_in`])
    /// in place: `minus` rows leave and `plus` rows enter every cached node
    /// built from it. Returns how many nodes were updated; an invariant
    /// consumed by a node that cannot be updated (an antijoin key-set)
    /// counts zero, and the caller must rebuild instead.
    pub(crate) fn update(&mut self, inv: Sym, plus: &Relation, minus: &Relation) -> usize {
        match self {
            Prepared::Delta => 0,
            Prepared::Const(r, Some(tag)) if *tag == inv => {
                for row in minus.iter() {
                    r.remove(row);
                }
                for row in plus.iter() {
                    r.insert(row.clone());
                }
                1
            }
            Prepared::JoinIdx(t, idx, tag) => {
                let here = if *tag == Some(inv) {
                    for row in minus.iter() {
                        idx.remove(row);
                    }
                    for row in plus.iter() {
                        idx.insert(row.clone());
                    }
                    1
                } else {
                    0
                };
                here + t.update(inv, plus, minus)
            }
            Prepared::Const(..) => 0,
            Prepared::Filter(_, t)
            | Prepared::Rename(_, _, t)
            | Prepared::AntiProject(_, t)
            | Prepared::AntijoinIdx(t, _, _) => t.update(inv, plus, minus),
            Prepared::Join(a, b) | Prepared::Antijoin(a, b) | Prepared::Union(a, b) => {
                a.update(inv, plus, minus) + b.update(inv, plus, minus)
            }
        }
    }
}

/// Result of `prep`: a fully folded constant, or a delta-dependent kernel
/// with its output schema.
enum Prep<R> {
    /// A folded constant, with the symbol of the bound invariant it is.
    Const(Relation, Option<Sym>),
    Dyn(Prepared<R>, Schema),
}

/// Evaluates a constant folding step, counting it so tests can assert the
/// work happens at prepare time (once per fixpoint), not per iteration.
fn fold<R>(r: Relation) -> Prep<R> {
    kernel_stats().record_const_fold();
    Prep::Const(r, None)
}

/// Compiles a hoisted recursive branch (all `x`-free subterms are `Cst`):
/// folds loop-invariant subtrees and builds join/antijoin indexes against
/// them. `delta_schema` is the schema bound to the recursion variable.
pub fn prepare<R: LocalRel>(term: &Term, x: Sym, delta_schema: &Schema) -> Result<Prepared<R>> {
    prepare_in(term, x, delta_schema, &FxHashMap::default())
}

/// Like [`prepare`], but the branch's loop invariants may also be `Var`
/// leaves bound in `env`. Every cached node built from such an invariant
/// is tagged with its symbol, so [`Prepared::update`] can later follow a
/// change of that invariant in place.
pub(crate) fn prepare_in<R: LocalRel>(
    term: &Term,
    x: Sym,
    delta_schema: &Schema,
    env: &FxHashMap<Sym, Relation>,
) -> Result<Prepared<R>> {
    Ok(match prep(term, x, delta_schema, env)? {
        Prep::Dyn(p, _) => p,
        // A branch without the recursion variable at all: constant forever.
        Prep::Const(r, tag) => Prepared::Const(R::from_relation(&r), tag),
    })
}

fn prep<R: LocalRel>(
    term: &Term,
    x: Sym,
    delta_schema: &Schema,
    env: &FxHashMap<Sym, Relation>,
) -> Result<Prep<R>> {
    let prep = |t: &Term| prep::<R>(t, x, delta_schema, env);
    Ok(match term {
        Term::Var(v) if *v == x => Prep::Dyn(Prepared::Delta, delta_schema.clone()),
        Term::Var(v) => match env.get(v) {
            Some(r) => Prep::Const(r.clone(), Some(*v)),
            None => {
                return Err(MuraError::Other(format!(
                    "unhoisted variable {v} in local fixpoint branch"
                )))
            }
        },
        Term::Cst(r) => Prep::Const((**r).clone(), None),
        Term::Filter(ps, t) => match prep(t)? {
            Prep::Const(r, _) => fold(LocalRel::filter_preds(&r, ps)?),
            Prep::Dyn(p, s) => Prep::Dyn(Prepared::Filter(ps.clone(), Box::new(p)), s),
        },
        Term::Rename(a, b, t) => match prep(t)? {
            Prep::Const(r, _) => fold(r.rename(*a, *b)),
            Prep::Dyn(p, s) => {
                let out = s
                    .rename(*a, *b)
                    .unwrap_or_else(|| panic!("invalid rename {a:?} -> {b:?} on {s}"));
                Prep::Dyn(Prepared::Rename(*a, *b, Box::new(p)), out)
            }
        },
        Term::AntiProject(cs, t) => match prep(t)? {
            Prep::Const(r, _) => fold(r.antiproject(cs)),
            Prep::Dyn(p, s) => {
                let out = s
                    .antiproject(cs)
                    .unwrap_or_else(|| panic!("invalid antiprojection of {cs:?} on {s}"));
                Prep::Dyn(Prepared::AntiProject(cs.clone(), Box::new(p)), out)
            }
        },
        Term::Join(a, b) => {
            match (prep(a)?, prep(b)?) {
                (Prep::Const(ra, _), Prep::Const(rb, _)) => fold(ra.join(&rb)),
                // One loop-invariant side: index it once, probe with the
                // delta-dependent side each iteration.
                (Prep::Const(ra, tag), Prep::Dyn(p, s))
                | (Prep::Dyn(p, s), Prep::Const(ra, tag)) => {
                    let idx = JoinIndex::build(&s, &ra);
                    let out = idx.out_schema().clone();
                    Prep::Dyn(Prepared::JoinIdx(Box::new(p), idx, tag), out)
                }
                (Prep::Dyn(pa, sa), Prep::Dyn(pb, sb)) => {
                    let out = sa.union(&sb);
                    Prep::Dyn(Prepared::Join(Box::new(pa), Box::new(pb)), out)
                }
            }
        }
        Term::Antijoin(a, b) => {
            match (prep(a)?, prep(b)?) {
                (Prep::Const(ra, _), Prep::Const(rb, _)) => fold(ra.antijoin(&rb)),
                // Loop-invariant right side: cache its key-set.
                (Prep::Dyn(pa, sa), Prep::Const(rb, _)) => {
                    let idx = KeyIndex::build(&sa, &rb);
                    Prep::Dyn(Prepared::AntijoinIdx(Box::new(pa), idx, sa.clone()), sa)
                }
                (Prep::Const(ra, tag), Prep::Dyn(pb, _)) => {
                    let sa = ra.schema().clone();
                    let ca = Prepared::Const(R::from_relation(&ra), tag);
                    Prep::Dyn(Prepared::Antijoin(Box::new(ca), Box::new(pb)), sa)
                }
                (Prep::Dyn(pa, sa), Prep::Dyn(pb, _)) => {
                    Prep::Dyn(Prepared::Antijoin(Box::new(pa), Box::new(pb)), sa)
                }
            }
        }
        Term::Union(a, b) => match (prep(a)?, prep(b)?) {
            (Prep::Const(ra, _), Prep::Const(rb, _)) => fold(ra.union(&rb)),
            (Prep::Const(ra, tag), Prep::Dyn(p, s)) | (Prep::Dyn(p, s), Prep::Const(ra, tag)) => {
                let ca = Prepared::Const(R::from_relation(&ra), tag);
                Prep::Dyn(Prepared::Union(Box::new(ca), Box::new(p)), s)
            }
            (Prep::Dyn(pa, sa), Prep::Dyn(pb, _)) => {
                Prep::Dyn(Prepared::Union(Box::new(pa), Box::new(pb)), sa)
            }
        },
        Term::Fix(_, _) => {
            return Err(MuraError::Other(
                "nested fixpoint must be hoisted before local execution".into(),
            ))
        }
    })
}

/// Borrow-or-owned evaluation result: `Delta` and `Const` leaves evaluate to
/// borrows (zero-clone), operators to owned values. A union with an empty
/// side passes the other side through unchanged.
enum Ev<'a, R> {
    Ref(&'a R),
    Own(R),
}

impl<R: LocalRel> Ev<'_, R> {
    #[inline]
    fn get(&self) -> &R {
        match self {
            Ev::Ref(r) => r,
            Ev::Own(r) => r,
        }
    }

    #[inline]
    fn into_owned(self) -> R {
        match self {
            Ev::Ref(r) => r.clone(),
            Ev::Own(r) => r,
        }
    }
}

fn eval_prepared<'a, R: LocalRel>(p: &'a Prepared<R>, delta: &'a R) -> Result<Ev<'a, R>> {
    Ok(match p {
        Prepared::Delta => Ev::Ref(delta),
        Prepared::Const(r, _) => Ev::Ref(r),
        Prepared::Filter(ps, t) => Ev::Own(eval_prepared(t, delta)?.get().filter_preds(ps)?),
        Prepared::Rename(a, b, t) => Ev::Own(eval_prepared(t, delta)?.get().rename_col(*a, *b)),
        Prepared::AntiProject(cs, t) => {
            Ev::Own(eval_prepared(t, delta)?.get().antiproject_cols(cs))
        }
        Prepared::Join(a, b) => {
            let ea = eval_prepared(a, delta)?;
            let eb = eval_prepared(b, delta)?;
            Ev::Own(ea.get().join_with(eb.get()))
        }
        Prepared::Antijoin(a, b) => {
            let ea = eval_prepared(a, delta)?;
            let eb = eval_prepared(b, delta)?;
            Ev::Own(ea.get().antijoin_with(eb.get()))
        }
        Prepared::Union(a, b) => {
            let ea = eval_prepared(a, delta)?;
            let eb = eval_prepared(b, delta)?;
            if ea.get().is_empty() {
                eb
            } else if eb.get().is_empty() {
                ea
            } else {
                Ev::Own(ea.get().union_with(eb.get()))
            }
        }
        Prepared::JoinIdx(t, idx, _) => {
            let ev = eval_prepared(t, delta)?;
            let input = ev.get();
            let stats = kernel_stats();
            stats.record_join_probes(input.len() as u64);
            let mut rows = Vec::new();
            if !idx.is_empty() && !input.is_empty() {
                rows.reserve(input.len());
                for prow in input.iter_rows() {
                    idx.probe(prow, |row| rows.push(row));
                }
            }
            stats.record_rows_allocated(rows.len() as u64);
            Ev::Own(R::from_row_vec(idx.out_schema().clone(), rows))
        }
        Prepared::AntijoinIdx(t, idx, schema) => {
            let ev = eval_prepared(t, delta)?;
            let input = ev.get();
            let stats = kernel_stats();
            stats.record_antijoin_probes(input.len() as u64);
            let mut rows = Vec::with_capacity(input.len());
            for prow in input.iter_rows() {
                if !idx.contains(prow) {
                    rows.push(prow.clone());
                }
            }
            stats.record_rows_allocated(rows.len() as u64);
            Ev::Own(R::from_row_vec(schema.clone(), rows))
        }
    })
}

/// Applies one prepared recursive branch to a delta, yielding an owned
/// result (used by `P_async` workers and the `P_gld` driver).
pub fn eval_branch<R: LocalRel>(p: &Prepared<R>, delta: &R) -> Result<R> {
    Ok(eval_prepared(p, delta)?.into_owned())
}

/// Runs a worker-local semi-naive fixpoint (Algorithm 1) over this
/// worker's `seed` with the given engine. Prepares the branches (constant
/// folding + index builds) once, then iterates.
pub fn local_fixpoint(
    seed: &Relation,
    recs: &[Term],
    x: Sym,
    engine: LocalEngine,
    budget: &Budget,
) -> Result<Relation> {
    match engine {
        LocalEngine::SetRdd => {
            let prepared: Vec<Prepared<Relation>> =
                recs.iter().map(|r| prepare(r, x, seed.schema())).collect::<Result<_>>()?;
            budget.charge_bytes(prepared.iter().map(|p| p.cached_bytes()).sum())?;
            local_fixpoint_prepared(seed, &prepared, budget)
        }
        LocalEngine::Sorted => {
            let prepared: Vec<Prepared<SortedRelation>> =
                recs.iter().map(|r| prepare(r, x, seed.schema())).collect::<Result<_>>()?;
            budget.charge_bytes(prepared.iter().map(|p| p.cached_bytes()).sum())?;
            local_fixpoint_prepared(seed, &prepared, budget)
        }
    }
}

/// One semi-naive superstep: applies every prepared branch to `delta`,
/// subtracts `acc`, charges the budget. Returns the next `(acc, delta)`
/// pair, or `None` when the fixpoint is reached.
fn local_superstep<R: LocalRel>(
    prepared: &[Prepared<R>],
    acc: &R,
    delta: &R,
    budget: &Budget,
) -> Result<Option<(R, R)>> {
    let stats = kernel_stats();
    let start = Instant::now();
    let mut new: Option<R> = None;
    for p in prepared {
        let produced = eval_prepared(p, delta)?;
        new = Some(match new {
            None => produced.into_owned(),
            Some(n) => n.union_with(produced.get()),
        });
    }
    let new = match new {
        None => {
            stats.record_eval_time(start.elapsed());
            return Ok(None); // no recursive branch
        }
        Some(n) => n.minus_with(acc),
    };
    stats.record_eval_time(start.elapsed());
    stats.record_iteration();
    budget.charge(new.len() as u64)?;
    budget.charge_bytes(rel_bytes(new.len() as u64, new.schema().arity()))?;
    if new.is_empty() {
        return Ok(None);
    }
    Ok(Some((acc.union_with(&new), new)))
}

/// Runs the semi-naive loop over already-prepared branches. Distributed
/// callers prepare once and share the branches (and their cached indexes)
/// across all workers of the fixpoint.
pub fn local_fixpoint_prepared<R: LocalRel>(
    seed: &Relation,
    prepared: &[Prepared<R>],
    budget: &Budget,
) -> Result<Relation> {
    // Iteration-0 state is this worker's share of the accumulator: charge
    // it so a byte budget sees it, not just produced deltas.
    budget.charge_bytes(rel_bytes(seed.len() as u64, seed.schema().arity()))?;
    let mut acc = R::from_relation(seed);
    let mut delta = acc.clone();
    while !delta.is_empty() {
        budget.check()?;
        match local_superstep(prepared, &acc, &delta, budget)? {
            None => break,
            Some((a, d)) => {
                acc = a;
                delta = d;
            }
        }
    }
    Ok(acc.into_relation())
}

/// Per-worker supervision context for the `P_plw` loops: budget, fault
/// plan, fault-site coordinates and the recovery/checkpoint policy.
pub struct LoopCtx<'a> {
    /// Shared row/deadline/cancellation budget.
    pub budget: &'a Budget,
    /// The fault plan injections are drawn from.
    pub fault: &'a FaultPlan,
    /// Fault site of this fixpoint (one per fixpoint, shared by all its
    /// workers; allocated driver-side so it is deterministic).
    pub site: u64,
    /// This worker's index.
    pub worker: usize,
    /// Retry/restore policy.
    pub recovery: RecoveryPolicy,
    /// Checkpoint the local `(acc, delta, iteration)` state every this many
    /// supersteps; `0` disables checkpointing.
    pub checkpoint_every: u64,
    /// Trace sink of the query, when it records events (`None` = off).
    /// Superstep events are only recorded at
    /// [`mura_obs::TraceLevel::Superstep`]; recovery events at any level.
    pub trace: Option<&'a TraceSink>,
    /// Fixpoint id carried by this loop's trace events.
    pub fixpoint: u32,
}

/// The supervised worker-local semi-naive loop: like
/// [`local_fixpoint_prepared`], plus per-iteration fault injection, panic
/// capture, local checkpoints every [`LoopCtx::checkpoint_every`]
/// supersteps, and restore/restart recovery when an iteration fails.
pub fn local_fixpoint_supervised<R: LocalRel>(
    seed: &Relation,
    prepared: &[Prepared<R>],
    ctx: &LoopCtx<'_>,
) -> Result<Relation> {
    let steps = ctx.trace.filter(|t| t.superstep_enabled());
    if !ctx.fault.is_active() && ctx.checkpoint_every == 0 && steps.is_none() {
        return local_fixpoint_prepared(seed, prepared, ctx.budget);
    }
    ctx.budget.charge_bytes(rel_bytes(seed.len() as u64, seed.schema().arity()))?;
    let init = || -> (R, R) {
        let acc = R::from_relation(seed);
        let delta = acc.clone();
        (acc, delta)
    };
    let (acc, _) = supervise(
        ctx,
        seed.len() as u64,
        init,
        |(_, delta)| delta.is_empty(),
        |(acc, delta)| (acc.len() + delta.len()) as u64,
        |(acc, delta)| {
            Ok(local_superstep(prepared, acc, delta, ctx.budget)?.map(|(a, d)| {
                let rows = d.len() as u64;
                *acc = a;
                *delta = d;
                rows
            }))
        },
    )?;
    Ok(acc.into_relation())
}

/// The recovery supervisor shared by every worker-local loop, fresh and
/// resumed: runs `step` on the state from `init` until it reports no
/// progress (`Ok(None)`) or `done` holds (`size` measures a state for the
/// restore statistics), injecting the fault plan's
/// per-iteration faults, checkpointing every [`LoopCtx::checkpoint_every`]
/// supersteps and, when an iteration fails retryably, restoring the last
/// checkpoint or restarting from `init` (`restart_rows` is what a restart
/// recomputes, for the fault statistics).
///
/// Iteration numbers start at 1, so in-loop injection rolls never collide
/// with the task-level roll (step 0) of the cluster supervisor. Failure
/// counts per iteration persist across restores, so an afflicted iteration
/// heals after [`crate::fault::FaultConfig::failures_per_site`] failures
/// and replays always make progress.
pub(crate) fn supervise<S: Clone>(
    ctx: &LoopCtx<'_>,
    restart_rows: u64,
    init: impl Fn() -> S,
    done: impl Fn(&S) -> bool,
    size: impl Fn(&S) -> u64,
    mut step: impl FnMut(&mut S) -> Result<Option<u64>>,
) -> Result<S> {
    let steps = ctx.trace.filter(|t| t.superstep_enabled());
    // One superstep event per iteration per worker. Worker-local loops
    // never communicate, so the comm fields stay zero by construction —
    // the trace-level counterpart of the paper's claim. Kernel counters
    // are process-wide and racy across workers, so they are left zero.
    let record_step = |iteration: u64, delta_rows: u64, t_us: u64, started: &Instant| {
        if let Some(sink) = steps {
            let mut ev = TraceEvent::new(EventKind::Superstep, ctx.fixpoint, PlanKind::Plw);
            ev.worker = ctx.worker as i32;
            ev.iteration = iteration;
            ev.delta_rows = delta_rows;
            ev.t_us = t_us;
            ev.dur_us = started.elapsed().as_micros() as u64;
            sink.record(ev);
        }
    };
    let mut state = init();
    let mut iter: u64 = 0;
    let mut ckpt: Option<(S, u64)> = None;
    let mut restores: u32 = 0;
    let mut fail_counts: HashMap<u64, u32> = HashMap::new();
    while !done(&state) {
        // Fires between supersteps and after every restore, so a cancelled
        // or out-of-budget query stops recovering immediately.
        ctx.budget.check()?;
        let next = iter + 1;
        let attempt = *fail_counts.get(&next).unwrap_or(&0);
        if let Some(d) = ctx.fault.straggler_delay(ctx.site, ctx.worker, next, attempt) {
            std::thread::sleep(d);
        }
        let t_us = steps.map_or(0, |s| s.now_us());
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<Option<u64>> {
            ctx.fault.maybe_panic(ctx.site, ctx.worker, next, attempt);
            ctx.fault.maybe_transient(ctx.site, ctx.worker, next, attempt)?;
            ctx.fault.maybe_memory_pressure(ctx.site, ctx.worker, next, attempt)?;
            step(&mut state)
        }))
        .unwrap_or_else(|payload| {
            Err(MuraError::WorkerFailed {
                worker: ctx.worker,
                payload: crate::cluster::payload_text(payload.as_ref()),
            })
        });
        match outcome {
            Ok(None) => {
                record_step(next, 0, t_us, &started);
                break;
            }
            Ok(Some(rows)) => {
                record_step(next, rows, t_us, &started);
                iter = next;
                if ctx.checkpoint_every > 0 && iter.is_multiple_of(ctx.checkpoint_every) {
                    ckpt = Some((state.clone(), iter));
                    ctx.fault.record_checkpoint();
                }
            }
            Err(e) if e.is_retryable() => {
                ctx.fault.record_time_lost(started.elapsed());
                *fail_counts.entry(next).or_insert(0) += 1;
                if restores >= ctx.recovery.max_restores {
                    return Err(e);
                }
                restores += 1;
                // A failed step may have left `state` half-updated: it is
                // always replaced wholesale below.
                let recovery = match &ckpt {
                    Some((s, i)) => {
                        ctx.fault.record_restore(size(s), iter - *i);
                        state = s.clone();
                        iter = *i;
                        RecoveryKind::Restore
                    }
                    None => {
                        ctx.fault.record_full_restart(restart_rows);
                        state = init();
                        iter = 0;
                        RecoveryKind::Restart
                    }
                };
                if let Some(sink) = ctx.trace {
                    let mut ev = TraceEvent::new(EventKind::Recovery, ctx.fixpoint, PlanKind::Plw);
                    ev.worker = ctx.worker as i32;
                    ev.iteration = iter;
                    ev.recovery = recovery;
                    ev.t_us = sink.now_us();
                    sink.record(ev);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(state)
}

/// Compiles a branch the way the pre-optimization kernel did: constants are
/// converted but never folded, and joins rebuild their hash tables every
/// iteration. Kept as a differential baseline for tests and benchmarks.
pub fn prepare_reference<R: LocalRel>(term: &Term, x: Sym) -> Result<Prepared<R>> {
    Ok(match term {
        Term::Var(v) if *v == x => Prepared::Delta,
        Term::Var(v) => {
            return Err(MuraError::Other(format!(
                "unhoisted variable {v} in local fixpoint branch"
            )))
        }
        Term::Cst(r) => Prepared::Const(R::from_relation(r), None),
        Term::Filter(ps, t) => Prepared::Filter(ps.clone(), Box::new(prepare_reference(t, x)?)),
        Term::Rename(a, b, t) => Prepared::Rename(*a, *b, Box::new(prepare_reference(t, x)?)),
        Term::AntiProject(cs, t) => {
            Prepared::AntiProject(cs.clone(), Box::new(prepare_reference(t, x)?))
        }
        Term::Join(a, b) => {
            Prepared::Join(Box::new(prepare_reference(a, x)?), Box::new(prepare_reference(b, x)?))
        }
        Term::Antijoin(a, b) => Prepared::Antijoin(
            Box::new(prepare_reference(a, x)?),
            Box::new(prepare_reference(b, x)?),
        ),
        Term::Union(a, b) => {
            Prepared::Union(Box::new(prepare_reference(a, x)?), Box::new(prepare_reference(b, x)?))
        }
        Term::Fix(_, _) => {
            return Err(MuraError::Other(
                "nested fixpoint must be hoisted before local execution".into(),
            ))
        }
    })
}

fn eval_reference<R: LocalRel>(p: &Prepared<R>, delta: &R) -> Result<R> {
    Ok(match p {
        Prepared::Delta => delta.clone(),
        Prepared::Const(r, _) => r.clone(),
        Prepared::Filter(ps, t) => eval_reference(t, delta)?.filter_preds(ps)?,
        Prepared::Rename(a, b, t) => eval_reference(t, delta)?.rename_col(*a, *b),
        Prepared::AntiProject(cs, t) => eval_reference(t, delta)?.antiproject_cols(cs),
        Prepared::Join(a, b) => eval_reference(a, delta)?.join_with(&eval_reference(b, delta)?),
        Prepared::Antijoin(a, b) => {
            eval_reference(a, delta)?.antijoin_with(&eval_reference(b, delta)?)
        }
        Prepared::Union(a, b) => eval_reference(a, delta)?.union_with(&eval_reference(b, delta)?),
        Prepared::JoinIdx(..) | Prepared::AntijoinIdx(..) => {
            unreachable!("reference kernel is built by prepare_reference (no index nodes)")
        }
    })
}

/// The pre-optimization semi-naive loop: re-evaluates every constant
/// subtree and rebuilds every join table each iteration. Used only as the
/// baseline in differential tests and `BENCH_fixpoint.json`.
pub fn local_fixpoint_reference(
    seed: &Relation,
    recs: &[Term],
    x: Sym,
    engine: LocalEngine,
    budget: &Budget,
) -> Result<Relation> {
    match engine {
        LocalEngine::SetRdd => local_fixpoint_reference_typed::<Relation>(seed, recs, x, budget),
        LocalEngine::Sorted => {
            local_fixpoint_reference_typed::<SortedRelation>(seed, recs, x, budget)
        }
    }
}

fn local_fixpoint_reference_typed<R: LocalRel>(
    seed: &Relation,
    recs: &[Term],
    x: Sym,
    budget: &Budget,
) -> Result<Relation> {
    let prepared: Vec<Prepared<R>> =
        recs.iter().map(|r| prepare_reference(r, x)).collect::<Result<_>>()?;
    let mut acc = R::from_relation(seed);
    let mut delta = acc.clone();
    while !delta.is_empty() {
        budget.check()?;
        let mut new: Option<R> = None;
        for p in &prepared {
            let produced = eval_reference(p, &delta)?;
            new = Some(match new {
                None => produced,
                Some(n) => n.union_with(&produced),
            });
        }
        let new = match new {
            None => break, // no recursive branch
            Some(n) => n.minus_with(&acc),
        };
        budget.charge(new.len() as u64)?;
        budget.charge_bytes(rel_bytes(new.len() as u64, new.schema().arity()))?;
        if new.is_empty() {
            break;
        }
        acc = acc.union_with(&new);
        delta = new;
    }
    Ok(acc.into_relation())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mura_core::Database;

    fn setup() -> (Database, Relation, Vec<Term>, Sym) {
        let mut db = Database::new();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let m = db.intern("m");
        let x = db.intern("X");
        let e = Relation::from_pairs(src, dst, [(0, 1), (1, 2), (2, 3), (3, 0), (7, 8)]);
        // Hoisted step: π̃_m(ρ_dst→m(X) ⋈ ρ_src→m(Cst(E))).
        let step =
            Term::var(x).rename(dst, m).join(Term::cst(e.clone()).rename(src, m)).antiproject(m);
        (db, e, vec![step], x)
    }

    #[test]
    fn both_engines_agree_on_tc() {
        let (_db, e, recs, x) = setup();
        let budget = Budget::new(None, None);
        let hash = local_fixpoint(&e, &recs, x, LocalEngine::SetRdd, &budget).unwrap();
        let sorted = local_fixpoint(&e, &recs, x, LocalEngine::Sorted, &budget).unwrap();
        assert_eq!(hash.sorted_rows(), sorted.sorted_rows());
        // 4-cycle {0,1,2,3}: all 16 pairs, plus (7,8).
        assert_eq!(hash.len(), 17);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let (_db, e, recs, x) = setup();
        let budget = Budget::new(Some(3), None);
        let err = local_fixpoint(&e, &recs, x, LocalEngine::SetRdd, &budget).unwrap_err();
        assert!(matches!(err, MuraError::ResourceExhausted { .. }));
    }

    #[test]
    fn unhoisted_variable_rejected() {
        let (mut db, e, _, x) = setup();
        let free = db.intern("FREE");
        let recs = vec![Term::var(x).join(Term::var(free))];
        let budget = Budget::new(None, None);
        assert!(local_fixpoint(&e, &recs, x, LocalEngine::SetRdd, &budget).is_err());
    }

    #[test]
    fn no_recursive_branch_returns_seed() {
        let (_db, e, _, x) = setup();
        let budget = Budget::new(None, None);
        let out = local_fixpoint(&e, &[], x, LocalEngine::SetRdd, &budget).unwrap();
        assert_eq!(out.sorted_rows(), e.sorted_rows());
    }

    #[test]
    fn filter_inside_branch() {
        let (mut db, e, _, x) = setup();
        let src = db.intern("src");
        let dst = db.intern("dst");
        let m = db.intern("m");
        // Step filtered to never extend (src of E = 100 doesn't exist).
        let step = Term::var(x)
            .rename(dst, m)
            .join(Term::cst(e.clone()).filter_eq(src, 100i64).rename(src, m))
            .antiproject(m);
        let budget = Budget::new(None, None);
        let out = local_fixpoint(&e, &[step], x, LocalEngine::Sorted, &budget).unwrap();
        assert_eq!(out.len(), e.len());
        let _ = dst;
    }
}
