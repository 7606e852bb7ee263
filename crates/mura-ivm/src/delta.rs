//! Delta evaluation: the per-occurrence rewrites, evaluated from the
//! change outwards.
//!
//! A rewrite variant is a term whose leaves are resolved to values: the
//! *driver* (the changed rows of one occurrence, or a small frontier
//! standing in for the recursion variable), plain small relations, and
//! large values ([`Big`]: a base relation or a fixpoint total, possibly
//! with rows hidden or added to express its old value or the survivors of
//! an over-deletion). Two evaluators walk a resolved [`Node`] tree:
//!
//! * [`Eval::driven`] computes the part of the variant that depends on the
//!   driver — the multilinear delta: a union side without the driver
//!   contributes nothing, and the other side of a join is only looked up
//!   for the driver's join keys (under an antijoin's right side the
//!   driver's rows flip sign, so there they yield candidates in either
//!   direction);
//! * [`Eval::bound`] computes the variant's full value restricted to rows
//!   matching a *binding* (a relation over some of its columns), pushing
//!   the binding's values down to the leaves that supply those columns,
//!   where they become index lookups or membership tests.
//!
//! Neither ever scans a large leaf unless a subterm supplies no bound
//! column at all (a cartesian product or an unanchored constant branch).

use crate::index::{IndexStore, LeafKey};
use mura_core::eval::apply_filter;
use mura_core::fxhash::FxHashMap;
use mura_core::{
    term_key, Database, MuraError, Pred, Relation, Result, Row, Schema, Sym, Term, Value,
};

/// A large leaf value read through indexes: the union of `parts` (the
/// value indexed under `key`), without the rows of `hide`, plus the rows
/// of `extra`.
#[derive(Clone, Copy)]
pub(crate) struct Big<'a> {
    pub key: LeafKey,
    pub schema: &'a Schema,
    pub parts: &'a [Relation],
    pub hide: Option<&'a Relation>,
    pub extra: Option<&'a Relation>,
}

impl<'a> Big<'a> {
    pub fn new(key: LeafKey, schema: &'a Schema, parts: &'a [Relation]) -> Self {
        Big { key, schema, parts, hide: None, extra: None }
    }

    fn hidden(&self, row: &[Value]) -> bool {
        self.hide.is_some_and(|h| h.contains(row))
    }

    pub fn contains(&self, row: &[Value]) -> bool {
        !self.hidden(row)
            && (self.extra.is_some_and(|e| e.contains(row))
                || self.parts.iter().any(|p| p.contains(row)))
    }

    /// Row count (`hide` is always a subset of `parts`).
    fn est(&self) -> usize {
        let held = self.parts.iter().map(Relation::len).sum::<usize>();
        held.saturating_sub(self.hide.map_or(0, Relation::len))
            + self.extra.map_or(0, Relation::len)
    }
}

/// The leaves one maintenance step reads: the new database, the current
/// value of every fixpoint treated as a leaf, and the exact change of
/// every changed leaf (`plus` rows appeared, `minus` rows vanished). The
/// old value of a changed leaf is its new value without `plus` and with
/// `minus`.
pub struct Leaves<'a> {
    db: &'a Database,
    fixes: FxHashMap<u64, (&'a Schema, &'a [Relation])>,
    changes: FxHashMap<LeafKey, (&'a Relation, &'a Relation)>,
}

impl<'a> Leaves<'a> {
    /// The leaves of `db` (the database after the batch), with the
    /// changes of `batch` (normalized and applied).
    pub fn new(db: &'a Database, batch: &'a crate::DeltaBatch) -> Self {
        let changes = batch
            .rels
            .iter()
            .filter(|(_, d)| !d.is_empty())
            .map(|(r, d)| (LeafKey::Rel(*r), (&d.insert, &d.delete)))
            .collect();
        Leaves { db, fixes: FxHashMap::default(), changes }
    }

    /// Makes the fixpoint with key `key` a leaf whose current value is the
    /// union of `parts`.
    pub fn fix(&mut self, key: u64, schema: &'a Schema, parts: &'a [Relation]) {
        self.fixes.insert(key, (schema, parts));
    }

    /// Records the exact change of fixpoint leaf `key` (its value passed
    /// to [`Leaves::fix`] must already be the new one).
    pub fn fix_change(&mut self, key: u64, plus: &'a Relation, minus: &'a Relation) {
        if !(plus.is_empty() && minus.is_empty()) {
            self.changes.insert(LeafKey::Fix(key), (plus, minus));
        }
    }

    /// The leaf a term node stands for, if it is one: a base relation or a
    /// fixpoint registered with [`Leaves::fix`].
    fn leaf_key(&self, t: &Term) -> Option<LeafKey> {
        match t {
            Term::Var(v) => Some(LeafKey::Rel(*v)),
            Term::Fix(..) => {
                let k = term_key(t);
                self.fixes.contains_key(&k).then_some(LeafKey::Fix(k))
            }
            _ => None,
        }
    }

    fn value(&self, key: LeafKey) -> Result<Big<'a>> {
        match key {
            LeafKey::Rel(r) => {
                let rel = self.db.relation(r).ok_or(MuraError::UnboundVariable(r))?;
                Ok(Big::new(key, rel.schema(), std::slice::from_ref(rel)))
            }
            LeafKey::Fix(k) => {
                let (schema, parts) = self.fixes[&k];
                Ok(Big::new(key, schema, parts))
            }
        }
    }

    pub(crate) fn change(&self, key: LeafKey) -> Option<(&'a Relation, &'a Relation)> {
        self.changes.get(&key).copied()
    }

    /// Number of occurrences of changed leaves in `t`, in the order
    /// [`Leaves::build`] numbers them. `x` is the recursion variable (never
    /// a changed leaf).
    pub(crate) fn changed_occurrences(&self, t: &Term, x: Option<Sym>) -> usize {
        match t {
            Term::Var(v) if Some(*v) == x => 0,
            Term::Var(_) | Term::Fix(..) if self.leaf_key(t).is_some() => {
                usize::from(self.changes.contains_key(&self.leaf_key(t).unwrap()))
            }
            Term::Fix(_, body) => self.changed_occurrences(body, x),
            _ => t.children().iter().map(|c| self.changed_occurrences(c, x)).sum(),
        }
    }

    /// True when a changed leaf occurs under the right-hand side of an
    /// antijoin in `t`: the term is not monotone in the change.
    pub(crate) fn changed_under_antijoin_rhs(&self, t: &Term, x: Option<Sym>) -> bool {
        match t {
            Term::Antijoin(a, b) => {
                self.changed_occurrences(b, x) > 0
                    || self.changed_under_antijoin_rhs(a, x)
                    || self.changed_under_antijoin_rhs(b, x)
            }
            _ if self.leaf_key(t).is_some() => false,
            _ => t.children().iter().any(|c| self.changed_under_antijoin_rhs(c, x)),
        }
    }

    /// Resolves `t` into a rewrite variant (see [`Variant`]).
    pub(crate) fn build(&self, t: &Term, v: &Variant<'a>) -> Result<Node<'a>> {
        self.build_at(t, v, &mut 0)
    }

    fn build_at(&self, t: &Term, v: &Variant<'a>, occ: &mut usize) -> Result<Node<'a>> {
        let mut sub = |c: &Term| self.build_at(c, v, occ).map(Box::new);
        let (schema, kind) =
            match t {
                Term::Var(x) if v.x.as_ref().is_some_and(|(s, _)| s == x) => {
                    let src = v.x.as_ref().map(|(_, src)| src.clone()).expect("checked above");
                    (src.schema().clone(), Kind::Leaf(src))
                }
                Term::Var(_) | Term::Fix(..) if self.leaf_key(t).is_some() => {
                    let key = self.leaf_key(t).expect("checked above");
                    let new = self.value(key)?;
                    let src = match self.change(key) {
                        None => Src::Big(new),
                        Some((plus, minus)) => {
                            let i = *occ;
                            *occ += 1;
                            match v.pick {
                                Some((k, side)) if k == i => Src::Driver(match side {
                                    Side::Plus => plus.clone(),
                                    Side::Minus => minus.clone(),
                                }),
                                _ if v.world == World::Old => {
                                    Src::Big(Big { hide: Some(plus), extra: Some(minus), ..new })
                                }
                                _ => Src::Big(new),
                            }
                        }
                    };
                    (src.schema().clone(), Kind::Leaf(src))
                }
                Term::Var(r) => return Err(MuraError::UnboundVariable(*r)),
                Term::Fix(..) => {
                    return Err(MuraError::Other(
                        "maintenance reached a fixpoint without resident state".into(),
                    ))
                }
                Term::Cst(r) => (r.schema().clone(), Kind::Leaf(Src::Plain((**r).clone()))),
                Term::Filter(ps, c) => {
                    let c = sub(c)?;
                    (c.schema.clone(), Kind::Filter(ps.clone(), c))
                }
                Term::Rename(a, b, c) => {
                    let c = sub(c)?;
                    let schema = c.schema.rename(*a, *b).ok_or_else(|| {
                        MuraError::RenameCollision { from: *a, to: *b, schema: c.schema.clone() }
                    })?;
                    (schema, Kind::Rename(*a, *b, c))
                }
                Term::AntiProject(cs, c) => {
                    let c = sub(c)?;
                    let schema = c.schema.antiproject(cs).ok_or_else(|| {
                        MuraError::Other("antiprojection of a missing column".into())
                    })?;
                    (schema, Kind::AntiProject(cs.clone(), c))
                }
                Term::Join(a, b) => {
                    let (a, b) = (sub(a)?, sub(b)?);
                    (a.schema.union(&b.schema), Kind::Join(a, b))
                }
                Term::Antijoin(a, b) => {
                    let (a, b) = (sub(a)?, sub(b)?);
                    (a.schema.clone(), Kind::Antijoin(a, b))
                }
                Term::Union(a, b) => {
                    let (a, b) = (sub(a)?, sub(b)?);
                    if a.schema != b.schema {
                        return Err(MuraError::SchemaMismatch {
                            left: a.schema.clone(),
                            right: b.schema.clone(),
                            context: "maintained union",
                        });
                    }
                    (a.schema.clone(), Kind::Union(a, b))
                }
            };
        Ok(Node::new(schema, kind))
    }
}

/// Which world the non-driving changed leaves of a variant read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum World {
    Old,
    New,
}

/// Which side of a change drives a variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    Plus,
    Minus,
}

/// How [`Leaves::build`] resolves leaves: changed-leaf occurrence `k` of
/// `pick` becomes the driver, the other changed leaves read `world`, and
/// the recursion variable (if any) is bound to the given value.
pub(crate) struct Variant<'a> {
    pub world: World,
    pub pick: Option<(usize, Side)>,
    pub x: Option<(Sym, Src<'a>)>,
}

/// A resolved leaf.
#[derive(Clone)]
pub(crate) enum Src<'a> {
    /// The rows the variant's delta is taken with respect to.
    Driver(Relation),
    /// A small constant, read in full.
    Plain(Relation),
    /// A large value, read through lookups.
    Big(Big<'a>),
}

impl Src<'_> {
    fn schema(&self) -> &Schema {
        match self {
            Src::Driver(r) | Src::Plain(r) => r.schema(),
            Src::Big(b) => b.schema,
        }
    }
}

pub(crate) struct Node<'a> {
    schema: Schema,
    kind: Kind<'a>,
    /// Contains the driver.
    drives: bool,
    /// Rough size, to order join sides.
    est: usize,
}

enum Kind<'a> {
    Leaf(Src<'a>),
    Filter(Vec<Pred>, Box<Node<'a>>),
    Rename(Sym, Sym, Box<Node<'a>>),
    AntiProject(Vec<Sym>, Box<Node<'a>>),
    Join(Box<Node<'a>>, Box<Node<'a>>),
    Antijoin(Box<Node<'a>>, Box<Node<'a>>),
    Union(Box<Node<'a>>, Box<Node<'a>>),
}

impl<'a> Node<'a> {
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    fn new(schema: Schema, kind: Kind<'a>) -> Self {
        let (drives, est) = match &kind {
            Kind::Leaf(Src::Driver(r)) => (true, r.len()),
            Kind::Leaf(Src::Plain(r)) => (false, r.len()),
            Kind::Leaf(Src::Big(b)) => (false, b.est()),
            Kind::Filter(_, c) | Kind::Rename(_, _, c) | Kind::AntiProject(_, c) => {
                (c.drives, c.est)
            }
            Kind::Join(a, b) => (a.drives || b.drives, a.est.min(b.est)),
            Kind::Antijoin(a, b) => (a.drives || b.drives, a.est),
            Kind::Union(a, b) => (a.drives || b.drives, a.est + b.est),
        };
        Node { schema, kind, drives, est }
    }
}

/// `rel` restricted to the columns `cols` (a subset of its schema), or
/// `None` when `cols` is empty (no restriction to push).
fn project(rel: &Relation, cols: &[Sym]) -> Option<Relation> {
    if cols.is_empty() {
        return None;
    }
    let drop: Vec<Sym> =
        rel.schema().columns().iter().copied().filter(|c| !cols.contains(c)).collect();
    Some(if drop.is_empty() { rel.clone() } else { rel.antiproject(&drop) })
}

/// Rows of `rel` whose projection on `binding`'s columns is in `binding`.
fn semijoin(rel: &Relation, binding: &Relation) -> Relation {
    if rel.schema() == binding.schema() {
        return rel.filter(|row| binding.contains(row));
    }
    let pos: Vec<usize> =
        binding.schema().columns().iter().map(|c| rel.schema().position(*c).unwrap()).collect();
    let mut out = Relation::new(rel.schema().clone());
    let mut key: Vec<Value> = Vec::with_capacity(pos.len());
    for row in rel.iter() {
        key.clear();
        key.extend(pos.iter().map(|&p| row[p]));
        if binding.contains(&key) {
            out.insert(row.clone());
        }
    }
    out
}

/// Evaluates resolved variants against an [`IndexStore`], counting the
/// rows every step produces.
pub(crate) struct Eval<'s> {
    pub store: &'s mut IndexStore,
    pub touched: u64,
}

impl Eval<'_> {
    fn count(&mut self, r: Relation) -> Relation {
        self.touched += r.len() as u64;
        r
    }

    /// The part of `n`'s value derivable from its driver (see the module
    /// docs). Empty when `n` holds no driver.
    pub fn driven(&mut self, n: &Node<'_>) -> Result<Relation> {
        if !n.drives {
            return Ok(Relation::new(n.schema.clone()));
        }
        let out = match &n.kind {
            Kind::Leaf(Src::Driver(r)) => r.clone(),
            Kind::Leaf(_) => unreachable!("only driver leaves drive"),
            Kind::Filter(ps, c) => apply_filter(&self.driven(c)?, ps)?,
            Kind::Rename(a, b, c) => self.driven(c)?.rename(*a, *b),
            Kind::AntiProject(cs, c) => self.driven(c)?.antiproject(cs),
            Kind::Union(a, b) => self.driven(a)?.union(&self.driven(b)?),
            Kind::Join(a, b) => {
                let (d, o) = match (a.drives, b.drives) {
                    (true, false) => (a, b),
                    (false, true) => (b, a),
                    _ => return Err(MuraError::Other("variant with two drivers".into())),
                };
                let rd = self.driven(d)?;
                if rd.is_empty() {
                    return Ok(Relation::new(n.schema.clone()));
                }
                let common = d.schema.intersection(&o.schema);
                let ro = self.bound(o, project(&rd, &common).as_ref())?;
                rd.join(&ro)
            }
            Kind::Antijoin(a, b) if b.drives => {
                // A change of the right side flips sign: the rows it gains
                // remove the left rows with their keys, the rows it loses
                // admit them. Either way those left rows are candidates,
                // which the caller checks in both worlds.
                let rb = self.driven(b)?;
                if rb.is_empty() {
                    return Ok(Relation::new(n.schema.clone()));
                }
                let common = a.schema.intersection(&b.schema);
                self.bound(a, project(&rb, &common).as_ref())?
            }
            Kind::Antijoin(a, b) => {
                let ra = self.driven(a)?;
                let common = a.schema.intersection(&b.schema);
                let rb = self.bound(b, project(&ra, &common).as_ref())?;
                ra.antijoin(&rb)
            }
        };
        Ok(self.count(out))
    }

    /// `n`'s full value restricted to rows matching `binding` (whose
    /// columns are a subset of `n`'s); `None` restricts nothing.
    pub fn bound(&mut self, n: &Node<'_>, binding: Option<&Relation>) -> Result<Relation> {
        let out = match &n.kind {
            Kind::Leaf(Src::Driver(r) | Src::Plain(r)) => match binding {
                Some(b) => semijoin(r, b),
                None => r.clone(),
            },
            Kind::Leaf(Src::Big(big)) => self.lookup(big, binding),
            Kind::Filter(ps, c) => {
                // A filter's equality constants restrict its input too.
                let extended = eq_binding(ps, binding);
                apply_filter(&self.bound(c, extended.as_ref().or(binding))?, ps)?
            }
            Kind::Rename(a, b, c) => {
                let inner =
                    binding.map(
                        |r| if r.schema().contains(*b) { r.rename(*b, *a) } else { r.clone() },
                    );
                self.bound(c, inner.as_ref())?.rename(*a, *b)
            }
            Kind::AntiProject(cs, c) => self.bound(c, binding)?.antiproject(cs),
            Kind::Union(a, b) => self.bound(a, binding)?.union(&self.bound(b, binding)?),
            Kind::Join(a, b) => self.bound_join(n, a, b, binding)?,
            Kind::Antijoin(a, b) => {
                let ra = self.bound(a, binding)?;
                let common = a.schema.intersection(&b.schema);
                let rb = if ra.is_empty() {
                    Relation::new(b.schema.clone())
                } else {
                    self.bound(b, project(&ra, &common).as_ref())?
                };
                ra.antijoin(&rb)
            }
        };
        Ok(self.count(out))
    }

    /// Join under a binding: evaluate the side the binding restricts most
    /// (the smaller one on a tie) first, then look the other side up by
    /// the join keys it produced together with the binding's own columns.
    fn bound_join(
        &mut self,
        n: &Node<'_>,
        a: &Node<'_>,
        b: &Node<'_>,
        binding: Option<&Relation>,
    ) -> Result<Relation> {
        let cols = |side: &Node<'_>| -> Vec<Sym> {
            binding.map_or(Vec::new(), |r| side.schema.intersection(r.schema()))
        };
        let (ca, cb) = (cols(a), cols(b));
        // A side no smaller than the binding is cheaper to read in full
        // than to look up key by key — and an empty side ends the join.
        let small = binding.map_or(0, Relation::len);
        let a_first = match (ca.is_empty(), cb.is_empty()) {
            (false, true) => b.est > small,
            (true, false) => a.est <= small,
            _ => a.est <= b.est,
        };
        let (first, second, cfirst, csecond) =
            if a_first { (a, b, ca, cb) } else { (b, a, cb, ca) };
        let r1 = self.bound(first, binding.and_then(|r| project(r, &cfirst)).as_ref())?;
        if r1.is_empty() {
            return Ok(Relation::new(n.schema.clone()));
        }
        let common = first.schema.intersection(&second.schema);
        let b2 = match binding {
            // Correlate the binding with the first side's rows on the
            // columns they share, then keep what the second side supplies.
            // (Sharing none, correlating would be a cartesian product: the
            // final semijoin applies the binding instead.)
            Some(r) if !cfirst.is_empty() && !csecond.is_empty() => {
                project(&r1.join(r), &union_cols(&common, &csecond))
            }
            _ => project(&r1, &common),
        };
        let r2 = self.bound(second, b2.as_ref())?;
        let out = r1.join(&r2);
        Ok(match binding {
            Some(r) => semijoin(&out, r),
            None => out,
        })
    }

    /// Rows of a large leaf matching `binding`: membership tests when the
    /// binding covers every column, index lookups when it covers some,
    /// a scan when it covers none.
    fn lookup(&mut self, big: &Big<'_>, binding: Option<&Relation>) -> Relation {
        let mut out = Relation::new(big.schema.clone());
        let Some(b) = binding else {
            for part in big.parts {
                for row in part.iter() {
                    if !big.hidden(row) {
                        out.insert(row.clone());
                    }
                }
            }
            if let Some(extra) = big.extra {
                out.absorb(extra.clone());
            }
            return out;
        };
        if b.schema() == big.schema {
            return b.filter(|row| big.contains(row));
        }
        let pos: Vec<usize> =
            b.schema().columns().iter().map(|c| big.schema.position(*c).unwrap()).collect();
        self.store.matches(big.key, big.parts, &pos, b.iter(), |row| {
            if !big.hidden(row) {
                out.insert(row.clone());
            }
        });
        if let Some(extra) = big.extra {
            out.absorb(semijoin(extra, b));
        }
        out
    }
}

fn union_cols(a: &[Sym], b: &[Sym]) -> Vec<Sym> {
    let mut out = a.to_vec();
    out.extend(b.iter().filter(|c| !a.contains(c)));
    out
}

/// `binding` extended by a filter's equality constants on columns it does
/// not bind (a one-row binding of just the constants when there is none);
/// `None` when the filter adds nothing.
fn eq_binding(ps: &[Pred], binding: Option<&Relation>) -> Option<Relation> {
    let mut consts: Vec<(Sym, Value)> = Vec::new();
    for p in ps {
        if let Pred::Eq(c, v) = p {
            let bound = binding.is_some_and(|b| b.schema().contains(*c));
            if !bound && !consts.iter().any(|(k, _)| k == c) {
                consts.push((*c, *v));
            }
        }
    }
    if consts.is_empty() {
        return None;
    }
    let schema = Schema::new(consts.iter().map(|(c, _)| *c).collect());
    let row: Row = schema
        .columns()
        .iter()
        .map(|c| consts.iter().find(|(k, _)| k == c).expect("column from consts").1)
        .collect();
    let consts = Relation::from_rows(schema, [row]);
    Some(match binding {
        Some(b) => b.join(&consts),
        None => consts,
    })
}
