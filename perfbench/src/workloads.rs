//! The four workloads.
//!
//! Each one builds a fixed graph and a request stream drawn from the seed,
//! sets up several times (`setup_s` is the median), runs a closed loop for
//! the requested seconds and checks answers against centralized evaluation
//! outside the timed window. Every cluster runs `WORKERS` workers.

use crate::layers::{Exec, FrontEnd, SpanLog, Traced, Window};
use crate::stats::{canonical, median, peak_rss_mb, ratio, Latencies, Report};
use crate::Args;
use mura_core::{Database, Relation, Value};
use mura_datagen::{SplitMix64, Zipf};
use mura_dist::{ExecConfig, QueryEngine, QueryOutput};
use mura_serve::{ClusterMode, DeltaBatch, ServeConfig, Server, SyncPolicy};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workers per cluster execution, in-process or as processes.
pub const WORKERS: usize = 2;
/// Set-ups per run: at least `MIN_SETUPS`, more while they have taken less
/// than `SETUP_BUDGET` in all, up to `MAX_SETUPS`; `setup_s` is their
/// median. Cheap set-ups take milliseconds, so their median needs more
/// samples to hold still from run to run.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Seed of the graphs of the closure and mutation workloads. The graph is
/// fixed so that runs compare: its closures sit near the percolation
/// threshold, where their sizes swing by tens of percent from one graph
/// seed to the next. The run seed drives the request streams instead.
const GRAPH_SEED: u64 = 1;

pub fn run(args: &Args) -> Result<Report, String> {
    let scratch = Scratch::new()?;
    match args.workload.as_str() {
        "closure_cold" => closure(args, false),
        "closure_proc" => closure(args, true),
        "anchored_serve" => anchored(args),
        "mutate_views" => mutate(args, &scratch),
        w => Err(format!("unknown workload {w}")),
    }
}

/// Per-run scratch directory inside the working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    const ROOT: &'static str = ".perfbench-tmp";

    fn new() -> Result<Scratch, String> {
        let dir = PathBuf::from(Self::ROOT).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// A fresh, empty directory for set-up `i`.
    fn fresh(&self, i: usize) -> Result<PathBuf, String> {
        let dir = self.0.join(format!("setup-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(Self::ROOT); // only if no other run uses it
    }
}

/// The median time of a run's set-ups, and how many there were.
struct Setup {
    median_s: f64,
    count: usize,
}

/// Runs `make` as often as the set-up rule above says, tearing each
/// fixture down (server shut down, worker processes reaped) before the
/// next, and keeps the last.
fn timed_setups<T>(mut make: impl FnMut(usize) -> Result<T, String>) -> Result<(T, Setup), String> {
    let mut secs = Vec::with_capacity(MAX_SETUPS);
    let mut last = None;
    let started = Instant::now();
    while secs.len() < MIN_SETUPS || (started.elapsed() < SETUP_BUDGET && secs.len() < MAX_SETUPS) {
        drop(last.take());
        let t = Instant::now();
        last = Some(make(secs.len())?);
        secs.push(t.elapsed().as_secs_f64());
    }
    eprintln!("perfbench: {} set-ups done ({secs:.4?} s)", secs.len());
    let setup = Setup { median_s: median(&secs), count: secs.len() };
    Ok((last.expect("at least one set-up"), setup))
}

fn engine(db: Database) -> QueryEngine {
    QueryEngine::with_config(db, ExecConfig { workers: WORKERS, ..ExecConfig::default() })
}

fn start(db: Database, config: ServeConfig) -> Result<Server, String> {
    Server::try_start(engine(db), config).map_err(|e| format!("start server: {e}"))
}

/// The `mura-worker` binary: `MURA_WORKER_BIN`, else a sibling of this
/// executable. Missing is a set-up error, never a skipped workload.
fn worker_bin() -> Result<PathBuf, String> {
    let path = match std::env::var("MURA_WORKER_BIN") {
        Ok(p) if !p.is_empty() => PathBuf::from(p),
        _ => std::env::current_exe()
            .map_err(|e| format!("locate this executable: {e}"))?
            .with_file_name("mura-worker"),
    };
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "closure_proc needs the worker binary at {}; build it with \
             `cargo build --release -p mura-dist --bin mura-worker` next to perfbench \
             or set MURA_WORKER_BIN",
            path.display()
        ))
    }
}

/// Labelled Erdős–Rényi graph (labels `a1`, `a2`) with constant `C` bound
/// to a node that starts an `a1` path and ends an `a2` path, so both
/// anchored closure variants have answers: the node maximising
/// `min(a1 out-degree, a2 in-degree)`, then degree, then lowest id.
fn labelled_er(n: u64, p: f64, seed: u64) -> Database {
    let g = mura_bench::labeled_rnd_graph(n, p, 2, seed);
    let a1 = g.labels.iter().position(|l| l == "a1").map(|i| i as u32);
    let mut out_a1 = vec![0u32; n as usize];
    let mut in_other = vec![0u32; n as usize];
    for &(s, l, d) in &g.edges {
        if Some(l) == a1 {
            out_a1[s as usize] += 1;
        } else {
            in_other[d as usize] += 1;
        }
    }
    let key = |v: u64| {
        let (o, i) = (out_a1[v as usize], in_other[v as usize]);
        (o.min(i), o + i, std::cmp::Reverse(v))
    };
    let hub = (0..n).max_by_key(|&v| key(v)).unwrap_or(0);
    let mut db = g.to_database();
    db.bind_constant("C", Value::node(hub));
    db
}

/// Centralized evaluation of the unoptimised translation of `query`.
fn expected(db: &Database, query: &str) -> Result<Vec<Vec<Value>>, String> {
    let mut db = db.clone();
    let q = mura_ucrpq::parse_ucrpq(query).map_err(|e| format!("parse {query}: {e}"))?;
    let term = mura_ucrpq::to_mura(&q, &mut db).map_err(|e| format!("translate {query}: {e}"))?;
    let rel = mura_core::eval(&term, &db).map_err(|e| format!("eval {query}: {e}"))?;
    Ok(canonical(&rel, &db))
}

/// Nodes reachable from constant `from` by one or more `labels` edges, as
/// single-column canonical rows.
fn reachable(db: &Database, from: &str, labels: &[&str]) -> Result<Vec<Vec<Value>>, String> {
    let start = db.constant(from).ok_or_else(|| format!("no constant {from}"))?;
    let (src, dst) = (db.dict().lookup("src"), db.dict().lookup("dst"));
    let mut succ: HashMap<Value, Vec<Value>> = HashMap::new();
    for l in labels {
        let r = db.relation_by_name(l).ok_or_else(|| format!("no relation {l}"))?;
        let pos = |c: Option<mura_core::Sym>| {
            c.and_then(|c| r.schema().position(c)).ok_or("edge columns src/dst")
        };
        let (ps, pd) = (pos(src)?, pos(dst)?);
        for row in r.iter() {
            succ.entry(row[ps]).or_default().push(row[pd]);
        }
    }
    let mut seen = HashSet::new();
    let mut frontier = vec![start];
    while let Some(v) = frontier.pop() {
        for &w in succ.get(&v).into_iter().flatten() {
            if seen.insert(w) {
                frontier.push(w);
            }
        }
    }
    let mut rows: Vec<Vec<Value>> = seen.into_iter().map(|v| vec![v]).collect();
    rows.sort_unstable();
    Ok(rows)
}

/// Where a traced run writes its spans.
fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(".perfbench-out").join(format!("spans-{}-{}.jsonl", args.workload, args.seed))
}

fn served(server: &Server, rel: &Relation) -> Vec<Vec<Value>> {
    server.with_db(|db| canonical(rel, db))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// End-to-end metrics shared by every workload. `ops` are the timed
/// operations; `comm_rows` is the rows shuffled plus broadcast by
/// `executions` executed (non-cache-hit) evaluations; `failed` of the
/// report's `attempted` requests failed or answered wrongly.
struct EndToEnd<'a> {
    setup: Setup,
    ops: &'a Latencies,
    window: Duration,
    comm_rows: f64,
    executions: f64,
    rss_mb: f64,
    steal_share: f64,
}

impl EndToEnd<'_> {
    fn per_s(&self) -> f64 {
        self.ops.ms.iter().filter(|v| v.is_finite()).count() as f64 / self.window.as_secs_f64()
    }

    fn report(&self, r: &mut Report) {
        let (tail, _, _) = self.ops.tail();
        r.metric("setup_s", self.setup.median_s, "s");
        r.metric("p50_ms", self.ops.p50(), "ms");
        r.metric("tail_ms", tail, "ms");
        r.metric("ops_per_s", self.per_s(), "1/s");
        r.metric("comm_rows_per_op", ratio(self.comm_rows, self.executions), "rows");
        r.metric("ok_ratio", 1.0 - ratio(r.failed as f64, r.attempted as f64), "ratio");
        r.metric("peak_rss_mb", self.rss_mb, "MiB");
    }

    /// Readable lines with the metric names of the workload's operation
    /// class (`query_*` or `mutation_*`).
    fn notes(&self, class: &str, r: &mut Report) {
        let (tail, pct, n) = self.ops.tail();
        let per = if class == "query" { "queries_per_s" } else { "mutations_per_s" };
        let failed_ratio = ratio(r.failed as f64, r.attempted as f64);
        r.notes.extend([
            format!(
                "  setup_s {:.4} s (median of {} set-ups)",
                self.setup.median_s, self.setup.count
            ),
            format!("  {class}_p50_ms {:.3} ms", self.ops.p50()),
            format!("  {class}_tail_ms {tail:.3} ms (p{pct:.1}, {n} samples)"),
            format!("  {per} {:.3} 1/s", self.per_s()),
            format!(
                "  comm_rows_per_query {:.1} rows ({} executions)",
                ratio(self.comm_rows, self.executions),
                self.executions
            ),
            format!("  failed_ratio {failed_ratio:.4} ({} of {})", r.failed, r.attempted),
            format!("  peak_rss_mb {:.1} MiB", self.rss_mb),
            format!(
                "  host steal {:.1}% of CPU time in the window (other guests; high = disturbed run)",
                100.0 * self.steal_share
            ),
        ]);
    }
}

fn new_report(args: &Args) -> Report {
    Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: vec![format!(
            "perfbench {} seed {} seconds {} trace {}",
            args.workload, args.seed, args.seconds, args.trace as u8
        )],
    }
}

// ---------------------------------------------------------------------------
// closure_cold / closure_proc

/// C1 (`P_plw`), C4, C6 (`P_gld`) and the two anchored C6 variants.
const CLOSURE_QUERIES: [&str; 5] = [
    "?x, ?y <- ?x a1+ ?y",
    "?x, ?y <- ?x a2/a1+ ?y",
    "?x, ?y <- ?x a1+/a2+ ?y",
    "?x <- ?x a1+/a2+ C",
    "?y <- C a1+/a2+ ?y",
];

/// Fewest whole cycles per run (see the timed loop).
const MIN_CYCLES: usize = 11;

/// `closure_cold` / `closure_proc`: one client, result cache off, so every
/// query executes and the kernel, the executor and communication carry
/// the time; `procs` moves the cluster onto worker processes, adding
/// encode, socket, CRC and decode on every exchange.
fn closure(args: &Args, procs: bool) -> Result<Report, String> {
    let worker_bin = if procs { Some(worker_bin()?) } else { None };
    let (server, setup) = timed_setups(|_| {
        let db = labelled_er(10_000, 3.2e-4, GRAPH_SEED);
        let cluster = if procs {
            ClusterMode::Processes { workers: WORKERS }
        } else {
            ClusterMode::InProcess
        };
        let config = ServeConfig {
            result_cache: 0,
            cluster,
            worker_bin: worker_bin.clone(),
            ..ServeConfig::default()
        };
        start(db, config)
    })?;
    let client = server.client();
    let mut report = new_report(args);

    // Untimed warm-up: a query's first execution records planner feedback
    // and its second may re-plan, so two passes settle every plan.
    let t = Instant::now();
    let mut warm = Vec::new();
    for pass in 0..2 {
        for q in CLOSURE_QUERIES {
            let out = client.query(q).map_err(|e| format!("warm-up {q}: {e}"))?;
            if pass == 1 {
                warm.push(out);
            }
        }
    }
    let cycle = t.elapsed() / 2;
    let sizes: Vec<usize> = warm.iter().map(|o| o.relation.len()).collect();

    // Whole cycles only, each in an order drawn from the seed, so every run
    // holds each query equally often. A cycle starts only if it is
    // expected to end inside the window, except that a run makes at least
    // `MIN_CYCLES` of them: then the slowest query alone has eleven
    // samples, and the tail (ten samples beyond it) always falls among
    // them rather than jumping between query classes as the count varies.
    let mut rng = SplitMix64::seed_from_u64(args.seed);
    let mut order: Vec<usize> = (0..CLOSURE_QUERIES.len()).collect();
    let mut per_query = vec![Vec::new(); CLOSURE_QUERIES.len()];
    let mut cycles = 0;
    let mut ops = Latencies::default();
    let mut wrong = 0u64;
    let mut errors = 0u64;
    let mut exec = Exec::default();
    let budget = Duration::from_secs(args.seconds);
    let win = Window::open(&server);
    let mut spans = win.spans();
    loop {
        for k in (1..order.len()).rev() {
            order.swap(k, rng.gen_range(0..=k as u64) as usize);
        }
        for &i in &order {
            let q = CLOSURE_QUERIES[i];
            let t = Instant::now();
            let res = if args.trace { client.profile(q) } else { client.query(q) };
            let end = Instant::now();
            let lat = ms(end - t);
            if args.trace {
                spans.record("client.profile", ops.len(), t, end);
            }
            match res {
                Ok(out) if out.relation.len() == sizes[i] => {
                    ops.push(lat);
                    per_query[i].push(lat);
                    if args.trace {
                        exec.add(&out, q);
                    }
                }
                Ok(_) => {
                    wrong += 1;
                    ops.push(f64::INFINITY);
                }
                Err(_) => {
                    errors += 1;
                    ops.push(f64::INFINITY);
                }
            }
        }
        cycles += 1;
        if cycles >= MIN_CYCLES && win.elapsed() + cycle > budget {
            break;
        }
    }
    let (window, after) = win.close(&server);
    let rss_mb = peak_rss_mb();

    // Answers: each query's warm-up answer against centralized evaluation;
    // every timed answer was checked against that answer's size.
    let answers: Vec<Vec<Vec<Value>>> = warm.iter().map(|o| served(&server, &o.relation)).collect();
    let db = server.with_db(Database::clone);
    let (respawns, reconnects) = {
        let s = server.stats();
        (s.cluster_respawns, s.cluster_reconnects)
    };
    let mut front = Vec::new();
    if args.trace {
        for (i, q) in CLOSURE_QUERIES.iter().enumerate() {
            front.push(FrontEnd::measure(&db, q, &mut spans, ops.len() + i)?);
        }
    }
    drop(client);
    server.shutdown();
    for (q, got) in CLOSURE_QUERIES.iter().zip(&answers) {
        if *got != expected(&db, q)? {
            report.notes.push(format!("  WRONG answer: {q}"));
            wrong += 1;
        }
    }

    let failed = wrong + errors;
    let d = after.since(&win.before);
    let executions = ops.len() as f64 - failed as f64 - d.stats.result_hits as f64;
    let e2e = EndToEnd {
        setup,
        ops: &ops,
        window,
        comm_rows: (d.stats.comm_rows_shuffled + d.stats.comm_rows_broadcast) as f64,
        executions,
        rss_mb,
        steal_share: d.steal_share,
    };
    report.correct = wrong == 0;
    report.attempted = ops.len() as u64;
    report.failed = failed;
    report.notes.push(format!(
        "  {} queries in {:.2} s ({cycles} cycles of {}), answer sizes {:?}",
        ops.len(),
        window.as_secs_f64(),
        CLOSURE_QUERIES.len(),
        sizes
    ));
    for (q, lat) in CLOSURE_QUERIES.iter().zip(&per_query) {
        report.notes.push(format!("    {q}: p50 {:.3} ms", median(lat)));
    }
    e2e.notes("query", &mut report);
    report
        .notes
        .push("  mutation_p50_ms / mutation_tail_ms / mutations_per_s: n/a (no mutations)".into());
    if procs {
        report.notes.push(format!("  proc.respawns {respawns}, proc.reconnects {reconnects}"));
    }
    if args.trace {
        exec.plw_check(&mut report);
        Traced {
            ops: &ops,
            reads: None,
            window,
            delta: &d,
            exec: &exec,
            front: &front,
            respawns,
            reconnects,
        }
        .report(&mut report);
        spans.write(&spans_path(args), &mut report)?;
    } else {
        e2e.report(&mut report);
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// anchored_serve

const ANCHORED_CLIENTS: usize = 2;
/// Requests generated per run; the stream wraps if a run gets through it.
const ANCHORED_STREAM: usize = 1 << 16;

/// Q36-, Q45- and Q49-style templates over an anchor protein.
fn anchored_text(template: u8, anchor: usize) -> String {
    match template {
        0 => format!("?x <- ?x (encodes/-encodes)+ P{anchor}"),
        1 => format!("?x <- P{anchor} (reference/-reference)+ ?x"),
        _ => format!("?x <- P{anchor} (encodes/-encodes)+ ?x"),
    }
}

/// A single-column answer as sorted node ids.
fn node_column(rel: &Relation) -> Vec<i64> {
    let mut v: Vec<i64> = rel
        .iter()
        .map(|r| match r.first() {
            Some(Value::Int(i)) if r.len() == 1 => *i,
            _ => i64::MIN,
        })
        .collect();
    v.sort_unstable();
    v
}

/// One timed request of a client thread.
struct Served {
    req: usize,
    lat: f64,
    answer: Option<Vec<i64>>,
    out: Option<Arc<QueryOutput>>,
}

/// `anchored_serve`: two clients, default caches, cheap anchored queries
/// whose anchors repeat, so planning, the engine lock, the queue and the
/// caches carry a large share of the time.
fn anchored(args: &Args) -> Result<Report, String> {
    // Proteins: sources of `encodes`/`reference`, by id. The generator
    // draws protein degrees Zipf-by-id, so rank r is the r-th smallest id.
    let proteins = |db: &Database| -> Vec<i64> {
        let mut ids = HashSet::new();
        for rel in ["encodes", "reference"] {
            if let Some(r) = db.relation_by_name(rel) {
                let src = db.dict().lookup("src").and_then(|s| r.schema().position(s));
                for row in r.iter() {
                    if let Some(Value::Int(i)) = src.map(|p| row[p]) {
                        ids.insert(i);
                    }
                }
            }
        }
        let mut v: Vec<i64> = ids.into_iter().collect();
        v.sort_unstable();
        v
    };
    let (server, setup) = timed_setups(|_| {
        let mut db = mura_bench::uniprot_db(8_000);
        for (rank, id) in proteins(&db).into_iter().enumerate() {
            db.bind_constant(&format!("P{rank}"), Value::Int(id));
        }
        start(db, ServeConfig::default())
    })?;
    let db = server.with_db(Database::clone);
    let ids = proteins(&db);
    let mut report = new_report(args);

    let mut rng = SplitMix64::seed_from_u64(args.seed ^ 0xa7c4_0e5e);
    let zipf = Zipf::new(ids.len(), 1.0);
    let stream: Vec<(u8, usize)> =
        (0..ANCHORED_STREAM).map(|_| ((rng.next_u64() % 3) as u8, zipf.sample(&mut rng))).collect();
    let texts: Vec<String> = stream.iter().map(|&(t, a)| anchored_text(t, a)).collect();

    let next = AtomicUsize::new(0);
    let budget = Duration::from_secs(args.seconds);
    let win = Window::open(&server);
    let per_client: Vec<(Vec<Served>, SpanLog)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ANCHORED_CLIENTS)
            .map(|_| {
                let client = server.client();
                let (next, texts, win) = (&next, &texts, &win);
                s.spawn(move || {
                    let mut done = Vec::new();
                    let mut spans = win.spans();
                    while win.elapsed() < budget {
                        let op = next.fetch_add(1, Ordering::Relaxed);
                        let req = op % texts.len();
                        let t = Instant::now();
                        let res = client.query(&texts[req]);
                        let end = Instant::now();
                        let lat = ms(end - t);
                        if args.trace {
                            spans.record("client.query", op, t, end);
                        }
                        done.push(match res {
                            Ok(out) => Served {
                                req,
                                lat,
                                answer: Some(node_column(&out.relation)),
                                out: args.trace.then_some(out),
                            },
                            Err(_) => Served { req, lat: f64::INFINITY, answer: None, out: None },
                        });
                    }
                    (done, spans)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let (window, after) = win.close(&server);
    let rss_mb = peak_rss_mb();

    let mut ops = Latencies::default();
    let mut exec = Exec::default();
    let mut seen = HashSet::new();
    let mut errors = 0u64;
    let mut done = Vec::new();
    let mut spans = win.spans();
    for (d, s) in per_client {
        done.extend(d);
        spans.extend(s);
    }
    for s in &done {
        ops.push(s.lat);
        errors += s.answer.is_none() as u64;
        // Requests served from the result cache return the very `Arc` an
        // earlier execution produced.
        if let Some(out) = &s.out {
            if seen.insert(Arc::as_ptr(out)) {
                exec.add(out, &texts[s.req]);
            }
        }
    }
    let mut front = Vec::new();
    let mut profiled = Vec::new();
    if args.trace {
        // Distinct planned texts' front-end costs and a profile of the most
        // requested queries (for skew and the P_plw check), after the window.
        let mut planned: Vec<&String> = exec.planned_texts.iter().collect();
        planned.sort();
        let mut op = done.len();
        for q in planned.into_iter().take(32) {
            front.push(FrontEnd::measure(&db, q, &mut spans, op)?);
            op += 1;
        }
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for s in &done {
            *counts.entry(s.req).or_default() += 1;
        }
        let mut top: Vec<(usize, usize)> = counts.into_iter().collect();
        top.sort_by_key(|&(req, n)| (std::cmp::Reverse(n), req));
        let client = server.client();
        for &(req, _) in top.iter().take(8) {
            let t = Instant::now();
            let out = client.profile(&texts[req]).map_err(|e| format!("profile: {e}"))?;
            spans.record("client.profile", op, t, Instant::now());
            op += 1;
            profiled.push(out);
        }
    }
    server.shutdown();

    // Answers: every request against the oracle, built from two unanchored
    // closures evaluated centrally.
    let enc = expected(&db, "?x, ?y <- ?x (encodes/-encodes)+ ?y")?;
    let refs = expected(&db, "?x, ?y <- ?x (reference/-reference)+ ?y")?;
    let index = |pairs: &[Vec<Value>], from: usize| {
        let mut m: HashMap<Value, Vec<i64>> = HashMap::new();
        for p in pairs {
            if let Value::Int(v) = p[1 - from] {
                m.entry(p[from]).or_default().push(v);
            }
        }
        m
    };
    let (enc_by_y, enc_by_x, ref_by_x) = (index(&enc, 1), index(&enc, 0), index(&refs, 0));
    let mut wrong = 0u64;
    for s in done.iter().filter(|s| s.answer.is_some()) {
        let (template, rank) = stream[s.req];
        let anchor = Value::Int(ids[rank]);
        let by = match template {
            0 => &enc_by_y,
            1 => &ref_by_x,
            _ => &enc_by_x,
        };
        let mut want = by.get(&anchor).cloned().unwrap_or_default();
        want.sort_unstable();
        want.dedup();
        if s.answer.as_ref() != Some(&want) {
            wrong += 1;
        }
    }
    if wrong > 0 {
        report.notes.push(format!("  WRONG answers: {wrong}"));
    }

    let failed = wrong + errors;
    let d = after.since(&win.before);
    let distinct: HashSet<(u8, usize)> = done.iter().map(|s| stream[s.req]).collect();
    let top_anchor = done.iter().filter(|s| stream[s.req].1 == 0).count();
    report.notes.push(format!(
        "  {} requests in {:.2} s by {ANCHORED_CLIENTS} clients; {} distinct ({:.1}% repeat an \
         earlier one); anchor rank 0 drew {:.1}% of requests over {} proteins",
        done.len(),
        window.as_secs_f64(),
        distinct.len(),
        100.0 * (1.0 - ratio(distinct.len() as f64, done.len() as f64)),
        100.0 * ratio(top_anchor as f64, done.len() as f64),
        ids.len()
    ));
    let e2e = EndToEnd {
        setup,
        ops: &ops,
        window,
        comm_rows: (d.stats.comm_rows_shuffled + d.stats.comm_rows_broadcast) as f64,
        executions: d.stats.result_misses as f64,
        rss_mb,
        steal_share: d.steal_share,
    };
    report.correct = wrong == 0;
    report.attempted = ops.len() as u64;
    report.failed = failed;
    e2e.notes("query", &mut report);
    report
        .notes
        .push("  mutation_p50_ms / mutation_tail_ms / mutations_per_s: n/a (no mutations)".into());
    if args.trace {
        for out in &profiled {
            exec.add_trace(out);
        }
        exec.plw_check(&mut report);
        Traced {
            ops: &ops,
            reads: None,
            window,
            delta: &d,
            exec: &exec,
            front: &front,
            respawns: 0,
            reconnects: 0,
        }
        .report(&mut report);
        spans.write(&spans_path(args), &mut report)?;
    } else {
        e2e.report(&mut report);
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// mutate_views

const VIEWS: [&str; 2] = ["?x, ?y <- ?x a1+ ?y", "?y <- C (a1|a2)+ ?y"];
/// An inserted edge is deleted again this many batches later.
const DELETE_LAG: usize = 8;
const MUTATE_NODES: u64 = 10_000;

/// `mutate_views`: one client alternating edge-level mutations with reads
/// of two maintained views on a durable server, so incremental
/// maintenance, the WAL and snapshots carry the time.
fn mutate(args: &Args, scratch: &Scratch) -> Result<Report, String> {
    let (server, setup) = timed_setups(|i| {
        let db = labelled_er(MUTATE_NODES, 3e-4, GRAPH_SEED);
        let config = ServeConfig {
            data_dir: Some(scratch.fresh(i)?),
            wal_sync: SyncPolicy::Never,
            snapshot_every: 64,
            ..ServeConfig::default()
        };
        let server = start(db, config)?;
        // Warm each view until it is served from the result cache (its
        // first execution may be followed by one feedback re-plan).
        let client = server.client();
        for v in VIEWS {
            let mut warm = false;
            for _ in 0..4 {
                let hits = server.stats().result_hits;
                client.query(v).map_err(|e| format!("warm {v}: {e}"))?;
                if server.stats().result_hits > hits {
                    warm = true;
                    break;
                }
            }
            if !warm {
                return Err(format!("view {v} never became a cache hit"));
            }
        }
        Ok(server)
    })?;
    let client = server.client();
    let mut report = new_report(args);
    let (a1, ps, pd, mut present) = server.with_db(|db| -> Result<_, String> {
        let a1 = db.dict().lookup("a1").ok_or("no a1 relation")?;
        let r = db.relation(a1).ok_or("no a1 relation")?;
        let col = |name| {
            db.dict().lookup(name).and_then(|c| r.schema().position(c)).ok_or("a1 lacks src/dst")
        };
        let (ps, pd) = (col("src")?, col("dst")?);
        let present: HashSet<(i64, i64)> = r
            .iter()
            .filter_map(|row| match (row[ps], row[pd]) {
                (Value::Int(s), Value::Int(d)) => Some((s, d)),
                _ => None,
            })
            .collect();
        Ok((a1, ps, pd, present))
    })?;
    let row = |(s, d): (i64, i64)| {
        let mut r = vec![Value::Int(0); 2];
        r[ps] = Value::Int(s);
        r[pd] = Value::Int(d);
        r.into_boxed_slice()
    };

    let mut rng = SplitMix64::seed_from_u64(args.seed ^ 0x5eed_ba7c);
    let mut inserted: VecDeque<(i64, i64)> = VecDeque::new();
    let mut muts = Latencies::default();
    let mut reads = Latencies::default();
    let mut errors = 0u64;
    let mut wrong = 0u64;
    let mut exec = Exec::default();
    let mut comm_rows = 0u64;
    let mut executions = 0u64;
    let mut last: Vec<Option<Arc<QueryOutput>>> = vec![None; VIEWS.len()];
    let (mut ins, mut del) = (0u64, 0u64);
    let budget = Duration::from_secs(args.seconds);
    let win = Window::open(&server);
    let mut spans = win.spans();
    while win.elapsed() < budget {
        let edge = loop {
            let s = rng.gen_range(0..MUTATE_NODES) as i64;
            let d = rng.gen_range(0..MUTATE_NODES) as i64;
            if s != d && !present.contains(&(s, d)) {
                break (s, d);
            }
        };
        let mut batch = DeltaBatch::new();
        let old = (inserted.len() == DELETE_LAG).then(|| inserted.pop_front()).flatten();
        server.with_db(|db| -> Result<(), String> {
            batch.push_insert(db, a1, row(edge)).map_err(|e| e.to_string())?;
            if let Some(old) = old {
                batch.push_delete(db, a1, row(old)).map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
        let op = muts.len();
        let t = Instant::now();
        let res = server.apply_delta(batch);
        let end = Instant::now();
        let lat = ms(end - t);
        if args.trace {
            spans.record("server.apply_delta", op, t, end);
        }
        match res {
            Ok(summary) if summary.inserted == 1 && summary.deleted == old.is_some() as u64 => {
                muts.push(lat);
                ins += 1;
                del += summary.deleted;
                present.insert(edge);
                inserted.push_back(edge);
                if let Some(old) = old {
                    present.remove(&old);
                }
            }
            Ok(_) => {
                wrong += 1;
                muts.push(f64::INFINITY);
            }
            Err(_) => {
                errors += 1;
                muts.push(f64::INFINITY);
            }
        }
        // Read each view back. A read returns the output the maintenance
        // (or, after a fallback, a fresh execution) produced, so a new
        // `Arc` carries that evaluation's communication and counters.
        for (i, v) in VIEWS.iter().enumerate() {
            let t = Instant::now();
            let res = client.query(v);
            let end = Instant::now();
            if args.trace {
                spans.record("client.query", op, t, end);
            }
            match res {
                Ok(out) => {
                    reads.push(ms(end - t));
                    if last[i].as_ref().is_none_or(|p| !Arc::ptr_eq(p, &out)) {
                        executions += 1;
                        comm_rows += out.comm.rows_shuffled + out.comm.rows_broadcast;
                        if args.trace {
                            exec.add(&out, v);
                        }
                    }
                    last[i] = Some(out);
                }
                Err(_) => {
                    errors += 1;
                    reads.push(f64::INFINITY);
                }
            }
        }
    }
    let (window, after) = win.close(&server);
    let rss_mb = peak_rss_mb();

    // Answers: the final maintained views against a fresh centralized
    // recompute over the mutated database.
    let db = server.with_db(Database::clone);
    let answers: Vec<Option<Vec<Vec<Value>>>> =
        last.iter().map(|o| o.as_ref().map(|o| served(&server, &o.relation))).collect();
    let mut profiled = Vec::new();
    if args.trace {
        for (i, v) in VIEWS.iter().enumerate() {
            let t = Instant::now();
            profiled.push(client.profile(v).map_err(|e| format!("profile {v}: {e}"))?);
            spans.record("client.profile", muts.len() + i, t, Instant::now());
        }
    }
    let view_sizes: Vec<usize> =
        last.iter().map(|o| o.as_ref().map_or(0, |o| o.relation.len())).collect();
    drop(client);
    server.shutdown();
    // The unoptimised translation of the anchored view materialises the
    // whole `(a1|a2)+` closure (tens of millions of rows at this size), so
    // its oracle is a breadth-first search over the same edges instead.
    let want = [expected(&db, VIEWS[0])?, reachable(&db, "C", &["a1", "a2"])?];
    for ((v, got), want) in VIEWS.iter().zip(&answers).zip(&want) {
        if got.as_ref() != Some(want) {
            report.notes.push(format!("  WRONG maintained view: {v}"));
            wrong += 1;
        }
    }

    let failed = wrong + errors;
    let d = after.since(&win.before);
    report.notes.push(format!(
        "  {} batches in {:.2} s: {ins} inserts, {del} deletes (lag {DELETE_LAG}); view sizes {:?}; \
         {} maintained, {} fallbacks, {} snapshots",
        muts.len(),
        window.as_secs_f64(),
        view_sizes,
        d.stats.ivm_maintained,
        d.stats.ivm_fallbacks,
        d.stats.snapshots_written
    ));
    let e2e = EndToEnd {
        setup,
        ops: &muts,
        window,
        comm_rows: comm_rows as f64,
        executions: executions as f64,
        rss_mb,
        steal_share: d.steal_share,
    };
    report.correct = wrong == 0;
    report.attempted = (muts.len() + reads.len()) as u64;
    report.failed = failed;
    e2e.notes("mutation", &mut report);
    let (rtail, rpct, rn) = reads.tail();
    report.notes.push(format!(
        "  query_p50_ms {:.3} ms, query_tail_ms {rtail:.3} ms (p{rpct:.1}, {rn} samples), \
         queries_per_s {:.3} 1/s (view reads after each batch)",
        reads.p50(),
        reads.len() as f64 / window.as_secs_f64()
    ));
    if args.trace {
        for out in &profiled {
            exec.add_trace(out);
        }
        exec.plw_check(&mut report);
        Traced {
            ops: &muts,
            reads: Some(&reads),
            window,
            delta: &d,
            exec: &exec,
            front: &[],
            respawns: 0,
            reconnects: 0,
        }
        .report(&mut report);
        spans.write(&spans_path(args), &mut report)?;
    } else {
        e2e.report(&mut report);
    }
    Ok(report)
}
