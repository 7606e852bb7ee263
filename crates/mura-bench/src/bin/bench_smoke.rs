//! `bench-smoke`: a minutes-free sanity benchmark for the loop-invariant
//! fixpoint kernels, suitable for CI.
//!
//! Computes the transitive closure of an Erdős–Rényi graph on a 4-worker
//! cluster along the `P_plw` SetRdd path twice:
//!
//! * **reference** — the pre-optimization kernel (`local_fixpoint_reference`):
//!   every worker re-evaluates constant subtrees and rebuilds its join hash
//!   table on every iteration;
//! * **optimized** — the current kernel: constants folded and the join index
//!   built **once per fixpoint** (`prepare` + `local_fixpoint_prepared`),
//!   shared by all workers.
//!
//! Both variants run over the *same* partitions with the same 4-way
//! parallelism, so the measured difference is exactly the kernel work the
//! optimization removes. Results (wall times, speedup, iteration counts,
//! communication and kernel counters) are written to `BENCH_fixpoint.json`.
//!
//! A third section runs the full `P_plw` plan through the evaluator with
//! tracing off and at `TraceLevel::Superstep` (min-of-samples each) to
//! bound the cost of per-superstep tracing.
//!
//! Environment knobs: `BENCH_NODES`, `BENCH_EDGE_PROB`, `BENCH_SEED`,
//! `BENCH_SAMPLES`, `BENCH_OUT` (output path), `BENCH_MIN_SPEEDUP`
//! (exit non-zero if the measured speedup falls below it; CI sets `2.0`),
//! `BENCH_MAX_TRACE_OVERHEAD` (max tracing overhead in percent, default
//! 5.0), and `BENCH_TRACE_OUT` (dump one superstep trace as JSON).
//!
//! A fourth section replays the same IVM mutation stream against a durable
//! serving tier (WAL on, fsync off) and a memory-only one, gating the WAL's
//! mutation-path overhead with `BENCH_MAX_WAL_OVERHEAD` (percent, default
//! 10.0) on the median ratio of paired per-batch walls (`BENCH_WAL_BATCHES`
//! sets the stream length, default 512).
//!
//! `BENCH_PROC_WORKERS=<n>` (default 0 = skip) repeats the tracing
//! overhead measurement over `n` real worker processes, so the gate also
//! bounds the wire-side cost of span batching and TRACE flushes. The
//! worker binary resolves via `MURA_WORKER_BIN` or as a sibling of the
//! bench executable.

use std::time::{Duration, Instant};

use mura_core::kernel::kernel_stats;
use mura_core::{Database, Relation, Term};
use mura_datagen::er::erdos_renyi;
use mura_dist::localfix::{
    local_fixpoint_prepared, local_fixpoint_reference, prepare, Budget, LocalEngine, Prepared,
};
use mura_dist::{
    Cluster, DistEvaluator, DistRel, ExecConfig, FixpointPlan, QueryEngine, TraceLevel,
};

const WORKERS: usize = 4;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

struct Timings {
    mean_ms: f64,
    min_ms: f64,
    max_ms: f64,
}

fn summarize(samples: &[Duration]) -> Timings {
    let ms = |d: &Duration| d.as_secs_f64() * 1e3;
    let total: f64 = samples.iter().map(ms).sum();
    Timings {
        mean_ms: total / samples.len() as f64,
        min_ms: samples.iter().map(ms).fold(f64::INFINITY, f64::min),
        max_ms: samples.iter().map(ms).fold(0.0, f64::max),
    }
}

fn json_timings(t: &Timings) -> String {
    format!(
        "{{\"mean_ms\": {:.3}, \"min_ms\": {:.3}, \"max_ms\": {:.3}}}",
        t.mean_ms, t.min_ms, t.max_ms
    )
}

fn main() {
    // Defaults: a sparse supercritical ER graph (mean degree ~1.6) whose
    // giant component has a long diameter — many semi-naive iterations, so
    // the reference kernel's per-iteration constant re-evaluation and join
    // table rebuilds dominate. Runs in well under a second per variant.
    let n = env_u64("BENCH_NODES", 20_000);
    let p = env_f64("BENCH_EDGE_PROB", 0.000_08);
    let seed = env_u64("BENCH_SEED", 42);
    let samples = env_u64("BENCH_SAMPLES", 3).max(1) as usize;
    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_fixpoint.json".into());

    let mut db = Database::new();
    let src = db.intern("src");
    let dst = db.intern("dst");
    let m = db.intern("m");
    let x = db.intern("X");
    let g = erdos_renyi(n, p, seed);
    let e = Relation::from_pairs(src, dst, g.plain_edges());
    let step = Term::var(x).rename(dst, m).join(Term::cst(e.clone()).rename(src, m)).antiproject(m);
    let recs = vec![step.clone()];
    let term = Term::cst(e.clone()).union(step).fix(x);

    println!("bench-smoke: TC of ER(n={n}, p={p}, seed={seed}), {WORKERS} workers, P_plw/SetRdd");
    println!("  edges: {}", e.len());

    // Shared 4-way partitioning: both kernels see identical per-worker seeds.
    let cluster = Cluster::new(WORKERS);
    let seed_rel = DistRel::from_relation(&e, &cluster);
    let budget = Budget::new(None, None);

    // --- reference kernel: re-evaluates constants, rebuilds join tables ---
    let mut ref_samples = Vec::with_capacity(samples);
    let mut ref_rows = 0usize;
    for round in 0..=samples {
        let t = Instant::now();
        let parts = cluster
            .try_par_map(seed_rel.parts(), |_, part| {
                local_fixpoint_reference(part, &recs, x, LocalEngine::SetRdd, &budget)
            })
            .expect("reference fixpoint");
        let wall = t.elapsed();
        let mut acc = Relation::new(e.schema().clone());
        for part in parts {
            acc.absorb(part);
        }
        if round > 0 {
            // Round 0 is the untimed warmup.
            ref_samples.push(wall);
        }
        ref_rows = acc.len();
    }

    // --- optimized kernel: prepare once per fixpoint, probe cached index ---
    let kernel_before = kernel_stats().snapshot();
    let mut opt_samples = Vec::with_capacity(samples);
    let mut opt_rows = 0usize;
    let mut loop_iterations = 0u64;
    for round in 0..=samples {
        let iters_before = kernel_stats().snapshot();
        let t = Instant::now();
        let prepared: Vec<Prepared<Relation>> =
            recs.iter().map(|r| prepare(r, x, e.schema()).expect("prepare")).collect();
        let parts = cluster
            .try_par_map(seed_rel.parts(), |_, part| {
                local_fixpoint_prepared(part, &prepared, &budget)
            })
            .expect("optimized fixpoint");
        let wall = t.elapsed();
        let mut acc = Relation::new(e.schema().clone());
        for part in parts {
            acc.absorb(part);
        }
        if round > 0 {
            opt_samples.push(wall);
        }
        opt_rows = acc.len();
        loop_iterations = kernel_stats().snapshot().since(&iters_before).iterations;
    }
    let kernel = kernel_stats().snapshot().since(&kernel_before);

    assert_eq!(ref_rows, opt_rows, "kernels disagree on the fixpoint");

    // --- full P_plw plan through the evaluator, for comm + kernel stats
    // and for the cost of superstep tracing (traced vs untraced walls) ---
    let run_plan = |trace: TraceLevel| {
        let config = ExecConfig {
            plan: FixpointPlan::ForcePlw,
            local_engine: LocalEngine::SetRdd,
            workers: WORKERS,
            trace,
            ..Default::default()
        };
        let mut ev = DistEvaluator::new(&db, config);
        let comm_before = ev.cluster().metrics().snapshot();
        let t = Instant::now();
        let full = ev.eval_collect(&term).expect("P_plw evaluation");
        let wall = t.elapsed();
        let comm = ev.cluster().metrics().snapshot().since(&comm_before);
        (wall, full, comm, ev.stats().clone())
    };

    let (_, full, comm, first_stats) = run_plan(TraceLevel::Off);
    let plan_kernel = first_stats.kernel;
    assert_eq!(full.len(), opt_rows, "P_plw plan disagrees with kernel loops");

    // Min-of-samples on both sides: the floor of each distribution is the
    // honest cost comparison, insensitive to scheduler noise spikes.
    let mut off_min = Duration::MAX;
    let mut traced_min = Duration::MAX;
    let mut trace = None;
    for _ in 0..samples {
        off_min = off_min.min(run_plan(TraceLevel::Off).0);
        let (wall, _, _, stats) = run_plan(TraceLevel::Superstep);
        traced_min = traced_min.min(wall);
        trace = stats.trace;
    }
    let trace = trace.expect("superstep run records a trace");
    let overhead_pct = (traced_min.as_secs_f64() / off_min.as_secs_f64() - 1.0) * 100.0;
    if let Ok(path) = std::env::var("BENCH_TRACE_OUT") {
        std::fs::write(&path, trace.to_json()).expect("write trace");
        println!("  trace written to {path}");
    }

    // --- tracing overhead over real worker processes: the same P_plw plan
    // behind a ProcCluster, so the measurement includes TraceCtx bytes on
    // every exchange frame plus the span batches shipped back over TRACE
    // frames at fixpoint end. ---
    let proc_workers = env_u64("BENCH_PROC_WORKERS", 0) as usize;
    let mut proc_tracing = None;
    if proc_workers > 0 {
        let backend: std::sync::Arc<dyn mura_dist::CommBackend> =
            mura_dist::ProcCluster::spawn(proc_workers).expect("spawn worker processes");
        let run_proc = |trace: TraceLevel| {
            let config = ExecConfig {
                plan: FixpointPlan::ForcePlw,
                local_engine: LocalEngine::SetRdd,
                workers: proc_workers,
                trace,
                backend: Some(std::sync::Arc::clone(&backend)),
                ..Default::default()
            };
            let mut ev = DistEvaluator::new(&db, config);
            let t = Instant::now();
            let rows = ev.eval_collect(&term).expect("P_plw over processes").len();
            (t.elapsed(), rows, ev.stats().trace.clone())
        };
        let (_, rows, _) = run_proc(TraceLevel::Off); // untimed warmup
        assert_eq!(rows, opt_rows, "process backend disagrees on the fixpoint");
        let mut p_off = Duration::MAX;
        let mut p_traced = Duration::MAX;
        let mut p_trace = None;
        for _ in 0..samples {
            p_off = p_off.min(run_proc(TraceLevel::Off).0);
            let (wall, _, stats_trace) = run_proc(TraceLevel::Superstep);
            p_traced = p_traced.min(wall);
            p_trace = stats_trace;
        }
        let p_trace = p_trace.expect("traced process run records a trace");
        assert!(
            p_trace.events.iter().any(|e| e.kind.is_worker_comm()),
            "a process-mode trace must carry worker-lane exchange events"
        );
        let pct = (p_traced.as_secs_f64() / p_off.as_secs_f64() - 1.0) * 100.0;
        proc_tracing = Some((p_off, p_traced, pct, p_trace.events.len()));
    }

    // --- WAL overhead: the identical IVM mutation stream against a durable
    // serving tier (WAL on, fsync off — CI filesystems make fsync walls
    // meaningless) vs a memory-only one. Incremental maintenance work is
    // the same on both sides, so the measured delta is exactly the cost of
    // record encode + checksum + buffered write on the mutation path. A
    // maintained batch takes about a millisecond, far below the drift of a
    // shared machine between two streams, so the two servers run side by
    // side and take each batch in turn: the gate is the median of the
    // per-batch wall ratios. ---
    let wal_batches = env_u64("BENCH_WAL_BATCHES", 512).max(1);
    let wal_dir = std::env::temp_dir().join(format!("mura-bench-wal-{}", std::process::id()));
    let start_server = |data_dir: Option<std::path::PathBuf>| {
        let mut sdb = Database::new();
        let s = sdb.intern("src");
        let d = sdb.intern("dst");
        sdb.insert_relation("edge", Relation::from_pairs(s, d, g.plain_edges()));
        let config = mura_serve::ServeConfig {
            data_dir,
            wal_sync: mura_serve::SyncPolicy::Never,
            snapshot_every: 0, // never: measure the WAL alone
            ..Default::default()
        };
        let server =
            mura_serve::Server::try_start(QueryEngine::new(sdb), config).expect("start server");
        server.client().query("?x, ?y <- ?x edge+ ?y").expect("warm TC view");
        let rel = server.with_db(|db| db.dict().lookup("edge").expect("edge relation"));
        // Warm the maintenance state too: the view's first maintained
        // batch builds its resident state (once per view), which is not
        // mutation-path work either arm should be timed on.
        insert_edge(&server, rel, n + wal_batches + 10);
        (server, rel)
    };
    let (mut off_walls, mut on_walls, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..samples {
        let _ = std::fs::remove_dir_all(&wal_dir);
        let (off, rel) = start_server(None);
        let (on, _) = start_server(Some(wal_dir.clone()));
        for i in 0..wal_batches {
            // Fresh chain edges: never duplicates, so every batch survives
            // normalization and drives one real maintenance round. The arm
            // that goes first alternates.
            let time = |server: &mura_serve::Server| {
                let t = Instant::now();
                insert_edge(server, rel, n + i);
                t.elapsed()
            };
            let (w_off, w_on) = if i % 2 == 0 {
                let w = time(&off);
                (w, time(&on))
            } else {
                let w = time(&on);
                (time(&off), w)
            };
            off_walls.push(w_off);
            on_walls.push(w_on);
            ratios.push(w_on.as_secs_f64() / w_off.as_secs_f64().max(1e-9));
        }
        off.shutdown();
        on.shutdown();
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
    let wal_off = median(&mut off_walls);
    let wal_on = median(&mut on_walls);
    ratios.sort_unstable_by(f64::total_cmp);
    let wal_overhead_pct = (ratios[ratios.len() / 2] - 1.0) * 100.0;

    let reference = summarize(&ref_samples);
    let optimized = summarize(&opt_samples);
    let speedup = reference.mean_ms / optimized.mean_ms;

    println!("  tc rows: {opt_rows}");
    println!("  per-worker loop iterations (sum): {loop_iterations}");
    println!(
        "  reference: {:.1} ms  [{:.1} .. {:.1}]",
        reference.mean_ms, reference.min_ms, reference.max_ms
    );
    println!(
        "  optimized: {:.1} ms  [{:.1} .. {:.1}]",
        optimized.mean_ms, optimized.min_ms, optimized.max_ms
    );
    println!("  speedup:   {speedup:.2}x");
    println!(
        "  plan comm: {} shuffles, {} rows shuffled; plan kernel: {} index builds, {} probes",
        comm.shuffles, comm.rows_shuffled, plan_kernel.index_builds, plan_kernel.join_probes
    );
    println!(
        "  tracing:   off {:.1} ms, superstep {:.1} ms ({} events) → overhead {overhead_pct:+.1}%",
        off_min.as_secs_f64() * 1e3,
        traced_min.as_secs_f64() * 1e3,
        trace.events.len(),
    );
    if let Some((p_off, p_traced, pct, events)) = &proc_tracing {
        println!(
            "  tracing ({proc_workers} procs): off {:.1} ms, superstep {:.1} ms ({events} events) → overhead {pct:+.1}%",
            p_off.as_secs_f64() * 1e3,
            p_traced.as_secs_f64() * 1e3,
        );
    }
    println!(
        "  wal:       batch p50 off {:.3} ms, on {:.3} ms ({wal_batches} batches, no fsync) → overhead {wal_overhead_pct:+.1}%",
        wal_off.as_secs_f64() * 1e3,
        wal_on.as_secs_f64() * 1e3,
    );

    let proc_json = proc_tracing
        .as_ref()
        .map(|(off, traced, pct, events)| {
            format!(
                "  \"tracing_proc\": {{\"workers\": {proc_workers}, \"off_min_ms\": {:.3}, \"superstep_min_ms\": {:.3}, \"overhead_pct\": {pct:.2}, \"events\": {events}}},\n",
                off.as_secs_f64() * 1e3,
                traced.as_secs_f64() * 1e3,
            )
        })
        .unwrap_or_default();
    let json = format!(
        "{{\n  \"bench\": \"fixpoint_tc_er\",\n  \"plan\": \"p_plw\",\n  \"engine\": \"set_rdd\",\n  \"workers\": {WORKERS},\n  \"graph\": {{\"nodes\": {n}, \"edge_prob\": {p}, \"seed\": {seed}, \"edges\": {}, \"tc_rows\": {opt_rows}}},\n  \"samples\": {samples},\n  \"iterations\": {loop_iterations},\n  \"reference\": {},\n  \"optimized\": {},\n  \"speedup\": {speedup:.3},\n  \"tracing\": {{\"off_min_ms\": {:.3}, \"superstep_min_ms\": {:.3}, \"overhead_pct\": {overhead_pct:.2}, \"events\": {}}},\n{proc_json}  \"wal\": {{\"off_batch_p50_ms\": {:.3}, \"on_batch_p50_ms\": {:.3}, \"overhead_pct\": {wal_overhead_pct:.2}, \"batches\": {wal_batches}}},\n  \"comm\": {{\"shuffles\": {}, \"rows_shuffled\": {}}},\n  \"kernel\": {{\"index_builds\": {}, \"key_index_builds\": {}, \"join_probes\": {}, \"antijoin_probes\": {}, \"rows_allocated\": {}, \"const_folds\": {}, \"iterations\": {}, \"eval_nanos\": {}}}\n}}\n",
        e.len(),
        json_timings(&reference),
        json_timings(&optimized),
        off_min.as_secs_f64() * 1e3,
        traced_min.as_secs_f64() * 1e3,
        trace.events.len(),
        wal_off.as_secs_f64() * 1e3,
        wal_on.as_secs_f64() * 1e3,
        comm.shuffles,
        comm.rows_shuffled,
        kernel.index_builds,
        kernel.key_index_builds,
        kernel.join_probes,
        kernel.antijoin_probes,
        kernel.rows_allocated,
        kernel.const_folds,
        kernel.iterations,
        kernel.eval_nanos,
    );
    std::fs::write(&out_path, json).expect("write BENCH_fixpoint.json");
    println!("  wrote {out_path}");

    let mut failed = false;
    let min_speedup = env_f64("BENCH_MIN_SPEEDUP", 0.0);
    if speedup < min_speedup {
        eprintln!("FAIL: speedup {speedup:.2}x below required {min_speedup:.2}x");
        failed = true;
    }
    let max_overhead = env_f64("BENCH_MAX_TRACE_OVERHEAD", 5.0);
    if overhead_pct > max_overhead {
        eprintln!("FAIL: tracing overhead {overhead_pct:.1}% above allowed {max_overhead:.1}%");
        failed = true;
    }
    if let Some((_, _, pct, _)) = &proc_tracing {
        if *pct > max_overhead {
            eprintln!(
                "FAIL: process-mode tracing overhead {pct:.1}% above allowed {max_overhead:.1}%"
            );
            failed = true;
        }
    }
    let max_wal_overhead = env_f64("BENCH_MAX_WAL_OVERHEAD", 10.0);
    if wal_overhead_pct > max_wal_overhead {
        eprintln!(
            "FAIL: WAL overhead {wal_overhead_pct:.1}% above allowed {max_wal_overhead:.1}% \
             (no-fsync mutation path)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

/// Applies one batch inserting the chain edge `v → v + 1` into `rel`.
fn insert_edge(server: &mura_serve::Server, rel: mura_core::Sym, v: u64) {
    let mut batch = mura_serve::DeltaBatch::new();
    let row = vec![mura_core::Value::node(v), mura_core::Value::node(v + 1)].into_boxed_slice();
    server.with_db(|db| batch.push_insert(db, rel, row)).expect("push insert");
    server.apply_delta(batch).expect("apply delta");
}

fn median(walls: &mut [Duration]) -> Duration {
    walls.sort_unstable();
    walls[walls.len() / 2]
}
