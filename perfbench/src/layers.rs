//! The traced run: per-layer metrics and the layer ledger.
//!
//! Spans come from the benchmark's own code around the public calls into
//! each layer (`SpanLog`, written out when the run ends); counters are
//! read from the program as before/after deltas over the timed window
//! (`kernel_stats()`, `ServeStats`, and the `Server::metrics()` histogram
//! families). Kernel and communication counters are process-wide, so
//! they are only ever read as workload totals, never summed from
//! per-query `ExecStats.kernel`.
//!
//! The ledger splits the mean time of one timed operation into layer self
//! times plus an unattributed remainder:
//!
//! * queries: `ucrpq` (parse + translate), `rewrite` (the rest of
//!   server-side planning), `serve_queue` (wait for an executor), `serve`
//!   (the rest of the server's wall time: the planner's wait for the
//!   engine write lock, cache lookups), `kernel` (semi-naive kernel),
//!   `dist` (execution outside the kernel), and the remainder (reply
//!   hand-off, client wake-up);
//! * mutations: `ivm` (maintenance outside the resumed execution),
//!   `kernel` and `dist` (the resumed executions), and the remainder
//!   (normalize, WAL append, apply, snapshots, locks).
//!
//! Kernel time is counted per worker thread; the ledger spreads it over
//! the cluster's `WORKERS` to put it in wall-clock terms.

use crate::stats::{cpu_ticks, hist_mean_ms, median, ratio, Latencies, Report, Scrape};
use crate::workloads::WORKERS;
use mura_core::kernel::{kernel_stats, KernelSnapshot};
use mura_core::Database;
use mura_dist::QueryOutput;
use mura_obs::trace::{EventKind, PlanKind, QueryTrace, DRIVER};
use mura_serve::{ServeStats, Server};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Counters at one instant.
pub struct Snap {
    stats: ServeStats,
    scrape: Scrape,
    kernel: KernelSnapshot,
    ticks: (u64, u64),
}

impl Snap {
    fn take(server: &Server) -> Snap {
        Snap {
            kernel: kernel_stats().snapshot(),
            stats: server.stats(),
            scrape: Scrape::parse(&server.metrics()),
            ticks: cpu_ticks(),
        }
    }

    /// Counter deltas since `earlier`; gauges keep their current value.
    pub fn since(self, earlier: &Snap) -> Delta {
        let (a, b) = (&self.stats, &earlier.stats);
        let stats = ServeStats {
            plan_hits: a.plan_hits - b.plan_hits,
            plan_misses: a.plan_misses - b.plan_misses,
            result_hits: a.result_hits - b.result_hits,
            result_misses: a.result_misses - b.result_misses,
            comm_shuffles: a.comm_shuffles - b.comm_shuffles,
            comm_rows_shuffled: a.comm_rows_shuffled - b.comm_rows_shuffled,
            comm_broadcasts: a.comm_broadcasts - b.comm_broadcasts,
            comm_rows_broadcast: a.comm_rows_broadcast - b.comm_rows_broadcast,
            wire_tx_bytes: a.wire_tx_bytes - b.wire_tx_bytes,
            wire_rx_bytes: a.wire_rx_bytes - b.wire_rx_bytes,
            wire_exchange_bytes: a.wire_exchange_bytes - b.wire_exchange_bytes,
            ivm_maintained: a.ivm_maintained - b.ivm_maintained,
            ivm_fallbacks: a.ivm_fallbacks - b.ivm_fallbacks,
            ivm_rederived_rows: a.ivm_rederived_rows - b.ivm_rederived_rows,
            wal_bytes: a.wal_bytes - b.wal_bytes,
            snapshots_written: a.snapshots_written - b.snapshots_written,
            ..*a
        };
        Delta {
            stats,
            kernel: self.kernel.since(&earlier.kernel),
            steal_share: ratio(
                self.ticks.0.saturating_sub(earlier.ticks.0) as f64,
                self.ticks.1.saturating_sub(earlier.ticks.1) as f64,
            ),
            before: earlier.scrape.clone(),
            after: self.scrape,
        }
    }
}

/// What changed over the timed window.
pub struct Delta {
    pub stats: ServeStats,
    pub kernel: KernelSnapshot,
    /// Share of the machine's CPU time stolen by other guests.
    pub steal_share: f64,
    before: Scrape,
    after: Scrape,
}

impl Delta {
    fn hist_mean_ms(&self, family: &str) -> f64 {
        hist_mean_ms(&self.after, &self.before, family)
    }

    fn hist_sum_ms(&self, family: &str) -> f64 {
        self.after.hist_since(&self.before, family).0 * 1e3
    }
}

/// The timed window: counters at its start and its clock.
pub struct Window {
    pub before: Snap,
    start: Instant,
}

impl Window {
    pub fn open(server: &Server) -> Window {
        Window { before: Snap::take(server), start: Instant::now() }
    }

    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// An empty span log timed from the window's start.
    pub fn spans(&self) -> SpanLog {
        SpanLog::new(self.start)
    }

    /// Closes the window: its length and the counters at its end.
    pub fn close(&self, server: &Server) -> (Duration, Snap) {
        let d = self.start.elapsed();
        eprintln!("perfbench: window closed after {:.2} s; checking answers", d.as_secs_f64());
        (d, Snap::take(server))
    }
}

/// Facts read from the outputs of executed (non-cache-hit) evaluations.
#[derive(Default)]
pub struct Exec {
    n: u64,
    planning_ms: f64,
    execution_ms: f64,
    iterations: u64,
    plw: u64,
    gld: u64,
    shuffles: u64,
    rows_shuffled: u64,
    rows_broadcast: u64,
    /// Texts of executions whose plan was not cached (planning time > 0).
    pub planned_texts: HashSet<String>,
    /// Worst per-fixpoint skew ratio of each traced execution.
    skews: Vec<f64>,
    /// Rows moved inside `P_plw` supersteps of traced executions; the
    /// paper's plan communicates only during set-up, so this must be 0.
    plw_step_rows: u64,
}

impl Exec {
    pub fn add(&mut self, out: &QueryOutput, text: &str) {
        self.n += 1;
        self.planning_ms += out.planning.as_secs_f64() * 1e3;
        self.execution_ms += out.execution.as_secs_f64() * 1e3;
        self.iterations += out.stats.fixpoint_iterations;
        self.plw += out.stats.plw_fixpoints;
        self.gld += out.stats.gld_fixpoints;
        self.shuffles += out.comm.shuffles;
        self.rows_shuffled += out.comm.rows_shuffled;
        self.rows_broadcast += out.comm.rows_broadcast;
        if out.planning > Duration::ZERO {
            self.planned_texts.insert(text.to_string());
        }
        self.add_trace(out);
    }

    pub fn add_trace(&mut self, out: &QueryOutput) {
        let Some(trace) = out.trace() else { return };
        if let Some(s) = skew(trace) {
            self.skews.push(s);
        }
        self.plw_step_rows += trace
            .events
            .iter()
            .filter(|e| e.plan == PlanKind::Plw && e.kind == EventKind::Superstep)
            .map(|e| e.rows_shuffled + e.rows_broadcast)
            .sum::<u64>();
    }

    /// Counts a `P_plw` superstep that moved rows as a wrong answer.
    pub fn plw_check(&self, report: &mut Report) {
        if self.plw_step_rows > 0 {
            report.notes.push(format!(
                "  WRONG: P_plw supersteps moved {} rows after set-up",
                self.plw_step_rows
            ));
            report.correct = false;
            report.failed += 1;
        }
    }
}

/// Worst fixpoint's busiest-worker time over its mean worker time. The
/// per-worker totals are those of `QueryTrace::skew_by_fixpoint`
/// (superstep time, else worker-lane communication time); its ratio
/// divides by the upper median, which with two workers is the maximum
/// itself, so it always reads 1.0 on this benchmark's clusters.
fn skew(trace: &QueryTrace) -> Option<f64> {
    let mut per: BTreeMap<u32, BTreeMap<i32, (u64, u64)>> = BTreeMap::new();
    for e in trace.events.iter().filter(|e| e.worker != DRIVER) {
        let slot = per.entry(e.fixpoint).or_default().entry(e.worker).or_default();
        if e.kind == EventKind::Superstep {
            slot.0 += e.dur_us;
        } else if e.kind.is_worker_comm() {
            slot.1 += e.dur_us;
        }
    }
    per.values()
        .filter_map(|workers| {
            let steps = workers.values().any(|&(s, _)| s > 0);
            let t: Vec<f64> = workers
                .values()
                .map(|&(s, c)| if steps { s } else { c })
                .filter(|&t| t > 0)
                .map(|t| t as f64)
                .collect();
            let mean = t.iter().sum::<f64>() / t.len() as f64;
            (t.len() >= 2).then(|| t.iter().copied().fold(0.0, f64::max) / mean)
        })
        .reduce(f64::max)
}

/// Spans recorded around the benchmark's calls into the program during a
/// traced run. They stay in memory until the run ends and are then written
/// out as JSON lines; the spans of one operation share its `op` number.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<(&'static str, usize, Duration, Duration)>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog { origin, spans: Vec::new() }
    }

    pub fn record(&mut self, name: &'static str, op: usize, start: Instant, end: Instant) {
        self.spans.push((name, op, start.saturating_duration_since(self.origin), end - start));
    }

    pub fn extend(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Writes one `{"name", "op", "start_us", "dur_us"}` object per line,
    /// ordered by start, and notes where.
    pub fn write(mut self, path: &Path, report: &mut Report) -> Result<(), String> {
        self.spans.sort_by_key(|s| s.2);
        let mut text = String::new();
        for (name, op, start, dur) in &self.spans {
            let _ = writeln!(
                text,
                "{{\"name\": \"{name}\", \"op\": {op}, \"start_us\": {}, \"dur_us\": {}}}",
                start.as_micros(),
                dur.as_micros()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        report.notes.push(format!("  {} spans written to {}", self.spans.len(), path.display()));
        Ok(())
    }
}

/// Front-end cost of one query text, measured by the benchmark on a copy
/// of the served database: parse + translate (median of five), then one
/// enumeration by the rewriter.
pub struct FrontEnd {
    parse_ms: f64,
    plan_ms: f64,
    candidates: usize,
}

impl FrontEnd {
    pub fn measure(
        db: &Database,
        text: &str,
        spans: &mut SpanLog,
        op: usize,
    ) -> Result<FrontEnd, String> {
        let mut db = db.clone();
        let mut parse = Vec::new();
        let mut term = None;
        for _ in 0..5 {
            let t = Instant::now();
            let q = mura_ucrpq::parse_ucrpq(text).map_err(|e| e.to_string())?;
            term = Some(mura_ucrpq::to_mura(&q, &mut db).map_err(|e| e.to_string())?);
            let end = Instant::now();
            spans.record("ucrpq.parse_translate", op, t, end);
            parse.push((end - t).as_secs_f64() * 1e3);
        }
        let term = term.expect("five parses");
        let t = Instant::now();
        let rewriter = mura_rewrite::Rewriter::new(&mut db);
        let (_, enum_report) =
            rewriter.optimize_report(&term, &mut db).map_err(|e| e.to_string())?;
        let end = Instant::now();
        spans.record("rewrite.optimize_report", op, t, end);
        Ok(FrontEnd {
            parse_ms: median(&parse),
            plan_ms: (end - t).as_secs_f64() * 1e3,
            candidates: enum_report.candidates,
        })
    }
}

/// Inputs of the per-layer report of one traced run.
pub struct Traced<'a> {
    /// The timed operations: queries, or mutation batches.
    pub ops: &'a Latencies,
    /// View reads after each batch (mutation workloads only).
    pub reads: Option<&'a Latencies>,
    pub window: Duration,
    pub delta: &'a Delta,
    pub exec: &'a Exec,
    pub front: &'a [FrontEnd],
    pub respawns: u64,
    pub reconnects: u64,
}

impl Traced<'_> {
    pub fn report(&self, r: &mut Report) {
        let d = self.delta;
        let s = &d.stats;
        let e = self.exec;
        let ok: Vec<f64> = self.ops.ms.iter().copied().filter(|v| v.is_finite()).collect();
        let n_ok = ok.len().max(1) as f64;
        let lat_sum: f64 = ok.iter().sum();
        let per_exec = |v: f64| ratio(v, e.n as f64);
        let mean = |f: fn(&FrontEnd) -> f64| {
            ratio(self.front.iter().map(f).sum(), self.front.len() as f64)
        };

        let parse_ms = mean(|f| f.parse_ms);
        let queue_sum = d.hist_sum_ms("mura_query_queue_seconds");
        let (planning_sum, planned) = d.after.hist_since(&d.before, "mura_query_planning_seconds");
        let planning_sum = planning_sum * 1e3;
        let execution_sum = d.hist_sum_ms("mura_query_execution_seconds");
        // Maintenance executions bypass the query histograms; the read-back
        // outputs carry them instead.
        let exec_sum = if self.reads.is_some() { e.execution_ms } else { execution_sum };
        let kernel_ms = d.kernel.eval_nanos as f64 / 1e6;
        let kernel_wall = (kernel_ms / WORKERS as f64).min(exec_sum);
        // Server-side time outside the queue, planning and execution: the
        // planner's wait for the engine write lock (in-flight executions
        // hold it shared), plus plan- and result-cache lookups.
        let serve_sum =
            (d.hist_sum_ms("mura_query_wall_seconds") - queue_sum - planning_sum - execution_sum)
                .max(0.0);
        // Ledger, as summed milliseconds over the window's operations.
        let mut ledger: Vec<(&str, f64)> = if self.reads.is_some() {
            let maint = d.hist_sum_ms("mura_ivm_maintenance_seconds");
            vec![
                ("ucrpq", 0.0),
                ("rewrite", 0.0),
                ("serve_queue", 0.0),
                ("serve", 0.0),
                ("kernel", kernel_wall),
                ("dist", exec_sum - kernel_wall),
                ("ivm", (maint - exec_sum).max(0.0)),
            ]
        } else {
            let ucrpq = (parse_ms * planned).min(planning_sum);
            vec![
                ("ucrpq", ucrpq),
                ("rewrite", planning_sum - ucrpq),
                ("serve_queue", queue_sum),
                ("serve", serve_sum),
                ("kernel", kernel_wall),
                ("dist", exec_sum - kernel_wall),
                ("ivm", 0.0),
            ]
        };
        let attributed: f64 = ledger.iter().map(|(_, v)| v).sum();
        ledger.push(("unattributed", lat_sum - attributed));

        r.metric("ucrpq.parse_ms", parse_ms, "ms");
        r.metric("rewrite.plan_ms", mean(|f| f.plan_ms), "ms");
        r.metric("rewrite.candidates", mean(|f| f.candidates as f64), "count");
        r.metric("serve.queue_ms", d.hist_mean_ms("mura_query_queue_seconds"), "ms");
        let overhead = match self.reads {
            // Reads after a batch are cache hits: all of it is serving.
            Some(reads) => {
                reads.ms.iter().filter(|v| v.is_finite()).sum::<f64>() / reads.len().max(1) as f64
            }
            None => (lat_sum - e.planning_ms - e.execution_ms) / n_ok,
        };
        r.metric("serve.overhead_ms", overhead, "ms");
        r.metric(
            "serve.plan_hit_ratio",
            ratio(s.plan_hits as f64, (s.plan_hits + s.plan_misses) as f64),
            "ratio",
        );
        r.metric(
            "serve.result_hit_ratio",
            ratio(s.result_hits as f64, (s.result_hits + s.result_misses) as f64),
            "ratio",
        );
        r.metric("dist.exec_ms", per_exec(e.execution_ms), "ms");
        r.metric("dist.nonkernel_ms", per_exec(e.execution_ms - kernel_wall), "ms");
        r.metric("dist.iterations", per_exec(e.iterations as f64), "count");
        r.metric("dist.plw_fixpoints", per_exec(e.plw as f64), "count");
        r.metric("dist.gld_fixpoints", per_exec(e.gld as f64), "count");
        r.metric("dist.shuffles", per_exec(e.shuffles as f64), "count");
        r.metric("dist.rows_shuffled", per_exec(e.rows_shuffled as f64), "rows");
        r.metric("dist.rows_broadcast", per_exec(e.rows_broadcast as f64), "rows");
        r.metric(
            "dist.skew_ratio",
            if e.skews.is_empty() { 0.0 } else { median(&e.skews) },
            "ratio",
        );
        r.metric("dist.plw_step_rows", e.plw_step_rows as f64, "rows");
        r.metric("kernel.eval_ms", per_exec(kernel_ms), "ms");
        r.metric("kernel.join_probes", per_exec(d.kernel.join_probes as f64), "count");
        r.metric("kernel.index_builds", per_exec(d.kernel.index_builds as f64), "count");
        r.metric("kernel.rows_allocated", per_exec(d.kernel.rows_allocated as f64), "rows");
        r.metric("wire.bytes", per_exec((s.wire_tx_bytes + s.wire_rx_bytes) as f64), "bytes");
        r.metric("wire.exchange_bytes", per_exec(s.wire_exchange_bytes as f64), "bytes");
        r.metric("proc.heartbeat_rtt_ms", d.hist_mean_ms("mura_heartbeat_rtt_seconds"), "ms");
        r.metric("proc.respawns", self.respawns as f64, "count");
        r.metric("proc.reconnects", self.reconnects as f64, "count");
        let batches = if self.reads.is_some() { n_ok } else { 0.0 };
        r.metric("ivm.maint_ms", d.hist_mean_ms("mura_ivm_maintenance_seconds"), "ms");
        r.metric("ivm.maintained", ratio(s.ivm_maintained as f64, batches), "count");
        r.metric("ivm.fallbacks", ratio(s.ivm_fallbacks as f64, batches), "count");
        r.metric("ivm.rederived_rows", ratio(s.ivm_rederived_rows as f64, batches), "rows");
        r.metric("wal.bytes_per_batch", ratio(s.wal_bytes as f64, batches), "bytes");
        r.metric("durable.snapshots", s.snapshots_written as f64, "count");
        r.metric("mem.high_water_mb", s.mem_high_water_bytes as f64 / (1024.0 * 1024.0), "MiB");
        for (layer, sum) in &ledger {
            r.metric(&format!("ledger.{layer}_ms"), sum / n_ok, "ms");
        }
        r.metric("ledger.total_ms", lat_sum / n_ok, "ms");
        r.metric("traced.p50_ms", self.ops.p50(), "ms");
        r.metric("traced.ops_per_s", ok.len() as f64 / self.window.as_secs_f64(), "1/s");

        let line: Vec<String> =
            ledger.iter().map(|(l, v)| format!("{l} {:.3}", v / n_ok)).collect();
        r.notes.push(format!(
            "  ledger (ms per operation, total {:.3}): {}",
            lat_sum / n_ok,
            line.join(", ")
        ));
    }
}
