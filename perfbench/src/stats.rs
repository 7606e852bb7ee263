//! Sample summaries, counter snapshots and the result line.

use mura_core::{Database, Relation, Value};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Client-observed latencies of one operation class, in milliseconds. A
/// failed or refused request is recorded as `+inf`, so it lands beyond
/// every latency limit and in the tail.
#[derive(Default)]
pub struct Latencies {
    pub ms: Vec<f64>,
}

impl Latencies {
    pub fn push(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn p50(&self) -> f64 {
        median(&self.ms)
    }

    /// The highest percentile with at least ten samples beyond it:
    /// `(value, percentile, samples)`. With ten or fewer samples no such
    /// percentile exists and the maximum is reported as the 100th.
    pub fn tail(&self) -> (f64, f64, usize) {
        let mut v = self.ms.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n <= 10 {
            return (v.last().copied().unwrap_or(f64::NAN), 100.0, n);
        }
        let idx = n - 11;
        (v[idx], 100.0 * (idx + 1) as f64 / n as f64, n)
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU clock ticks since boot, summed over CPUs, from
/// `/proc/stat`. Steal is time the hypervisor ran other guests while this
/// one had work: it stretches every latency without being the program's.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .map(|l| l.split_whitespace().filter_map(|v| v.parse().ok()).collect())
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user.
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().take(8).sum())
}

/// One scrape of `Server::metrics()`: every unlabelled sample plus the
/// labelled ones keyed as `name{labels}`.
#[derive(Clone)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(page: &str) -> Scrape {
        let mut m = BTreeMap::new();
        for line in page.lines().filter(|l| !l.starts_with('#')) {
            if let Some((key, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    m.insert(key.to_string(), v);
                }
            }
        }
        Scrape(m)
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// `(sum_seconds, count)` of a histogram family since `earlier`.
    pub fn hist_since(&self, earlier: &Scrape, family: &str) -> (f64, f64) {
        let sum = format!("{family}_sum");
        let count = format!("{family}_count");
        (self.get(&sum) - earlier.get(&sum), self.get(&count) - earlier.get(&count))
    }
}

/// Mean of a histogram family's observations since `earlier`, in ms.
pub fn hist_mean_ms(now: &Scrape, earlier: &Scrape, family: &str) -> f64 {
    let (sum, count) = now.hist_since(earlier, family);
    if count > 0.0 {
        sum * 1e3 / count
    } else {
        0.0
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// A relation as sorted rows with columns ordered by name, so answers
/// computed against databases with different symbol numbering compare.
pub fn canonical(rel: &Relation, db: &Database) -> Vec<Vec<Value>> {
    let mut cols: Vec<(String, usize)> = rel
        .schema()
        .columns()
        .iter()
        .enumerate()
        .map(|(i, c)| (db.dict().resolve(*c).to_string(), i))
        .collect();
    cols.sort();
    let mut rows: Vec<Vec<Value>> =
        rel.iter().map(|r| cols.iter().map(|(_, i)| r[*i]).collect()).collect();
    rows.sort_unstable();
    rows
}

/// The run's outcome: counts, metrics by name, and readable notes.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. Non-finite values are written as `null`.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if value.is_finite() { format!("{value}") } else { "null".into() };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let l = Latencies { ms: (1..=100).map(f64::from).collect() };
        let (v, pct, n) = l.tail();
        assert_eq!((v, pct, n), (90.0, 90.0, 100));
        assert_eq!(l.p50(), 50.5);
    }

    #[test]
    fn scrape_reads_histogram_deltas() {
        let a = Scrape::parse("# HELP x\nq_sum 1.5\nq_count 3\nc{k=\"v\"} 2\n");
        let b = Scrape::parse("q_sum 2.5\nq_count 5\nc{k=\"v\"} 7\n");
        assert_eq!(b.hist_since(&a, "q"), (1.0, 2.0));
        assert_eq!(b.get("c{k=\"v\"}") - a.get("c{k=\"v\"}"), 5.0);
        assert_eq!(hist_mean_ms(&b, &a, "q"), 500.0);
    }
}
