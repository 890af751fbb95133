//! Measurement helpers shared by the workloads: quantiles, process CPU
//! time and peak memory from `/proc`, committed output digests and the metric
//! record printed at the end of a run.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Linear-interpolated quantile `q` (0..=1) of `xs`; NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` at least `min` and at most `max` times, stopping once
/// `budget` has elapsed, and returns each call's duration in ms.
pub fn repeat_ms(budget: Duration, min: usize, max: usize, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (out.len() < max && start.elapsed() < budget) {
        let t = Instant::now();
        f();
        out.push(ms(t.elapsed()));
    }
    out
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times
/// (`USER_HZ`, 100 on every Linux ABI this benchmark targets).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds the process `pid` ("self" for this one)
/// has used, including its exited threads, from `/proc/<pid>/stat`.
/// Resolution is one clock tick (10 ms), so callers divide a whole
/// run's CPU time by its operation count rather than timing single
/// operations.
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated: state is field 3, utime
    // field 14, stime field 15.
    let rest = text
        .rfind(')')
        .map(|i| &text[i + 1..])
        .ok_or_else(|| format!("{path}: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / CLOCK_TICKS_PER_S)
            .ok_or_else(|| format!("{path}: bad field {}", i + 3))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident memory (`VmHWM`) of the process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// The expected output digest of `workload` (with synthetic-spec seed
/// `synth_seed`, when it has one) from the committed `expected.txt`.
pub fn expected_digest(workload: &str, synth_seed: Option<u64>) -> Option<&'static str> {
    let seed = synth_seed.map_or_else(|| "-".to_string(), |s| s.to_string());
    include_str!("../expected.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            (f.next() == Some(workload) && f.next() == Some(seed.as_str()))
                .then(|| f.next())
                .flatten()
        })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run measured: the operation counts, correctness and metrics
/// that make up the final JSON line.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The final result line: `correct`, `attempted`, `failed` and
    /// every metric with its unit. Values must be finite to be JSON.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
