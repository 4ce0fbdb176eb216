//! Metric maps, correctness accounting, summary statistics, the environment
//! fingerprint, and the machine-readable result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Named metrics with their units, in name order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets (or replaces) one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// The value of a metric, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// Adds every metric of `other` that `self` does not have yet.
    pub fn fill_from(&mut self, other: &Metrics) {
        for (k, v) in &other.0 {
            self.0.entry(k.clone()).or_insert(*v);
        }
    }

    /// `(name, value, unit)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.0.iter().map(|(k, &(v, u))| (k.as_str(), v, u))
    }

    /// Names of metrics whose value is NaN or infinite.
    pub fn non_finite(&self) -> Vec<String> {
        self.0.iter().filter(|(_, (v, _))| !v.is_finite()).map(|(k, _)| k.clone()).collect()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if value.is_finite() { value } else { 0.0 };
            let _ = write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        s.push('}');
        s
    }
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// Reasons of the first failures (capped).
    pub problems: Vec<String>,
}

impl Checks {
    /// Counts one checked operation; `Err` carries why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.problems.len() < 16 {
                self.problems.push(why);
            }
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < 16 {
                self.problems.push(p);
            }
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile, `q` in `[0, 1]` (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Bytes to MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// FNV-1a over a byte stream, for output digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where a result was measured: machine, toolchain, input, thread budget.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub nproc: usize,
    pub cpu_model: String,
    pub l2_kib: u64,
    pub l3_kib: u64,
    pub rustc: String,
    pub input_bytes: u64,
    pub threads: usize,
}

impl Fingerprint {
    /// Reads the machine's side of the fingerprint.
    pub fn probe(workload: &str, seed: u64, trace: bool, input_bytes: u64, threads: usize) -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|rest| rest.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string());
        Fingerprint {
            workload: workload.to_string(),
            seed,
            trace,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            l2_kib: cache_kib(2),
            l3_kib: cache_kib(3),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            input_bytes,
            threads,
        }
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"cpu_model\": \"{}\", \
             \"l2_kib\": {}, \"l3_kib\": {}, \"rustc\": \"{}\", \"input_bytes\": {}, \"threads\": {}}}",
            self.workload,
            self.seed,
            self.trace,
            self.nproc,
            json_escape(&self.cpu_model),
            self.l2_kib,
            self.l3_kib,
            json_escape(&self.rustc),
            self.input_bytes,
            self.threads
        )
    }
}

/// Size of cpu0's unified/data cache at `level`, in KiB (0 when unknown).
fn cache_kib(level: u32) -> u64 {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let Ok(entries) = std::fs::read_dir(base) else { return 0 };
    for entry in entries.flatten() {
        let dir = entry.path();
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).unwrap_or_default().trim().to_string();
        if read("level") == level.to_string() && read("type") != "Instruction" {
            let size = read("size");
            let digits: String = size.chars().take_while(char::is_ascii_digit).collect();
            let n: u64 = digits.parse().unwrap_or(0);
            return if size.ends_with('M') { n * 1024 } else { n };
        }
    }
    0
}

/// Escapes a string for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(checks: &Checks, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn metrics_json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.set("a", 1.0 / 3.0, "s");
        assert_eq!(m.to_json(), format!("{{\"a\": {{\"value\": {}, \"unit\": \"s\"}}}}", 1.0f64 / 3.0));
    }
}
