//! The traced run's own span recorder and the program's observability
//! globals it installs.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; nothing is added inside the program. Every span keeps
//! `(name, start, end, parent, run id)` in memory, and [`Tracer::to_json`]
//! writes them out with per-layer self times.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ocelot_obs::ledger::{self, Ledger, LedgerEvent};
use ocelot_obs::prof::{self, ProfSnapshot, Profiler};
use ocelot_obs::Obs;

use crate::report::json_escape;

/// One closed span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span store of one run.
#[derive(Debug)]
pub struct Tracer {
    run: String,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

/// An open span; records itself when dropped.
pub struct Span<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
}

impl Span<'_> {
    /// This span's id, for use as a parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let t0 = self.tracer.t0;
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start.duration_since(t0).as_nanos() as u64,
            end_ns: t0.elapsed().as_nanos() as u64,
        };
        self.tracer.spans.lock().expect("span store poisoned").push(rec);
    }
}

impl Tracer {
    /// A tracer for the run named `run`.
    pub fn new(run: impl Into<String>) -> Self {
        Tracer { run: run.into(), t0: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Opens a span.
    pub fn span(&self, name: &'static str, parent: Option<u64>) -> Span<'_> {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        Span { tracer: self, id, parent, name, start: Instant::now() }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        let _s = self.span(name, parent);
        f()
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::seconds)
            .collect()
    }

    /// Summed duration of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Per span name: `(count, total seconds, self seconds)`, where self
    /// time is a span's duration minus that of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut child_s: BTreeMap<u64, f64> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_s.entry(p).or_insert(0.0) += s.seconds();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += s.seconds();
            e.2 += s.seconds() - child_s.get(&s.id).copied().unwrap_or(0.0);
        }
        out
    }

    /// `{"run": .., "self_times": {..}, "spans": [..]}`.
    pub fn to_json(&self) -> String {
        let run = json_escape(&self.run);
        let mut s = format!("{{\"run\": \"{run}\", \"self_times\": {{");
        for (i, (name, (count, total, own))) in self.self_times().into_iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(s, "{sep}\"{name}\": {{\"count\": {count}, \"total_s\": {total}, \"self_s\": {own}}}");
        }
        s.push_str("}, \"spans\": [");
        for (i, r) in self.spans.lock().expect("span store poisoned").iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let parent = r.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{sep}{{\"run\": \"{run}\", \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                r.id, r.name, r.start_ns, r.end_ns
            );
        }
        s.push_str("]}");
        s
    }
}

/// The program's own observability globals, installed for traced passes
/// only: the obs metrics handle (per-run/per-chunk wall histograms), the
/// `obs::prof` kernel profiler, and the `obs::ledger` chunk ledger.
pub struct Instruments {
    pub obs: Obs,
    pub prof: Arc<Profiler>,
    pub ledger: Arc<Ledger>,
    /// When the ledger's wall clock (`t_wall_us`) started.
    pub ledger_t0: Instant,
}

/// What the globals captured, read once they are uninstalled.
pub struct Captured {
    pub prof: ProfSnapshot,
    pub events: Vec<LedgerEvent>,
    pub ledger_dropped: u64,
}

impl Default for Instruments {
    /// Fresh globals, not installed yet.
    fn default() -> Self {
        let ledger = Ledger::detached();
        Instruments { obs: Obs::enabled(), prof: Profiler::detached(), ledger, ledger_t0: Instant::now() }
    }
}

impl Instruments {
    /// Installs the globals for a traced pass.
    pub fn install(&self) {
        ocelot_obs::install_global(&self.obs);
        prof::install_global(&self.prof);
        ledger::install_global(&self.ledger);
    }

    /// Uninstalls every global, so untraced passes run without them.
    pub fn uninstall(&self) {
        ocelot_obs::install_global(&Obs::disabled());
        prof::uninstall_global();
        ledger::uninstall_global();
    }

    /// What the globals captured over every traced pass.
    pub fn captured(&self) -> Captured {
        Captured { prof: self.prof.snapshot(), events: self.ledger.drain(), ledger_dropped: self.ledger.dropped() }
    }

    /// Running sum of one of the program's wall-second histograms.
    pub fn hist_sum(&self, name: &str) -> f64 {
        self.obs.registry().map_or(0.0, |r| r.histogram(name, "").sum())
    }

    /// Microseconds on the ledger's wall clock.
    pub fn ledger_now_us(&self) -> u64 {
        self.ledger_t0.elapsed().as_micros() as u64
    }
}

impl Captured {
    /// Kernel call/byte counts and wall-in-scope nanoseconds, as JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"prof_kernels\": [");
        for (i, k) in self.prof.stats.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                s,
                "{sep}{{\"scope\": \"{}\", \"kernel\": \"{}\", \"calls\": {}, \"bytes\": {}, \"wall_in_scope_ns\": {}}}",
                k.scope,
                k.kernel.name(),
                k.calls,
                k.bytes,
                k.nanos
            );
        }
        let _ = write!(
            s,
            "], \"prof_probes\": {}, \"ledger_events\": {}, \"ledger_dropped\": {}}}",
            self.prof.probes,
            self.events.len(),
            self.ledger_dropped
        );
        s
    }

    /// Bytes one kernel processed across every scope.
    pub fn kernel_bytes(&self, kernel: prof::Kernel) -> u64 {
        self.prof.stats.iter().filter(|k| k.kernel == kernel).map(|k| k.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = Tracer::new("test");
        {
            let root = t.span("root", None);
            t.time("child", Some(root.id()), || std::thread::sleep(std::time::Duration::from_millis(5)));
        }
        let st = t.self_times();
        let (n, total, own) = st["root"];
        assert_eq!(n, 1);
        assert!(own >= 0.0 && own < total);
        assert!((total - own - t.total_s("child")).abs() < 1e-9);
    }
}
