//! The four closed-loop workloads and what they share.

pub mod field;
pub mod files_archive;
pub mod service_mixed;

use std::time::Instant;

use ocelot::Orchestrator;
use ocelot_netsim::{simulate_transfer, GridFtpConfig, SiteId};
use ocelot_sz::metrics::{compare, QualityReport};
use ocelot_sz::{Dataset, LossyConfig};

use crate::report::{median, mib, Checks, Metrics};
use crate::trace::{Captured, Instruments, Tracer};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = ["files-archive", "field-staged", "field-stream", "service-mixed"];

/// Input scale: the measured size, or a toy size for smoke tests and for
/// filling per-layer metrics of layers off a workload's path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Toy,
}

impl Size {
    /// Lowercase label.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Toy => "toy",
        }
    }
}

/// Timings of one closed-loop unit of work.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    /// Wall seconds of the compress step.
    pub compress_s: f64,
    /// Wall seconds of the restore step.
    pub restore_s: f64,
    /// Wall seconds of the whole unit.
    pub wall_s: f64,
    /// Raw bytes the unit carried through the codec.
    pub raw_bytes: u64,
    /// Jobs the unit completed.
    pub jobs: u64,
}

/// What a traced pass records into.
pub struct Traced<'a> {
    pub tracer: &'a Tracer,
    pub inst: &'a Instruments,
}

/// Busy and capacity thread-seconds of the executor's file pool and the
/// engine's chunk pool over the traced compress calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolTally {
    exec_busy: f64,
    exec_capacity: f64,
    engine_busy: f64,
    engine_capacity: f64,
}

impl PoolTally {
    /// Times one compress call and, when traced, charges it to both pools.
    /// Per-item times come from the program's histograms: one
    /// `ocelot_sz_compress_seconds` sample per file, one
    /// `ocelot_sz_chunk_seconds` sample per chunk.
    pub fn time<R>(
        &mut self,
        traced: Option<&Traced<'_>>,
        file_workers: usize,
        codec_threads: usize,
        compress: impl FnOnce() -> R,
    ) -> (R, f64) {
        let sums = |t: &Traced<'_>| {
            (t.inst.hist_sum("ocelot_sz_compress_seconds"), t.inst.hist_sum("ocelot_sz_chunk_seconds"))
        };
        let before = traced.map(sums);
        let t0 = Instant::now();
        let out = compress();
        let wall_s = t0.elapsed().as_secs_f64();
        if let (Some(t), Some((runs0, chunks0))) = (traced, before) {
            let (runs1, chunks1) = sums(t);
            self.exec_busy += runs1 - runs0;
            self.exec_capacity += file_workers as f64 * wall_s;
            self.engine_busy += chunks1 - chunks0;
            self.engine_capacity += codec_threads as f64 * (runs1 - runs0);
        }
        (out, wall_s)
    }

    /// Idle share of each pool: threads × wall minus the summed item times,
    /// over threads × wall.
    pub fn metrics(&self, m: &mut Metrics) {
        m.set("core.executor.pool_idle_share", 1.0 - self.exec_busy / self.exec_capacity.max(1e-12), "ratio");
        m.set("sz.engine.pool_idle_share", 1.0 - self.engine_busy / self.engine_capacity.max(1e-12), "ratio");
    }
}

/// One benchmark workload after set-up.
pub trait Workload {
    /// Runs one closed-loop unit of work and checks its outputs. When
    /// `traced` is given, the benchmark's calls into the program are wrapped
    /// in spans and the program's globals are installed.
    fn pass(&mut self, checks: &mut Checks, traced: Option<&Traced<'_>>) -> Pass;

    /// Passes a measurement makes even when the clock has run out.
    fn min_passes(&self) -> usize {
        3
    }

    /// End-to-end metrics of the untraced passes, except `setup_s` and
    /// `peak_rss_mib`, which the caller adds.
    fn end_to_end(&mut self, passes: &[Pass], checks: &mut Checks) -> Metrics;

    /// Per-layer metrics of the layers on this workload's own path, from the
    /// traced passes just run and what the globals captured.
    fn per_layer(&mut self, tracer: &Tracer, captured: &Captured, checks: &mut Checks) -> Metrics;

    /// The datasets and configurations this workload feeds the codec.
    fn codec_inputs(&self) -> Vec<(&Dataset<f32>, LossyConfig)>;

    /// Seconds spent in `datagen` during set-up.
    fn datagen_s(&self) -> f64;

    /// Raw input bytes.
    fn input_bytes(&self) -> u64;

    /// A digest of set-up's deterministic results, equal across set-ups of
    /// one seed.
    fn setup_digest(&self) -> Option<u64> {
        None
    }

    /// A digest of the measured outputs that must be equal across runs of
    /// one program and seed. Codec workloads check their outputs within a
    /// run instead (across passes, and the stream against the staged blob),
    /// so a change that alters blob bytes within the error bound passes.
    fn output_digest(&self) -> Option<u64> {
        None
    }
}

/// Sets a workload up from `seed`.
pub fn setup(name: &str, seed: u64, size: Size, checks: &mut Checks) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "files-archive" => Box::new(files_archive::setup(seed, size)),
        "field-staged" => Box::new(field::setup(field::Mode::Staged, seed, size)?),
        "field-stream" => Box::new(field::setup(field::Mode::Stream, seed, size)?),
        "service-mixed" => Box::new(service_mixed::setup(seed, size, checks)),
        other => return Err(format!("unknown workload {other:?}; expected one of {NAMES:?}")),
    })
}

/// Checks `|x − x̂| ≤ eb` at every point and returns the quality report.
pub fn check_restored(original: &Dataset<f32>, restored: &Dataset<f32>, eb: f64) -> Result<QualityReport, String> {
    let report = compare(original, restored).map_err(|e| e.to_string())?;
    if report.within_bound(eb) {
        Ok(report)
    } else {
        Err(format!("max error {} exceeds the bound {eb}", report.max_abs_error))
    }
}

/// Simulated seconds to move `sizes` bytes from Anvil to Cori on the
/// paper's testbed with default GridFTP settings.
pub fn sim_transfer_s(sizes: &[u64], seed: u64) -> f64 {
    let orchestrator = Orchestrator::paper();
    let route = orchestrator.topology().route(SiteId::Anvil, SiteId::Cori);
    simulate_transfer(sizes, &route.link, &GridFtpConfig::default(), seed).duration_s
}

/// End-to-end metrics of a codec workload. Rates are medians over passes;
/// one pass is one job, whose simulated latency is the WAN transfer of its
/// compressed output (identical every pass, so p50 = p90).
pub fn codec_end_to_end(passes: &[Pass], ratio: f64, min_psnr: f64, sim_latency_s: f64) -> Metrics {
    let rate = |f: fn(&Pass) -> f64| median(&passes.iter().map(|p| mib(p.raw_bytes) / f(p)).collect::<Vec<_>>());
    let mut m = Metrics::default();
    m.set("compress_mib_s", rate(|p| p.compress_s), "MiB/s");
    m.set("restore_mib_s", rate(|p| p.restore_s), "MiB/s");
    m.set("round_trip_mib_s", rate(|p| p.wall_s), "MiB/s");
    m.set("jobs_per_s", 1.0 / median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()), "1/s");
    m.set("compression_ratio", ratio, "ratio");
    m.set("psnr_db", min_psnr, "dB");
    m.set("sim_job_latency_p50_s", sim_latency_s, "s");
    m.set("sim_job_latency_p90_s", sim_latency_s, "s");
    m
}
