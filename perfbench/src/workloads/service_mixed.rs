//! `service-mixed`: a `svc::Service` with 2 workers, stream window 4 and a
//! 2% WAN fault model. Three tenants run a fixed mix of CP (streamed), OP
//! (grouped, staged, faulted) and NP jobs over CESM, RTM and Miranda. One
//! submitting thread sends a batch no larger than the queue capacity, then
//! calls `drain()`.
//!
//! Real codec work happens only while the service profiles its workloads,
//! which is set-up. The codec metrics of this workload therefore come from
//! compressing and restoring the profiling fields (made from the run's seed)
//! with each application's configuration: once after every untraced batch,
//! on the submitting thread while the workers are idle, outside the batch's
//! timed wall, so the samples spread over the run like the batches do.

use std::time::Instant;

use ocelot::orchestrator::{Orchestrator, PipelineOptions, Strategy};
use ocelot::workload::Workload as TransferWorkload;
use ocelot_datagen::{Application, FieldSpec};
use ocelot_netsim::{FaultModel, SiteId};
use ocelot_obs::ledger::Ledger;
use ocelot_obs::span::Clock;
use ocelot_obs::Obs;
use ocelot_svc::{JobId, JobReport, JobSpec, JobState, RetryPolicy, Service, ServiceConfig};
use ocelot_sz::{compress, decompress, Dataset, LossyConfig};

use super::{check_restored, Pass, Size, Traced, Workload};
use crate::report::{median, mib, percentile, Checks, Digest, Metrics};
use crate::trace::{Captured, Tracer};

const WORKERS: usize = 2;
const QUEUE_CAPACITY: usize = 16;
const STREAM_WINDOW: usize = 4;
const FAULT_PROBABILITY: f64 = 0.02;

/// `(application, tenant, relative error bound, from, to)`.
const TENANTS: [(Application, &str, f64, SiteId, SiteId); 3] = [
    (Application::Cesm, "climate", 1e-4, SiteId::Anvil, SiteId::Cori),
    (Application::Rtm, "seismic", 1e-2, SiteId::Anvil, SiteId::Bebop),
    (Application::Miranda, "turbulence", 1e-3, SiteId::Bebop, SiteId::Cori),
];

fn strategies() -> [(&'static str, Strategy); 3] {
    [("compressed", Strategy::Compressed), ("grouped", Strategy::grouped_by_count(16)), ("direct", Strategy::Direct)]
}

/// Jobs in one batch: every tenant runs every strategy once.
const BATCH: usize = TENANTS.len() * 3;

pub struct ServiceMixed {
    service: Service,
    seed: u64,
    profile_scale: usize,
    /// Measured jobs whose simulated results feed the latency percentiles
    /// and the report digest: the first `fixed_jobs` after the warm-up.
    fixed_jobs: u64,
    first_measured: u64,
    next_id: u64,
    reports_seen: usize,
    reports: Vec<JobReport>,
    rejected: u64,
    warmup_digest: u64,
    datagen_s: f64,
    codec_samples: Vec<CodecSample>,
    fields: Vec<(Dataset<f32>, LossyConfig)>,
    /// Job ids, summed batch wall, and ledger events the service dropped,
    /// over the traced passes.
    traced_jobs: Vec<std::ops::Range<u64>>,
    traced_wall_s: f64,
    traced_dropped: u64,
}

fn service_config(seed: u64, profile_scale: usize) -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        faults: FaultModel::flaky(FAULT_PROBABILITY),
        // Six attempts keep retry exhaustion out of reach at 2% per-file
        // failures, so every job of the mix completes.
        retry: RetryPolicy { max_attempts: 6, ..RetryPolicy::default() },
        profile_scale,
        stream_window: STREAM_WINDOW,
        seed,
        ..ServiceConfig::default()
    }
}

/// The fields the service's workloads profile, made from `seed`.
fn profiling_fields(seed: u64, scale: usize) -> Vec<(Dataset<f32>, LossyConfig)> {
    let mut out = Vec::new();
    for (app, _, eb, _, _) in TENANTS {
        let names: Vec<String> = match app {
            Application::Rtm => (0..8).map(|k| format!("snapshot-{:04}", 200 + k * 450)).collect(),
            _ => app.fields().iter().map(|f| f.to_string()).collect(),
        };
        for name in names {
            out.push((FieldSpec::new(app, name).with_scale(scale).with_seed(seed).generate(), LossyConfig::sz3(eb)));
        }
    }
    out
}

/// One compress + restore of every profiling field.
#[derive(Debug, Clone, Copy)]
struct CodecSample {
    compress_s: f64,
    restore_s: f64,
    packed_bytes: u64,
    min_psnr: f64,
}

/// Compresses and restores every profiling field once, checking each.
fn codec_sample(fields: &[(Dataset<f32>, LossyConfig)], checks: &mut Checks) -> CodecSample {
    let mut sample = CodecSample { compress_s: 0.0, restore_s: 0.0, packed_bytes: 0, min_psnr: f64::INFINITY };
    for (data, config) in fields {
        let t = Instant::now();
        let outcome = compress(data, config);
        sample.compress_s += t.elapsed().as_secs_f64();
        let Ok(outcome) = outcome else {
            checks.record(Err("profiling-field compress failed".into()));
            continue;
        };
        let t = Instant::now();
        let restored = decompress::<f32>(&outcome.blob);
        sample.restore_s += t.elapsed().as_secs_f64();
        sample.packed_bytes += outcome.blob.len() as u64;
        checks.record((|| {
            let restored = restored.map_err(|e| e.to_string())?;
            let report = check_restored(data, &restored, config.error_bound.resolve(data))?;
            if report.psnr.is_finite() {
                sample.min_psnr = sample.min_psnr.min(report.psnr);
            }
            Ok(())
        })());
    }
    sample
}

/// Digest of simulated job outcomes, in job order.
fn reports_digest<'a>(reports: impl Iterator<Item = &'a JobReport>) -> u64 {
    let mut sorted: Vec<&JobReport> = reports.collect();
    sorted.sort_by_key(|r| r.job);
    let mut d = Digest::default();
    for r in sorted {
        d.update(&r.job.0.to_le_bytes());
        d.update(format!("{:?}", r.state).as_bytes());
        d.update(&r.latency_s.to_bits().to_le_bytes());
        d.update(&r.bytes_transferred.to_le_bytes());
        d.update(&r.bytes_saved.to_le_bytes());
        d.update(&r.retries.to_le_bytes());
        d.update(&r.wasted_bytes.to_le_bytes());
    }
    d.value()
}

pub fn setup(seed: u64, size: Size, checks: &mut Checks) -> ServiceMixed {
    let (profile_scale, fixed_jobs) = match size {
        Size::Full => (16, 12 * BATCH as u64),
        Size::Toy => (64, BATCH as u64),
    };
    let t = Instant::now();
    let fields = profiling_fields(seed, profile_scale);
    let datagen_s = t.elapsed().as_secs_f64();
    let service = Service::start(service_config(seed, profile_scale));
    let mut w = ServiceMixed {
        service,
        seed,
        profile_scale,
        fixed_jobs,
        first_measured: 0,
        next_id: 0,
        reports_seen: 0,
        reports: Vec::new(),
        rejected: 0,
        warmup_digest: 0,
        datagen_s,
        codec_samples: Vec::new(),
        fields,
        traced_jobs: Vec::new(),
        traced_wall_s: 0.0,
        traced_dropped: 0,
    };
    // Warm-up batch: the service profiles each workload on first use.
    w.batch(checks, None);
    w.warmup_digest = reports_digest(w.reports.iter());
    w.first_measured = w.next_id;
    w
}

impl ServiceMixed {
    /// Submits one batch, drains, and checks every finished job.
    fn batch(&mut self, checks: &mut Checks, traced: Option<&Traced<'_>>) -> f64 {
        let t0 = Instant::now();
        for (app, tenant, eb, from, to) in TENANTS {
            for (_, strategy) in strategies() {
                let spec = JobSpec { tenant: tenant.to_string(), app, error_bound: eb, strategy, from, to };
                let submitted = {
                    let _s = traced.map(|t| t.tracer.span("svc.submit", None));
                    self.service.submit(spec)
                };
                match submitted {
                    Ok(id) => self.next_id = id.0 + 1,
                    Err(e) => {
                        self.rejected += 1;
                        checks.record(Err(format!("submit rejected: {e}")));
                    }
                }
            }
        }
        {
            let _s = traced.map(|t| t.tracer.span("svc.drain", None));
            self.service.drain();
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let all = self.service.reports();
        for r in &all[self.reports_seen..] {
            let state = &r.state;
            checks.record(if *state == JobState::Done { Ok(()) } else { Err(format!("{}: {state:?}", r.job)) });
        }
        self.reports_seen = all.len();
        self.reports = all;
        let m = self.service.metrics();
        let balanced = m.jobs_done + m.jobs_failed == m.jobs_submitted
            && m.jobs_rejected == self.rejected
            && m.queue_depth == 0
            && m.in_flight == 0;
        if !balanced {
            checks.record(Err(format!("service accounting does not balance: {m:?}")));
        }
        wall_s
    }

    /// Events the service's own ledger has dropped so far. The service
    /// drains its ledger, and syncs this counter, as each job ends, so after
    /// `drain()` it covers every finished job.
    fn ledger_dropped(&self) -> u64 {
        match self.service.obs().registry().and_then(|r| r.get(ocelot_obs::ledger::LEDGER_DROPPED_COUNTER)) {
            Some(ocelot_obs::metrics::Metric::Counter(c)) => c.get(),
            _ => 0,
        }
    }

    fn fixed_set(&self) -> impl Iterator<Item = &JobReport> {
        let range = self.first_measured..self.first_measured + self.fixed_jobs;
        self.reports.iter().filter(move |r| range.contains(&r.job.0))
    }
}

impl Workload for ServiceMixed {
    fn pass(&mut self, checks: &mut Checks, traced: Option<&Traced<'_>>) -> Pass {
        let first = self.next_id;
        let dropped = self.ledger_dropped();
        let wall_s = self.batch(checks, traced);
        if traced.is_some() {
            self.traced_jobs.push(first..self.next_id);
            self.traced_wall_s += wall_s;
            self.traced_dropped += self.ledger_dropped() - dropped;
        } else {
            let sample = codec_sample(&self.fields, checks);
            self.codec_samples.push(sample);
        }
        Pass { wall_s, jobs: BATCH as u64, ..Pass::default() }
    }

    fn min_passes(&self) -> usize {
        (self.fixed_jobs as usize).div_ceil(BATCH)
    }

    fn end_to_end(&mut self, passes: &[Pass], _checks: &mut Checks) -> Metrics {
        let mut m = Metrics::default();
        let raw = mib(self.input_bytes());
        let rate =
            |f: fn(&CodecSample) -> f64| median(&self.codec_samples.iter().map(|c| raw / f(c)).collect::<Vec<_>>());
        m.set("compress_mib_s", rate(|c| c.compress_s), "MiB/s");
        m.set("restore_mib_s", rate(|c| c.restore_s), "MiB/s");
        m.set("round_trip_mib_s", rate(|c| c.compress_s + c.restore_s), "MiB/s");
        if let Some(first) = self.codec_samples.first() {
            m.set("compression_ratio", self.input_bytes() as f64 / first.packed_bytes.max(1) as f64, "ratio");
            m.set("psnr_db", first.min_psnr, "dB");
        }
        let jobs: u64 = passes.iter().map(|p| p.jobs).sum();
        let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
        m.set("jobs_per_s", jobs as f64 / wall.max(1e-12), "1/s");
        let latencies: Vec<f64> = self.fixed_set().map(|r| r.latency_s).collect();
        m.set("sim_job_latency_p50_s", percentile(&latencies, 0.5), "s");
        m.set("sim_job_latency_p90_s", percentile(&latencies, 0.9), "s");
        m
    }

    fn per_layer(&mut self, tracer: &Tracer, _captured: &Captured, checks: &mut Checks) -> Metrics {
        let mut m = Metrics::default();
        let submit_us: Vec<f64> = tracer.durations_s("svc.submit").iter().map(|s| s * 1e6).collect();
        m.set("svc.submit_us.p50", percentile(&submit_us, 0.5), "us");
        m.set("svc.submit_us.p99", percentile(&submit_us, 0.99), "us");
        let traced = |j: u64| self.traced_jobs.iter().any(|r| r.contains(&j));
        let spans = self.service.obs().recorder().map(|r| r.spans()).unwrap_or_default();
        let process_ms: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "svc.process" && s.clock == Clock::Wall && s.job.is_some_and(traced))
            .map(|s| (s.end_us - s.start_us) as f64 / 1e3)
            .collect();
        m.set("svc.process_ms.p50", percentile(&process_ms, 0.5), "ms");
        m.set("svc.process_ms.p99", percentile(&process_ms, 0.99), "ms");
        let busy_s: f64 = process_ms.iter().sum::<f64>() / 1e3;
        m.set("svc.worker_busy_share", busy_s / (WORKERS as f64 * self.traced_wall_s).max(1e-12), "ratio");
        // Ledger events and drops come from the service's own ledger over
        // the traced batches; retained events cover every job run so far.
        let events = |j: u64| self.service.chunk_events(JobId(j)).len();
        let traced_ids: Vec<u64> = self.traced_jobs.iter().flat_map(Clone::clone).collect();
        let traced_events: usize = traced_ids.iter().map(|&j| events(j)).sum();
        let traced_count = traced_ids.len().max(1) as f64;
        m.set("obs.ledger.events_per_job", traced_events as f64 / traced_count, "count");
        m.set("obs.ledger.dropped_per_job", self.traced_dropped as f64 / traced_count, "count");
        let retained: usize = (0..self.next_id).map(events).sum();
        m.set("svc.retained_events_per_job", retained as f64 / self.next_id.max(1) as f64, "count");
        let fixed: Vec<&JobReport> = self.fixed_set().collect();
        let retries: u64 = fixed.iter().map(|r| u64::from(r.retries)).sum();
        m.set("netsim.retries_per_job", retries as f64 / fixed.len().max(1) as f64, "count");
        orchestrator_layers(self.seed, self.profile_scale, &mut m, checks);
        m
    }

    fn codec_inputs(&self) -> Vec<(&Dataset<f32>, LossyConfig)> {
        self.fields.iter().map(|(d, c)| (d, *c)).collect()
    }

    fn datagen_s(&self) -> f64 {
        self.datagen_s
    }

    fn input_bytes(&self) -> u64 {
        self.fields.iter().map(|(d, _)| d.nbytes() as u64).sum()
    }

    fn setup_digest(&self) -> Option<u64> {
        Some(self.warmup_digest)
    }

    fn output_digest(&self) -> Option<u64> {
        let fixed: Vec<&JobReport> = self.fixed_set().collect();
        (fixed.len() as u64 == self.fixed_jobs).then(|| reports_digest(fixed.into_iter()))
    }
}

/// Times `Orchestrator::run_streamed` per application and `run_detailed`
/// per strategy, called directly with the options the service uses, plus
/// the workload profiling they need.
fn orchestrator_layers(seed: u64, profile_scale: usize, m: &mut Metrics, checks: &mut Checks) {
    let orchestrator = Orchestrator::paper().with_obs(Obs::enabled()).with_ledger(Ledger::detached());
    let opts = PipelineOptions {
        faults: FaultModel { max_retries: 0, ..FaultModel::flaky(FAULT_PROBABILITY) },
        seed,
        job: Some(0),
        codec_threads: 1,
        stream_window: STREAM_WINDOW,
        ..PipelineOptions::default()
    };
    let t = Instant::now();
    let mut workloads = Vec::new();
    for (app, _, eb, from, to) in TENANTS {
        let config = LossyConfig::sz3(eb);
        let built = match app {
            Application::Cesm => TransferWorkload::cesm(config, profile_scale),
            Application::Rtm => TransferWorkload::rtm(config, profile_scale),
            _ => TransferWorkload::miranda(config, profile_scale),
        };
        match built {
            Ok(w) => workloads.push((app, w, from, to)),
            Err(e) => checks.record(Err(format!("workload profiling: {e}"))),
        }
    }
    m.set("core.workload.profile_s", t.elapsed().as_secs_f64(), "s");
    let mut detailed_ms = [0.0; 3];
    for (app, workload, from, to) in &workloads {
        let t = Instant::now();
        let breakdown = orchestrator.run_streamed(workload, *from, *to, &opts);
        let name = match app {
            Application::Cesm => "core.orchestrator.run_streamed_ms.cesm",
            Application::Rtm => "core.orchestrator.run_streamed_ms.rtm",
            _ => "core.orchestrator.run_streamed_ms.miranda",
        };
        m.set(name, t.elapsed().as_secs_f64() * 1e3, "ms");
        checks.record(if breakdown.transfer_s > 0.0 { Ok(()) } else { Err(format!("{name}: empty transfer")) });
        for (k, (_, strategy)) in strategies().into_iter().enumerate() {
            let t = Instant::now();
            let _ = orchestrator.run_detailed(workload, *from, *to, strategy, &opts);
            detailed_ms[k] += t.elapsed().as_secs_f64() * 1e3 / workloads.len() as f64;
        }
    }
    for ((name, _), ms) in strategies().iter().zip(detailed_ms) {
        let metric = match *name {
            "compressed" => "core.orchestrator.run_detailed_ms.compressed",
            "grouped" => "core.orchestrator.run_detailed_ms.grouped",
            _ => "core.orchestrator.run_detailed_ms.direct",
        };
        m.set(metric, ms, "ms");
    }
}
