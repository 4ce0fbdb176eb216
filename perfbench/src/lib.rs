//! End-to-end and per-layer benchmark of the Ocelot workspace.
//!
//! One run sets a workload up from a seed, drives it closed-loop through the
//! public API for a fixed time, checks every output, and reports either the
//! end-to-end metrics (untraced) or the per-layer metrics (traced). See
//! `perfbench/README.md` for the workloads and the layer → metric map.

pub mod codec_layers;
pub mod report;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;
use std::time::Instant;

use ocelot_obs::prof::Kernel;

use report::{median, peak_rss_mib, Checks, Fingerprint, Metrics};
use trace::{Instruments, Tracer};
use workloads::{Pass, Size, Traced, Workload, NAMES};

/// Every end-to-end metric an untraced run reports, with its unit.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("compress_mib_s", "MiB/s"),
    ("restore_mib_s", "MiB/s"),
    ("round_trip_mib_s", "MiB/s"),
    ("jobs_per_s", "1/s"),
    ("compression_ratio", "ratio"),
    ("psnr_db", "dB"),
    ("sim_job_latency_p50_s", "s"),
    ("sim_job_latency_p90_s", "s"),
];

/// Every per-layer metric a traced run reports, with its unit.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("sz.predict.encode_s", "s"),
    ("sz.predict.decode_s", "s"),
    ("sz.encode.huffman.encode_s", "s"),
    ("sz.encode.huffman.decode_s", "s"),
    ("sz.encode.lz.encode_s", "s"),
    ("sz.encode.lz.decode_s", "s"),
    ("sz.checksum.crc_s", "s"),
    ("sz.checksum.bytes_per_raw_byte", "ratio"),
    ("sz.stats.histogram_s", "s"),
    ("sz.format.write_s", "s"),
    ("sz.format.open_s", "s"),
    ("sz.pipeline.wall_s", "s"),
    ("sz.pipeline.unattributed_s", "s"),
    ("sz.chunks", "count"),
    ("sz.chunks_shared_table", "count"),
    ("sz.chunks_local_table", "count"),
    ("sz.unpredictable_ratio", "ratio"),
    ("core.executor.pool_idle_share", "ratio"),
    ("sz.engine.pool_idle_share", "ratio"),
    ("core.grouping.group_s", "s"),
    ("core.grouping.ungroup_s", "s"),
    ("core.executor.first_arrival_ms", "ms"),
    ("core.executor.lane_transit_ms.p50", "ms"),
    ("core.executor.lane_transit_ms.p99", "ms"),
    ("core.executor.drainer_busy_share", "ratio"),
    ("core.executor.drainer_wait_s", "s"),
    ("sz.decode_chunk_ms.p50", "ms"),
    ("sz.decode_chunk_ms.p99", "ms"),
    ("svc.submit_us.p50", "us"),
    ("svc.submit_us.p99", "us"),
    ("svc.process_ms.p50", "ms"),
    ("svc.process_ms.p99", "ms"),
    ("svc.worker_busy_share", "ratio"),
    ("core.orchestrator.run_streamed_ms.cesm", "ms"),
    ("core.orchestrator.run_streamed_ms.rtm", "ms"),
    ("core.orchestrator.run_streamed_ms.miranda", "ms"),
    ("core.orchestrator.run_detailed_ms.direct", "ms"),
    ("core.orchestrator.run_detailed_ms.compressed", "ms"),
    ("core.orchestrator.run_detailed_ms.grouped", "ms"),
    ("netsim.retries_per_job", "count"),
    ("obs.ledger.events_per_job", "count"),
    ("obs.ledger.dropped_per_job", "count"),
    ("svc.retained_events_per_job", "count"),
    ("datagen.generate_s", "s"),
    ("core.workload.profile_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.reconcile_error", "ratio"),
    ("trace.layers_filled_from_toy", "count"),
];

/// Threads every workload keeps busy (the machine's 2 cores).
pub const BUSY_THREADS: usize = 2;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Seconds each toy workload runs when it fills layers off the measured
/// workload's path.
const FILL_SECONDS: f64 = 0.2;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Directory for result records and digests (inside the checkout).
    pub out_dir: PathBuf,
}

/// A finished run.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Metrics,
    pub fingerprint: Fingerprint,
    /// JSON record of everything behind the metrics (set-up repetitions,
    /// spans, profiler and ledger counts).
    pub record: String,
}

/// Runs one benchmark invocation.
///
/// # Errors
/// Returns an error for an unknown workload or a failed set-up.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut setup_digest = None;
    let mut current: Option<Box<dyn Workload>> = None;
    for _ in 0..reps {
        drop(current.take());
        let t = Instant::now();
        let w = workloads::setup(&opts.workload, opts.seed, opts.size, &mut checks)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let digest = w.setup_digest();
        checks.record(match (setup_digest, digest) {
            (Some(a), Some(b)) if a != b => Err("set-up results differ between set-ups of one seed".into()),
            _ => Ok(()),
        });
        setup_digest = setup_digest.or(digest);
        current = Some(w);
    }
    let mut w = current.expect("at least one set-up");
    let fingerprint = Fingerprint::probe(&opts.workload, opts.seed, opts.trace, w.input_bytes(), BUSY_THREADS);

    let (metrics, trace_record) = if opts.trace {
        traced_run(opts, &mut *w, &mut checks)
    } else {
        let min_passes = w.min_passes();
        let (passes, rss_mib) = measure(&mut *w, opts.seconds, min_passes, &mut checks);
        let mut m = w.end_to_end(&passes, &mut checks);
        m.set("setup_s", median(&setup_s), "s");
        m.set("peak_rss_mib", rss_mib, "MiB");
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        (m, format!("{{\"pass_wall_s\": {walls:?}}}"))
    };
    check_output_digest(opts, &*w, &mut checks);
    for name in metrics.non_finite() {
        checks.record(Err(format!("metric {name} is not a finite number")));
    }
    let record = format!(
        "{{\"fingerprint\": {}, \"setup_s\": {:?}, \"problems\": {:?}, \"result\": {}, \"trace\": {}}}",
        fingerprint.to_json(),
        setup_s,
        checks.problems,
        report::result_line(&checks, &metrics),
        trace_record
    );
    Ok(Outcome { checks, metrics, fingerprint, record })
}

/// Closed loop: the next pass starts only after the last one returned.
/// Also returns the process's peak RSS once `min_passes` were done: the
/// service's state grows with every job, so a later reading would depend on
/// how many jobs the clock allowed.
fn measure(w: &mut dyn Workload, seconds: f64, min_passes: usize, checks: &mut Checks) -> (Vec<Pass>, f64) {
    let t0 = Instant::now();
    let mut passes = Vec::new();
    let mut rss_mib = 0.0;
    while passes.len() < min_passes.max(1) || t0.elapsed().as_secs_f64() < seconds {
        passes.push(w.pass(checks, None));
        if passes.len() == min_passes.max(1) {
            rss_mib = peak_rss_mib();
        }
    }
    (passes, rss_mib)
}

/// Traced run: untraced passes (the overhead baseline) alternating with the
/// same passes with the globals installed and spans recorded, then the codec
/// replay; layers off this workload's path are filled from toy runs of the
/// workloads that own them.
fn traced_run(opts: &Options, w: &mut dyn Workload, checks: &mut Checks) -> (Metrics, String) {
    let run_id = format!("{}/{}/seed{}", opts.workload, opts.size.name(), opts.seed);
    let (mut m, mut records) = traced_metrics(w, &run_id, opts.seconds, checks);
    let mut filled = 0usize;
    for other in NAMES.iter().filter(|n| **n != opts.workload) {
        if PER_LAYER.iter().all(|(name, _)| m.get(name).is_some() || name.starts_with("trace.")) {
            break;
        }
        let mut fill_checks = Checks::default();
        let Ok(mut toy) = workloads::setup(other, opts.seed, Size::Toy, &mut fill_checks) else { continue };
        let run_id = format!("{other}/toy/seed{}", opts.seed);
        let (fm, rec) = traced_metrics(&mut *toy, &run_id, FILL_SECONDS, &mut fill_checks);
        let before = m.iter().count();
        m.fill_from(&fm);
        filled += m.iter().count() - before;
        records.push_str(", ");
        records.push_str(&rec);
        checks.merge(fill_checks);
    }
    m.set("trace.layers_filled_from_toy", filled as f64, "count");
    let reconcile_error = m.get("trace.reconcile_error").unwrap_or(f64::INFINITY);
    let reconciled = reconcile_error <= codec_layers::RECONCILE_TOLERANCE;
    checks.record(if reconciled {
        Ok(())
    } else {
        Err(format!(
            "codec stage replay does not reconcile with the real pipeline: error {reconcile_error} > {}",
            codec_layers::RECONCILE_TOLERANCE
        ))
    });
    let record = format!(
        "{{\"reconcile_tolerance\": {}, \"reconciled\": {reconciled}, \"runs\": [{records}]}}",
        codec_layers::RECONCILE_TOLERANCE
    );
    (m, record)
}

/// Per-layer metrics of one workload plus its JSON run record.
fn traced_metrics(w: &mut dyn Workload, run_id: &str, seconds: f64, checks: &mut Checks) -> (Metrics, String) {
    let tracer = Tracer::new(run_id);
    let inst = Instruments::default();
    let ctx = Traced { tracer: &tracer, inst: &inst };
    let half_min = w.min_passes().div_ceil(2);
    let t0 = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    // Untraced and traced passes alternate, so drift in the machine's speed
    // or in the workload's own growing state falls on both sides of
    // `trace.overhead_ratio`.
    while traced.len() < half_min || t0.elapsed().as_secs_f64() < seconds {
        untraced.push(w.pass(checks, None));
        inst.install();
        traced.push(w.pass(checks, Some(&ctx)));
        inst.uninstall();
    }
    let captured = inst.captured();

    let mut m = w.per_layer(&tracer, &captured, checks);
    let raw: u64 = traced.iter().map(|p| p.raw_bytes).sum();
    if raw > 0 {
        let crc_bytes = captured.kernel_bytes(Kernel::FrameCrc);
        m.set("sz.checksum.bytes_per_raw_byte", crc_bytes as f64 / raw as f64, "ratio");
    }
    m.fill_from(&codec_layers::replay(&tracer, &w.codec_inputs(), checks));
    let per_job = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall_s / p.jobs.max(1) as f64).collect::<Vec<_>>());
    let mut generic = Metrics::default();
    generic.set("trace.overhead_ratio", per_job(&traced) / per_job(&untraced).max(1e-12), "ratio");
    generic.set("datagen.generate_s", w.datagen_s(), "s");
    let traced_jobs = traced.iter().map(|p| p.jobs).sum::<u64>().max(1) as f64;
    generic.set("obs.ledger.events_per_job", captured.events.len() as f64 / traced_jobs, "count");
    generic.set("obs.ledger.dropped_per_job", captured.ledger_dropped as f64 / traced_jobs, "count");
    m.fill_from(&generic);
    let record = format!("{{\"spans\": {}, \"captured\": {}}}", tracer.to_json(), captured.to_json());
    (m, record)
}

/// Compares the run's output digest with the one an earlier run of the same
/// program, workload, size and seed left in `out_dir`, or records it. The
/// key holds a hash of the program's sources, so runs of different code
/// never compare against each other.
fn check_output_digest(opts: &Options, w: &dyn Workload, checks: &mut Checks) {
    let Some(digest) = w.output_digest() else { return };
    let dir = opts.out_dir.join("digests");
    let program = env!("PERFBENCH_PROGRAM_HASH");
    let path = dir.join(format!("{}-{}-seed{}-{program}", opts.workload, opts.size.name(), opts.seed));
    match std::fs::read_to_string(&path) {
        Ok(prev) => checks.record(if prev.trim() == digest.to_string() {
            Ok(())
        } else {
            Err(format!("output digest {digest} differs from an earlier run's {}", prev.trim()))
        }),
        Err(_) => {
            if std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, digest.to_string())).is_err() {
                checks.record(Err(format!("cannot record the output digest in {}", dir.display())));
            }
        }
    }
}
