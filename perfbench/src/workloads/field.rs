//! `field-staged` and `field-stream`: one large 3-D Miranda field at
//! `sz3(1e-3)` with a fixed `chunk_points`, on the same 2-core budget.
//!
//! * `field-staged` runs `ParallelExecutor::new(1).with_codec_threads(2)`:
//!   `compress_all_with_stats`, then `decompress_all` — the engine's chunk
//!   pool, the shared Huffman table, and threaded chunk decode.
//! * `field-stream` runs `stream_round_trip` at window 4 with one codec
//!   thread plus the decode drainer — the window gate, the in-order reorder,
//!   the lane and decode-on-arrival. Its blob must be byte-identical to the
//!   staged `compress` digest taken in setup.

use std::time::Instant;

use ocelot::ParallelExecutor;
use ocelot_datagen::{Application, FieldSpec};
use ocelot_obs::ledger::EventKind;
use ocelot_sz::{compress, Dataset, LossyConfig};

use super::{check_restored, sim_transfer_s, Pass, PoolTally, Size, Traced, Workload};
use crate::report::{median, percentile, Checks, Digest, Metrics};
use crate::trace::{Captured, Tracer};

/// The paper's Miranda default relative error bound.
const REL_EB: f64 = 1e-3;

/// Codec threads of the staged executor (the stream uses one plus its
/// drainer).
const CODEC_THREADS: usize = 2;

/// In-flight chunk window of the streamed round trip.
const STREAM_WINDOW: usize = 4;

/// Which of the two field workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Staged,
    Stream,
}

pub struct Field {
    mode: Mode,
    data: Vec<Dataset<f32>>,
    config: LossyConfig,
    abs_eb: f64,
    seed: u64,
    datagen_s: f64,
    /// Blob digest every pass must reproduce: the staged `compress` digest
    /// taken in set-up (`field-stream`) or the first pass's (`field-staged`).
    digest: Option<u64>,
    /// Ratio and compressed size of the first pass.
    reference: Option<(f64, u64)>,
    min_psnr: f64,
    pools: PoolTally,
    /// Traced streamed passes: ledger-clock start of each pass (µs).
    pass_starts_us: Vec<u64>,
}

fn blob_digest(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.update(bytes);
    d.value()
}

pub fn setup(mode: Mode, seed: u64, size: Size) -> Result<Field, String> {
    // Full size: 85×128×128 f32 = 5.3 MiB, above one core's L2; 17 chunks.
    let (scale, chunk_rows) = match size {
        Size::Full => (3, 5),
        Size::Toy => (16, 4),
    };
    let t = Instant::now();
    let data = FieldSpec::new(Application::Miranda, "density").with_scale(scale).with_seed(seed).generate();
    let datagen_s = t.elapsed().as_secs_f64();
    let row_points: usize = data.dims()[1..].iter().product();
    let config = LossyConfig::sz3(REL_EB).with_chunk_points(Some(chunk_rows * row_points));
    let abs_eb = config.error_bound.resolve(&data);
    let digest = match mode {
        Mode::Stream => Some(blob_digest(compress(&data, &config).map_err(|e| e.to_string())?.blob.as_bytes())),
        Mode::Staged => None,
    };
    Ok(Field {
        mode,
        data: vec![data],
        config,
        abs_eb,
        seed,
        datagen_s,
        digest,
        reference: None,
        min_psnr: f64::INFINITY,
        pools: PoolTally::default(),
        pass_starts_us: Vec::new(),
    })
}

impl Field {
    fn staged_pass(&mut self, checks: &mut Checks, traced: Option<&Traced<'_>>) -> Pass {
        let exec = ParallelExecutor::new(1).with_codec_threads(CODEC_THREADS);
        let (outcomes, compress_s) = self.pools.time(traced, 1, CODEC_THREADS, || {
            let _s = traced.map(|t| t.tracer.span("core.executor.compress_all_with_stats", None));
            exec.compress_all_with_stats(&self.data, &self.config)
        });
        let outcome = match outcomes {
            Ok(mut o) if o.len() == 1 => o.remove(0),
            other => {
                checks.record(Err(format!("compress_all_with_stats: {:?}", other.err())));
                return Pass { compress_s, wall_s: compress_s, ..Pass::default() };
            }
        };
        let blobs = [outcome.blob];
        let t1 = Instant::now();
        let restored = {
            let _s = traced.map(|t| t.tracer.span("core.executor.decompress_all", None));
            exec.decompress_all(&blobs)
        };
        let restore_s = t1.elapsed().as_secs_f64();
        let digest = blob_digest(blobs[0].as_bytes());
        let result = (|| {
            let restored = restored.map_err(|e| format!("decompress_all: {e}"))?;
            self.check(digest, outcome.ratio, blobs[0].len() as u64, &restored[0])
        })();
        checks.record(result);
        Pass { compress_s, restore_s, wall_s: compress_s + restore_s, raw_bytes: self.raw_bytes(), jobs: 1 }
    }

    fn stream_pass(&mut self, checks: &mut Checks, traced: Option<&Traced<'_>>) -> Pass {
        let exec = ParallelExecutor::new(1);
        if let Some(t) = traced {
            self.pass_starts_us.push(t.inst.ledger_now_us());
        }
        let t0 = Instant::now();
        let rt = {
            let _s = traced.map(|t| t.tracer.span("core.executor.stream_round_trip", None));
            exec.stream_round_trip(&self.data[0], &self.config, STREAM_WINDOW)
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let result = (|| {
            let rt = rt.map_err(|e| format!("stream_round_trip: {e}"))?;
            if rt.chunks_shipped != rt.outcome.chunks {
                return Err(format!("{} of {} chunks crossed the stream", rt.chunks_shipped, rt.outcome.chunks));
            }
            let digest = blob_digest(rt.outcome.blob.as_bytes());
            self.check(digest, rt.outcome.ratio, rt.outcome.blob.len() as u64, &rt.restored)
        })();
        checks.record(result);
        // Compression and restore overlap inside one call; each stage's rate
        // is the rate of the whole streamed round trip.
        Pass { compress_s: wall_s, restore_s: wall_s, wall_s, raw_bytes: self.raw_bytes(), jobs: 1 }
    }

    /// Bound, determinism and shape checks shared by both modes.
    fn check(&mut self, digest: u64, ratio: f64, len: u64, restored: &Dataset<f32>) -> Result<(), String> {
        if digest != *self.digest.get_or_insert(digest) {
            return Err(match self.mode {
                Mode::Staged => "blob bytes changed between passes".into(),
                Mode::Stream => "streamed blob differs from the staged compress digest".into(),
            });
        }
        self.reference.get_or_insert((ratio, len));
        let report = check_restored(&self.data[0], restored, self.abs_eb)?;
        if report.psnr.is_finite() {
            self.min_psnr = self.min_psnr.min(report.psnr);
        }
        Ok(())
    }

    fn raw_bytes(&self) -> u64 {
        self.data[0].nbytes() as u64
    }
}

impl Workload for Field {
    fn pass(&mut self, checks: &mut Checks, traced: Option<&Traced<'_>>) -> Pass {
        match self.mode {
            Mode::Staged => self.staged_pass(checks, traced),
            Mode::Stream => self.stream_pass(checks, traced),
        }
    }

    fn end_to_end(&mut self, passes: &[Pass], _checks: &mut Checks) -> Metrics {
        let (ratio, len) = self.reference.unwrap_or_default();
        super::codec_end_to_end(passes, ratio, self.min_psnr, sim_transfer_s(&[len], self.seed))
    }

    fn per_layer(&mut self, _tracer: &Tracer, captured: &Captured, _checks: &mut Checks) -> Metrics {
        let mut m = Metrics::default();
        match self.mode {
            Mode::Staged => self.pools.metrics(&mut m),
            Mode::Stream => stream_layers(&self.pass_starts_us, captured, &mut m),
        }
        m
    }

    fn codec_inputs(&self) -> Vec<(&Dataset<f32>, LossyConfig)> {
        vec![(&self.data[0], self.config)]
    }

    fn datagen_s(&self) -> f64 {
        self.datagen_s
    }

    fn input_bytes(&self) -> u64 {
        self.raw_bytes()
    }

    fn setup_digest(&self) -> Option<u64> {
        self.digest.filter(|_| self.mode == Mode::Stream)
    }
}

/// Lane and drainer metrics from the ledger events of the traced streamed
/// passes: per chunk, `Encoded` (codec worker done) → `Arrived` (drainer
/// picked it up) is the lane transit, and `Arrived` → `DecodeEnd` is the
/// decode-on-arrival time.
fn stream_layers(pass_starts_us: &[u64], captured: &Captured, m: &mut Metrics) {
    let mut transit_ms = Vec::new();
    let mut decode_ms = Vec::new();
    let mut first_arrival_ms = Vec::new();
    let mut busy_share = Vec::new();
    let mut wait_s = Vec::new();
    for (p, &start) in pass_starts_us.iter().enumerate() {
        let end = pass_starts_us.get(p + 1).copied().unwrap_or(u64::MAX);
        let in_pass =
            |k: EventKind| captured.events.iter().filter(move |e| e.event == k && (start..end).contains(&e.t_wall_us));
        let encoded: Vec<_> = in_pass(EventKind::Encoded).collect();
        let decoded: Vec<_> = in_pass(EventKind::DecodeEnd).collect();
        let mut busy_us = 0u64;
        let mut first = u64::MAX;
        for arrived in in_pass(EventKind::Arrived) {
            first = first.min(arrived.t_wall_us);
            if let Some(enc) = encoded.iter().find(|e| e.chunk == arrived.chunk) {
                transit_ms.push(arrived.t_wall_us.saturating_sub(enc.t_wall_us) as f64 / 1e3);
            }
            if let Some(dec) = decoded.iter().find(|e| e.parent == Some(arrived.seq)) {
                let d = dec.t_wall_us.saturating_sub(arrived.t_wall_us);
                busy_us += d;
                decode_ms.push(d as f64 / 1e3);
            }
        }
        let last = decoded.iter().map(|e| e.t_wall_us).max().unwrap_or(start);
        if first == u64::MAX || last <= start {
            continue;
        }
        let span_us = (last - start) as f64;
        first_arrival_ms.push((first - start) as f64 / 1e3);
        busy_share.push(busy_us as f64 / span_us);
        wait_s.push((span_us - busy_us as f64) / 1e6);
    }
    m.set("core.executor.first_arrival_ms", median(&first_arrival_ms), "ms");
    m.set("core.executor.lane_transit_ms.p50", percentile(&transit_ms, 0.5), "ms");
    m.set("core.executor.lane_transit_ms.p99", percentile(&transit_ms, 0.99), "ms");
    m.set("core.executor.drainer_busy_share", median(&busy_share), "ratio");
    m.set("core.executor.drainer_wait_s", median(&wait_s), "s");
    m.set("sz.decode_chunk_ms.p50", percentile(&decode_ms, 0.5), "ms");
    m.set("sz.decode_chunk_ms.p99", percentile(&decode_ms, 0.99), "ms");
}
