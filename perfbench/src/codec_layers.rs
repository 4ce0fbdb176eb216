//! Per-stage replay of the codec on a workload's own inputs.
//!
//! The real pipeline (`ocelot_sz::compress` / `decompress`) runs its stages
//! inside one call, so the benchmark times them by calling each stage's
//! public function itself, chunk by chunk, exactly as the pipeline does:
//! `predict::*::compress` → `HuffmanTable`/`huffman_encode` → `lz_compress`
//! → `checksum::crc32` → the code histogram (`stats::quant_bin_stats`) per
//! chunk, then `BlobWriter` on the way in, and `CompressedBlob::open` →
//! `crc32` → `lz_decompress` → Huffman decode → `predict::*::decompress` on
//! the way out. The replayed blob and every replayed value are compared with
//! the real pipeline's, so the breakdown describes the code that runs.
//!
//! `sz.pipeline.unattributed_s` is the real single-thread pipeline's wall
//! time minus the sum of the replayed stages. The replay reconciles when the
//! median of its own wall times is within [`RECONCILE_TOLERANCE`] of the
//! real pipeline's median; a traced run whose replay does not reconcile
//! fails a check.

use std::collections::BTreeMap;
use std::time::Instant;

use ocelot_sz::checksum::crc32;
use ocelot_sz::encode::{huffman_decode, huffman_encode, lz_compress, lz_decompress};
use ocelot_sz::engine::ChunkLayout;
use ocelot_sz::format::{
    BlobHeader, BlobWriter, ChunkEntry, ChunkTable, CodecFamily, SectionReader, TABLE_MODE_LOCAL, TABLE_MODE_SHARED,
    VERSION,
};
use ocelot_sz::predict::{interp, lorenzo, lorenzo2, regression, PredictionStreams, StreamsView};
use ocelot_sz::quantizer::LinearQuantizer;
use ocelot_sz::stats::quant_bin_stats;
use ocelot_sz::value::ScalarValue;
use ocelot_sz::{
    compress, decompress, CompressedBlob, Dataset, DatasetView, HuffmanTable, LosslessBackend, LossyConfig,
    PredictorKind, SzError,
};

use crate::report::{median, Checks, Metrics};
use crate::trace::Tracer;

/// Largest relative gap between the replay's wall time and the real
/// pipeline's at which the stage breakdown counts as reconciled.
pub const RECONCILE_TOLERANCE: f64 = 0.15;

/// Replay repetitions; each metric reports the median repetition.
const REPS: usize = 5;

/// Stage spans whose durations sum to the attributed pipeline time.
const STAGES: [&str; 11] = [
    "sz.predict.encode",
    "sz.predict.decode",
    "sz.encode.huffman.encode",
    "sz.encode.huffman.decode",
    "sz.encode.lz.encode",
    "sz.encode.lz.decode",
    "sz.checksum.crc.encode",
    "sz.checksum.crc.decode",
    "sz.stats.histogram",
    "sz.format.write",
    "sz.format.open",
];

/// Replays the codec on every `(dataset, config)` input and returns the
/// per-stage metrics plus the chunk-table counts of the real blobs.
pub fn replay(tracer: &Tracer, inputs: &[(&Dataset<f32>, LossyConfig)], checks: &mut Checks) -> Metrics {
    let mut per_rep: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut counts = ChunkCounts::default();
    for rep in 0..REPS {
        let before: Vec<f64> = STAGES.iter().map(|s| tracer.total_s(s)).collect();
        let mut real_s = 0.0;
        let mut replay_s = 0.0;
        for (data, config) in inputs {
            let config = config.with_threads(1);
            let t = Instant::now();
            let outcome = compress(data, &config);
            let restored = outcome.as_ref().ok().map(|o| decompress::<f32>(&o.blob));
            real_s += t.elapsed().as_secs_f64();
            let (Ok(outcome), Some(Ok(restored))) = (outcome, restored) else {
                checks.record(Err("real pipeline failed on a replay input".into()));
                continue;
            };
            let t = Instant::now();
            let replayed = {
                let root = tracer.span("sz.pipeline.replay", None);
                replay_one(tracer, root.id(), data, &config, &outcome.blob)
            };
            replay_s += t.elapsed().as_secs_f64();
            checks.record(replayed.and_then(|(values, c)| {
                if rep == 0 {
                    counts.add(&c);
                }
                let same = values.len() == restored.len()
                    && values.iter().zip(restored.values()).all(|(a, b)| a.to_bits() == b.to_bits());
                same.then_some(()).ok_or_else(|| "replayed decode differs from the real decompress".to_string())
            }));
        }
        let stage: Vec<f64> = STAGES.iter().zip(&before).map(|(s, b)| tracer.total_s(s) - b).collect();
        let attributed: f64 = stage.iter().sum();
        for (name, v) in STAGES.iter().zip(&stage) {
            per_rep.entry(name).or_default().push(*v);
        }
        per_rep.entry("wall").or_default().push(real_s);
        per_rep.entry("unattributed").or_default().push(real_s - attributed);
        per_rep.entry("replay").or_default().push(replay_s);
    }
    let m = |k: &str| median(per_rep.get(k).map_or(&[][..], Vec::as_slice));
    let mut out = Metrics::default();
    out.set("sz.predict.encode_s", m("sz.predict.encode"), "s");
    out.set("sz.predict.decode_s", m("sz.predict.decode"), "s");
    out.set("sz.encode.huffman.encode_s", m("sz.encode.huffman.encode"), "s");
    out.set("sz.encode.huffman.decode_s", m("sz.encode.huffman.decode"), "s");
    out.set("sz.encode.lz.encode_s", m("sz.encode.lz.encode"), "s");
    out.set("sz.encode.lz.decode_s", m("sz.encode.lz.decode"), "s");
    out.set("sz.checksum.crc_s", m("sz.checksum.crc.encode") + m("sz.checksum.crc.decode"), "s");
    out.set("sz.stats.histogram_s", m("sz.stats.histogram"), "s");
    out.set("sz.format.write_s", m("sz.format.write"), "s");
    out.set("sz.format.open_s", m("sz.format.open"), "s");
    out.set("sz.pipeline.wall_s", m("wall"), "s");
    out.set("sz.pipeline.unattributed_s", m("unattributed"), "s");
    out.set("trace.reconcile_error", (m("replay") - m("wall")).abs() / m("wall").max(1e-12), "ratio");
    out.set("sz.chunks", counts.chunks as f64, "count");
    out.set("sz.chunks_shared_table", counts.shared as f64, "count");
    out.set("sz.chunks_local_table", counts.local as f64, "count");
    out.set("sz.unpredictable_ratio", counts.unpredictable as f64 / counts.points.max(1) as f64, "ratio");
    out
}

/// Chunk-table counts of the real blobs.
#[derive(Debug, Default)]
struct ChunkCounts {
    chunks: u64,
    shared: u64,
    local: u64,
    unpredictable: u64,
    points: u64,
}

impl ChunkCounts {
    fn add(&mut self, o: &ChunkCounts) {
        self.chunks += o.chunks;
        self.shared += o.shared;
        self.local += o.local;
        self.unpredictable += o.unpredictable;
        self.points += o.points;
    }
}

/// Replays compression of `data` and checks every payload against `blob`,
/// then replays decompression of `blob`. Returns the decoded values.
fn replay_one(
    tr: &Tracer,
    root: u64,
    data: &Dataset<f32>,
    config: &LossyConfig,
    blob: &CompressedBlob,
) -> Result<(Vec<f32>, ChunkCounts), String> {
    let err = |e: SzError| e.to_string();
    let written = replay_encode(tr, root, data, config).map_err(err)?;
    if written.as_bytes() != blob.as_bytes() {
        return Err("replayed blob differs from the real compress".into());
    }

    let (header, table, shared, body) = tr
        .time("sz.format.open", Some(root), || -> Result<_, SzError> {
            let (header, mut sections) = blob.open()?;
            let table = ChunkTable::decode(sections.next_section()?)?;
            let shared_bytes = sections.next_section()?;
            let shared = if shared_bytes.is_empty() { None } else { Some(HuffmanTable::deserialize(shared_bytes)?) };
            Ok((header, table, shared, sections.rest()))
        })
        .map_err(err)?;
    let layout = ChunkLayout::from_chunk_rows(&header.dims, table.chunk_rows);
    let quantizer = LinearQuantizer::new(header.abs_eb, header.quant_radius);
    let offsets = table.offsets();
    let mut counts = ChunkCounts::default();
    let mut values = Vec::with_capacity(data.len());
    for (i, entry) in table.entries.iter().enumerate() {
        let payload = &body[offsets[i]..offsets[i] + entry.len];
        counts.chunks += 1;
        counts.shared += u64::from(entry.table_mode == TABLE_MODE_SHARED);
        counts.local += u64::from(entry.table_mode == TABLE_MODE_LOCAL);
        counts.unpredictable += entry.unpredictable;
        counts.points += entry.points;

        let crc = tr.time("sz.checksum.crc.decode", Some(root), || crc32(payload));
        if crc != entry.crc {
            return Err(format!("chunk {i} failed its CRC on replay"));
        }
        let mut parts = SectionReader::over(payload);
        let (side, unpred, coded) =
            (|| Ok((parts.next_section()?, parts.next_section()?, parts.next_section()?)))().map_err(err)?;
        let huff = match header.backend {
            LosslessBackend::HuffmanLz => {
                tr.time("sz.encode.lz.decode", Some(root), || lz_decompress(coded)).map_err(err)?
            }
            _ => coded.to_vec(),
        };
        let codes = tr
            .time("sz.encode.huffman.decode", Some(root), || match (entry.table_mode, &shared) {
                (TABLE_MODE_SHARED, Some(t)) => t.decode_stream(&huff),
                _ => huffman_decode(&huff),
            })
            .map_err(err)?;
        let unpredictable: Vec<f32> = unpred.chunks_exact(f32::BYTES).map(f32::read_le).collect();
        let streams = StreamsView { codes: &codes, unpredictable: &unpredictable, side_data: side };
        let dims = layout.chunk_dims(i);
        let chunk = tr
            .time("sz.predict.decode", Some(root), || predict_decode(header.predictor, &dims, streams, &quantizer))
            .map_err(err)?;
        values.extend_from_slice(chunk.values());
    }
    Ok((values, counts))
}

/// Compression side, built the way `ocelot_sz::compress_streamed` builds
/// it: per chunk the payload, its CRC and its code histogram, then the blob.
fn replay_encode(tr: &Tracer, root: u64, data: &Dataset<f32>, config: &LossyConfig) -> Result<CompressedBlob, SzError> {
    if config.backend == LosslessBackend::RleHuffman {
        return Err(SzError::InvalidConfig("the replay covers the Huffman and Huffman+LZ backends".into()));
    }
    let abs_eb = config.error_bound.resolve(data);
    let quantizer = LinearQuantizer::new(abs_eb, config.quant_radius);
    let layout = ChunkLayout::plan(data.dims(), config.threads, config.chunk_points);
    let predict = |i: usize| {
        let dims = layout.chunk_dims(i);
        let chunk = DatasetView::new(&dims, &data.values()[layout.value_range(i)])?;
        tr.time("sz.predict.encode", Some(root), || predict_encode(config.predictor, chunk, &quantizer))
    };
    let mut first = None;
    let (shared, shared_bytes) = if layout.n_chunks() > 1 {
        let streams = predict(0)?;
        let table = tr.time("sz.encode.huffman.encode", Some(root), || {
            let table = HuffmanTable::from_symbols(&streams.codes);
            let bytes = table.as_ref().map(HuffmanTable::serialize).unwrap_or_default();
            (table, bytes)
        });
        first = Some(streams);
        table
    } else {
        (None, Vec::new())
    };
    let mut entries = Vec::with_capacity(layout.n_chunks());
    let mut payloads = Vec::with_capacity(layout.n_chunks());
    for i in 0..layout.n_chunks() {
        let streams = match first.take() {
            Some(s) => s,
            None => predict(i)?,
        };
        let (huff, table_mode) = tr.time("sz.encode.huffman.encode", Some(root), || {
            match shared.as_ref().and_then(|t| t.encode_stream(&streams.codes)) {
                Some(body) => (body, TABLE_MODE_SHARED),
                None => (huffman_encode(&streams.codes), TABLE_MODE_LOCAL),
            }
        });
        let coded = match config.backend {
            LosslessBackend::HuffmanLz => tr.time("sz.encode.lz.encode", Some(root), || lz_compress(&huff)),
            _ => huff,
        };
        let mut unpred = Vec::with_capacity(streams.unpredictable.len() * f32::BYTES);
        for &v in &streams.unpredictable {
            v.write_le(&mut unpred);
        }
        let mut payload = Vec::with_capacity(24 + streams.side_data.len() + unpred.len() + coded.len());
        for part in [&streams.side_data[..], &unpred, &coded] {
            payload.extend_from_slice(&(part.len() as u64).to_le_bytes());
            payload.extend_from_slice(part);
        }
        let crc = tr.time("sz.checksum.crc.encode", Some(root), || crc32(&payload));
        let stats = tr.time("sz.stats.histogram", Some(root), || quant_bin_stats(&streams.codes, config.quant_radius));
        entries.push(ChunkEntry {
            len: payload.len(),
            crc,
            points: layout.points_in_chunk(i) as u64,
            // `p0` is the zero bin's count over the code count, both exact.
            zero_bins: (stats.p0 * streams.codes.len() as f64).round() as u64,
            unpredictable: streams.unpredictable.len() as u64,
            table_mode,
        });
        payloads.push(payload);
    }
    tr.time("sz.format.write", Some(root), || {
        let header = BlobHeader {
            version: VERSION,
            family: CodecFamily::Prediction,
            dtype: f32::TYPE_NAME,
            dims: data.dims().to_vec(),
            abs_eb,
            predictor: config.predictor,
            backend: config.backend,
            quant_radius: config.quant_radius,
        };
        let table = ChunkTable { chunk_rows: layout.chunk_rows(), entries }.encode();
        let mut writer = BlobWriter::new(&header)?;
        writer.section(&table).section(&shared_bytes);
        for payload in &payloads {
            writer.raw(payload);
        }
        Ok(writer.finish())
    })
}

fn predict_encode(
    kind: PredictorKind,
    data: DatasetView<'_, f32>,
    q: &LinearQuantizer,
) -> Result<PredictionStreams<f32>, SzError> {
    match kind {
        PredictorKind::Lorenzo => lorenzo::compress(data, q),
        PredictorKind::Lorenzo2 => lorenzo2::compress(data, q),
        PredictorKind::Regression => regression::compress(data, q),
        PredictorKind::InterpLinear => interp::compress(data, q, interp::Basis::Linear),
        PredictorKind::InterpCubic => interp::compress(data, q, interp::Basis::Cubic),
    }
}

fn predict_decode(
    kind: PredictorKind,
    dims: &[usize],
    streams: StreamsView<'_, f32>,
    q: &LinearQuantizer,
) -> Result<Dataset<f32>, SzError> {
    match kind {
        PredictorKind::Lorenzo => lorenzo::decompress(dims, streams, q),
        PredictorKind::Lorenzo2 => lorenzo2::decompress(dims, streams, q),
        PredictorKind::Regression => regression::decompress(dims, streams, q),
        PredictorKind::InterpLinear => interp::decompress(dims, streams, q, interp::Basis::Linear),
        PredictorKind::InterpCubic => interp::decompress(dims, streams, q, interp::Basis::Cubic),
    }
}
