//! Transfer-simulator benchmarks behind Table II: the cost of the fluid
//! simulation itself across the paper's file-size sweep, plus the streamed
//! pipeline's window back-pressure passes, the simulator's hottest caller.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ocelot::orchestrator::{Orchestrator, PipelineOptions};
use ocelot::workload::Workload;
use ocelot_netsim::{
    simulate_shared_link, simulate_transfer, simulate_transfer_with_faults, BatchSpec, FaultModel, GridFtpConfig,
    SiteId, Topology,
};

fn bench_table2_sweep(c: &mut Criterion) {
    let topology = Topology::paper();
    let link = topology.route(SiteId::Cori, SiteId::Bebop).link;
    let cfg = GridFtpConfig::untuned();
    let mut g = c.benchmark_group("table2_simulation");
    g.sample_size(10);
    for &(size, total) in &[
        (1_000_000u64, 30_000_000_000u64),
        (10_000_000, 300_000_000_000),
        (100_000_000, 300_000_000_000),
        (1_000_000_000, 300_000_000_000),
    ] {
        let files = vec![size; (total / size) as usize];
        g.throughput(Throughput::Elements(files.len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(format!("{}MB_files", size / 1_000_000)), &files, |b, f| {
            b.iter(|| simulate_transfer(f, &link, &cfg, 7))
        });
    }
    g.finish();
}

fn bench_tuned_vs_untuned(c: &mut Criterion) {
    let topology = Topology::paper();
    let link = topology.route(SiteId::Anvil, SiteId::Cori).link;
    let files = vec![200_000_000u64; 2000];
    let mut g = c.benchmark_group("table2_configs");
    g.sample_size(10);
    g.bench_function("untuned_c4", |b| b.iter(|| simulate_transfer(&files, &link, &GridFtpConfig::untuned(), 7)));
    g.bench_function("tuned_c32", |b| b.iter(|| simulate_transfer(&files, &link, &GridFtpConfig::default(), 7)));
    g.finish();
}

fn bench_faults_and_contention(c: &mut Criterion) {
    let topology = Topology::paper();
    let link = topology.route(SiteId::Anvil, SiteId::Bebop).link;
    let files = vec![100_000_000u64; 500];
    let mut g = c.benchmark_group("ext_reliability");
    g.sample_size(10);
    g.bench_function("faulty_transfer_p10", |b| {
        b.iter(|| simulate_transfer_with_faults(&files, &link, &GridFtpConfig::default(), &FaultModel::flaky(0.1), 3))
    });
    let batches = vec![
        BatchSpec { files: files.clone(), start_s: 0.0, config: GridFtpConfig::default() },
        BatchSpec { files: files.clone(), start_s: 20.0, config: GridFtpConfig::default() },
    ];
    g.bench_function("shared_link_two_batches", |b| b.iter(|| simulate_shared_link(&batches, &link, 3)));
    g.finish();
}

/// `Orchestrator::run_streamed` on the CESM transfer of the service's climate
/// tenant: 7137 chunks at `codec_threads` 1, stream window 4, 2% WAN faults.
/// Each call simulates the whole transfer once per back-pressure pass, up to
/// 33 times, and this workload reaches that cap.
fn bench_stream_window_passes(c: &mut Criterion) {
    let workload = Workload::cesm(ocelot_sz::LossyConfig::sz3(1e-4), 16).expect("CESM profiling succeeds");
    let orchestrator = Orchestrator::paper();
    let opts = PipelineOptions {
        faults: FaultModel { max_retries: 0, ..FaultModel::flaky(0.02) },
        codec_threads: 1,
        stream_window: 4,
        seed: 1,
        ..PipelineOptions::default()
    };
    let mut g = c.benchmark_group("stream_window_passes");
    g.sample_size(10);
    g.bench_function("cesm_w4", |b| {
        b.iter(|| orchestrator.run_streamed(&workload, SiteId::Anvil, SiteId::Cori, &opts))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_table2_sweep,
    bench_tuned_vs_untuned,
    bench_faults_and_contention,
    bench_stream_window_passes
);
criterion_main!(benches);
