//! A streamed run re-simulates its transfer once per back-pressure pass but
//! counts it once in the `ocelot_netsim_*` metrics. This is a test binary of
//! its own because it installs the process-global obs handle, which the
//! netsim metrics go to, and no other test may share it.

use ocelot::orchestrator::{Orchestrator, PipelineOptions};
use ocelot::workload::Workload;
use ocelot_netsim::SiteId;
use ocelot_obs::metrics::Metric;
use ocelot_obs::Obs;

fn counter(obs: &Obs, name: &str) -> u64 {
    match obs.registry().expect("enabled obs has a registry").get(name) {
        Some(Metric::Counter(c)) => c.get(),
        Some(_) => panic!("{name} is not a counter"),
        None => 0,
    }
}

fn histogram_count(obs: &Obs, name: &str) -> u64 {
    match obs.registry().expect("enabled obs has a registry").get(name) {
        Some(Metric::Histogram(h)) => h.count(),
        Some(_) => panic!("{name} is not a histogram"),
        None => 0,
    }
}

#[test]
fn streamed_run_counts_its_transfer_once() {
    let mut workload = Workload::miranda(ocelot_sz::LossyConfig::sz3(1e-2), 32).expect("profiling succeeds");
    workload.files.truncate(40);
    let obs = Obs::enabled();
    ocelot_obs::install_global(&obs);
    let opts = PipelineOptions { codec_threads: 2, stream_window: 2, ..PipelineOptions::default() };
    Orchestrator::paper().with_obs(obs.clone()).run_streamed(&workload, SiteId::Bebop, SiteId::Cori, &opts);
    ocelot_obs::install_global(&Obs::disabled());

    // The window held chunks back, so the run took more than one pass.
    assert!(counter(&obs, "ocelot_core_stream_stalls_total") > 0, "the window never stalled a chunk");
    assert_eq!(counter(&obs, "ocelot_netsim_transfers_total"), 1);
    let chunks = counter(&obs, "ocelot_chunk_transfers_total");
    assert_eq!(chunks, 40 * 4, "two codec threads split each file into four chunks");
    assert_eq!(counter(&obs, "ocelot_netsim_files_total"), chunks);
    assert_eq!(histogram_count(&obs, "ocelot_netsim_transfer_seconds"), 1);
    assert_eq!(histogram_count(&obs, "ocelot_netsim_effective_speed_bps"), 1);
}
