//! Fluid-flow simulation of a GridFTP/Globus batch transfer.
//!
//! The simulation advances through two kinds of events: *command releases*
//! (each of the `concurrency` control channels processes one file command
//! every `per_file_overhead` seconds, so commands release at a global spacing
//! of `overhead / concurrency`) and *file completions*. Between events, link
//! bandwidth is shared max–min fairly across active files, each capped at
//! `parallelism × stream_rate` (a single file cannot exceed its TCP streams'
//! aggregate rate).

use crate::link::LinkProfile;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// GridFTP transfer tuning (concurrency / parallelism / pipelining).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridFtpConfig {
    /// Number of concurrent file transfers (separate FTP sessions).
    pub concurrency: usize,
    /// TCP streams per file.
    pub parallelism: u32,
    /// Achievable rate per TCP stream, bytes/second.
    pub stream_rate_bps: f64,
    /// Whether command pipelining is enabled (without it every command also
    /// pays one RTT).
    pub pipelining: bool,
    /// Per-file in-slot setup before data flows (data-channel establishment
    /// and TCP ramp), seconds. Unlike the control-channel handling cost it
    /// occupies a concurrency slot, so it throttles mid-sized-file batches
    /// (Table II's 10 MB row).
    pub slot_setup_s: f64,
}

impl Default for GridFtpConfig {
    /// The tuned configuration used for the paper's Table VIII transfers.
    fn default() -> Self {
        GridFtpConfig {
            concurrency: 32,
            parallelism: 4,
            stream_rate_bps: 70.0e6,
            pipelining: true,
            slot_setup_s: 0.008,
        }
    }
}

impl GridFtpConfig {
    /// An untuned default-endpoint configuration (low concurrency), matching
    /// the conditions of the paper's Table II measurements.
    pub fn untuned() -> Self {
        GridFtpConfig { concurrency: 4, ..Self::default() }
    }

    /// Per-file throughput cap in bytes/second.
    pub fn per_file_cap_bps(&self) -> f64 {
        self.parallelism as f64 * self.stream_rate_bps
    }

    /// Replaces the concurrency.
    pub fn with_concurrency(mut self, c: usize) -> Self {
        self.concurrency = c;
        self
    }
}

/// Outcome of a simulated batch transfer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferReport {
    /// Wall-clock duration in (simulated) seconds.
    pub duration_s: f64,
    /// Total payload bytes moved.
    pub bytes_total: u64,
    /// Number of files.
    pub n_files: usize,
    /// Effective throughput `bytes_total / duration_s` in bytes/second.
    pub effective_speed_bps: f64,
}

/// Simulates transferring `files` (sizes in bytes) over `link`.
///
/// Zero-byte files cost only their handling overhead. An empty batch returns
/// a zero-duration report.
///
/// # Panics
/// Panics if `config.concurrency == 0` or `config.parallelism == 0`.
pub fn simulate_transfer(files: &[u64], link: &LinkProfile, config: &GridFtpConfig, seed: u64) -> TransferReport {
    simulate_transfer_released(files, None, link, config, seed)
}

/// Like [`simulate_transfer`], but each file only becomes *available* at
/// `release_s[i]` seconds (e.g. when its compression finishes) — the
/// pipelined mode of the paper's Fig 1, where transfer starts on files as
/// soon as they are ready instead of waiting for the whole batch.
///
/// A file's command can be processed no earlier than its release time; the
/// control channels otherwise behave as in the plain simulation. Pass
/// `None` to release everything at time zero.
///
/// # Panics
/// Panics if `release_s` is `Some` with a length different from `files`,
/// contains negative/non-finite times, or the config is invalid.
pub fn simulate_transfer_released(
    files: &[u64],
    release_s: Option<&[f64]>,
    link: &LinkProfile,
    config: &GridFtpConfig,
    seed: u64,
) -> TransferReport {
    simulate_transfer_detailed(files, release_s, link, config, seed).report
}

/// A [`TransferReport`] plus the simulated completion time of every file.
#[derive(Debug, Clone, PartialEq)]
pub struct DetailedTransferReport {
    /// The aggregate batch report (identical to what
    /// [`simulate_transfer_released`] returns for the same inputs).
    pub report: TransferReport,
    /// Per-file completion times in seconds, indexed like `files`. The
    /// streaming orchestrator uses these to start each item's decompression
    /// the moment it lands instead of waiting for the batch.
    pub completion_s: Vec<f64>,
    /// Per-file activation times in seconds (when the file claimed a
    /// concurrency slot and its transfer actually began), indexed like
    /// `files`. The chunk ledger records these as `in_flight` events.
    pub start_s: Vec<f64>,
}

/// Like [`simulate_transfer_released`], but also records when each file
/// finishes — the hook the streamed pipeline needs to overlap per-chunk
/// decompression with the remaining transfer.
///
/// # Panics
/// Panics under the same conditions as [`simulate_transfer_released`].
pub fn simulate_transfer_detailed(
    files: &[u64],
    release_s: Option<&[f64]>,
    link: &LinkProfile,
    config: &GridFtpConfig,
    seed: u64,
) -> DetailedTransferReport {
    let detail = simulate_transfer_unrecorded(files, release_s, link, config, seed);
    detail.report.record();
    detail
}

impl TransferReport {
    /// Counts this transfer into the global `ocelot_netsim_*` metrics.
    /// [`simulate_transfer_detailed`] does so itself; callers of
    /// [`simulate_transfer_unrecorded`] call it once for the transfer they
    /// keep.
    pub fn record(&self) {
        let obs = ocelot_obs::global();
        obs.inc("ocelot_netsim_transfers_total", "Simulated batch transfers");
        obs.add("ocelot_netsim_bytes_total", "Payload bytes moved across simulated links", self.bytes_total);
        obs.add("ocelot_netsim_files_total", "Files moved across simulated links", self.n_files as u64);
        obs.observe("ocelot_netsim_transfer_seconds", "Simulated duration of a batch transfer", self.duration_s);
        obs.observe(
            "ocelot_netsim_effective_speed_bps",
            "Effective throughput of a batch transfer (bytes/second)",
            self.effective_speed_bps,
        );
    }
}

/// [`simulate_transfer_detailed`] without touching any metric: for callers
/// that simulate the same transfer several times (the streamed pipeline's
/// back-pressure passes) and count only the last one with
/// [`TransferReport::record`].
///
/// The event loop allocates nothing per event. The slots live in
/// `Slots`, allocated once per call, and the max–min rates are refilled
/// only when the ordered list of flowing files changes (an activation
/// without setup, a setup finishing, or a completion); between such events
/// the fill is a pure function of an unchanged input, so caching it keeps
/// every result bit-identical to refilling on every event.
///
/// # Panics
/// Panics under the same conditions as [`simulate_transfer_released`].
pub fn simulate_transfer_unrecorded(
    files: &[u64],
    release_s: Option<&[f64]>,
    link: &LinkProfile,
    config: &GridFtpConfig,
    seed: u64,
) -> DetailedTransferReport {
    assert!(config.concurrency > 0, "concurrency must be positive");
    assert!(config.parallelism > 0, "parallelism must be positive");
    if let Some(r) = release_s {
        assert_eq!(r.len(), files.len(), "one release time per file");
        assert!(r.iter().all(|t| t.is_finite() && *t >= 0.0), "release times must be non-negative");
    }
    let bytes_total: u64 = files.iter().sum();
    if files.is_empty() {
        return DetailedTransferReport {
            report: TransferReport { duration_s: 0.0, bytes_total: 0, n_files: 0, effective_speed_bps: 0.0 },
            completion_s: Vec::new(),
            start_s: Vec::new(),
        };
    }
    let mut completion_s = vec![0.0f64; files.len()];
    let mut start_s = vec![0.0f64; files.len()];

    // Command spacing: each of `concurrency` control channels handles one
    // file every `per_file_overhead` (+1 RTT without pipelining).
    let per_command = link.per_file_overhead_s + if config.pipelining { 0.0 } else { link.rtt_s };
    let release_spacing = per_command / config.concurrency as f64;
    // Availability: a command cannot be issued before its file exists.
    let available = |i: usize| release_s.map_or(0.0, |r| r[i]);
    let file_cap = config.per_file_cap_bps();

    let mut now = SimTime::ZERO;
    let mut next_file = 0usize; // next file awaiting command release
    let mut next_release = SimTime::from_secs_f64(release_spacing.max(available(0)));
    let mut ready: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut slots = Slots::with_capacity(config.concurrency.min(files.len()));
    let mut last_completion = SimTime::ZERO;
    // Set whenever the ordered list of flowing files changes.
    let mut refill = false;

    loop {
        // Fill free slots from the ready queue.
        while slots.len() < config.concurrency {
            match ready.pop_front() {
                Some(idx) => {
                    start_s[idx] = now.as_secs_f64();
                    let jf = link.jitter_factor(seed, idx as u64);
                    slots.push(idx, files[idx] as f64, (file_cap * jf).max(1.0), config.slot_setup_s);
                    refill |= config.slot_setup_s <= 0.0;
                }
                None => break,
            }
        }
        let commands_remain = next_file < files.len();
        if slots.len() == 0 && !commands_remain {
            break;
        }

        // Water-filling among files whose setup has completed; files still
        // in setup hold their slot but move no data.
        if refill {
            slots.refill_rates(link.bandwidth_bps);
            refill = false;
        }

        // Next event: file completion, setup completion, or command release.
        let dt_release = if commands_remain { (next_release - now).max(0.0) } else { f64::INFINITY };
        let dt = slots.next_event_s().min(dt_release);
        debug_assert!(dt.is_finite(), "no progress possible");

        // Advance time, setups and bytes, then retire completions
        // (remaining ≤ epsilon bytes).
        now += dt;
        let (setup_done, any_done) = slots.advance(dt);
        refill |= setup_done;
        if any_done {
            let t = now.as_secs_f64();
            slots.retire(|index| completion_s[index] = t);
            last_completion = now;
            refill = true;
        }
        // Process command release.
        if commands_remain && now >= next_release {
            ready.push_back(next_file);
            next_file += 1;
            if next_file < files.len() {
                let earliest = next_release + release_spacing;
                next_release = earliest.max(SimTime::from_secs_f64(available(next_file)));
            }
        }
    }

    let duration_s = last_completion.max(now).as_secs_f64().max(release_spacing * files.len() as f64);
    let effective_speed_bps = if duration_s > 0.0 { bytes_total as f64 / duration_s } else { 0.0 };
    DetailedTransferReport {
        report: TransferReport { duration_s, bytes_total, n_files: files.len(), effective_speed_bps },
        completion_s,
        start_s,
    }
}

/// The files holding a concurrency slot, one entry per slot in activation
/// order, as a struct of arrays. The order matters: the max–min fill
/// subtracts pinned caps in it.
///
/// The slots still in setup are always a suffix of that order. Every slot
/// starts with the same `slot_setup_s`, and every slot in setup loses the
/// same `dt` per event. Rounded subtraction is monotone, so an earlier slot
/// never has more setup left than a later one, and slots leave setup in
/// activation order. The flowing slots are therefore the prefix
/// `..flowing()`, and the fill runs on it in place.
struct Slots {
    /// Position in the input `files` slice (for completion-time recording).
    index: Vec<usize>,
    /// Bytes left to move.
    remaining: Vec<f64>,
    /// Per-file rate cap, bytes/second.
    cap: Vec<f64>,
    /// In-slot setup time left before data flows.
    setup: Vec<f64>,
    /// Current rate, bytes/second (0 while in setup).
    rate: Vec<f64>,
    /// Index buffer for [`water_fill`].
    unfixed: Vec<usize>,
}

impl Slots {
    fn with_capacity(n: usize) -> Self {
        Slots {
            index: Vec::with_capacity(n),
            remaining: Vec::with_capacity(n),
            cap: Vec::with_capacity(n),
            setup: Vec::with_capacity(n),
            rate: Vec::with_capacity(n),
            unfixed: Vec::with_capacity(n),
        }
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn push(&mut self, index: usize, bytes: f64, cap: f64, setup: f64) {
        self.index.push(index);
        self.remaining.push(bytes);
        self.cap.push(cap);
        self.setup.push(setup);
        self.rate.push(0.0);
    }

    /// Number of flowing slots: the prefix whose setup is over.
    fn flowing(&self) -> usize {
        let f = self.setup.partition_point(|&s| s <= 0.0);
        debug_assert!(self.setup[f..].iter().all(|&s| s > 0.0 || s.is_nan()), "slots in setup form a suffix");
        f
    }

    /// Time to the next setup completion or file completion: a flowing
    /// slot offers its bytes left at its rate (0 once nothing is left), the
    /// slots in setup the setup time left of the first of them.
    fn next_event_s(&self) -> f64 {
        let f = self.flowing();
        // Four running minima break the dependency chain between slots;
        // `min` is exact, so the grouping cannot change the result.
        let mut dt = [f64::INFINITY; 4];
        for (k, (&remaining, &rate)) in self.remaining[..f].iter().zip(&self.rate[..f]).enumerate() {
            let flow = if remaining <= 0.0 { 0.0 } else { remaining / rate.max(1e-9) };
            dt[k % 4] = dt[k % 4].min(flow);
        }
        let setup = self.setup.get(f).copied().unwrap_or(f64::INFINITY);
        dt[0].min(dt[1]).min(dt[2].min(dt[3])).min(setup)
    }

    /// Advances every slot by `dt`: a flowing slot moves `rate × dt` bytes,
    /// a slot in setup spends setup time. Returns whether a setup finished
    /// and whether a file is done.
    fn advance(&mut self, dt: f64) -> (bool, bool) {
        let f = self.flowing();
        let mut any_done = false;
        for (remaining, &rate) in self.remaining[..f].iter_mut().zip(&self.rate[..f]) {
            *remaining -= rate * dt;
            any_done |= *remaining <= 1e-6;
        }
        for (setup, &remaining) in self.setup[f..].iter_mut().zip(&self.remaining[f..]) {
            *setup -= dt;
            // A zero-byte file is done even before its setup ends.
            any_done |= remaining <= 1e-6;
        }
        (self.setup.get(f).is_some_and(|&s| s <= 0.0), any_done)
    }

    /// Removes the slots whose file is done (remaining ≤ epsilon bytes),
    /// keeping the rest in order, and passes each removed file's index to
    /// `done`.
    fn retire(&mut self, mut done: impl FnMut(usize)) {
        let mut k = 0;
        while k < self.len() {
            if self.remaining[k] > 1e-6 {
                k += 1;
                continue;
            }
            done(self.index.remove(k));
            self.remaining.remove(k);
            self.cap.remove(k);
            self.setup.remove(k);
            self.rate.remove(k);
        }
    }

    /// Shares `capacity` max–min fairly among the flowing slots, in slot
    /// order. Slots in setup keep rate 0.
    fn refill_rates(&mut self, capacity: f64) {
        let f = self.flowing();
        water_fill(capacity, &self.cap[..f], &mut self.rate[..f], &mut self.unfixed);
    }
}

/// Max–min fair allocation of `capacity` among flows with per-flow `caps`,
/// written into `rates` (one per cap). Flows whose cap is below the fair
/// share are pinned at their cap, in index order, until the rest split what
/// is left evenly. `unfixed` is scratch, reused across calls.
pub(crate) fn water_fill(capacity: f64, caps: &[f64], rates: &mut [f64], unfixed: &mut Vec<usize>) {
    assert_eq!(caps.len(), rates.len(), "one rate per cap");
    // Common case: every cap is above the even split, so the first round
    // pins nothing and every flow gets the even split.
    let even = capacity / caps.len() as f64;
    if capacity > 0.0 && caps.iter().all(|&c| c > even) {
        rates.fill(even);
        return;
    }
    rates.fill(0.0);
    unfixed.clear();
    unfixed.extend(0..caps.len());
    let mut remaining_capacity = capacity;
    while !unfixed.is_empty() && remaining_capacity > 0.0 {
        let fair = remaining_capacity / unfixed.len() as f64;
        let before = unfixed.len();
        unfixed.retain(|&i| {
            if caps[i] <= fair {
                rates[i] = caps[i];
                remaining_capacity -= caps[i];
                false
            } else {
                true
            }
        });
        if unfixed.len() == before {
            for &i in unfixed.iter() {
                rates[i] = fair;
            }
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn test_link() -> LinkProfile {
        LinkProfile::new(1.15e9, 0.05, 0.13, 0.0)
    }

    #[test]
    fn empty_batch_is_zero() {
        let r = simulate_transfer(&[], &test_link(), &GridFtpConfig::default(), 0);
        assert_eq!(r.duration_s, 0.0);
        assert_eq!(r.n_files, 0);
    }

    #[test]
    fn single_large_file_is_cap_limited() {
        let cfg = GridFtpConfig::default();
        let r = simulate_transfer(&[10_000_000_000], &test_link(), &cfg, 0);
        // One file cannot exceed parallelism × stream rate = 280 MB/s.
        let expected = 10_000_000_000.0 / cfg.per_file_cap_bps();
        assert!((r.duration_s - expected).abs() / expected < 0.05, "dur={} expected={expected}", r.duration_s);
    }

    #[test]
    fn many_large_files_are_bandwidth_limited() {
        let files = vec![1_000_000_000u64; 64];
        let r = simulate_transfer(&files, &test_link(), &GridFtpConfig::default(), 0);
        assert!(r.effective_speed_bps > 0.9 * 1.15e9, "speed {} should approach link bandwidth", r.effective_speed_bps);
    }

    #[test]
    fn many_tiny_files_are_command_limited() {
        // Table II regime: 1 MB files at untuned concurrency crawl because
        // command handling dominates.
        let files = vec![1_000_000u64; 2000];
        let r = simulate_transfer(&files, &test_link(), &GridFtpConfig::untuned(), 0);
        let command_floor = 2000.0 * 0.13 / 4.0;
        assert!(r.duration_s >= command_floor * 0.95, "dur={} floor={command_floor}", r.duration_s);
        assert!(r.effective_speed_bps < 0.3 * 1.15e9);
    }

    #[test]
    fn table2_speed_ordering() {
        // 300 GB moved as 1 MB / 10 MB / 100 MB files: effective speed must
        // increase with file size (paper Table II rows 1-3).
        let link = test_link();
        let cfg = GridFtpConfig::untuned();
        let total: u64 = 30_000_000_000; // scaled-down 30 GB for test speed
        let mut speeds = Vec::new();
        for size in [1_000_000u64, 10_000_000, 100_000_000] {
            let files = vec![size; (total / size) as usize];
            speeds.push(simulate_transfer(&files, &link, &cfg, 1).effective_speed_bps);
        }
        assert!(speeds[0] < speeds[1] && speeds[1] < speeds[2], "{speeds:?}");
    }

    #[test]
    fn higher_concurrency_helps_small_files() {
        let files = vec![1_000_000u64; 1000];
        let slow = simulate_transfer(&files, &test_link(), &GridFtpConfig::untuned(), 0);
        let fast = simulate_transfer(&files, &test_link(), &GridFtpConfig::default(), 0);
        assert!(fast.duration_s < slow.duration_s * 0.5, "fast={} slow={}", fast.duration_s, slow.duration_s);
    }

    #[test]
    fn too_few_files_underutilize_the_link() {
        // The Miranda-grouping regression: 4 big files can't fill a fat link.
        let fat = LinkProfile::new(3.9e9, 0.05, 0.13, 0.0);
        let grouped = vec![4_000_000_000u64; 4];
        let many = vec![125_000_000u64; 128];
        let cfg = GridFtpConfig::default();
        let rg = simulate_transfer(&grouped, &fat, &cfg, 0);
        let rm = simulate_transfer(&many, &fat, &cfg, 0);
        assert!(
            rg.effective_speed_bps < rm.effective_speed_bps,
            "grouped {} many {}",
            rg.effective_speed_bps,
            rm.effective_speed_bps
        );
    }

    #[test]
    fn pipelining_off_pays_rtt() {
        let files = vec![1_000_000u64; 500];
        let link = test_link();
        let with = simulate_transfer(&files, &link, &GridFtpConfig::default(), 0);
        let cfg = GridFtpConfig { pipelining: false, ..Default::default() };
        let without = simulate_transfer(&files, &link, &cfg, 0);
        assert!(without.duration_s > with.duration_s);
    }

    #[test]
    fn jitter_changes_duration_slightly() {
        let link = LinkProfile::new(1.15e9, 0.05, 0.13, 0.05);
        let files = vec![500_000_000u64; 40];
        let a = simulate_transfer(&files, &link, &GridFtpConfig::default(), 1);
        let b = simulate_transfer(&files, &link, &GridFtpConfig::default(), 2);
        assert_ne!(a.duration_s, b.duration_s);
        assert!((a.duration_s / b.duration_s - 1.0).abs() < 0.2);
    }

    /// Allocating wrapper over the in-place [`water_fill`].
    fn fill(capacity: f64, caps: &[f64]) -> Vec<f64> {
        let mut rates = vec![0.0; caps.len()];
        water_fill(capacity, caps, &mut rates, &mut Vec::new());
        rates
    }

    #[test]
    fn water_fill_respects_caps_and_capacity() {
        let caps: Vec<f64> = vec![10.0, 50.0, 1000.0];
        let rates = fill(100.0, &caps);
        assert!((rates[0] - 10.0).abs() < 1e-9);
        assert!((rates[1] - 45.0).abs() < 1e-9);
        assert!((rates[2] - 45.0).abs() < 1e-9);
        assert!((rates.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn water_fill_all_capped() {
        let caps: Vec<f64> = vec![10.0, 10.0];
        let rates = fill(100.0, &caps);
        assert_eq!(rates, vec![10.0, 10.0]);
    }

    #[test]
    fn release_times_delay_the_transfer() {
        let files = vec![100_000_000u64; 16];
        let cfg = GridFtpConfig::default();
        let immediate = simulate_transfer(&files, &test_link(), &cfg, 0);
        // All files become available only at t = 30 s.
        let releases = vec![30.0; 16];
        let delayed = simulate_transfer_released(&files, Some(&releases), &test_link(), &cfg, 0);
        assert!(delayed.duration_s >= 30.0, "duration {}", delayed.duration_s);
        assert!(delayed.duration_s <= immediate.duration_s + 30.0 + 1.0);
    }

    #[test]
    fn staggered_releases_pipeline_with_the_transfer() {
        // Files trickle out of compression at 0.2 s intervals: the transfer
        // overlaps with production, finishing well before sum(production) +
        // batch-transfer time.
        let files = vec![200_000_000u64; 50];
        let releases: Vec<f64> = (0..50).map(|i| i as f64 * 0.2).collect();
        let cfg = GridFtpConfig::default();
        let overlapped = simulate_transfer_released(&files, Some(&releases), &test_link(), &cfg, 0);
        let sequential = 50.0 * 0.2 + simulate_transfer(&files, &test_link(), &cfg, 0).duration_s;
        assert!(overlapped.duration_s < sequential, "{} vs {}", overlapped.duration_s, sequential);
        // And it can never beat the plain batch (files cannot start early).
        assert!(overlapped.duration_s >= simulate_transfer(&files, &test_link(), &cfg, 0).duration_s);
    }

    #[test]
    fn detailed_report_matches_and_orders_completions() {
        let files = vec![400_000_000u64, 100_000_000, 200_000_000];
        let cfg = GridFtpConfig::default();
        let d = simulate_transfer_detailed(&files, None, &test_link(), &cfg, 0);
        let plain = simulate_transfer(&files, &test_link(), &cfg, 0);
        assert_eq!(d.report, plain, "detailed variant must not change the aggregate report");
        assert_eq!(d.completion_s.len(), 3);
        // Every completion is positive and none exceeds the batch duration.
        for &c in &d.completion_s {
            assert!(c > 0.0 && c <= d.report.duration_s + 1e-9, "completion {c} vs {}", d.report.duration_s);
        }
        // The last completion IS the data phase's end.
        let last = d.completion_s.iter().cloned().fold(0.0, f64::max);
        assert!(last <= d.report.duration_s + 1e-9);
        // With equal share, the smallest file lands first.
        let min_idx =
            d.completion_s.iter().enumerate().min_by(|a, b| a.1.partial_cmp(b.1).unwrap()).map(|(i, _)| i).unwrap();
        assert_eq!(min_idx, 1, "completions {:?}", d.completion_s);
    }

    #[test]
    fn detailed_respects_release_times() {
        let files = vec![50_000_000u64; 4];
        let releases = vec![0.0, 5.0, 10.0, 15.0];
        let d = simulate_transfer_detailed(&files, Some(&releases), &test_link(), &GridFtpConfig::default(), 0);
        for (i, (&c, &r)) in d.completion_s.iter().zip(&releases).enumerate() {
            assert!(c >= r, "file {i} completed at {c} before its release {r}");
        }
    }

    #[test]
    fn detailed_start_times_bracket_release_and_completion() {
        let files = vec![50_000_000u64; 8];
        let releases: Vec<f64> = (0..8).map(|i| i as f64 * 2.0).collect();
        let d = simulate_transfer_detailed(&files, Some(&releases), &test_link(), &GridFtpConfig::default(), 0);
        assert_eq!(d.start_s.len(), 8);
        for (i, &s) in d.start_s.iter().enumerate() {
            assert!(s >= releases[i] - 1e-9, "file {i} started at {s} before its release {}", releases[i]);
            assert!(s <= d.completion_s[i] + 1e-9, "file {i} started at {s} after completing at {}", d.completion_s[i]);
        }
    }

    #[test]
    #[should_panic(expected = "one release time per file")]
    fn release_length_mismatch_panics() {
        simulate_transfer_released(&[1, 2], Some(&[0.0]), &test_link(), &GridFtpConfig::default(), 0);
    }

    #[test]
    fn zero_byte_files_finish() {
        let files = vec![0u64; 10];
        let r = simulate_transfer(&files, &test_link(), &GridFtpConfig::default(), 0);
        assert!(r.duration_s > 0.0); // still pays handling overhead
        assert_eq!(r.bytes_total, 0);
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what} length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The allocation-free, rate-cached loop reproduces the per-event
        /// refilling loop it replaced, bit for bit.
        #[test]
        fn event_loop_is_bit_identical_to_reference(
            sizes in prop::collection::vec(prop_oneof![Just(0u64), 1u64..2_000, 1u64..3_000_000_000], 0..300),
            releases in prop_oneof![Just(None), prop::collection::vec(0.0f64..60.0, 300).prop_map(Some)],
            concurrency in 1usize..65,
            parallelism in 1u32..9,
            pipelining in any::<bool>(),
            setup in prop_oneof![Just(0.0), Just(0.008)],
            bandwidth in 1.0e8f64..4.0e9,
            jitter in prop_oneof![Just(0.0), Just(0.05), Just(0.3)],
            seed in any::<u64>(),
        ) {
            let link = LinkProfile::new(bandwidth, 0.05, 0.02, jitter);
            let config = GridFtpConfig {
                concurrency,
                parallelism,
                pipelining,
                slot_setup_s: setup,
                ..GridFtpConfig::default()
            };
            let releases = releases.map(|r| r[..sizes.len()].to_vec());
            let new = simulate_transfer_unrecorded(&sizes, releases.as_deref(), &link, &config, seed);
            let old = reference::simulate_transfer_detailed(&sizes, releases.as_deref(), &link, &config, seed);
            let (a, b) = (new.report, old.report);
            assert_eq!((a.bytes_total, a.n_files), (b.bytes_total, b.n_files));
            assert_bits_eq(
                &[a.duration_s, a.effective_speed_bps],
                &[b.duration_s, b.effective_speed_bps],
                "report",
            );
            assert_bits_eq(&new.completion_s, &old.completion_s, "completion_s");
            assert_bits_eq(&new.start_s, &old.start_s, "start_s");
        }

        /// The shared in-place fill matches the allocating one it replaced.
        #[test]
        fn water_fill_is_bit_identical_to_reference(
            caps in prop::collection::vec(1.0f64..1e9, 0..64),
            capacity in 0.0f64..4e10,
        ) {
            assert_bits_eq(&fill(capacity, &caps), &reference::water_fill(capacity, &caps), "rates");
        }
    }
}

/// The event loop as it was before slots became a reused struct of arrays
/// and rates were cached between changes of the flowing set: every event
/// collects the flowing files and refills their rates from scratch. Kept
/// only as the oracle of the bit-identity property above.
#[cfg(test)]
mod reference {
    use super::{DetailedTransferReport, GridFtpConfig, TransferReport};
    use crate::link::LinkProfile;
    use crate::time::SimTime;

    #[derive(Debug, Clone, Copy)]
    struct Active {
        index: usize,
        remaining: f64,
        cap: f64,
        setup_remaining: f64,
    }

    pub(super) fn simulate_transfer_detailed(
        files: &[u64],
        release_s: Option<&[f64]>,
        link: &LinkProfile,
        config: &GridFtpConfig,
        seed: u64,
    ) -> DetailedTransferReport {
        let bytes_total: u64 = files.iter().sum();
        if files.is_empty() {
            return DetailedTransferReport {
                report: TransferReport { duration_s: 0.0, bytes_total: 0, n_files: 0, effective_speed_bps: 0.0 },
                completion_s: Vec::new(),
                start_s: Vec::new(),
            };
        }
        let mut completion_s = vec![0.0f64; files.len()];
        let mut start_s = vec![0.0f64; files.len()];
        let per_command = link.per_file_overhead_s + if config.pipelining { 0.0 } else { link.rtt_s };
        let release_spacing = per_command / config.concurrency as f64;
        let available = |i: usize| release_s.map_or(0.0, |r| r[i]);

        let mut now = SimTime::ZERO;
        let mut next_file = 0usize;
        let mut next_release = SimTime::from_secs_f64(release_spacing.max(available(0)));
        let mut ready: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut active: Vec<Active> = Vec::with_capacity(config.concurrency);
        let mut last_completion = SimTime::ZERO;

        let activate = |idx: usize, active: &mut Vec<Active>, link: &LinkProfile| {
            let jf = link.jitter_factor(seed, idx as u64);
            active.push(Active {
                index: idx,
                remaining: files[idx] as f64,
                cap: (config.per_file_cap_bps() * jf).max(1.0),
                setup_remaining: config.slot_setup_s,
            });
        };

        loop {
            while active.len() < config.concurrency {
                match ready.pop_front() {
                    Some(idx) => {
                        start_s[idx] = now.as_secs_f64();
                        activate(idx, &mut active, link);
                    }
                    None => break,
                }
            }
            let commands_remain = next_file < files.len();
            if active.is_empty() && !commands_remain {
                break;
            }

            let flowing: Vec<f64> = active.iter().filter(|a| a.setup_remaining <= 0.0).map(|a| a.cap).collect();
            let flow_rates = water_fill(link.bandwidth_bps, &flowing);
            let mut rates = Vec::with_capacity(active.len());
            let mut fi = 0usize;
            for a in &active {
                if a.setup_remaining <= 0.0 {
                    rates.push(flow_rates[fi]);
                    fi += 1;
                } else {
                    rates.push(0.0);
                }
            }

            let mut dt_complete = f64::INFINITY;
            for (a, &r) in active.iter().zip(&rates) {
                if a.setup_remaining <= 0.0 {
                    let dt = if a.remaining <= 0.0 { 0.0 } else { a.remaining / r.max(1e-9) };
                    dt_complete = dt_complete.min(dt);
                } else {
                    dt_complete = dt_complete.min(a.setup_remaining);
                }
            }
            let dt_release = if commands_remain { (next_release - now).max(0.0) } else { f64::INFINITY };
            let dt = dt_complete.min(dt_release);

            now += dt;
            for (a, &r) in active.iter_mut().zip(&rates) {
                if a.setup_remaining > 0.0 {
                    a.setup_remaining -= dt;
                } else {
                    a.remaining -= r * dt;
                }
            }
            let before = active.len();
            active.retain(|a| {
                if a.remaining > 1e-6 {
                    true
                } else {
                    completion_s[a.index] = now.as_secs_f64();
                    false
                }
            });
            if active.len() < before {
                last_completion = now;
            }
            if commands_remain && now >= next_release {
                ready.push_back(next_file);
                next_file += 1;
                if next_file < files.len() {
                    let earliest = next_release + release_spacing;
                    next_release = earliest.max(SimTime::from_secs_f64(available(next_file)));
                }
            }
        }

        let duration_s = last_completion.max(now).as_secs_f64().max(release_spacing * files.len() as f64);
        let effective_speed_bps = if duration_s > 0.0 { bytes_total as f64 / duration_s } else { 0.0 };
        DetailedTransferReport {
            report: TransferReport { duration_s, bytes_total, n_files: files.len(), effective_speed_bps },
            completion_s,
            start_s,
        }
    }

    pub(super) fn water_fill(capacity: f64, caps: &[f64]) -> Vec<f64> {
        let n = caps.len();
        if n == 0 {
            return Vec::new();
        }
        let mut rates = vec![0.0f64; n];
        let mut remaining_capacity = capacity;
        let mut unfixed: Vec<usize> = (0..n).collect();
        loop {
            if unfixed.is_empty() || remaining_capacity <= 0.0 {
                break;
            }
            let fair = remaining_capacity / unfixed.len() as f64;
            let mut pinned_any = false;
            unfixed.retain(|&i| {
                let cap = caps[i];
                if cap <= fair {
                    rates[i] = cap;
                    remaining_capacity -= cap;
                    pinned_any = true;
                    false
                } else {
                    true
                }
            });
            if !pinned_any {
                let fair = remaining_capacity / unfixed.len() as f64;
                for &i in &unfixed {
                    rates[i] = fair;
                }
                break;
            }
        }
        rates
    }
}
