//! Multiple concurrent batch transfers sharing one WAN link.
//!
//! The paper anticipates a production deployment where "wait time would be
//! only dependent on other Ocelot transfers sharing those resources". This
//! module simulates several batches — each with its own control channels and
//! concurrency budget, possibly starting at different times — contending for
//! a single link's bandwidth, with max–min fair sharing across every active
//! file regardless of owner.

use crate::gridftp::{water_fill, GridFtpConfig};
use crate::link::LinkProfile;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One contending batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchSpec {
    /// Per-file sizes in bytes.
    pub files: Vec<u64>,
    /// Simulated start time of the batch, seconds.
    pub start_s: f64,
    /// GridFTP tuning for this batch.
    pub config: GridFtpConfig,
}

/// Outcome of one batch under contention.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    /// Wall time from the batch's own start to its last byte, seconds.
    pub duration_s: f64,
    /// Completion instant on the shared clock, seconds.
    pub finished_at_s: f64,
    /// Bytes moved.
    pub bytes_total: u64,
    /// Effective speed over the batch's own duration.
    pub effective_speed_bps: f64,
}

struct BatchState {
    next_file: usize,
    next_release: f64,
    ready: VecDeque<usize>,
    active: Vec<(f64, f64, f64)>, // (remaining_bytes, cap, setup_remaining)
    last_completion: f64,
    started: bool,
}

/// Simulates `batches` sharing `link`. Returns one report per batch, in
/// input order.
///
/// # Panics
/// Panics if any batch has zero concurrency/parallelism or a negative start.
pub fn simulate_shared_link(batches: &[BatchSpec], link: &LinkProfile, seed: u64) -> Vec<BatchReport> {
    for b in batches {
        assert!(b.config.concurrency > 0 && b.config.parallelism > 0, "invalid batch config");
        assert!(b.start_s.is_finite() && b.start_s >= 0.0, "invalid batch start");
    }
    let release_spacing: Vec<f64> = batches
        .iter()
        .map(|b| {
            let per_command = link.per_file_overhead_s + if b.config.pipelining { 0.0 } else { link.rtt_s };
            per_command / b.config.concurrency as f64
        })
        .collect();
    let mut states: Vec<BatchState> = batches
        .iter()
        .zip(&release_spacing)
        .map(|(b, &sp)| BatchState {
            next_file: 0,
            next_release: b.start_s + sp,
            ready: VecDeque::new(),
            active: Vec::new(),
            last_completion: b.start_s,
            started: !b.files.is_empty(),
        })
        .collect();

    let mut now = 0.0f64;
    let (mut caps, mut rates, mut unfixed) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        // Activate ready files within each batch's concurrency budget.
        for (k, st) in states.iter_mut().enumerate() {
            while st.active.len() < batches[k].config.concurrency {
                match st.ready.pop_front() {
                    Some(i) => {
                        let jf = link.jitter_factor(seed ^ (k as u64) << 32, i as u64);
                        st.active.push((
                            batches[k].files[i] as f64,
                            (batches[k].config.per_file_cap_bps() * jf).max(1.0),
                            batches[k].config.slot_setup_s,
                        ));
                    }
                    None => break,
                }
            }
        }

        let work_remains =
            states.iter().enumerate().any(|(k, st)| !st.active.is_empty() || st.next_file < batches[k].files.len());
        if !work_remains {
            break;
        }

        // Fair share across every flowing file on the link.
        caps.clear();
        caps.extend(states.iter().flat_map(|st| st.active.iter().filter(|a| a.2 <= 0.0).map(|a| a.1)));
        rates.resize(caps.len(), 0.0);
        water_fill(link.bandwidth_bps, &caps, &mut rates, &mut unfixed);

        // Next event across all batches.
        let mut dt = f64::INFINITY;
        let mut r = 0usize;
        for st in &states {
            for &(remaining, _, setup) in &st.active {
                if setup > 0.0 {
                    dt = dt.min(setup);
                } else {
                    let rate = rates[r].max(1e-9);
                    r += 1;
                    dt = dt.min(if remaining <= 0.0 { 0.0 } else { remaining / rate });
                }
            }
        }
        for (k, st) in states.iter().enumerate() {
            if st.next_file < batches[k].files.len() {
                dt = dt.min((st.next_release - now).max(0.0));
            }
        }
        debug_assert!(dt.is_finite(), "no progress possible");
        now += dt;

        // Advance flows, setups, completions, and command releases.
        let mut r = 0usize;
        for (k, st) in states.iter_mut().enumerate() {
            for a in &mut st.active {
                if a.2 > 0.0 {
                    a.2 -= dt;
                } else {
                    a.0 -= rates[r] * dt;
                    r += 1;
                }
            }
            let before = st.active.len();
            st.active.retain(|a| a.0 > 1e-6);
            if st.active.len() < before {
                st.last_completion = now;
            }
            if st.next_file < batches[k].files.len() && now >= st.next_release {
                st.ready.push_back(st.next_file);
                st.next_file += 1;
                st.next_release += release_spacing[k];
            }
        }
    }

    states
        .iter()
        .zip(batches)
        .map(|(st, b)| {
            let finished = if st.started { st.last_completion.max(b.start_s) } else { b.start_s };
            let duration = finished - b.start_s;
            let bytes: u64 = b.files.iter().sum();
            BatchReport {
                duration_s: duration,
                finished_at_s: finished,
                bytes_total: bytes,
                effective_speed_bps: if duration > 0.0 { bytes as f64 / duration } else { 0.0 },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gridftp::simulate_transfer;

    fn link() -> LinkProfile {
        LinkProfile::new(1.0e9, 0.05, 0.02, 0.0)
    }

    fn batch(files: Vec<u64>, start_s: f64) -> BatchSpec {
        BatchSpec { files, start_s, config: GridFtpConfig::default() }
    }

    #[test]
    fn single_batch_matches_plain_simulation() {
        let files = vec![200_000_000u64; 30];
        let plain = simulate_transfer(&files, &link(), &GridFtpConfig::default(), 0);
        let shared = simulate_shared_link(&[batch(files, 0.0)], &link(), 0);
        assert!(
            (shared[0].duration_s - plain.duration_s).abs() / plain.duration_s < 0.02,
            "shared {} vs plain {}",
            shared[0].duration_s,
            plain.duration_s
        );
    }

    #[test]
    fn contending_batches_slow_each_other() {
        let files = vec![500_000_000u64; 40]; // 20 GB each, bw-limited
        let alone = simulate_shared_link(&[batch(files.clone(), 0.0)], &link(), 0);
        let contended = simulate_shared_link(&[batch(files.clone(), 0.0), batch(files, 0.0)], &link(), 0);
        // Two equal batches on one link: each takes roughly twice as long.
        let slowdown = contended[0].duration_s / alone[0].duration_s;
        assert!((1.6..2.4).contains(&slowdown), "slowdown {slowdown}");
    }

    #[test]
    fn late_arrivals_share_fairly_from_their_start() {
        let files = vec![500_000_000u64; 40];
        let reports = simulate_shared_link(&[batch(files.clone(), 0.0), batch(files, 15.0)], &link(), 0);
        // The early batch finishes first; the late one finishes after it.
        assert!(reports[0].finished_at_s < reports[1].finished_at_s);
        // The early batch still pays contention for the overlap window.
        let alone = simulate_shared_link(&[batch(vec![500_000_000u64; 40], 0.0)], &link(), 0);
        assert!(reports[0].duration_s > alone[0].duration_s);
    }

    #[test]
    fn empty_batches_are_fine() {
        let reports = simulate_shared_link(&[batch(vec![], 5.0), batch(vec![1_000_000], 0.0)], &link(), 0);
        assert_eq!(reports[0].bytes_total, 0);
        assert_eq!(reports[0].duration_s, 0.0);
        assert!(reports[1].duration_s > 0.0);
    }

    #[test]
    fn total_throughput_respects_the_link() {
        let files = vec![250_000_000u64; 40];
        let reports = simulate_shared_link(
            &[batch(files.clone(), 0.0), batch(files.clone(), 0.0), batch(files, 0.0)],
            &link(),
            1,
        );
        let total_bytes: u64 = reports.iter().map(|r| r.bytes_total).sum();
        let window = reports.iter().map(|r| r.finished_at_s).fold(0.0f64, f64::max);
        assert!(total_bytes as f64 / window <= 1.0e9 * 1.05, "aggregate {} B/s", total_bytes as f64 / window);
    }
}
