//! `files-archive`: many small 2-D CESM fields across all 14 field kinds,
//! packed into self-describing archives by `TransferSession::build_archives`
//! (2 file workers × 1 codec thread, grouping on) and restored by
//! `restore_archives` — the paper's many-small-files regime.

use std::time::Instant;

use ocelot::grouping::{group_blobs, plan_groups_by_count, ungroup_blobs};
use ocelot::session::open_archive;
use ocelot::TransferSession;
use ocelot_datagen::{Application, FieldSpec};
use ocelot_sz::{Dataset, LossyConfig};

use super::{check_restored, sim_transfer_s, Pass, PoolTally, Size, Traced, Workload};
use crate::report::{median, Checks, Digest, Metrics};
use crate::trace::{Captured, Tracer};

/// File workers of the session (each drives one codec thread).
const FILE_WORKERS: usize = 2;

/// The paper's CESM default relative error bound.
const REL_EB: f64 = 1e-4;

pub struct FilesArchive {
    files: Vec<(String, Dataset<f32>)>,
    bounds: Vec<f64>,
    session: TransferSession,
    groups: usize,
    seed: u64,
    raw_bytes: u64,
    datagen_s: f64,
    /// Digest, ratio and archive sizes of the first pass; every later pass
    /// must reproduce the digest.
    reference: Option<(u64, f64, Vec<u64>)>,
    min_psnr: f64,
    pools: PoolTally,
}

pub fn setup(seed: u64, size: Size) -> FilesArchive {
    let (snapshots, scale, groups) = match size {
        Size::Full => (3, 16, 6),
        Size::Toy => (1, 64, 2),
    };
    let config = LossyConfig::sz3(REL_EB);
    let t = Instant::now();
    let mut files = Vec::new();
    for snap in 0..snapshots {
        for kind in Application::Cesm.fields() {
            let spec = FieldSpec::new(Application::Cesm, *kind)
                .with_scale(scale)
                .with_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(snap));
            files.push((format!("cesm/snap{snap:02}/{kind}"), spec.generate()));
        }
    }
    let datagen_s = t.elapsed().as_secs_f64();
    let bounds = files.iter().map(|(_, d)| config.error_bound.resolve(d)).collect();
    let raw_bytes = files.iter().map(|(_, d)| d.nbytes() as u64).sum();
    FilesArchive {
        files,
        bounds,
        session: TransferSession::new(FILE_WORKERS, config).with_codec_threads(1),
        groups,
        seed,
        raw_bytes,
        datagen_s,
        reference: None,
        min_psnr: f64::INFINITY,
        pools: PoolTally::default(),
    }
}

impl Workload for FilesArchive {
    fn pass(&mut self, checks: &mut Checks, traced: Option<&Traced<'_>>) -> Pass {
        let (built, compress_s) = self.pools.time(traced, FILE_WORKERS, 1, || {
            let _s = traced.map(|t| t.tracer.span("core.session.build_archives", None));
            self.session.build_archives(&self.files, self.groups)
        });
        let set = match built {
            Ok(set) => set,
            Err(e) => {
                self.files.iter().for_each(|_| checks.record(Err(format!("build_archives: {e}"))));
                return Pass { compress_s, wall_s: compress_s, ..Pass::default() };
            }
        };
        let t1 = Instant::now();
        let restored = {
            let _s = traced.map(|t| t.tracer.span("core.session.restore_archives", None));
            self.session.restore_archives(set.archives())
        };
        let restore_s = t1.elapsed().as_secs_f64();

        let mut digest = Digest::default();
        set.archives().iter().for_each(|a| digest.update(a));
        let sizes: Vec<u64> = set.archives().iter().map(|a| a.len() as u64).collect();
        let reference = self.reference.get_or_insert((digest.value(), set.overall_ratio(), sizes)).0;
        let restored = restored.unwrap_or_default();
        for (i, ((name, data), eb)) in self.files.iter().zip(&self.bounds).enumerate() {
            checks.record((|| {
                if digest.value() != reference {
                    return Err("archive bytes changed between passes".to_string());
                }
                let (rname, rdata) = restored.get(i).ok_or(format!("{name} was not restored"))?;
                if rname != name {
                    return Err(format!("restored name {rname} where {name} was archived"));
                }
                let report = check_restored(data, rdata, *eb)?;
                if report.psnr.is_finite() {
                    self.min_psnr = self.min_psnr.min(report.psnr);
                }
                Ok(())
            })());
        }
        Pass { compress_s, restore_s, wall_s: compress_s + restore_s, raw_bytes: self.raw_bytes, jobs: 1 }
    }

    fn end_to_end(&mut self, passes: &[Pass], _checks: &mut Checks) -> Metrics {
        let (_, ratio, sizes) = self.reference.clone().unwrap_or_default();
        let sim_s = sim_transfer_s(&sizes, self.seed);
        super::codec_end_to_end(passes, ratio, self.min_psnr, sim_s)
    }

    fn per_layer(&mut self, tracer: &Tracer, _captured: &Captured, checks: &mut Checks) -> Metrics {
        let mut m = Metrics::default();
        self.pools.metrics(&mut m);

        // Grouping, replayed on this workload's own blobs the way the
        // session packs them: one archive per group, then unpacked again.
        let Ok(set) = self.session.build_archives(&self.files, self.groups) else {
            checks.record(Err("build_archives failed before the grouping replay".into()));
            return m;
        };
        let mut members = Vec::new();
        for archive in set.archives() {
            match open_archive(archive) {
                Ok(named) => members.extend(named.into_iter().map(|(n, b)| (n, b.into_bytes()))),
                Err(e) => checks.record(Err(format!("open_archive: {e}"))),
            }
        }
        let plan = plan_groups_by_count(members.len(), self.groups);
        let (mut group_s, mut ungroup_s) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            let t = Instant::now();
            let (packed, _) = tracer.time("core.grouping.group", None, || group_blobs(&members, &plan));
            group_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let unpacked: usize = tracer.time("core.grouping.ungroup", None, || {
                packed.iter().map(|g| ungroup_blobs(g).map_or(0, |v| v.len())).sum()
            });
            ungroup_s.push(t.elapsed().as_secs_f64());
            checks.record(if unpacked == members.len() { Ok(()) } else { Err("ungroup lost members".into()) });
        }
        m.set("core.grouping.group_s", median(&group_s), "s");
        m.set("core.grouping.ungroup_s", median(&ungroup_s), "s");
        m
    }

    fn codec_inputs(&self) -> Vec<(&Dataset<f32>, LossyConfig)> {
        self.files.iter().map(|(_, d)| (d, *self.session.config())).collect()
    }

    fn datagen_s(&self) -> f64 {
        self.datagen_s
    }

    fn input_bytes(&self) -> u64 {
        self.raw_bytes
    }
}
