//! Golden run-path digests: every BigKernel run path must keep its simulated
//! timing bit-for-bit.
//!
//! The determinism suite compares outputs and compares runs against each
//! other; this suite pins absolute simulated results against a committed
//! fixture (`fixtures/run_paths_golden.txt`). Each configuration is reduced
//! to one 64-bit FNV-1a digest over the run's `total` (IEEE-754 bits), its
//! chunk count, every counter except the host-threading diagnostics
//! (`parallel.*`) and every histogram's sample count and sum. A refactor of
//! the runners that moves any simulated number — a stage duration, a byte
//! counter, a stall total, an autotune decision, a fault event — changes a
//! digest and fails here.
//!
//! Covered: the seven Table I applications unfused, as the overlap-only
//! (`transfer_all`) and volume-reduction variants, and the fused multi-pass
//! programs (K-means, MasterCard Affinity, FilterCount); each untuned and
//! autotuned, clean and under a busy fault plan, on one and two GPUs. Plus a
//! `DeviceEffects::Sequential` kernel (assembled and overlap-only), the
//! streaming runner in window-major and pass-major order, the GPU single-
//! and double-buffer baselines on one and two GPUs, and unfused BigKernel
//! under least-loaded sharding on two and three GPUs, clean and with device
//! 1 failing over at wave 0 (on three GPUs its chunks requeue by the two
//! survivors' loads).
//!
//! On a mismatch the test prints the digest of every configuration in
//! fixture format; a deliberate change to simulated timing replaces the
//! fixture with that output.

use bk_apps::affinity::{Affinity, AffinityIndexed};
use bk_apps::dna::DnaAssembly;
use bk_apps::filtercount::FilterCount;
use bk_apps::kmeans::KMeans;
use bk_apps::netflix::Netflix;
use bk_apps::opinion::OpinionFinder;
use bk_apps::wordcount::WordCount;
use bk_apps::{run_implementation, run_streamed_at_rate, BenchApp, HarnessConfig, Implementation};
use bk_baselines::BigKernelVariant;
use bk_gpu::occupancy::BlockResources;
use bk_runtime::ctx::AddrGenCtx;
use bk_runtime::fusion::AccessSummary;
use bk_runtime::kernel::KernelCtx;
use bk_runtime::{
    run_bigkernel, AutotuneConfig, DeviceEffects, DeviceFailure, FaultPlan, FaultSite, FaultStage,
    LaunchConfig, MetricsRegistry, RankBy, ShardPolicy, StreamConfig, StreamKernel, WindowPolicy,
};
use bk_simcore::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;

const FIXTURE: &str = include_str!("fixtures/run_paths_golden.txt");

/// Input size per run: at the launch below, several chunks per block and
/// more than one block wave on the test platform.
const BYTES: u64 = 96 * 1024;
const CHUNK_BYTES: u64 = 4 * 1024;
const SEED: u64 = 42;

fn apps() -> Vec<Box<dyn BenchApp + Sync>> {
    vec![
        Box::new(KMeans::default()),
        Box::new(WordCount::default()),
        Box::new(Netflix),
        Box::new(OpinionFinder::default()),
        Box::new(DnaAssembly::default()),
        Box::new(Affinity::default()),
        Box::new(AffinityIndexed::default()),
    ]
}

fn fused_apps() -> Vec<Box<dyn BenchApp + Sync>> {
    vec![
        Box::new(KMeans::default()),
        Box::new(Affinity::default()),
        Box::new(FilterCount),
    ]
}

/// Random retries, a site that exhausts its retry budget (degrading the
/// graph one rung) and — with a second device to requeue onto — the death
/// of device 1 at wave 0.
fn busy_plan(gpus: usize) -> FaultPlan {
    FaultPlan {
        seed: 7,
        rate: 0.05,
        sites: vec![FaultSite {
            stage: FaultStage::Compute,
            chunk: 1,
            times: 5,
        }],
        device_failure: (gpus > 1).then_some(DeviceFailure { device: 1, wave: 0 }),
        ..FaultPlan::default()
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(total: SimTime, chunks: usize, metrics: &MetricsRegistry) -> u64 {
    let mut text = format!("total={:016x}\nchunks={chunks}\n", total.secs().to_bits());
    for (name, value) in metrics.iter() {
        if !name.starts_with("parallel.") {
            writeln!(text, "{name}={value}").unwrap();
        }
    }
    for (name, h) in metrics.hists() {
        writeln!(text, "{name}:count={},sum={}", h.count(), h.sum()).unwrap();
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut h, text.as_bytes());
    h
}

/// Short scheduling windows and a chunk range around [`CHUNK_BYTES`], so
/// depth re-plans and wave-boundary re-chunks both happen at this size.
fn tune() -> AutotuneConfig {
    AutotuneConfig {
        interval: 2,
        min_chunk_bytes: 1024,
        max_chunk_bytes: 16 * 1024,
        ..AutotuneConfig::default()
    }
}

fn base_cfg(gpus: usize, tuned: bool, faulted: bool) -> HarnessConfig {
    let mut cfg = HarnessConfig::test_small();
    cfg.launch = LaunchConfig::new(4, 32);
    cfg.bigkernel.chunk_input_bytes = CHUNK_BYTES;
    cfg.gpus = gpus;
    if tuned {
        cfg.bigkernel.autotune = Some(tune());
    }
    if faulted {
        cfg.bigkernel.faults = Some(busy_plan(gpus));
    }
    cfg
}

/// One verified harness run of `app` under `imp`.
fn harness_digest(app: &dyn BenchApp, imp: Implementation, cfg: &HarnessConfig) -> u64 {
    let mut machine = (cfg.machine)();
    machine.replicate_gpus(cfg.gpus);
    let instance = app.instantiate(&mut machine, BYTES, SEED);
    let r = run_implementation(&mut machine, &instance, imp, cfg);
    if let Err(e) = (instance.verify)(&machine) {
        panic!("{} failed verification: {e}", app.spec().name);
    }
    digest(r.total, r.chunks, &r.metrics)
}

/// Forwards every [`StreamKernel`] method except `device_effects`, which it
/// forces to [`DeviceEffects::Sequential`] — the block-ordered live path.
struct SequentialOnly<'k>(&'k dyn StreamKernel);

impl StreamKernel for SequentialOnly<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn record_size(&self) -> Option<u64> {
        self.0.record_size()
    }
    fn halo_bytes(&self) -> u64 {
        self.0.halo_bytes()
    }
    fn addresses(&self, ctx: &mut AddrGenCtx<'_>, range: Range<u64>) {
        self.0.addresses(ctx, range)
    }
    fn process(&self, ctx: &mut dyn KernelCtx, range: Range<u64>) {
        self.0.process(ctx, range)
    }
    fn resources(&self) -> BlockResources {
        self.0.resources()
    }
    fn device_effects(&self) -> DeviceEffects {
        DeviceEffects::Sequential
    }
    fn access_summary(&self) -> Option<AccessSummary> {
        self.0.access_summary()
    }
    fn barrier_dependence(&self) -> bool {
        self.0.barrier_dependence()
    }
}

/// Every pass of Word Count run as a `Sequential` kernel under `variant`.
fn sequential_digest(variant: BigKernelVariant, cfg: &HarnessConfig) -> u64 {
    let app = WordCount::default();
    let mut machine = (cfg.machine)();
    let instance = app.instantiate(&mut machine, BYTES, SEED);
    let bk = variant.config(&cfg.bigkernel);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for k in &instance.kernels {
        let r = run_bigkernel(
            &mut machine,
            &SequentialOnly(k.as_ref()),
            &instance.streams,
            cfg.launch,
            &bk,
        );
        fnv1a(&mut h, &digest(r.total, r.chunks, &r.metrics).to_le_bytes());
    }
    if let Err(e) = (instance.verify)(&machine) {
        panic!("sequential Word Count failed verification: {e}");
    }
    h
}

fn streamed_digest(app: &dyn BenchApp, cfg: &HarnessConfig) -> u64 {
    let scfg = StreamConfig {
        policy: WindowPolicy::ByBytes(24 * 1024),
        queue_bound: 2,
        autotune: Some(tune()),
        ..StreamConfig::default()
    };
    // Twice as fast as the pipeline needs: admission backpressures.
    let (r, _) = run_streamed_at_rate(app, BYTES, SEED, cfg, &scfg, 2e9);
    digest(r.total, r.chunks, &r.metrics)
}

fn computed() -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for gpus in [1usize, 2] {
        for tuned in [false, true] {
            for faulted in [false, true] {
                let cfg = base_cfg(gpus, tuned, faulted);
                let tag = format!(
                    "gpus{gpus}.{}.{}",
                    if tuned { "tuned" } else { "untuned" },
                    if faulted { "faulted" } else { "clean" }
                );
                let runs = [
                    ("unfused", Implementation::BigKernel),
                    (
                        "overlap-only",
                        Implementation::Variant(BigKernelVariant::OverlapOnly),
                    ),
                    (
                        "volume-reduction",
                        Implementation::Variant(BigKernelVariant::VolumeReduction),
                    ),
                ];
                for app in apps() {
                    for (mode, imp) in runs {
                        let key = format!("{tag}.{mode}.{}", app.spec().name);
                        out.insert(key, harness_digest(app.as_ref(), imp, &cfg));
                    }
                }
                let mut fused = cfg.clone();
                fused.fuse = true;
                // One co-resident wave, so the barrier-dependent Affinity
                // pair fuses instead of refusing.
                fused.launch = LaunchConfig::new(2, 32);
                for app in fused_apps() {
                    let key = format!("{tag}.fused.{}", app.spec().name);
                    out.insert(
                        key,
                        harness_digest(app.as_ref(), Implementation::BigKernel, &fused),
                    );
                }
            }
        }
    }
    for tuned in [false, true] {
        let cfg = base_cfg(1, tuned, false);
        for variant in [BigKernelVariant::Full, BigKernelVariant::OverlapOnly] {
            let key = format!(
                "gpus1.{}.sequential.{}",
                if tuned { "tuned" } else { "untuned" },
                variant.label()
            );
            out.insert(key, sequential_digest(variant, &cfg));
        }
    }
    let mut blame = base_cfg(2, true, true);
    blame.bigkernel.autotune = Some(AutotuneConfig {
        rank_by: RankBy::CritBlame,
        ..tune()
    });
    out.insert(
        "gpus2.tuned-blame.faulted.unfused.K-means".into(),
        harness_digest(&KMeans::default(), Implementation::BigKernel, &blame),
    );
    for gpus in [1usize, 2] {
        let cfg = base_cfg(gpus, false, false);
        for (mode, imp) in [
            ("single-buffer", Implementation::GpuSingleBuffer),
            ("double-buffer", Implementation::GpuDoubleBuffer),
        ] {
            for app in apps() {
                let key = format!("gpus{gpus}.baseline.{mode}.{}", app.spec().name);
                out.insert(key, harness_digest(app.as_ref(), imp, &cfg));
            }
        }
    }
    // On three GPUs the kill leaves two survivors, so the requeue deals by
    // their running loads.
    for (gpus, faulted) in [(2usize, false), (2, true), (3, false), (3, true)] {
        let mut cfg = base_cfg(gpus, false, faulted);
        cfg.bigkernel.shard_policy = ShardPolicy::LeastLoaded;
        for app in apps() {
            let key = format!(
                "gpus{gpus}.least-loaded.untuned.{}.unfused.{}",
                if faulted { "faulted" } else { "clean" },
                app.spec().name
            );
            out.insert(
                key,
                harness_digest(app.as_ref(), Implementation::BigKernel, &cfg),
            );
        }
    }
    let cfg = base_cfg(1, false, false);
    out.insert(
        "gpus1.streamed.window-major.K-means".into(),
        streamed_digest(&KMeans::default(), &cfg),
    );
    out.insert(
        "gpus1.streamed.pass-major.MasterCard Affinity".into(),
        streamed_digest(&Affinity::default(), &cfg),
    );
    out
}

fn fixture() -> BTreeMap<String, u64> {
    FIXTURE
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (digest, key) = l
                .split_once(' ')
                .unwrap_or_else(|| panic!("malformed fixture line {l:?}"));
            let digest = u64::from_str_radix(digest, 16)
                .unwrap_or_else(|e| panic!("bad digest in {l:?}: {e}"));
            (key.to_string(), digest)
        })
        .collect()
}

#[test]
fn every_run_path_matches_its_golden_digest() {
    let got = computed();
    let want = fixture();
    let mut report = String::new();
    for (key, digest) in &got {
        match want.get(key) {
            Some(w) if w == digest => {}
            Some(w) => writeln!(report, "changed {key}: {w:016x} -> {digest:016x}").unwrap(),
            None => writeln!(report, "missing {key}").unwrap(),
        }
    }
    for key in want.keys().filter(|k| !got.contains_key(*k)) {
        writeln!(report, "stale {key}").unwrap();
    }
    if !report.is_empty() {
        let mut lines = String::new();
        for (key, digest) in &got {
            writeln!(lines, "{digest:016x} {key}").unwrap();
        }
        panic!("{report}\ncomputed digests:\n{lines}");
    }
}
