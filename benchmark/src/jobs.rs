//! Workloads and the execution of one job: a fresh `Machine`, one app
//! instance, one implementation, one verification. Every call into a layer
//! is timed from outside and wrapped in a span.

use crate::cpuclock::process_cpu;
use crate::spans::Recorder;
use bk_apps::affinity::{Affinity, AffinityIndexed};
use bk_apps::dna::DnaAssembly;
use bk_apps::filtercount::FilterCount;
use bk_apps::kmeans::KMeans;
use bk_apps::netflix::Netflix;
use bk_apps::opinion::OpinionFinder;
use bk_apps::wordcount::WordCount;
use bk_apps::{
    drifting_apps, harness::merge_pass_results, run_implementation, BenchApp, HarnessConfig,
    Implementation, Instance,
};
use bk_baselines::{run_cpu_multithreaded, run_gpu_double_buffer, run_gpu_single_buffer};
use bk_obs::critpath::{self, CritReport, WaveDag};
use bk_runtime::stream::{run_bigkernel_streamed, ReplaySource};
use bk_runtime::{
    run_bigkernel, AutotuneConfig, Machine, MetricsRegistry, RunResult, ShardPolicy, StreamConfig,
    StreamKernel, WindowPolicy, WindowReport,
};
use bk_simcore::SimTime;
use std::time::{Duration, Instant};

const MIB: u64 = 1 << 20;

/// Streamed source rate as a multiple of the app's calibrated batch
/// throughput, so the bounded queue, not the source, limits the stream.
const RATE_FACTOR: f64 = 2.0;
/// Windows per drifting app; three apps give the 100+ windows a p90 with
/// ten samples beyond it needs.
const WINDOWS_PER_APP: u64 = 40;
/// Inter-stage queue bound of the streamed runs.
const QUEUE_BOUND: usize = 2;
/// Drift threshold just below the 0.5 relative change the drifting apps
/// make at their flip point.
const REDETECT_THRESHOLD: f64 = 0.4;

/// How a job runs its app.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `bk_runtime::run_bigkernel`, one call per kernel pass.
    BigKernel,
    /// `bk_apps::run_implementation` with fusion requested.
    Fused,
    /// One of the paper's baselines, one call per kernel pass.
    Baseline(Implementation),
    /// `bk_runtime::run_bigkernel_streamed` over a `ReplaySource`.
    Streamed,
}

impl Mode {
    pub fn label(self) -> &'static str {
        match self {
            Mode::BigKernel => "bigkernel",
            Mode::Fused => "bigkernel-fused",
            Mode::Baseline(imp) => imp.label(),
            Mode::Streamed => "bigkernel-streamed",
        }
    }

    /// Whether the job runs the BigKernel runtime (its simulated time is
    /// part of `sim_s`).
    pub fn is_bigkernel(self) -> bool {
        !matches!(self, Mode::Baseline(_))
    }
}

/// One job of a workload.
pub struct Job {
    pub app: Box<dyn BenchApp + Sync>,
    /// Short app key used in metric names and reports.
    pub key: &'static str,
    pub bytes: u64,
    pub gpus: usize,
    pub mode: Mode,
}

impl Job {
    /// Span (and layer) of the job's run call.
    pub fn run_span(&self) -> &'static str {
        match self.mode {
            Mode::BigKernel => match self.key {
                "kmeans" => "runtime.pipeline.run_s.kmeans",
                "wordcount" => "runtime.pipeline.run_s.wordcount",
                "netflix" => "runtime.pipeline.run_s.netflix",
                "opinion" => "runtime.pipeline.run_s.opinion",
                "dna" => "runtime.pipeline.run_s.dna",
                "mca" => "runtime.pipeline.run_s.mca",
                "mca-idx" => "runtime.pipeline.run_s.mca-idx",
                other => panic!("no pipeline span for app {other}"),
            },
            Mode::Fused => "runtime.fusion.run_s",
            Mode::Streamed => "runtime.stream.run_s",
            Mode::Baseline(Implementation::CpuMultithreaded) => "baselines.cpu_mt.run_s",
            Mode::Baseline(Implementation::GpuSingleBuffer) => "baselines.single_buffer.run_s",
            Mode::Baseline(Implementation::GpuDoubleBuffer) => "baselines.double_buffer.run_s",
            Mode::Baseline(other) => panic!("no span for baseline {}", other.label()),
        }
    }
}

/// A named set of jobs, run one after another.
pub struct Workload {
    pub name: &'static str,
    pub jobs: Vec<Job>,
}

pub const WORKLOADS: &[&str] = &["fixed-stride", "var-write", "paper-compare", "stream-drift"];

fn app(key: &'static str) -> Box<dyn BenchApp + Sync> {
    match key {
        "kmeans" => Box::new(KMeans::default()),
        "wordcount" => Box::new(WordCount::default()),
        "netflix" => Box::new(Netflix),
        "opinion" => Box::new(OpinionFinder::default()),
        "dna" => Box::new(DnaAssembly::default()),
        "mca" => Box::new(Affinity::default()),
        "mca-idx" => Box::new(AffinityIndexed::default()),
        "filtercount" => Box::new(FilterCount),
        other => panic!("unknown app key {other}"),
    }
}

fn job(key: &'static str, bytes: u64, gpus: usize, mode: Mode) -> Job {
    Job {
        app: app(key),
        key,
        bytes,
        gpus,
        mode,
    }
}

/// The workload called `name`, or `None`.
pub fn workload(name: &str) -> Option<Workload> {
    let jobs = match name {
        // §IV.A pattern hits, addr-gen execution, SIMD gather and compute
        // replay on fixed-length strided records, one simulated GPU.
        "fixed-stride" => ["kmeans", "netflix", "opinion", "dna"]
            .into_iter()
            .map(|k| job(k, 4 * MIB, 1, Mode::BigKernel))
            .collect(),
        // Variable-length and indexed records, writes to mapped data,
        // atomics, fusion and the two-device sharding executor.
        "var-write" => ["wordcount", "mca", "mca-idx"]
            .into_iter()
            .map(|k| job(k, 4 * MIB, 2, Mode::BigKernel))
            .chain(
                ["kmeans", "mca", "filtercount"]
                    .into_iter()
                    .map(|k| job(k, 4 * MIB, 2, Mode::Fused)),
            )
            .collect(),
        // All seven Table I apps under the three baselines and BigKernel.
        "paper-compare" => [
            "kmeans",
            "wordcount",
            "netflix",
            "opinion",
            "dna",
            "mca",
            "mca-idx",
        ]
        .into_iter()
        .flat_map(|k| {
            [
                Mode::Baseline(Implementation::CpuMultithreaded),
                Mode::Baseline(Implementation::GpuSingleBuffer),
                Mode::Baseline(Implementation::GpuDoubleBuffer),
                Mode::BigKernel,
            ]
            .into_iter()
            .map(move |m| job(k, 8 * MIB, 1, m))
        })
        .collect(),
        // The drifting apps through the streaming runner: windows, the
        // bounded queue, drift re-detection and the stream-level tuner.
        "stream-drift" => drifting_apps()
            .into_iter()
            .zip(["wordcount~", "filtercount~", "kmeans~"])
            .map(|(app, key)| Job {
                app,
                key,
                bytes: 4 * MIB,
                gpus: 1,
                mode: Mode::Streamed,
            })
            .collect(),
        _ => return None,
    };
    WORKLOADS
        .iter()
        .find(|&&w| w == name)
        .map(|&name| Workload { name, jobs })
}

/// Simulated outcome of a job: deterministic for a given seed.
#[derive(Clone, Debug, Default)]
pub struct Sim {
    pub total: SimTime,
    pub metrics: MetricsRegistry,
    pub chunks: usize,
    /// Streamed jobs: per-window reports.
    pub windows: Vec<WindowReport>,
    /// Streamed jobs: the calibrated source rate, bytes per simulated second.
    pub rate: f64,
    /// Traced BigKernel jobs: critical-path blame per stage role, in ns,
    /// tiling `total` (ingest holds a streamed run's time off the pipeline).
    pub blame: Vec<(&'static str, u64)>,
}

/// Host and simulated outcome of one job.
pub struct Outcome {
    /// Process CPU time of the set-up (instantiation plus stream
    /// calibration), every thread summed.
    pub setup_cpu: Duration,
    /// Wall time of the simulation call.
    pub run_wall: Duration,
    /// Process CPU time of the simulation call, every thread summed.
    pub run_cpu: Duration,
    /// Factor that turns the job's CPU times into reference-normalized
    /// host times (see `reference`); `run_job` leaves it at 1 and the
    /// caller, which runs the reference kernel around the job, sets it.
    pub scale: f64,
    /// Bytes of mapped input (scratch streams excluded).
    pub input_bytes: u64,
    pub sim: Sim,
    pub verified: Result<(), String>,
}

fn fresh_machine(cfg: &HarnessConfig) -> Machine {
    let mut machine = (cfg.machine)();
    machine.replicate_gpus(cfg.gpus);
    machine.scale_fixed_costs(cfg.fixed_cost_scale);
    machine
}

fn input_bytes(instance: &Instance) -> u64 {
    instance
        .streams
        .iter()
        .filter(|s| !instance.scratch_streams.contains(&s.id))
        .map(|s| s.len())
        .sum()
}

/// Harness configuration of a job. `sequential` runs blocks one by one
/// (the `--threads 1` path).
fn config(job: &Job, sequential: bool) -> HarnessConfig {
    let mut cfg = HarnessConfig::paper_scaled(job.bytes);
    cfg.gpus = job.gpus;
    cfg.fuse = job.mode == Mode::Fused;
    if sequential {
        cfg.bigkernel.parallel_blocks = false;
        cfg.baseline.parallel_blocks = false;
    }
    cfg
}

/// Run one job on a fresh machine. Spans go to `rec` under job id `id`;
/// a traced BigKernel job also captures its schedule for the critical-path
/// analysis and the what-if ranking.
pub fn run_job(job: &Job, seed: u64, sequential: bool, rec: &mut Recorder, id: usize) -> Outcome {
    let cfg = config(job, sequential);
    let root = rec.open("job", None, id);

    let c = process_cpu();
    let rate = (job.mode == Mode::Streamed).then(|| {
        let s = rec.open("apps.calibrate_s", Some(root), id);
        let mut machine = fresh_machine(&cfg);
        let instance = job.app.instantiate(&mut machine, job.bytes, seed);
        let batch = run_implementation(&mut machine, &instance, Implementation::BigKernel, &cfg);
        rec.close(s);
        RATE_FACTOR * instance.streams[0].len() as f64 / batch.total.secs()
    });
    let s = rec.open("apps.instantiate_s", Some(root), id);
    let mut machine = fresh_machine(&cfg);
    let instance = job.app.instantiate(&mut machine, job.bytes, seed);
    rec.close(s);
    let setup_cpu = process_cpu() - c;

    let capture = (rec.enabled() && job.mode.is_bigkernel()).then(critpath::capture);
    let s = rec.open(job.run_span(), Some(root), id);
    let c = process_cpu();
    let t = Instant::now();
    let mut sim = execute(job, &cfg, &mut machine, &instance, rate);
    let run_wall = t.elapsed();
    let run_cpu = process_cpu() - c;
    rec.close(s);
    let waves = capture.map(|c| c.finish());

    let s = rec.open("apps.verify_s", Some(root), id);
    let verified = (instance.verify)(&machine);
    rec.close(s);

    let mut tiled = Ok(());
    if let Some(waves) = waves {
        let s = rec.open("obs.critpath.analyze_s", Some(root), id);
        match blame(&waves, &sim, job.mode == Mode::Streamed) {
            Ok(b) => sim.blame = b,
            Err(e) => tiled = Err(e),
        }
        rec.close(s);
        let s = rec.open("runtime.whatif.rank_s", Some(root), id);
        std::hint::black_box(bk_runtime::whatif::rank(
            &waves,
            job.gpus,
            ShardPolicy::RoundRobin,
        ));
        rec.close(s);
    }
    rec.close_job(root);

    Outcome {
        setup_cpu,
        run_wall,
        run_cpu,
        scale: 1.0,
        input_bytes: input_bytes(&instance),
        sim,
        verified: verified.and(tiled),
    }
}

fn execute(
    job: &Job,
    cfg: &HarnessConfig,
    machine: &mut Machine,
    instance: &Instance,
    rate: Option<f64>,
) -> Sim {
    let from_run = |r: RunResult| Sim {
        total: r.total,
        metrics: r.metrics,
        chunks: r.chunks,
        ..Sim::default()
    };
    let per_pass = |machine: &mut Machine,
                    f: &dyn Fn(&mut Machine, &dyn StreamKernel) -> RunResult| {
        let results = instance
            .kernels
            .iter()
            .enumerate()
            .map(|(pass, k)| {
                critpath::set_pass(pass);
                f(machine, k.as_ref())
            })
            .collect();
        critpath::set_pass(0);
        merge_pass_results(job.mode.label(), results)
    };
    let streams = &instance.streams;
    match job.mode {
        Mode::BigKernel => from_run(per_pass(machine, &|m, k| {
            run_bigkernel(m, k, streams, cfg.launch, &cfg.bigkernel)
        })),
        Mode::Fused => from_run(run_implementation(
            machine,
            instance,
            Implementation::BigKernel,
            cfg,
        )),
        Mode::Baseline(imp) => from_run(per_pass(machine, &|m, k| match imp {
            Implementation::CpuMultithreaded => run_cpu_multithreaded(m, k, streams),
            Implementation::GpuSingleBuffer => {
                run_gpu_single_buffer(m, k, streams, cfg.launch, &cfg.baseline)
            }
            Implementation::GpuDoubleBuffer => {
                run_gpu_double_buffer(m, k, streams, cfg.launch, &cfg.baseline)
            }
            other => panic!("baseline {} is not benchmarked", other.label()),
        })),
        Mode::Streamed => {
            let rate = rate.expect("streamed jobs are calibrated during set-up");
            let len = streams[0].len();
            let scfg = StreamConfig {
                policy: WindowPolicy::ByBytes((len / WINDOWS_PER_APP).max(1)),
                queue_bound: QUEUE_BOUND,
                redetect_threshold: REDETECT_THRESHOLD,
                autotune: Some(AutotuneConfig::default()),
            };
            let kernels: Vec<&dyn StreamKernel> = instance
                .kernels
                .iter()
                .map(|k| k.as_ref() as &dyn StreamKernel)
                .collect();
            let source = ReplaySource::new(len, rate);
            let r = run_bigkernel_streamed(
                machine,
                &kernels,
                streams,
                cfg.launch,
                &cfg.bigkernel,
                &scfg,
                &source,
            );
            Sim {
                total: r.total,
                metrics: r.metrics,
                chunks: r.chunks,
                windows: r.windows,
                rate,
                blame: Vec::new(),
            }
        }
    }
}

/// Fused multi-pass graphs name their stages `p<i>.<role>`; blame is
/// reported per role.
fn stage_role(stage: &'static str) -> &'static str {
    match stage.split_once('.') {
        Some((p, role)) if p.len() > 1 && p[1..].bytes().all(|b| b.is_ascii_digit()) => role,
        _ => stage,
    }
}

/// Split a streamed capture into pipeline invocations: a new invocation
/// starts when the pass changes or the wave clock restarts (each window
/// runs the batch pipeline on its own clock).
fn invocations(waves: &[WaveDag]) -> Vec<&[WaveDag]> {
    let mut out = Vec::new();
    let mut start = 0;
    for i in 1..waves.len() {
        let (prev, cur) = (&waves[i - 1], &waves[i]);
        if cur.pass != prev.pass || cur.time_base <= prev.time_base {
            out.push(&waves[start..i]);
            start = i;
        }
    }
    if start < waves.len() {
        out.push(&waves[start..]);
    }
    out
}

/// Critical-path blame per stage role, tiling the job's simulated time
/// exactly. A batch job is one analysis whose makespan must equal the
/// job's total bit for bit. A streamed job is analyzed per window
/// invocation; the time its pipeline spends waiting for arrivals and the
/// queue is charged to `ingest`.
fn blame(waves: &[WaveDag], sim: &Sim, streamed: bool) -> Result<Vec<(&'static str, u64)>, String> {
    let reports: Vec<CritReport> = if streamed {
        invocations(waves)
            .into_iter()
            .map(critpath::analyze)
            .collect()
    } else {
        vec![critpath::analyze(waves)]
    };
    let mut by_role: Vec<(&'static str, u64)> = Vec::new();
    for r in &reports {
        if !r.tiles_exactly() {
            return Err("critical-path blame does not tile its makespan".into());
        }
        for &(stage, ns) in &r.stage_blame {
            let role = stage_role(stage);
            match by_role.iter_mut().find(|(s, _)| *s == role) {
                Some(e) => e.1 += ns,
                None => by_role.push((role, ns)),
            }
        }
    }
    let blamed: u64 = by_role.iter().map(|e| e.1).sum();
    let total = critpath::boundary_ns(sim.total);
    if streamed {
        let ingest = total
            .checked_sub(blamed)
            .ok_or_else(|| format!("pipeline blame {blamed} ns exceeds the stream's {total} ns"))?;
        by_role.push(("ingest", ingest));
    } else if reports[0].makespan != sim.total {
        return Err(format!(
            "critical-path makespan {:?} differs from the simulated total {:?}",
            reports[0].makespan, sim.total
        ));
    }
    Ok(by_role)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every span a job records names a per-layer metric, so its self time
    /// is reported under that name.
    #[test]
    fn every_workload_resolves_and_spans_name_metrics() {
        let listed = |name: &str| crate::catalog::PER_LAYER.iter().any(|m| m.name == name);
        for name in [
            "apps.calibrate_s",
            "apps.instantiate_s",
            "apps.verify_s",
            "obs.critpath.analyze_s",
            "runtime.whatif.rank_s",
        ] {
            assert!(listed(name), "{name}");
        }
        assert!(listed(crate::spans::UNATTRIBUTED));
        for &w in WORKLOADS {
            let wl = workload(w).expect(w);
            assert!(!wl.jobs.is_empty());
            for j in &wl.jobs {
                assert!(listed(j.run_span()), "{}", j.run_span());
            }
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn fused_stage_names_map_to_roles() {
        assert_eq!(stage_role("p0.addr-gen"), "addr-gen");
        assert_eq!(stage_role("p12.wb-apply"), "wb-apply");
        assert_eq!(stage_role("compute"), "compute");
        assert_eq!(stage_role("pa.x"), "pa.x");
    }
}
