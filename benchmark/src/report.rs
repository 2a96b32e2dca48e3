//! Turning job outcomes into the reported metrics: host samples per
//! repetition, simulated metrics per workload, and the digest the
//! determinism checks compare.

use crate::jobs::{Job, Mode, Outcome};
use crate::stats::{geomean, median, percentile};
use bk_apps::Implementation;
use bk_bench::expectations::headline;
use std::collections::BTreeMap;

const MIB: f64 = (1u64 << 20) as f64;

/// Stages of the BigKernel graphs, in pipeline order.
const STAGES: [&str; 6] = [
    "addr-gen", "assemble", "transfer", "compute", "wb-xfer", "wb-apply",
];
/// Stall causes a fault-free run attributes.
const STALL_CAUSES: [&str; 5] = [
    "buffer-reuse",
    "dma-queue",
    "gpu-queue",
    "cpu-thread",
    "backpressure",
];
/// Every stage a stall can be recorded on.
const STALL_STAGES: [&str; 8] = [
    "addr-gen",
    "assemble",
    "transfer",
    "compute",
    "wb-xfer",
    "wb-apply",
    "stage-pin",
    "ingest",
];

/// Host-clock figures of one repetition of a workload.
#[derive(Clone, Debug)]
pub struct HostSample {
    /// Wall time of the jobs' simulation calls, summed.
    pub wall_s: f64,
    /// Normalized CPU time of the jobs' simulation calls, summed.
    pub norm_cpu_s: f64,
    /// Normalized CPU time of the jobs' set-up: instantiation plus stream
    /// calibration.
    pub setup_s: f64,
    /// Each job's simulation call, in normalized CPU seconds.
    pub job_run_s: Vec<f64>,
}

/// Host figures of a repetition; CPU times are scaled by each job's
/// reference-kernel factor (see `reference`).
pub fn host_sample(outcomes: &[Outcome]) -> HostSample {
    let job_run_s: Vec<f64> = outcomes
        .iter()
        .map(|o| o.run_cpu.as_secs_f64() * o.scale)
        .collect();
    HostSample {
        wall_s: outcomes.iter().map(|o| o.run_wall.as_secs_f64()).sum(),
        norm_cpu_s: job_run_s.iter().sum(),
        setup_s: outcomes
            .iter()
            .map(|o| o.setup_cpu.as_secs_f64() * o.scale)
            .sum(),
        job_run_s,
    }
}

/// Geomean over jobs of input MiB per normalized CPU second of the job's
/// median simulation call: each app weighs equally, and taking each job's
/// median first keeps the short jobs' jitter out of the figure.
pub fn norm_mib_per_s(samples: &[HostSample], outcomes: &[Outcome]) -> Option<f64> {
    let rates: Option<Vec<f64>> = outcomes
        .iter()
        .enumerate()
        .map(|(j, o)| {
            let runs: Vec<f64> = samples.iter().map(|s| s.job_run_s[j]).collect();
            Some(o.input_bytes as f64 / MIB / median(&runs)?)
        })
        .collect();
    geomean(&rates?)
}

/// Replay conflicts per simulated block execution (a host-path counter: it
/// depends on whether blocks ran in parallel, so it is no simulated metric).
pub fn replay_conflicts(jobs: &[Job], outcomes: &[Outcome]) -> f64 {
    let (mut conflicts, mut blocks) = (0u64, 0usize);
    for (j, o) in jobs.iter().zip(outcomes) {
        if j.mode.is_bigkernel() {
            conflicts += o.sim.metrics.get("parallel.replay_conflicts");
            blocks += o.sim.chunks;
        }
    }
    ratio(conflicts as f64, blocks as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The paper's three headline geomeans: BigKernel over double buffering,
/// single buffering and the multi-threaded CPU, each with its paper value.
pub fn paper_geomeans(jobs: &[Job], outcomes: &[Outcome]) -> Option<[(f64, f64); 3]> {
    let total = |key: &str, mode: Mode| {
        jobs.iter()
            .zip(outcomes)
            .find(|(j, _)| j.key == key && j.mode == mode)
            .map(|(_, o)| o.sim.total.secs())
    };
    let (mut db, mut sb, mut mt) = (Vec::new(), Vec::new(), Vec::new());
    for j in jobs.iter().filter(|j| j.mode == Mode::BigKernel) {
        let bk = total(j.key, Mode::BigKernel)?;
        let base = |imp| total(j.key, Mode::Baseline(imp));
        db.push(base(Implementation::GpuDoubleBuffer)? / bk);
        sb.push(base(Implementation::GpuSingleBuffer)? / bk);
        mt.push(base(Implementation::CpuMultithreaded)? / bk);
    }
    Some([
        (geomean(&db)?, headline::BK_VS_DB_AVG),
        (geomean(&sb)?, headline::BK_VS_SB_AVG),
        (geomean(&mt)?, headline::BK_VS_CPU_MT_AVG),
    ])
}

/// Every simulated metric of a repetition, end-to-end and per-layer.
/// Deterministic for a seed; layers the workload does not use read 0.
pub fn sim_metrics(
    jobs: &[Job],
    outcomes: &[Outcome],
) -> Result<BTreeMap<&'static str, f64>, String> {
    let bk: Vec<&Outcome> = jobs
        .iter()
        .zip(outcomes)
        .filter(|(j, _)| j.mode.is_bigkernel())
        .map(|(_, o)| o)
        .collect();
    let c = |name: &str| {
        bk.iter()
            .map(|o| o.sim.metrics.get(name) as f64)
            .sum::<f64>()
    };
    let hist_sum = |name: &str| {
        bk.iter()
            .filter_map(|o| o.sim.metrics.hist(name))
            .map(|h| h.sum() as f64)
            .sum::<f64>()
    };
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    let sim_s: f64 = bk.iter().map(|o| o.sim.total.secs()).sum();
    let input_mib: f64 = bk.iter().map(|o| o.input_bytes as f64 / MIB).sum();
    m.insert("sim_s", sim_s);
    m.insert("sustained_ingest_mib_s", ratio(input_mib, sim_s));

    m.insert("runtime.addr.entries", c("addr.entries"));
    m.insert("runtime.addr.encoded_mib", c("addr.encoded_bytes") / MIB);
    let found = c("addr.patterns_found") + c("addr.segmented_found");
    let lookups = found + c("addr.patterns_missed");
    m.insert("runtime.pattern.lookups", lookups);
    m.insert("runtime.pattern.hit_ratio", ratio(found, lookups));

    m.insert(
        "runtime.assembly.gathered_mib",
        c("assembly.gathered_bytes") / MIB,
    );
    m.insert(
        "runtime.assembly.padding_mib",
        c("assembly.padding_bytes") / MIB,
    );
    let hits = c("assembly.cache_hits");
    m.insert(
        "runtime.assembly.cache_hit_ratio",
        ratio(hits, hits + c("assembly.cache_misses")),
    );
    let simd = c("assembly.simd_runs");
    m.insert(
        "runtime.assembly.simd_run_ratio",
        ratio(simd, simd + c("assembly.scalar_runs")),
    );

    m.insert("host.pcie.h2d_mib", c("pcie.h2d_bytes") / MIB);
    m.insert("host.pcie.d2h_mib", c("pcie.d2h_bytes") / MIB);

    m.insert("gpu.issue_slots", c("gpu.comp_issue_slots"));
    m.insert("gpu.atomics", c("gpu.comp_atomics"));
    m.insert(
        "gpu.coalesce_ratio",
        ratio(
            c("gpu.comp_mem_bytes_useful"),
            c("gpu.comp_mem_bytes_moved"),
        ),
    );

    m.insert("runtime.fusion.fused", c("fusion.fused"));
    m.insert("runtime.fusion.refused", c("fusion.refused"));
    m.insert(
        "runtime.fusion.saved_mib",
        (c("fusion.h2d_saved_bytes") + c("fusion.d2h_saved_bytes")) / MIB,
    );

    let windows: Vec<f64> = bk
        .iter()
        .flat_map(|o| &o.sim.windows)
        .map(|w| (w.completed - w.ready).secs() * 1e3)
        .collect();
    m.insert("runtime.stream.windows", windows.len() as f64);
    m.insert("runtime.stream.redetects", c("stream.redetect"));
    m.insert(
        "runtime.stream.backpressure_ms",
        c("stream.backpressure_ns") / 1e6,
    );
    m.insert(
        "runtime.stream.queue_depth_max",
        bk.iter()
            .flat_map(|o| &o.sim.windows)
            .map(|w| w.depth)
            .max()
            .unwrap_or(0) as f64,
    );
    m.insert("runtime.autotune.retunes", c("autotune.retune"));
    let (p50, p90) = if windows.is_empty() {
        (0.0, 0.0)
    } else {
        let (p50, _) = percentile(&windows, 50.0).expect("windows is non-empty");
        let (p90, beyond) = percentile(&windows, 90.0).expect("windows is non-empty");
        if beyond < 10 {
            return Err(format!(
                "{} windows leave {beyond} samples beyond p90; at least 10 are needed",
                windows.len()
            ));
        }
        (p50, p90)
    };
    m.insert("window_latency_p50_ms", p50);
    m.insert("window_latency_p90_ms", p90);

    const BUSY: [&str; 6] = [
        "runtime.graph.busy_s.addr-gen",
        "runtime.graph.busy_s.assemble",
        "runtime.graph.busy_s.transfer",
        "runtime.graph.busy_s.compute",
        "runtime.graph.busy_s.wb-xfer",
        "runtime.graph.busy_s.wb-apply",
    ];
    for (metric, stage) in BUSY.into_iter().zip(STAGES) {
        m.insert(metric, hist_sum(&format!("hist.span.{stage}")) / 1e9);
    }
    const STALL: [&str; 5] = [
        "runtime.graph.stall_s.buffer-reuse",
        "runtime.graph.stall_s.dma-queue",
        "runtime.graph.stall_s.gpu-queue",
        "runtime.graph.stall_s.cpu-thread",
        "runtime.graph.stall_s.backpressure",
    ];
    for (metric, cause) in STALL.into_iter().zip(STALL_CAUSES) {
        let ns: f64 = STALL_STAGES
            .iter()
            .map(|stage| c(&format!("stall.{stage}.{cause}")))
            .sum();
        m.insert(metric, ns / 1e9);
    }
    m.insert(
        "runtime.graph.chunks",
        bk.iter().map(|o| o.sim.chunks as f64).sum(),
    );

    let paper = paper_geomeans(jobs, outcomes);
    let [(db, _), (sb, _), (mt, _)] = paper.unwrap_or_default();
    m.insert("paper.bk_vs_double", db);
    m.insert("paper.bk_vs_single", sb);
    m.insert("paper.bk_vs_cpu_mt", mt);
    m.insert(
        "paper_err_pct",
        paper.map_or(0.0, |p| {
            p.iter()
                .map(|(ours, paper)| (ours / paper - 1.0).abs())
                .sum::<f64>()
                / 3.0
                * 100.0
        }),
    );
    Ok(m)
}

/// Everything simulated about a repetition, keyed for exact comparison:
/// the simulated metrics plus each job's total, raw counters, histogram
/// sums and window timeline. Host-path counters (`parallel.*`) are left
/// out, since they depend on whether blocks ran in parallel.
pub fn digest(
    jobs: &[Job],
    outcomes: &[Outcome],
    sim: &BTreeMap<&'static str, f64>,
) -> BTreeMap<String, u64> {
    let mut d: BTreeMap<String, u64> = sim
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_bits()))
        .collect();
    for (i, (j, o)) in jobs.iter().zip(outcomes).enumerate() {
        let p = format!("job{i}.{}.{}", j.key, j.mode.label());
        d.insert(format!("{p}.total"), o.sim.total.secs().to_bits());
        d.insert(format!("{p}.chunks"), o.sim.chunks as u64);
        d.insert(format!("{p}.input_bytes"), o.input_bytes);
        d.insert(format!("{p}.rate"), o.sim.rate.to_bits());
        for (name, v) in o.sim.metrics.iter() {
            if !name.starts_with("parallel.") {
                d.insert(format!("{p}.{name}"), v);
            }
        }
        for (name, h) in o.sim.metrics.hists() {
            d.insert(format!("{p}.{name}.count"), h.count());
            d.insert(format!("{p}.{name}.sum"), h.sum());
        }
        for (w, r) in o.sim.windows.iter().enumerate() {
            d.insert(format!("{p}.w{w}.ready"), r.ready.secs().to_bits());
            d.insert(format!("{p}.w{w}.completed"), r.completed.secs().to_bits());
            d.insert(format!("{p}.w{w}.makespan"), r.makespan.secs().to_bits());
        }
    }
    d
}

/// The first key on which two digests differ, with both values.
pub fn first_difference(
    a: &BTreeMap<String, u64>,
    b: &BTreeMap<String, u64>,
) -> Option<(String, Option<u64>, Option<u64>)> {
    a.keys()
        .chain(b.keys())
        .find(|k| a.get(*k) != b.get(*k))
        .map(|k| (k.clone(), a.get(k).copied(), b.get(k).copied()))
}

/// Critical-path blame per stage role summed over the traced BigKernel
/// jobs, in seconds.
pub fn blame_metrics(
    jobs: &[Job],
    outcomes: &[Outcome],
) -> Result<BTreeMap<&'static str, f64>, String> {
    const BLAME: [&str; 7] = [
        "obs.critpath.blame_s.addr-gen",
        "obs.critpath.blame_s.assemble",
        "obs.critpath.blame_s.transfer",
        "obs.critpath.blame_s.compute",
        "obs.critpath.blame_s.wb-xfer",
        "obs.critpath.blame_s.wb-apply",
        "obs.critpath.blame_s.ingest",
    ];
    let mut ns: BTreeMap<&'static str, u64> = BLAME.iter().map(|&k| (k, 0)).collect();
    for (j, o) in jobs.iter().zip(outcomes) {
        if !j.mode.is_bigkernel() {
            continue;
        }
        for &(role, v) in &o.sim.blame {
            let key = BLAME
                .iter()
                .find(|k| k.rsplit('.').next() == Some(role))
                .ok_or_else(|| format!("critical path blames unknown stage {role}"))?;
            *ns.get_mut(key).expect("initialized above") += v;
        }
    }
    Ok(ns.into_iter().map(|(k, v)| (k, v as f64 / 1e9)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn first_difference_finds_missing_and_changed_keys() {
        let a: BTreeMap<String, u64> = [("x".to_string(), 1), ("y".to_string(), 2)].into();
        let mut b = a.clone();
        assert_eq!(first_difference(&a, &b), None);
        b.insert("y".into(), 3);
        assert_eq!(
            first_difference(&a, &b),
            Some(("y".into(), Some(2), Some(3)))
        );
        b.remove("y");
        assert_eq!(first_difference(&a, &b), Some(("y".into(), Some(2), None)));
    }

    fn outcome(setup_ms: u64, run_ms: u64, scale: f64, input_bytes: u64) -> Outcome {
        use std::time::Duration;
        Outcome {
            setup_cpu: Duration::from_millis(setup_ms),
            run_wall: Duration::from_millis(run_ms),
            run_cpu: Duration::from_millis(run_ms),
            scale,
            input_bytes,
            sim: Default::default(),
            verified: Ok(()),
        }
    }

    /// Each job's CPU times are scaled by its own factor; wall time is not.
    #[test]
    fn host_sample_scales_cpu_times_per_job() {
        let h = host_sample(&[outcome(100, 1000, 0.5, 0), outcome(10, 200, 2.0, 0)]);
        assert_eq!(h.job_run_s, vec![0.5, 0.4]);
        assert!((h.norm_cpu_s - 0.9).abs() < 1e-12);
        assert!((h.setup_s - 0.07).abs() < 1e-12);
        assert!((h.wall_s - 1.2).abs() < 1e-12);
    }

    /// Throughput is the geomean over jobs of input over each job's median
    /// normalized run time.
    #[test]
    fn norm_mib_per_s_takes_per_job_medians() {
        let mib = 1 << 20;
        let jobs = [outcome(0, 0, 1.0, 4 * mib), outcome(0, 0, 1.0, mib)];
        let samples: Vec<HostSample> = [(1.0, 0.25), (2.0, 0.5), (9.0, 0.25)]
            .into_iter()
            .map(|(a, b)| HostSample {
                wall_s: 0.0,
                norm_cpu_s: a + b,
                setup_s: 0.0,
                job_run_s: vec![a, b],
            })
            .collect();
        // Medians 2 s and 0.25 s: 2 MiB/s and 4 MiB/s, geomean sqrt(8).
        let r = norm_mib_per_s(&samples, &jobs).unwrap();
        assert!((r - 8f64.sqrt()).abs() < 1e-12, "{r}");
    }
}
