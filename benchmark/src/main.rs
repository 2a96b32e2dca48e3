//! The BigKernel reproduction's benchmark: one command that runs a named
//! workload, verifies every job, checks that every simulated metric repeats
//! bit for bit, and prints host CPU-time and simulated metrics.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fixed-stride --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with schedule capture and host spans on and prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; a fuller result file
//! with provenance and every sample goes to `bench_results/`. See
//! METRICS.md for what each metric means.

mod catalog;
mod cpuclock;
mod jobs;
mod reference;
mod report;
mod spans;
mod stats;

use catalog::{Metric, END_TO_END, PER_LAYER};
use jobs::{run_job, Outcome, Workload, WORKLOADS};
use report::HostSample;
use spans::{Recorder, Span};
use stats::{median, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Where result files go, relative to the working directory.
const RESULTS_DIR: &str = "bench_results";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    nproc: usize,
}

const USAGE: &str = "usage: bk-benchmark --workload NAME [--seed N] [--seconds S] \
                     [--trace 0|1] [--threads N]";

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        threads: nproc,
        nproc,
    };
    let mut it = argv;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--threads" => {
                args.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?;
                if args.threads == 0 || args.threads > nproc {
                    return Err(format!("--threads must lie in 1..={nproc} (nproc)"));
                }
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required ({})\n{USAGE}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Run every job of the workload once, in order, each on a fresh machine,
/// with the reference kernel before the first job and after each one; a
/// job's host-time scale comes from the two runs around it. A panic inside
/// a job is caught and reported as a failed verification.
fn run_rep(
    wl: &Workload,
    seed: u64,
    sequential: bool,
    rec: &mut Recorder,
    next_id: &mut usize,
) -> Vec<Outcome> {
    let mut before = reference::run();
    wl.jobs
        .iter()
        .map(|job| {
            *next_id += 1;
            let id = *next_id;
            let mut outcome =
                catch_unwind(AssertUnwindSafe(|| run_job(job, seed, sequential, rec, id)))
                    .unwrap_or_else(|panic| {
                        let msg = panic
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_else(|| "panic".into());
                        Outcome {
                            setup_cpu: Default::default(),
                            run_wall: Default::default(),
                            run_cpu: Default::default(),
                            scale: 1.0,
                            input_bytes: 0,
                            sim: Default::default(),
                            verified: Err(format!("panicked: {msg}")),
                        }
                    });
            let after = reference::run();
            outcome.scale = reference::NOMINAL_S / ((before + after) / 2.0);
            before = after;
            outcome
        })
        .collect()
}

/// Host self time per layer span name, summed over one traced repetition;
/// each span's CPU time is multiplied by its job's scale.
fn layer_self_times(spans: &[Span], scale: impl Fn(usize) -> f64) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(spans::self_times(spans)) {
        if s.parent.is_some() {
            *out.entry(s.name).or_insert(0.0) += t as f64 / 1e9 * scale(s.job);
        }
    }
    out
}

/// Check that every job's layer spans plus `unattributed` tile its CPU
/// time exactly.
fn check_tiling(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() && !spans::tiles(spans, i) {
            return Err(format!("spans of job {} do not tile its CPU time", s.job));
        }
    }
    Ok(())
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak RSS: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Cumulative stolen and total vCPU time of the machine, in clock ticks,
/// from the first line of `/proc/stat`; `None` where it cannot be read.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn command_output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash of the sources the benchmark builds from, so a result names the
/// code it measured even where no git metadata exists.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "benchmark/src"] {
        walk(Path::new(root), &mut files);
    }
    files.push("benchmark/Cargo.toml".into());
    files.sort();
    let h = files.iter().fold(FNV_OFFSET, |h, f| {
        let h = fnv1a(h, f.to_string_lossy().as_bytes());
        fnv1a(h, &std::fs::read(f).unwrap_or_default())
    });
    format!("{h:016x}")
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn provenance(args: &Args, wl: &Workload) -> String {
    let git = Path::new(".git")
        .exists()
        .then(|| command_output("git", &["rev-parse", "HEAD"]))
        .flatten();
    let jobs: Vec<String> = wl
        .jobs
        .iter()
        .map(|j| {
            format!(
                "{{\"app\": {}, \"mode\": {}, \"bytes\": {}, \"gpus\": {}, \"fuse\": {}}}",
                json_str(j.key),
                json_str(j.mode.label()),
                j.bytes,
                j.gpus,
                j.mode == jobs::Mode::Fused
            )
        })
        .collect();
    format!(
        "{{\"git_commit\": {}, \"source_digest\": {}, \"nproc\": {}, \"threads\": {}, \
         \"rustc\": {}, \"seed\": {}, \"workload\": {}, \"trace\": {}, \"seconds\": {}, \
         \"simulated_llc\": \"starts empty per job\", \"jobs\": [{}]}}",
        git.as_deref().map_or("null".into(), json_str),
        json_str(&source_digest()),
        args.nproc,
        args.threads,
        json_str(&command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        args.seed,
        json_str(wl.name),
        args.trace,
        args.seconds,
        jobs.join(", ")
    )
}

/// Cross-process determinism: the first run of this executable with a
/// given workload and seed stores its digest; every later run (traced or
/// not, any thread count) must reproduce it exactly.
fn check_stored_digest(wl: &str, seed: u64, d: &BTreeMap<String, u64>) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    let dir = Path::new(".bench_digests");
    let path = dir.join(format!(
        "{:016x}-{wl}-{seed}.txt",
        fnv1a(FNV_OFFSET, &bytes)
    ));
    let text: String = d.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(stored) => {
            let stored: BTreeMap<String, u64> = stored
                .lines()
                .filter_map(|l| {
                    let (k, v) = l.rsplit_once(' ')?;
                    Some((k.to_string(), v.parse().ok()?))
                })
                .collect();
            match report::first_difference(&stored, d) {
                None => Ok(()),
                Some((k, a, b)) => Err(format!(
                    "simulated metric {k} differs from an earlier run with seed {seed}: \
                     {a:?} then {b:?}"
                )),
            }
        }
        Err(_) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            std::fs::write(&tmp, text).map_err(|e| format!("write {}: {e}", tmp.display()))?;
            std::fs::rename(&tmp, &path).map_err(|e| format!("rename {}: {e}", path.display()))
        }
    }
}

fn describe(m: &Metric, value: f64, samples: Option<&[f64]>, note: &str) -> String {
    let mut line = format!(
        "  {:<36} {:>16} {:<6} ({} is better",
        m.name,
        format!("{value:.6}"),
        m.unit,
        m.better.label()
    );
    if let Some(b) = m.bound {
        let _ = write!(line, ", bound {:.0}%", b * 100.0);
    }
    match samples {
        Some(s) => {
            let _ = write!(line, "; median of {}", s.len());
            if let Some((q1, q3)) = quartiles(s) {
                let _ = write!(line, ", q1 {q1:.6}, q3 {q3:.6}");
            }
        }
        None => {
            let _ = write!(line, "; {note}");
        }
    }
    line.push(')');
    line
}

fn metrics_json(list: &[Metric], values: &BTreeMap<&str, f64>) -> Result<String, String> {
    let mut parts = Vec::new();
    for m in list {
        let v = *values
            .get(m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", m.name));
        }
        parts.push(format!(
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            json_str(m.name),
            json_str(m.unit)
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

/// Jobs attempted and failed so far; every job is one operation.
#[derive(Default)]
struct Run {
    attempted: usize,
    failed: usize,
}

impl Run {
    /// Count a repetition's jobs; `false` if any failed verification or
    /// panicked (each failure is reported on standard error).
    fn account(&mut self, wl: &Workload, outcomes: &[Outcome]) -> bool {
        for (j, o) in wl.jobs.iter().zip(outcomes) {
            self.attempted += 1;
            if let Err(e) = &o.verified {
                self.failed += 1;
                eprintln!(
                    "bk-benchmark: job {} ({}) failed: {e}",
                    j.key,
                    j.mode.label()
                );
            }
        }
        self.failed == 0
    }

    /// Print the failed run's result line; figures from a run whose jobs
    /// do not verify describe nothing, so none are reported.
    fn report_failure(&self) -> bool {
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            self.attempted, self.failed
        );
        false
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bk-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = jobs::workload(&args.workload) else {
        eprintln!(
            "bk-benchmark: unknown workload {:?} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    if let Err(e) = catalog::check(END_TO_END, PER_LAYER) {
        eprintln!("bk-benchmark: metric catalog: {e}");
        return ExitCode::from(2);
    }
    match measure(&args, &wl) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bk-benchmark: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run the workload and print its report; `Ok(false)` when a job failed.
fn measure(args: &Args, wl: &Workload) -> Result<bool, String> {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(args.threads)
        .build_global();
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| format!("1-thread pool: {e}"))?;
    let sequential = args.threads == 1;
    let prov = provenance(args, wl);
    println!("provenance {prov}");
    println!(
        "workload {}: {} jobs, seed {}, {} of {} threads; the simulated LLC starts empty \
         per job (a fresh Machine per job)",
        wl.name,
        wl.jobs.len(),
        args.seed,
        args.threads,
        args.nproc
    );

    let mut run = Run::default();
    let mut next_id = 0;
    let mut untraced = Recorder::new(false);

    // Warm-up, discarded from timing: one thread, blocks one by one. Its
    // simulated digest is the reference every later repetition must match,
    // which checks `--threads 1` against the parallel path.
    let warm = one_thread.install(|| run_rep(wl, args.seed, true, &mut untraced, &mut next_id));
    if !run.account(wl, &warm) {
        return Ok(run.report_failure());
    }
    let sim = report::sim_metrics(&wl.jobs, &warm)?;
    let reference = report::digest(&wl.jobs, &warm, &sim);
    // Peak memory is read here, after the single-threaded warm-up: once
    // several threads allocate, glibc's per-thread arenas make the process
    // high-water mark bimodal (about 36 or 57 MiB on fixed-stride), which
    // no bound could hold.
    let peak_rss = peak_rss_mib()?;
    let same = |outcomes: &[Outcome], what: &str| -> Result<(), String> {
        let s = report::sim_metrics(&wl.jobs, outcomes)?;
        match report::first_difference(&reference, &report::digest(&wl.jobs, outcomes, &s)) {
            None => Ok(()),
            Some((k, a, b)) => Err(format!(
                "simulated metric {k} differs between the 1-thread warm-up and {what}: \
                 {a:?} vs {b:?}"
            )),
        }
    };
    if args.threads < args.nproc {
        // The timed repetitions use fewer threads than the machine has, so
        // one untimed repetition on all of them, blocks in parallel, checks
        // the parallel path against the warm-up.
        let all = rayon::ThreadPoolBuilder::new()
            .num_threads(args.nproc)
            .build()
            .map_err(|e| format!("{}-thread pool: {e}", args.nproc))?;
        let outcomes = all.install(|| run_rep(wl, args.seed, false, &mut untraced, &mut next_id));
        if !run.account(wl, &outcomes) {
            return Ok(run.report_failure());
        }
        same(&outcomes, "a repetition on all threads")?;
    }

    let mut host: Vec<HostSample> = Vec::new();
    let mut traced_host: Vec<HostSample> = Vec::new();
    let mut layer_samples: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut all_spans: Vec<Span> = Vec::new();
    let mut blame: Option<BTreeMap<&'static str, f64>> = None;
    let mut conflicts;
    let mut traced_rec = Recorder::new(true);
    let ticks = cpu_ticks();
    let start = Instant::now();
    loop {
        let outcomes = run_rep(wl, args.seed, sequential, &mut untraced, &mut next_id);
        if !run.account(wl, &outcomes) {
            return Ok(run.report_failure());
        }
        same(&outcomes, "a timed repetition")?;
        host.push(report::host_sample(&outcomes));
        conflicts = report::replay_conflicts(&wl.jobs, &outcomes);

        if args.trace {
            traced_rec.clear();
            let first_id = next_id + 1;
            let outcomes = run_rep(wl, args.seed, sequential, &mut traced_rec, &mut next_id);
            if !run.account(wl, &outcomes) {
                return Ok(run.report_failure());
            }
            same(&outcomes, "a traced repetition")?;
            check_tiling(traced_rec.spans())?;
            let b = report::blame_metrics(&wl.jobs, &outcomes)?;
            if blame.as_ref().is_some_and(|prev| *prev != b) {
                return Err("critical-path blame differs between traced repetitions".into());
            }
            blame = Some(b);
            traced_host.push(report::host_sample(&outcomes));
            let mut layers =
                layer_self_times(traced_rec.spans(), |job| outcomes[job - first_id].scale);
            let pipeline_s: f64 = layers
                .iter()
                .filter(|(k, _)| k.starts_with("runtime.pipeline.run_s."))
                .map(|(_, v)| v)
                .sum();
            let pipeline_blocks: usize = wl
                .jobs
                .iter()
                .zip(&outcomes)
                .filter(|(j, _)| j.mode == jobs::Mode::BigKernel)
                .map(|(_, o)| o.sim.chunks)
                .sum();
            layers.insert(
                "runtime.pipeline.blocks_per_s",
                if pipeline_s > 0.0 {
                    pipeline_blocks as f64 / pipeline_s
                } else {
                    0.0
                },
            );
            layer_samples.push(layers);
            let base = all_spans.len();
            all_spans.extend(traced_rec.spans().iter().map(|s| Span {
                parent: s.parent.map(|p| p + base),
                ..s.clone()
            }));
        }
        // At least one timed repetition, however short `--seconds` is.
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    check_stored_digest(wl.name, args.seed, &reference)?;
    let steal_pct = match (ticks, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            Some((s1 - s0) as f64 / (t1 - t0) as f64 * 100.0)
        }
        _ => None,
    };
    if let Some(s) = steal_pct {
        println!(
            "host: {s:.1}% of vCPU time was stolen by the hypervisor during the timed \
             repetitions; wall time grows with it, the host CPU figures leave it out"
        );
    }

    let pick =
        |f: fn(&HostSample) -> f64, s: &[HostSample]| -> Vec<f64> { s.iter().map(f).collect() };
    let wall = pick(|h| h.wall_s, &host);
    let cpu = pick(|h| h.norm_cpu_s, &host);
    let setup = pick(|h| h.setup_s, &host);
    let med = |v: &[f64]| median(v).expect("at least one timed repetition");

    let mut values: BTreeMap<&str, f64> = sim.clone().into_iter().collect();
    values.insert("norm_cpu_s", med(&cpu));
    values.insert(
        "norm_mib_per_s",
        report::norm_mib_per_s(&host, &warm).ok_or("a job ran no input")?,
    );
    values.insert("setup_s", med(&setup));
    values.insert("peak_rss_mib", peak_rss);
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    samples.insert("norm_cpu_s", cpu);
    samples.insert("setup_s", setup);

    // Wall time is reported beside the CPU figures but is no metric: it
    // counts every pause the hypervisor takes from this machine's vCPUs.
    println!(
        "end-to-end ({} timed repetitions; wall time of the simulation calls: median {:.6} s):",
        host.len(),
        med(&wall)
    );
    samples.insert("wall_s", wall);
    for m in END_TO_END {
        let note = match m.name {
            "norm_mib_per_s" => "geomean over jobs of each job's median",
            "peak_rss_mib" => "after the single-threaded warm-up",
            _ => "simulated, deterministic",
        };
        println!(
            "{}",
            describe(
                m,
                values[m.name],
                samples.get(m.name).map(Vec::as_slice),
                note
            )
        );
    }
    print_paper(&sim);

    let listed: &[Metric] = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        // Each traced repetition runs right after an untraced one; the
        // median of the pairs' ratios cancels the host's drift over a run.
        let overhead: Vec<f64> = traced_host
            .iter()
            .zip(&host)
            .map(|(t, u)| (t.norm_cpu_s / u.norm_cpu_s - 1.0) * 100.0)
            .collect();
        values.insert("trace_overhead_pct", med(&overhead));
        samples.insert("trace_overhead_pct", overhead);
        values.insert("gpu.replay_conflicts", conflicts);
        values.extend(blame.unwrap_or_default());
        for m in PER_LAYER {
            let layer: Vec<f64> = layer_samples
                .iter()
                .map(|l| l.get(m.name).copied().unwrap_or(0.0))
                .collect();
            if layer_samples.iter().any(|l| l.contains_key(m.name)) {
                values.insert(m.name, med(&layer));
                samples.insert(m.name, layer);
            }
        }
        // Host layers a workload never calls read 0.
        for m in PER_LAYER {
            values.entry(m.name).or_insert(0.0);
        }
        println!("per-layer ({} traced repetitions):", traced_host.len());
        for m in PER_LAYER {
            let note = if sim.contains_key(m.name) {
                "simulated, deterministic"
            } else {
                "derived from the traced repetitions"
            };
            println!(
                "{}",
                describe(
                    m,
                    values[m.name],
                    samples.get(m.name).map(Vec::as_slice),
                    note
                )
            );
        }
    }

    let metrics = metrics_json(listed, &values)?;
    write_result_file(args, &prov, steal_pct, &values, &samples, &all_spans)?;
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {metrics}}}",
        run.attempted
    );
    Ok(true)
}

fn print_paper(sim: &BTreeMap<&'static str, f64>) {
    let err = sim["paper_err_pct"];
    if err == 0.0 {
        return;
    }
    use bk_bench::expectations::headline;
    println!("paper headline (simulated geomean over the seven Table I apps vs §VI):");
    for (name, key, paper) in [
        (
            "BigKernel / double buffer",
            "paper.bk_vs_double",
            headline::BK_VS_DB_AVG,
        ),
        (
            "BigKernel / single buffer",
            "paper.bk_vs_single",
            headline::BK_VS_SB_AVG,
        ),
        (
            "BigKernel / cpu multi-thread",
            "paper.bk_vs_cpu_mt",
            headline::BK_VS_CPU_MT_AVG,
        ),
    ] {
        println!("  {name:<30} {:>7.3}x   paper {paper:.1}x", sim[key]);
    }
    println!("  mean absolute gap: {err:.3}%");
}

fn write_result_file(
    args: &Args,
    prov: &str,
    steal_pct: Option<f64>,
    values: &BTreeMap<&str, f64>,
    samples: &BTreeMap<&str, Vec<f64>>,
    spans: &[Span],
) -> Result<(), String> {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_err(|e| format!("clock: {e}"))?
        .as_millis();
    let mut out = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"trace\": {},\n  \"finished_unix_ms\": {now},\n  \
         \"steal_pct\": {},\n  \"provenance\": {prov},\n  \"metrics\": {{",
        json_str(&args.workload),
        args.seed,
        args.trace,
        steal_pct.map_or("null".into(), |s| s.to_string())
    );
    let metric_lines: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("\n    {}: {v}", json_str(k)))
        .collect();
    out.push_str(&metric_lines.join(","));
    out.push_str("\n  },\n  \"samples\": {");
    let sample_lines: Vec<String> = samples
        .iter()
        .map(|(k, v)| {
            let vs: Vec<String> = v.iter().map(|x| x.to_string()).collect();
            format!("\n    {}: [{}]", json_str(k), vs.join(", "))
        })
        .collect();
    out.push_str(&sample_lines.join(","));
    out.push_str("\n  },\n  \"spans\": [");
    let span_lines: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "\n    {{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"job\": {}}}",
                json_str(s.name),
                s.start,
                s.end,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.job
            )
        })
        .collect();
    out.push_str(&span_lines.join(","));
    out.push_str("\n  ]\n}\n");
    let dir = Path::new(RESULTS_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {RESULTS_DIR}: {e}"))?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}-{now}-{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ));
    std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))
}
