//! Autotune experiment: static reuse-depth sweep vs the adaptive occupancy
//! autotuner (DESIGN.md §12). For every selected app this runs BigKernel at
//! fixed reuse depths (1, 3 = the paper's default, 8) with the tuner off,
//! then once more with the feedback controller enabled, and compares the
//! recorded buffer-reuse stall time, total stall time and host wall-clock
//! throughput. Writes `BENCH_autotune.json` and prints two tables:
//!
//! * **runs** — every (app, mode) point: simulated time, best-of wall
//!   seconds, blocks/sec, aggregate `stall.*` and `stall.*.buffer-reuse`
//!   nanoseconds, and for adaptive runs the re-plan count plus the final
//!   `(depth, buffers, chunk_bytes)` plan the controller converged on.
//! * **summary** — adaptive vs static depth-3 per app: the reuse-stall
//!   reduction factor, the blocks/sec ratio (best-of wall times, see
//!   `Summary`), and whether the functional
//!   byte counters (`stream.bytes_read` / `stream.bytes_written`) match
//!   bit-for-bit (the determinism contract: tuning re-plans the schedule,
//!   never the computation).
//!
//! Usage mirrors the other experiment binaries:
//! `autotune [--mib N] [--seed S] [--app SUBSTR] [--threads N]
//! [--machine NAME] [--gpus N]`. The sweep sets `--reuse-depth` /
//! `--autotune` itself per run; a user-supplied `--autotune on` config is
//! kept as the adaptive run's controller settings.
//!
//! Exits non-zero if any run fails verification, if no adaptive run ever
//! re-planned, or if an adaptive run's functional byte counters diverge
//! from its static depth-3 baseline — this doubles as the CI smoke check.

use bk_apps::{run_checked, run_implementation, HarnessConfig, Implementation};
use bk_bench::{all_apps, args::ExpArgs, short_name};
use bk_runtime::AutotuneConfig;
use std::fmt::Write as _;
use std::time::Instant;

/// Fixed reuse depths swept with the tuner off; 3 is the paper's default
/// and the baseline the adaptive run is compared against.
const STATIC_DEPTHS: [usize; 3] = [1, 3, 8];
const BASELINE_DEPTH: usize = 3;
/// Wall-clock iterations per point (best-of; simulated results are
/// deterministic so only the timing varies). Higher than the other
/// binaries' 3 because the summary compares adaptive-vs-static wall
/// throughput, where best-of noise would otherwise dominate the ~1.0
/// ratio being reported.
const ITERS: usize = 7;

/// One (app, mode) run.
struct Row {
    app: &'static str,
    /// `static-<d>` or `adaptive`.
    mode: String,
    sim_secs: f64,
    wall_secs: f64,
    blocks_per_sec: f64,
    /// Sum of every `stall.<stage>.<cause>` counter (simulated ns).
    stall_ns: u64,
    /// Sum of the `stall.<stage>.buffer-reuse` counters (simulated ns).
    reuse_stall_ns: u64,
    retunes: u64,
    final_depth: u64,
    final_buffers: u64,
    final_chunk_bytes: u64,
    bytes_read: u64,
    bytes_written: u64,
    verified: bool,
}

/// Adaptive vs static depth-3 comparison for one app.
struct Summary {
    app: &'static str,
    static3_reuse_stall_ns: u64,
    adaptive_reuse_stall_ns: u64,
    /// static-3 reuse stall / adaptive reuse stall (>1 = tuner wins).
    stall_reduction: f64,
    /// adaptive blocks/sec / static-3 blocks/sec (>=1 = no throughput
    /// loss). Ratio of the two best-of-`ITERS` wall times: the work is
    /// deterministic, so host noise is strictly additive and the minimum
    /// wall converges on the true cost; the modes run interleaved so no
    /// mode's whole sample is poisoned by one sustained load spike.
    blocks_per_sec_ratio: f64,
    retunes: u64,
    outputs_match: bool,
}

/// Aggregate the flat stall counters: (total, buffer-reuse only).
fn stall_sums(r: &bk_runtime::RunResult) -> (u64, u64) {
    let mut total = 0u64;
    let mut reuse = 0u64;
    for (name, ns) in r.metrics.iter() {
        if name.starts_with("stall.") {
            total += ns;
            if name.ends_with(".buffer-reuse") {
                reuse += ns;
            }
        }
    }
    (total, reuse)
}

/// One timed run of `app` at a fixed depth (tuner off) or adaptively
/// (tuner on); the pipeline only is timed (instance generation excluded).
/// Returns the deterministic result, the verification outcome and the
/// wall time of this single run.
fn run_mode_once(
    app: &dyn bk_apps::BenchApp,
    cfg: &HarnessConfig,
    bytes: u64,
    seed: u64,
    depth: usize,
    tune: Option<AutotuneConfig>,
) -> (bk_runtime::RunResult, bool, f64) {
    let mut cfg = cfg.clone();
    cfg.bigkernel.buffer_depth = depth;
    cfg.bigkernel.wb_buffer_depth = None; // write-back follows the data depth
    cfg.bigkernel.autotune = tune;
    let run = run_checked(app, bytes, seed, &cfg, |m, i| {
        let t0 = Instant::now();
        let r = run_implementation(m, i, Implementation::BigKernel, &cfg);
        (r, t0.elapsed().as_secs_f64())
    });
    let (r, dt) = run.result;
    (r, run.verified.is_ok(), dt)
}

fn row_from(
    app: &'static str,
    mode: String,
    cfg: &HarnessConfig,
    r: bk_runtime::RunResult,
    verified: bool,
    wall: f64,
) -> Row {
    let (stall_ns, reuse_stall_ns) = stall_sums(&r);
    let block_chunks = cfg.launch.num_blocks as f64 * r.chunks as f64;
    Row {
        app,
        mode,
        sim_secs: r.total.secs(),
        wall_secs: wall,
        blocks_per_sec: block_chunks / wall.max(1e-12),
        stall_ns,
        reuse_stall_ns,
        retunes: r.metrics.get("autotune.retune"),
        final_depth: r.metrics.get("autotune.depth"),
        final_buffers: r.metrics.get("autotune.buffers"),
        final_chunk_bytes: r.metrics.get("autotune.chunk_bytes"),
        bytes_read: r.metrics.get("stream.bytes_read"),
        bytes_written: r.metrics.get("stream.bytes_written"),
        verified,
    }
}

fn to_json(args: &ExpArgs, rows: &[Row], summary: &[Summary]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bytes_per_app\": {},", args.bytes);
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    let mut apps: Vec<&str> = rows.iter().map(|r| r.app).collect();
    apps.dedup();
    let _ = writeln!(
        out,
        "  \"provenance\": {},",
        args.provenance_json("autotune", &apps)
    );
    let _ = writeln!(out, "  \"iters\": {ITERS},");
    let _ = write!(out, "  \"static_depths\": [");
    for (i, d) in STATIC_DEPTHS.iter().enumerate() {
        let _ = write!(out, "{}{}", if i > 0 { ", " } else { "" }, d);
    }
    let _ = writeln!(out, "],");
    let _ = writeln!(out, "  \"baseline_depth\": {BASELINE_DEPTH},");
    let _ = writeln!(out, "  \"runs\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"app\": \"{}\", \"mode\": \"{}\", \"sim_secs\": {:.9}, \
             \"wall_secs\": {:.6}, \"blocks_per_sec\": {:.1}, \
             \"stall_ns\": {}, \"reuse_stall_ns\": {}, \"retunes\": {}, \
             \"final_depth\": {}, \"final_buffers\": {}, \
             \"final_chunk_bytes\": {}, \"bytes_read\": {}, \
             \"bytes_written\": {}, \"verified\": {} }}{}",
            r.app,
            r.mode,
            r.sim_secs,
            r.wall_secs,
            r.blocks_per_sec,
            r.stall_ns,
            r.reuse_stall_ns,
            r.retunes,
            r.final_depth,
            r.final_buffers,
            r.final_chunk_bytes,
            r.bytes_read,
            r.bytes_written,
            r.verified,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"summary\": [");
    for (i, s) in summary.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"app\": \"{}\", \"static3_reuse_stall_ns\": {}, \
             \"adaptive_reuse_stall_ns\": {}, \"stall_reduction\": {:.4}, \
             \"blocks_per_sec_ratio\": {:.4}, \"retunes\": {}, \
             \"outputs_match\": {} }}{}",
            s.app,
            s.static3_reuse_stall_ns,
            s.adaptive_reuse_stall_ns,
            s.stall_reduction,
            s.blocks_per_sec_ratio,
            s.retunes,
            s.outputs_match,
            if i + 1 < summary.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    out.push('}');
    out
}

fn main() {
    let args = ExpArgs::from_env();
    let mut cfg = args.harness_config();
    // The sweep drives depth and tuner state itself; keep only a
    // user-supplied controller config (via `--autotune on`) for the
    // adaptive runs.
    let tune_cfg = cfg.bigkernel.autotune.clone().unwrap_or_default();
    cfg.bigkernel.autotune = None;

    let mut rows: Vec<Row> = Vec::new();
    let mut summary: Vec<Summary> = Vec::new();
    for app in args.select(all_apps()) {
        let name = app.spec().name;
        let short = short_name(name);
        // Interleave the modes across timing iterations (all modes once per
        // round, best-of over rounds) so a host load spike degrades every
        // mode of the round equally instead of poisoning one mode's whole
        // best-of block — the summary compares wall throughput *between*
        // modes, so correlated noise matters more than absolute noise.
        let modes: Vec<(String, usize, Option<AutotuneConfig>)> = STATIC_DEPTHS
            .iter()
            .map(|&d| (format!("static-{d}"), d, None))
            .chain(std::iter::once((
                "adaptive".to_string(),
                BASELINE_DEPTH,
                Some(tune_cfg.clone()),
            )))
            .collect();
        let mut kept: Vec<Option<(bk_runtime::RunResult, bool)>> =
            modes.iter().map(|_| None).collect();
        let mut best = vec![f64::INFINITY; modes.len()];
        for iter in 0..ITERS {
            for (m, (_, depth, tune)) in modes.iter().enumerate() {
                let (r, ok, dt) = run_mode_once(
                    app.as_ref(),
                    &cfg,
                    args.bytes,
                    args.seed,
                    *depth,
                    tune.clone(),
                );
                if iter == 0 {
                    kept[m] = Some((r, ok));
                }
                best[m] = best[m].min(dt);
            }
        }
        let mut static3: Option<usize> = None;
        for (m, (mode, depth, _)) in modes.iter().enumerate() {
            let (r, ok) = kept[m].take().expect("every mode ran");
            rows.push(row_from(short, mode.clone(), &cfg, r, ok, best[m]));
            if mode.starts_with("static") && *depth == BASELINE_DEPTH {
                static3 = Some(rows.len() - 1);
            }
        }

        let (b, a) = (
            &rows[static3.expect("baseline depth swept")],
            rows.last().unwrap(),
        );
        summary.push(Summary {
            app: short,
            static3_reuse_stall_ns: b.reuse_stall_ns,
            adaptive_reuse_stall_ns: a.reuse_stall_ns,
            stall_reduction: b.reuse_stall_ns as f64 / (a.reuse_stall_ns.max(1)) as f64,
            blocks_per_sec_ratio: a.blocks_per_sec / b.blocks_per_sec.max(1e-12),
            retunes: a.retunes,
            outputs_match: a.bytes_read == b.bytes_read && a.bytes_written == b.bytes_written,
        });
    }

    println!(
        "{:<9} {:<9} {:>12} {:>9} {:>12} {:>13} {:>13} {:>7}  final plan",
        "app", "mode", "sim(s)", "wall(s)", "blocks/sec", "stall(ms)", "reuse(ms)", "retunes"
    );
    for r in &rows {
        print!(
            "{:<9} {:<9} {:>12.6} {:>9.3} {:>12.0} {:>13.3} {:>13.3} {:>7}",
            r.app,
            r.mode,
            r.sim_secs,
            r.wall_secs,
            r.blocks_per_sec,
            r.stall_ns as f64 / 1e6,
            r.reuse_stall_ns as f64 / 1e6,
            r.retunes
        );
        if r.mode == "adaptive" {
            print!(
                "  depth={} buffers={} chunk={}KiB",
                r.final_depth,
                r.final_buffers,
                r.final_chunk_bytes >> 10
            );
        }
        println!();
    }

    println!();
    println!(
        "{:<9} {:>16} {:>16} {:>10} {:>10} {:>8} {:>8}",
        "summary",
        "static3-reuse(ms)",
        "adaptive-reuse(ms)",
        "cut",
        "bps-ratio",
        "retunes",
        "match"
    );
    for s in &summary {
        println!(
            "{:<9} {:>16.3} {:>17.3} {:>9.2}x {:>10.3} {:>8} {:>8}",
            s.app,
            s.static3_reuse_stall_ns as f64 / 1e6,
            s.adaptive_reuse_stall_ns as f64 / 1e6,
            s.stall_reduction,
            s.blocks_per_sec_ratio,
            s.retunes,
            s.outputs_match
        );
    }

    let json = to_json(&args, &rows, &summary);
    std::fs::write("BENCH_autotune.json", &json).expect("write BENCH_autotune.json");
    println!("wrote BENCH_autotune.json");

    let all_verified = rows.iter().all(|r| r.verified);
    let any_retune = summary.iter().any(|s| s.retunes > 0);
    let all_match = summary.iter().all(|s| s.outputs_match);
    if !all_verified {
        eprintln!("FAILED: some runs did not verify against the reference output");
        std::process::exit(1);
    }
    if !any_retune {
        eprintln!("FAILED: no adaptive run ever re-planned (tuner inert)");
        std::process::exit(1);
    }
    if !all_match {
        eprintln!("FAILED: adaptive functional byte counters diverge from static depth-3");
        std::process::exit(1);
    }
    println!("all runs verified; adaptive outputs bit-identical to static depth-3");
}
