//! GPU scaling: BigKernel on 1/2/4 replicated GPUs (chunk sharding).
//!
//! The paper evaluates a single GTX 680; this experiment replicates that
//! device and lets the stage-graph executor deal chunks across the replicas
//! (round-robin by default, `BigKernelConfig::shard_policy` selects the
//! alternative). Functional outputs are identical at every device count —
//! the harness verifies each run against the pure-Rust reference — so the
//! table below is purely about simulated time and per-device busy/overlap.
//!
//! Only the three streaming-heavy applications are shown (Word Count, DNA
//! Assembly, Netflix): they keep every pipeline stage busy, so sharding has
//! real work to spread. Use `--app` to override the selection.

use bk_apps::{run_all, Implementation};
use bk_bench::{all_apps, args::ExpArgs, render, short_name};

/// Streaming apps where multi-GPU sharding is interesting (EXPERIMENTS.md).
const SCALING_APPS: [&str; 3] = ["Word Count", "DNA Assembly", "Netflix"];
const GPU_COUNTS: [usize; 3] = [1, 2, 4];

fn main() {
    let args = ExpArgs::from_env();

    render::header("GPU scaling — chunks sharded across replicated devices");
    println!(
        "{:<9} {:>5} {:>12} {:>9}   per-device overlap (busy/span)",
        "app", "gpus", "time (s)", "speedup"
    );

    for app in all_apps() {
        let name = app.spec().name;
        if !SCALING_APPS.contains(&name) || !args.selected(name) {
            continue;
        }
        let mut single_gpu_time = None;
        for &gpus in &GPU_COUNTS {
            let mut cfg = args.harness_config();
            cfg.gpus = gpus; // this binary owns the device-count axis
            let results = run_all(
                app.as_ref(),
                args.bytes,
                args.seed,
                &cfg,
                &[Implementation::BigKernel],
            );
            let result = &results[0].1;
            let base = *single_gpu_time.get_or_insert(result.total);
            let util: Vec<String> = (0..gpus)
                .map(|d| {
                    let busy = result.metrics.get(&format!("device.{d}.busy_ns"));
                    let span = result.metrics.get(&format!("device.{d}.makespan_ns"));
                    if span == 0 {
                        format!("d{d}: idle")
                    } else {
                        format!("d{d}: {:.2}x", busy as f64 / span as f64)
                    }
                })
                .collect();
            println!(
                "{:<9} {:>5} {:>12.6} {:>9}   {}",
                short_name(name),
                gpus,
                result.total.secs(),
                render::speedup(base.ratio(result.total)),
                util.join("  "),
            );
        }
        println!();
    }
    println!("(speedup is vs the same configuration on 1 GPU; overlap is the sum of");
    println!(" busy time across the device's six stage resources divided by the");
    println!(" device's schedule span — >1.00x means stages genuinely overlap;");
    println!(" sources: device.<i>.busy_ns / device.<i>.makespan_ns counters)");
}
