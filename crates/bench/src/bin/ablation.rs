//! Ablations of §IV design choices that the paper discusses but does not
//! plot: buffer depth (the "n-3" rule), synchronization scheme (iteration
//! barrier vs per-buffer flags, footnote 3), §IV.B locality-ordered
//! assembly, and chunk size (buffer size vs synchronization amortization,
//! §IV.D).

use bk_apps::kmeans::KMeans;
use bk_apps::wordcount::WordCount;
use bk_apps::{run_all, BenchApp, HarnessConfig, Implementation};
use bk_bench::{args::ExpArgs, render};
use bk_runtime::SyncMode;

fn run_one(app: &(dyn BenchApp + Sync), bytes: u64, seed: u64, cfg: &HarnessConfig) -> f64 {
    let r = run_all(app, bytes, seed, cfg, &[Implementation::BigKernel]);
    r[0].1.total.secs()
}

fn main() {
    let args = ExpArgs::from_env();
    let kmeans = KMeans::default();
    let wordcount = WordCount::default();
    let apps: [(&str, &(dyn BenchApp + Sync)); 2] =
        [("K-means", &kmeans), ("Word Count", &wordcount)];

    render::header("Ablation: buffer depth (addr-gen(n) waits compute(n-depth))");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "app", "depth=1", "depth=2", "depth=3", "depth=4"
    );
    for (name, app) in &apps {
        print!("{name:<12}");
        for depth in 1..=4usize {
            let mut cfg = args.harness_config();
            cfg.bigkernel.buffer_depth = depth;
            print!(
                " {:>9.2}ms",
                run_one(*app, args.bytes, args.seed, &cfg) * 1e3
            );
        }
        println!();
    }
    println!("(paper §IV.C uses depth 3; depth 1 forfeits the pipeline)");

    render::header("Ablation: synchronization scheme (§IV.C footnote 3)");
    println!(
        "{:<12} {:>16} {:>16}   (unscaled flag latencies)",
        "app", "iter-barrier", "per-buffer-flags"
    );
    for (name, app) in &apps {
        let mut a = args.harness_config();
        // Flag/busy-wait costs are fixed latencies; run this ablation with
        // them unscaled so the footnote-3 tradeoff is visible at any size.
        a.fixed_cost_scale = 1.0;
        a.bigkernel.sync = SyncMode::IterationBarrier;
        let mut b = a.clone();
        b.bigkernel.sync = SyncMode::PerBufferFlags;
        println!(
            "{name:<12} {:>14.2}ms {:>14.2}ms",
            run_one(*app, args.bytes, args.seed, &a) * 1e3,
            run_one(*app, args.bytes, args.seed, &b) * 1e3,
        );
    }

    render::header("Ablation: §IV.B locality-ordered assembly");
    println!("{:<12} {:>12} {:>12}", "app", "locality on", "locality off");
    for (name, app) in &apps {
        let mut on = args.harness_config();
        on.bigkernel.locality_assembly = true;
        let mut off = on.clone();
        off.bigkernel.locality_assembly = false;
        println!(
            "{name:<12} {:>10.2}ms {:>10.2}ms",
            run_one(*app, args.bytes, args.seed, &on) * 1e3,
            run_one(*app, args.bytes, args.seed, &off) * 1e3,
        );
    }

    render::header("Ablation: chunk size (buffer size vs sync amortization, §IV.D)");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "app", "x1/4", "x1/2", "x1", "x2"
    );
    for (name, app) in &apps {
        print!("{name:<12}");
        for mult in [0.25, 0.5, 1.0, 2.0] {
            let mut cfg = args.harness_config();
            cfg.bigkernel.chunk_input_bytes =
                ((cfg.bigkernel.chunk_input_bytes as f64 * mult) as u64).max(4096);
            print!(
                " {:>9.2}ms",
                run_one(*app, args.bytes, args.seed, &cfg) * 1e3
            );
        }
        println!();
    }
    println!("(larger chunks amortize sync but add pipeline fill latency and");
    println!(" per-chunk buffer footprint — the paper tuned these per app)");

    render::header("Ablation: DMA copy engines (GeForce x1 vs Tesla-class x2)");
    println!(
        "{:<12} {:>12} {:>12}   (K-means writes mapped data back)",
        "app", "1 engine", "2 engines"
    );
    for (name, app) in &apps {
        let mut one = args.harness_config();
        one.machine = bk_runtime::Machine::paper_platform;
        let mut two = one.clone();
        two.machine = bk_runtime::Machine::tesla_platform;
        println!(
            "{name:<12} {:>10.2}ms {:>10.2}ms",
            run_one(*app, args.bytes, args.seed, &one) * 1e3,
            run_one(*app, args.bytes, args.seed, &two) * 1e3,
        );
    }
    println!("(only write-back traffic competes for the engine, so the gain is");
    println!(" K-means-shaped and absent for read-only kernels)");

    render::header("Ablation: active thread blocks (§IV.D occupancy limits)");
    println!(
        "{:<12} {:>10} {:>10} {:>10}   (blocks launched; active capped by resources)",
        "app", "4", "16", "64"
    );
    for (name, app) in &apps {
        print!("{name:<12}");
        for blocks in [4u32, 16, 64] {
            let mut cfg = args.harness_config();
            cfg.launch = bk_runtime::LaunchConfig::new(blocks, 128);
            cfg.bigkernel.chunk_input_bytes = (args.bytes / (blocks as u64 * 12)).max(16 * 1024);
            print!(
                " {:>9.2}ms",
                run_one(*app, args.bytes, args.seed, &cfg) * 1e3
            );
        }
        println!();
    }
    println!("(beyond the active-block limit, extra blocks run as waves reusing");
    println!(" the active blocks' buffers — time should stay roughly flat)");
}
