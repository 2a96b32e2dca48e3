//! Pipeline timeline visualizer — the paper's Fig. 2 ("four-stage
//! pipeline") rendered from measured stage costs.
//!
//! Runs one application, takes the measured mean per-chunk stage durations,
//! and lays out a representative 8-chunk window under each execution
//! scheme's pipeline rules: single buffer (serialized), double buffer
//! (2-deep), BigKernel (4 stages, the `n-3` reuse rule). Rows are stages,
//! columns are time, digits mark chunks.

use bk_apps::kmeans::KMeans;
use bk_apps::{run_all, BenchApp, HarnessConfig, Implementation};
use bk_bench::{all_apps, args::ExpArgs, render};
use bk_simcore::{pipeline, SimTime, StageDef};

const CHUNKS: usize = 8;
const WIDTH: usize = 100;

fn means(r: &bk_runtime::RunResult, names: &[&str]) -> Vec<SimTime> {
    names
        .iter()
        .map(|n| {
            r.stages
                .iter()
                .find(|s| s.name == *n)
                .map(|s| s.mean)
                .unwrap_or(SimTime::ZERO)
        })
        .collect()
}

fn main() {
    let args = ExpArgs::from_env();
    let cfg = args.harness_config();
    // Default to K-means (it exercises all six stages); `--app` picks the
    // first matching application.
    let apps = all_apps();
    let app = args.filter.as_ref().map(|_| {
        apps.iter()
            .find(|a| args.selected(a.spec().name))
            .unwrap_or_else(|| {
                eprintln!("no app matches the filter");
                std::process::exit(2);
            })
    });
    let kmeans = KMeans::default();
    let app: &(dyn BenchApp + Sync) = match &app {
        Some(a) => a.as_ref(),
        None => &kmeans,
    };
    run_for(app, &args, &cfg)
}

fn run_for(app: &(dyn BenchApp + Sync), args: &ExpArgs, cfg: &HarnessConfig) {
    let name = app.spec().name;
    println!(
        "pipeline timelines for {name} ({} MiB, representative {CHUNKS}-chunk window)",
        args.bytes >> 20
    );

    // --- single buffer --------------------------------------------------
    let r = run_all(
        app,
        args.bytes,
        args.seed,
        cfg,
        &[Implementation::GpuSingleBuffer],
    );
    let names = ["stage-pin", "transfer", "compute", "wb-xfer", "wb-apply"];
    let m = means(&r[0].1, &names);
    let rows = vec![m.clone(); CHUNKS];
    let sched = pipeline::serialize_all(&names, &rows);
    render::header("single buffer (fully serialized)");
    print!("{}", sched.gantt(WIDTH));

    // --- double buffer ---------------------------------------------------
    let r = run_all(
        app,
        args.bytes,
        args.seed,
        cfg,
        &[Implementation::GpuDoubleBuffer],
    );
    let m = means(&r[0].1, &names);
    let spec = pipeline::PipelineSpec::new(vec![
        StageDef {
            name: "stage-pin",
            resource: "cpu-stage",
        },
        StageDef {
            name: "transfer",
            resource: "dma",
        },
        StageDef {
            name: "compute",
            resource: "gpu",
        },
        StageDef {
            name: "wb-xfer",
            resource: "dma",
        },
        StageDef {
            name: "wb-apply",
            resource: "cpu-wb",
        },
    ])
    .with_reuse(1, 2, 2)
    .with_reuse(0, 1, 2);
    let sched = pipeline::schedule(&spec, &vec![m; CHUNKS]);
    render::header("double buffer (2-deep)");
    print!("{}", sched.gantt(WIDTH));

    // --- BigKernel --------------------------------------------------------
    let r = run_all(
        app,
        args.bytes,
        args.seed,
        cfg,
        &[Implementation::BigKernel],
    );
    let names = [
        "addr-gen", "assemble", "transfer", "compute", "wb-xfer", "wb-apply",
    ];
    let m = means(&r[0].1, &names);
    let spec = pipeline::PipelineSpec::new(vec![
        StageDef {
            name: "addr-gen",
            resource: "gpu-ag",
        },
        StageDef {
            name: "assemble",
            resource: "cpu-asm",
        },
        StageDef {
            name: "transfer",
            resource: "dma",
        },
        StageDef {
            name: "compute",
            resource: "gpu-comp",
        },
        StageDef {
            name: "wb-xfer",
            resource: "dma",
        },
        StageDef {
            name: "wb-apply",
            resource: "cpu-wb",
        },
    ])
    .with_reuse(0, 3, cfg.bigkernel.buffer_depth)
    .with_reuse(3, 5, cfg.bigkernel.wb_depth());
    let sched = pipeline::schedule(&spec, &vec![m; CHUNKS]);
    render::header("BigKernel (4+2 stages, paper Fig. 2)");
    print!("{}", sched.gantt(WIDTH));

    println!();
    println!("(digits are chunk ids; '.' is idle — compare how much of each row");
    println!(" overlaps with the rows above it)");
}
