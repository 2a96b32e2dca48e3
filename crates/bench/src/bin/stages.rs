//! Debug utility: absolute per-stage busy times for every implementation of
//! one application (not a paper figure; used to understand shapes).

use bk_apps::{run_all, Implementation};
use bk_baselines::BigKernelVariant;
use bk_bench::{all_apps, args::ExpArgs, render, short_name};

fn main() {
    let args = ExpArgs::from_env();
    let cfg = args.harness_config();
    let imps = [
        Implementation::CpuSerial,
        Implementation::CpuMultithreaded,
        Implementation::GpuSingleBuffer,
        Implementation::GpuDoubleBuffer,
        Implementation::Variant(BigKernelVariant::OverlapOnly),
        Implementation::Variant(BigKernelVariant::VolumeReduction),
        Implementation::BigKernel,
    ];

    for app in args.select(all_apps()) {
        let name = app.spec().name;
        render::header(&format!("{} — stage busy times", short_name(name)));
        let results = run_all(app.as_ref(), args.bytes, args.seed, &cfg, &imps);
        for (imp, r) in &results {
            print!(
                "{:<22} total {:>10}  |",
                imp.label(),
                format!("{}", r.total)
            );
            for s in &r.stages {
                if !s.busy.is_zero() {
                    print!(" {}={}", s.name, s.busy);
                }
            }
            println!();
        }
        for (imp, r) in &results {
            let c = &r.metrics;
            if c.get("gpu.comp_issue_slots") > 0 {
                println!(
                    "{:<22} gpu: slots={} mem={}/{} atomics={} hotchain={}",
                    imp.label(),
                    c.get("gpu.comp_issue_slots"),
                    c.get("gpu.comp_mem_bytes_moved"),
                    c.get("gpu.comp_mem_bytes_useful"),
                    c.get("gpu.comp_atomics"),
                    c.get("gpu.comp_hot_atomic_chain"),
                );
            }
        }
        // Dominant roofline bounds per stage (chunks counted).
        let bk0 = &results.last().unwrap().1;
        let bounds: Vec<(&str, u64)> = bk0
            .metrics
            .iter()
            .filter(|(k, _)| k.starts_with("bound."))
            .collect();
        if !bounds.is_empty() {
            print!("bigkernel dominant bounds:");
            for (k, v) in bounds {
                print!(" {}={}", k.trim_start_matches("bound."), v);
            }
            println!();
        }
        // Key counters for transfer-volume reasoning.
        let bk = &results.last().unwrap().1;
        println!(
            "bigkernel counters: h2d={} d2h={} gathered={} padding={} patterns={}/{}",
            bk.metrics.get("pcie.h2d_bytes"),
            bk.metrics.get("pcie.d2h_bytes"),
            bk.metrics.get("assembly.gathered_bytes"),
            bk.metrics.get("assembly.padding_bytes"),
            bk.metrics.get("addr.patterns_found"),
            bk.metrics.get("addr.patterns_found") + bk.metrics.get("addr.patterns_missed"),
        );
    }
}
