//! Fig. 6: relative completion time of each BigKernel pipeline stage.

use bk_apps::{run_all, Implementation};
use bk_bench::{all_apps, args::ExpArgs, render, short_name};

fn main() {
    let args = ExpArgs::from_env();
    let cfg = args.harness_config();

    render::header("Fig. 6 — relative completion time of each BigKernel stage");
    println!(
        "{:<9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}  {:>10}",
        "app", "addr-gen", "assemble", "transfer", "compute", "wb-xfer", "wb-apply", "(total s)"
    );

    for app in args.select(all_apps()) {
        let name = app.spec().name;
        let results = run_all(
            app.as_ref(),
            args.bytes,
            args.seed,
            &cfg,
            &[Implementation::BigKernel],
        );
        let r = &results[0].1;
        let rel = r.relative_stage_times();
        print!("{:<9}", short_name(name));
        for (_, frac) in &rel {
            print!(" {:>8.0}%", frac * 100.0);
        }
        println!("  {:>10.5}", r.total.secs());
        // Bars, paper-style.
        for (stage, frac) in &rel {
            if *frac > 0.0 {
                println!("          {:>9} |{}|", stage, render::bar(*frac, 40));
            }
        }
    }
    println!();
    println!("(paper: addr-gen usually <20%; computation is the slowest stage for");
    println!(" most applications, indicating the bottleneck moved to the GPU)");
}
