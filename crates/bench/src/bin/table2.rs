//! Table II: performance improvement due to §IV.A pattern recognition —
//! BigKernel with patterns enabled vs disabled (raw address streams).

use bk_bench::{all_apps, args::ExpArgs, figures::Table2, render};

fn main() {
    let args = ExpArgs::from_env();
    let cfg = args.harness_config();

    render::header("Table II — improvement from pattern recognition");
    println!(
        "{:<30} {:>12} {:>12}   {:>14} {:>14}",
        "application", "paper", "ours", "addr B (raw)", "addr B (pat)"
    );

    for app in args.select(all_apps()) {
        let spec = app.spec();
        let row = Table2::run(app.as_ref(), args.bytes, args.seed, &cfg);
        println!(
            "{:<30} {:>12} {:>12}   {:>14} {:>14}",
            spec.name, row.paper, row.ours, row.raw_addr_bytes, row.pattern_addr_bytes,
        );
    }
    println!();
    println!("(improvement = time(patterns off) / time(patterns on) - 1; the paper's");
    println!(" exact metric is unstated, but the ordering is what matters)");
}
