//! Table I: application mapped-data characteristics — paper values beside
//! proportions *measured* from an instrumented BigKernel run on the
//! synthetic datasets.

use bk_apps::{run_all, Implementation};
use bk_bench::{all_apps, args::ExpArgs, figures, render};

fn main() {
    let args = ExpArgs::from_env();
    let cfg = args.harness_config();

    render::header("Table I — application mapped data");
    println!(
        "{:<30} {:>9} {:>26} | {:>11} {:>11} | {:>11} {:>11}",
        "application",
        "data size",
        "record type",
        "read(paper)",
        "read(ours)",
        "mod(paper)",
        "mod(ours)"
    );

    for app in args.select(all_apps()) {
        let spec = app.spec();
        let runs = run_all(
            app.as_ref(),
            args.bytes,
            args.seed,
            &cfg,
            &[Implementation::BigKernel],
        );
        let (read_pct, mod_pct) = figures::table1_pct(spec.name, args.bytes, &runs[0].1);
        println!(
            "{:<30} {:>9} {:>26} | {:>10}% {:>10.1}% | {:>10}% {:>10.1}%",
            spec.name,
            format!("{}MiB", args.bytes >> 20),
            spec.record_type,
            spec.paper_read_pct,
            read_pct,
            spec.paper_modified_pct,
            mod_pct,
        );
    }
    println!();
    println!("(paper data sizes were 4.5-6.4 GB; proportions are scale-invariant)");
}
