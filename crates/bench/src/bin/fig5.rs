//! Fig. 5: incremental speedup over the single-buffer implementation from
//! (i) overlapping computation and communication, (ii) reducing the data
//! transfer volume, and (iii) laying out data for coalesced accesses.

use bk_apps::run_all;
use bk_bench::{all_apps, args::ExpArgs, figures, render, short_name};

fn main() {
    let args = ExpArgs::from_env();
    let cfg = args.harness_config();

    render::header("Fig. 5 — incremental benefit of each BigKernel feature");
    println!(
        "{:<9} {:>9} {:>9} {:>9}   (speedup over single-buffer, cumulative)",
        "app", "+overlap", "+volume", "+coalesce"
    );

    for app in args.select(all_apps()) {
        let name = app.spec().name;
        let runs = run_all(app.as_ref(), args.bytes, args.seed, &cfg, &figures::FIG5);
        let [overlap, volume, coalesce] = figures::fig5(&runs).map(render::speedup);
        println!(
            "{:<9} {overlap:>9} {volume:>9} {coalesce:>9}",
            short_name(name),
        );
    }
    println!();
    println!("(paper: Word Count and MasterCard Affinity gain nothing from volume");
    println!(" reduction — their whole input must be transferred; Opinion Finder's");
    println!(" dominant computation also hides transfer gains)");
}
