//! Fig. 4(b): computation / communication ratio of the single-buffer
//! implementation.

use bk_apps::{run_all, Implementation};
use bk_bench::{all_apps, args::ExpArgs, expectations, figures, render, short_name};

fn main() {
    let args = ExpArgs::from_env();
    let cfg = args.harness_config();

    render::header("Fig. 4(b) — comp/comm ratio in the single-buffer implementation");
    println!(
        "{:<9} {:>6} {:>6}   computation share",
        "app", "comp", "comm"
    );

    for app in args.select(all_apps()) {
        let name = app.spec().name;
        let runs = run_all(
            app.as_ref(),
            args.bytes,
            args.seed,
            &cfg,
            &[Implementation::GpuSingleBuffer],
        );
        let comp_frac = figures::compute_share(&runs[0].1);
        println!(
            "{:<9} {:>5.0}% {:>5.0}%   |{}|  ({})",
            short_name(name),
            comp_frac * 100.0,
            (1.0 - comp_frac) * 100.0,
            render::bar(comp_frac, 30),
            expectations::discussion_note(name),
        );
    }
    println!();
    println!("(paper: Word Count and Opinion Finder are computation-dominant;");
    println!(" the remaining applications are communication-dominant)");
}
