//! Fig. 4(a): speedup of every implementation over the serial CPU
//! implementation, per application.

use bk_apps::{run_all, Implementation};
use bk_bench::figures::{Fig4a, Headline};
use bk_bench::{all_apps, args::ExpArgs, expectations::headline, render, short_name};

fn main() {
    let args = ExpArgs::from_env();
    let cfg = args.harness_config();

    render::header("Fig. 4(a) — speedup over the serial CPU implementation");
    println!(
        "{:<9} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "app", "cpu-mt", "gpu-1buf", "gpu-2buf", "bigkernel", "(serial s)"
    );

    let mut rows = Vec::new();
    for app in args.select(all_apps()) {
        let name = app.spec().name;
        let runs = run_all(
            app.as_ref(),
            args.bytes,
            args.seed,
            &cfg,
            &Implementation::FIG4A,
        );
        let row = Fig4a::new(&runs);
        let [mt, sb, db, bk] = row.speedup.map(render::speedup);
        println!(
            "{:<9} {mt:>10} {sb:>10} {db:>10} {bk:>10} {:>10.4}",
            short_name(name),
            row.serial.secs(),
        );
        rows.push(row);
    }

    render::header("headline comparison (measured geomean vs paper average)");
    let h = Headline::new(&rows);
    let paper = [
        (headline::BK_VS_DB_AVG, headline::BK_VS_DB_MAX),
        (headline::BK_VS_SB_AVG, headline::BK_VS_SB_MAX),
        (headline::BK_VS_CPU_MT_AVG, headline::BK_VS_CPU_MT_MAX),
    ];
    let labels = ["double-buffer", "single-buffer", "cpu-multithr"];
    for (k, ((avg, max), label)) in paper.into_iter().zip(labels).enumerate() {
        println!(
            "bigkernel vs {label:<14}: {:>6} (paper avg {avg:.1}x, max {max:.1}x; measured max {:.2}x)",
            render::speedup(h.geomean[k]),
            h.max[k],
        );
    }
}
