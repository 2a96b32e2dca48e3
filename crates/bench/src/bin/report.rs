//! One-command reproduction: runs every table and figure and writes a
//! single markdown report (default `results/REPORT.md`), with the paper's
//! reported values inline for comparison. Every run is verified, and every
//! number comes from [`bk_bench::figures`], the derivations the per-figure
//! binaries print.

use bk_apps::{run_all, Implementation};
use bk_bench::figures::{self, Fig4a, Headline, Table2};
use bk_bench::{all_apps, args::ExpArgs, expectations::headline, short_name};
use std::fmt::Write as _;
use std::path::Path;

/// Machine-readable record of one app's Fig. 4(a) row (speedups over the
/// serial CPU implementation, plus the Table I proportions measured from
/// the same runs) — written to `results/report.json` for downstream
/// analysis/plotting.
struct AppRecord {
    app: String,
    cpu_multithreaded: f64,
    gpu_single_buffer: f64,
    gpu_double_buffer: f64,
    bigkernel: f64,
    serial_seconds: f64,
    read_pct: f64,
    modified_pct: f64,
}

struct JsonReport {
    bytes_per_app: u64,
    seed: u64,
    geomean_bk_vs_double: f64,
    geomean_bk_vs_single: f64,
    geomean_bk_vs_cpu_mt: f64,
    apps: Vec<AppRecord>,
}

/// Render the report as JSON by hand — the records are flat and the
/// workspace builds without a serde dependency.
fn to_json(r: &JsonReport) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bytes_per_app\": {},", r.bytes_per_app);
    let _ = writeln!(out, "  \"seed\": {},", r.seed);
    let _ = writeln!(
        out,
        "  \"geomean_bk_vs_double\": {:.6},",
        r.geomean_bk_vs_double
    );
    let _ = writeln!(
        out,
        "  \"geomean_bk_vs_single\": {:.6},",
        r.geomean_bk_vs_single
    );
    let _ = writeln!(
        out,
        "  \"geomean_bk_vs_cpu_mt\": {:.6},",
        r.geomean_bk_vs_cpu_mt
    );
    let _ = writeln!(out, "  \"apps\": [");
    for (i, a) in r.apps.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"app\": \"{}\",", esc(&a.app));
        let _ = writeln!(
            out,
            "      \"cpu_multithreaded\": {:.6},",
            a.cpu_multithreaded
        );
        let _ = writeln!(
            out,
            "      \"gpu_single_buffer\": {:.6},",
            a.gpu_single_buffer
        );
        let _ = writeln!(
            out,
            "      \"gpu_double_buffer\": {:.6},",
            a.gpu_double_buffer
        );
        let _ = writeln!(out, "      \"bigkernel\": {:.6},", a.bigkernel);
        let _ = writeln!(out, "      \"serial_seconds\": {:.6},", a.serial_seconds);
        let _ = writeln!(out, "      \"read_pct\": {:.6},", a.read_pct);
        let _ = writeln!(out, "      \"modified_pct\": {:.6}", a.modified_pct);
        let _ = writeln!(out, "    }}{}", if i + 1 < r.apps.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    out.push('}');
    out
}

fn main() {
    let args = ExpArgs::from_env();
    let cfg = args.harness_config();
    let mut md = String::new();
    let _ = writeln!(md, "# BigKernel reproduction report\n");
    let _ = writeln!(
        md,
        "Scale: {} MiB per application, seed {}. Times are simulated; see\nEXPERIMENTS.md for interpretation.\n",
        args.bytes >> 20,
        args.seed
    );

    // ---- Table I + Fig 4(a) + Fig 4(b) + Fig 6 from one run set ---------
    let _ = writeln!(md, "## Fig. 4(a) — speedup over serial CPU\n");
    let _ = writeln!(md, "| app | cpu-mt | gpu-1buf | gpu-2buf | bigkernel |");
    let _ = writeln!(md, "|---|---|---|---|---|");
    let mut fig4a_rows = Vec::new();
    let mut fig6_rows = String::new();
    let mut fig4b_rows = String::new();
    let mut table1_rows = String::new();
    let mut json_apps: Vec<AppRecord> = Vec::new();

    for app in args.select(all_apps()) {
        let spec = app.spec();
        let name = spec.name;
        let runs = run_all(
            app.as_ref(),
            args.bytes,
            args.seed,
            &cfg,
            &Implementation::FIG4A,
        );
        let row = Fig4a::new(&runs);
        let [mt, sb, db, bk] = row.speedup;
        let _ = writeln!(
            md,
            "| {} | {mt:.2}x | {sb:.2}x | {db:.2}x | **{bk:.2}x** |",
            short_name(name),
        );

        // Fig 4(b) from the single-buffer run.
        let frac = figures::compute_share(&runs[2].1);
        let _ = writeln!(
            fig4b_rows,
            "| {} | {:.0}% | {:.0}% |",
            short_name(name),
            frac * 100.0,
            (1.0 - frac) * 100.0
        );

        // Fig 6 + Table I from the BigKernel run.
        let bk_run = &runs[4].1;
        let rel = bk_run.relative_stage_times();
        let pct = |stage: &str| {
            rel.iter()
                .find(|(n, _)| *n == stage)
                .map(|(_, f)| f * 100.0)
                .unwrap_or(0.0)
        };
        let _ = writeln!(
            fig6_rows,
            "| {} | {:.0}% | {:.0}% | {:.0}% | {:.0}% |",
            short_name(name),
            pct("addr-gen"),
            pct("assemble"),
            pct("transfer"),
            pct("compute"),
        );
        let (read_pct, mod_pct) = figures::table1_pct(name, args.bytes, bk_run);
        json_apps.push(AppRecord {
            app: name.to_string(),
            cpu_multithreaded: mt,
            gpu_single_buffer: sb,
            gpu_double_buffer: db,
            bigkernel: bk,
            serial_seconds: row.serial.secs(),
            read_pct,
            modified_pct: mod_pct,
        });
        let _ = writeln!(
            table1_rows,
            "| {} | {} | {}% / {:.1}% | {}% / {:.1}% |",
            name, spec.record_type, spec.paper_read_pct, read_pct, spec.paper_modified_pct, mod_pct,
        );
        fig4a_rows.push(row);
    }
    let geomean = Headline::new(&fig4a_rows).geomean;
    let _ = writeln!(
        md,
        "\nGeomeans: BK/double {:.2}x (paper {:.1}x), BK/single {:.2}x (paper {:.1}x), \
         BK/cpu-mt {:.2}x (paper {:.1}x)\n",
        geomean[0],
        headline::BK_VS_DB_AVG,
        geomean[1],
        headline::BK_VS_SB_AVG,
        geomean[2],
        headline::BK_VS_CPU_MT_AVG,
    );

    let _ = writeln!(md, "## Table I — mapped data (paper / measured)\n");
    let _ = writeln!(md, "| app | record type | read | modified |");
    let _ = writeln!(md, "|---|---|---|---|");
    md.push_str(&table1_rows);

    let _ = writeln!(md, "\n## Fig. 4(b) — single-buffer comp/comm\n");
    let _ = writeln!(md, "| app | computation | communication |");
    let _ = writeln!(md, "|---|---|---|");
    md.push_str(&fig4b_rows);

    let _ = writeln!(md, "\n## Fig. 6 — relative stage times (BigKernel)\n");
    let _ = writeln!(md, "| app | addr-gen | assemble | transfer | compute |");
    let _ = writeln!(md, "|---|---|---|---|---|");
    md.push_str(&fig6_rows);

    // ---- Fig. 5 -----------------------------------------------------------
    let _ = writeln!(
        md,
        "\n## Fig. 5 — incremental feature benefit (vs single buffer)\n"
    );
    let _ = writeln!(md, "| app | +overlap | +volume | +coalesce |");
    let _ = writeln!(md, "|---|---|---|---|");
    for app in args.select(all_apps()) {
        let name = app.spec().name;
        let runs = run_all(app.as_ref(), args.bytes, args.seed, &cfg, &figures::FIG5);
        let [overlap, volume, coalesce] = figures::fig5(&runs);
        let _ = writeln!(
            md,
            "| {} | {overlap:.2}x | {volume:.2}x | {coalesce:.2}x |",
            short_name(name),
        );
    }

    // ---- Table II ---------------------------------------------------------
    let _ = writeln!(md, "\n## Table II — pattern recognition improvement\n");
    let _ = writeln!(md, "| app | paper | measured |");
    let _ = writeln!(md, "|---|---|---|");
    for app in args.select(all_apps()) {
        let name = app.spec().name;
        let row = Table2::run(app.as_ref(), args.bytes, args.seed, &cfg);
        let _ = writeln!(md, "| {} | {} | {} |", name, row.paper, row.ours);
    }

    let out_dir = Path::new("results");
    std::fs::create_dir_all(out_dir).expect("create results dir");
    let path = out_dir.join("REPORT.md");
    std::fs::write(&path, &md).expect("write report");
    println!("wrote {} ({} bytes)", path.display(), md.len());

    let json = JsonReport {
        bytes_per_app: args.bytes,
        seed: args.seed,
        geomean_bk_vs_double: geomean[0],
        geomean_bk_vs_single: geomean[1],
        geomean_bk_vs_cpu_mt: geomean[2],
        apps: json_apps,
    };
    let jpath = out_dir.join("report.json");
    std::fs::write(&jpath, to_json(&json)).expect("write json");
    println!("wrote {}", jpath.display());
}
