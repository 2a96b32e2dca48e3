//! Each of the paper's measured numbers, derived once from verified runs.
//! The per-figure binaries and `report` print these; neither recomputes
//! them.

use crate::{checked_bigkernel, expectations, render};
use bk_apps::{BenchApp, HarnessConfig, Implementation};
use bk_baselines::BigKernelVariant;
use bk_runtime::RunResult;
use bk_simcore::SimTime;

/// Fig. 4(a) for one app: every implementation's speedup over the serial
/// CPU implementation.
pub struct Fig4a {
    /// Simulated time of the serial CPU run.
    pub serial: SimTime,
    /// Speedup over serial of the multi-threaded CPU, single buffering,
    /// double buffering and BigKernel, in that order.
    pub speedup: [f64; 4],
    /// BigKernel's speedup over double buffering, single buffering and the
    /// multi-threaded CPU: the §VI headline ratios, in that order.
    pub bk_vs: [f64; 3],
}

impl Fig4a {
    /// From the runs of [`Implementation::FIG4A`], in that order.
    pub fn new(runs: &[(Implementation, RunResult)]) -> Self {
        let t = |i: usize| runs[i].1.total;
        let serial = t(0);
        Fig4a {
            serial,
            speedup: [1, 2, 3, 4].map(|i| serial.ratio(t(i))),
            bk_vs: [3, 2, 1].map(|i| t(i).ratio(t(4))),
        }
    }
}

/// The headline ratios over a set of apps, in [`Fig4a::bk_vs`] order.
pub struct Headline {
    pub geomean: [f64; 3],
    pub max: [f64; 3],
}

impl Headline {
    pub fn new(rows: &[Fig4a]) -> Self {
        let ratios = |k: usize| -> Vec<f64> { rows.iter().map(|r| r.bk_vs[k]).collect() };
        Headline {
            geomean: [0, 1, 2].map(|k| render::geomean(&ratios(k))),
            max: [0, 1, 2].map(|k| ratios(k).into_iter().fold(0.0, f64::max)),
        }
    }
}

/// Fig. 4(b): the computation share of a single-buffer run, against the
/// communication stages (pinned staging, transfer and write-back).
pub fn compute_share(single_buffer: &RunResult) -> f64 {
    let r = single_buffer;
    let comp = r.stage_busy("compute");
    let comm = r.stage_busy("stage-pin")
        + r.stage_busy("transfer")
        + r.stage_busy("wb-xfer")
        + r.stage_busy("wb-apply");
    let total = comp + comm;
    if total.is_zero() {
        0.0
    } else {
        comp.ratio(total)
    }
}

/// Table I's measured mapped-data proportions of `app` from a BigKernel run
/// over `bytes` of input: (percent read, percent modified). Table I reports
/// the per-pass read proportion, so the two MasterCard Affinity variants'
/// reads are divided by their two passes; every other app's, K-means's two
/// passes included, are not.
pub fn table1_pct(app: &str, bytes: u64, bigkernel: &RunResult) -> (f64, f64) {
    let passes = if app.starts_with("MasterCard") { 2 } else { 1 };
    let c = &bigkernel.metrics;
    (
        100.0 * c.get("stream.bytes_read") as f64 / (bytes * passes) as f64,
        100.0 * c.get("stream.bytes_written") as f64 / bytes as f64,
    )
}

/// Fig. 5's implementations: single buffering, then BigKernel with overlap
/// only, plus transfer-volume reduction, plus coalescing.
pub const FIG5: [Implementation; 4] = [
    Implementation::GpuSingleBuffer,
    Implementation::Variant(BigKernelVariant::OverlapOnly),
    Implementation::Variant(BigKernelVariant::VolumeReduction),
    Implementation::Variant(BigKernelVariant::Full),
];

/// Fig. 5: the cumulative speedups over single buffering, from the runs of
/// [`FIG5`] in that order.
pub fn fig5(runs: &[(Implementation, RunResult)]) -> [f64; 3] {
    let single = runs[0].1.total;
    [1, 2, 3].map(|i| single.ratio(runs[i].1.total))
}

/// Table II for one app: the improvement from §IV.A pattern recognition.
pub struct Table2 {
    /// The paper's cell ("NA" for the indexed variant).
    pub paper: String,
    /// time(patterns off) / time(patterns on) - 1, in percent; "NA" where
    /// patterns cannot apply (data-dependent addresses).
    pub ours: String,
    /// Encoded address-stream bytes with recognition off (raw streams).
    pub raw_addr_bytes: u64,
    /// Encoded address-stream bytes with recognition on.
    pub pattern_addr_bytes: u64,
}

impl Table2 {
    /// Run `app` under BigKernel with pattern recognition on and off, `cfg`
    /// otherwise.
    pub fn run(app: &dyn BenchApp, bytes: u64, seed: u64, cfg: &HarnessConfig) -> Self {
        let run = |patterns: bool| {
            let mut cfg = cfg.clone();
            cfg.bigkernel.pattern_recognition = patterns;
            checked_bigkernel(app, bytes, seed, &cfg)
                .expect_verified("bigkernel")
                .0
        };
        let (on, off) = (run(true), run(false));
        let spec = app.spec();
        Table2 {
            paper: expectations::table2_pct(spec.name)
                .map(|p| format!("{p}%"))
                .unwrap_or_else(|| "NA".into()),
            ours: if spec.pattern_applicable {
                format!("{:.0}%", (off.total.ratio(on.total) - 1.0) * 100.0)
            } else {
                "NA".into()
            },
            raw_addr_bytes: off.metrics.get("addr.encoded_bytes"),
            pattern_addr_bytes: on.metrics.get("addr.encoded_bytes"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bk_runtime::{MetricsRegistry, StageStat};

    fn run(secs: f64, stages: &[(&'static str, f64)]) -> RunResult {
        RunResult {
            implementation: "test",
            total: SimTime::from_secs(secs),
            stages: stages
                .iter()
                .map(|&(name, busy)| StageStat {
                    name,
                    busy: SimTime::from_secs(busy),
                    mean: SimTime::from_secs(busy),
                })
                .collect(),
            metrics: MetricsRegistry::new(),
            chunks: 1,
        }
    }

    fn runs(imps: &[Implementation], secs: &[f64]) -> Vec<(Implementation, RunResult)> {
        imps.iter()
            .zip(secs)
            .map(|(&i, &s)| (i, run(s, &[])))
            .collect()
    }

    #[test]
    fn fig4a_speedups_and_headline_ratios() {
        let a = Fig4a::new(&runs(&Implementation::FIG4A, &[8.0, 4.0, 2.0, 1.0, 0.5]));
        assert_eq!(a.serial.secs(), 8.0);
        assert_eq!(a.speedup, [2.0, 4.0, 8.0, 16.0]);
        assert_eq!(a.bk_vs, [2.0, 4.0, 8.0]);
        let b = Fig4a::new(&runs(&Implementation::FIG4A, &[8.0, 4.0, 4.0, 4.0, 0.5]));
        let h = Headline::new(&[a, b]);
        assert_eq!(h.max, [8.0, 8.0, 8.0]);
        assert!((h.geomean[0] - 4.0).abs() < 1e-12, "sqrt(2 * 8)");
        let none = Headline::new(&[]);
        assert_eq!((none.geomean, none.max), ([0.0; 3], [0.0; 3]));
    }

    #[test]
    fn fig5_speedups_over_single_buffer() {
        assert_eq!(fig5(&runs(&FIG5, &[6.0, 3.0, 2.0, 1.5])), [2.0, 3.0, 4.0]);
    }

    #[test]
    fn compute_share_counts_every_communication_stage() {
        let r = run(
            9.0,
            &[
                ("compute", 4.0),
                ("stage-pin", 1.0),
                ("transfer", 1.0),
                ("wb-xfer", 1.0),
                ("wb-apply", 1.0),
                ("other", 50.0),
            ],
        );
        assert_eq!(compute_share(&r), 0.5);
        assert_eq!(compute_share(&run(1.0, &[])), 0.0);
    }

    #[test]
    fn table1_divides_only_mastercard_reads_by_its_two_passes() {
        let mut r = run(1.0, &[]);
        r.metrics.add("stream.bytes_read", 200);
        r.metrics.add("stream.bytes_written", 50);
        assert_eq!(table1_pct("K-means", 100, &r), (200.0, 50.0));
        assert_eq!(table1_pct("MasterCard Affinity", 100, &r), (100.0, 50.0));
        assert_eq!(
            table1_pct("MasterCard Affinity (indexed)", 100, &r),
            (100.0, 50.0)
        );
    }
}
