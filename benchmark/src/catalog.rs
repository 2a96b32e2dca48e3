//! The benchmark's metric vocabulary. `BENCHMARK.json` at the repository
//! root lists the same metrics; a test keeps the two in step. METRICS.md
//! explains what each one measures and which end-to-end metric it moves.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Printed by an untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("norm_cpu_s", "s", Lower, 0.25),
    e2e("norm_mib_per_s", "MiB/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
    e2e("sim_s", "s", Lower, 0.1),
    e2e("sustained_ingest_mib_s", "MiB/s", Higher, 0.1),
];

/// Printed by a traced run (`--trace 1`), on every workload; a layer the
/// workload does not use reads 0.
pub const PER_LAYER: &[Metric] = &[
    layer("apps.instantiate_s", "s", Lower),
    layer("apps.verify_s", "s", Lower),
    layer("apps.calibrate_s", "s", Lower),
    layer("runtime.pipeline.run_s.kmeans", "s", Lower),
    layer("runtime.pipeline.run_s.wordcount", "s", Lower),
    layer("runtime.pipeline.run_s.netflix", "s", Lower),
    layer("runtime.pipeline.run_s.opinion", "s", Lower),
    layer("runtime.pipeline.run_s.dna", "s", Lower),
    layer("runtime.pipeline.run_s.mca", "s", Lower),
    layer("runtime.pipeline.run_s.mca-idx", "s", Lower),
    layer("runtime.pipeline.blocks_per_s", "1/s", Higher),
    layer("runtime.fusion.run_s", "s", Lower),
    layer("runtime.fusion.fused", "count", Higher),
    layer("runtime.fusion.refused", "count", Lower),
    layer("runtime.fusion.saved_mib", "MiB", Higher),
    layer("runtime.stream.run_s", "s", Lower),
    layer("runtime.stream.windows", "count", Higher),
    layer("runtime.stream.redetects", "count", Lower),
    layer("runtime.stream.backpressure_ms", "ms", Lower),
    layer("runtime.stream.queue_depth_max", "count", Lower),
    layer("runtime.autotune.retunes", "count", Lower),
    layer("baselines.cpu_mt.run_s", "s", Lower),
    layer("baselines.single_buffer.run_s", "s", Lower),
    layer("baselines.double_buffer.run_s", "s", Lower),
    layer("runtime.addr.entries", "count", Lower),
    layer("runtime.addr.encoded_mib", "MiB", Lower),
    layer("runtime.pattern.hit_ratio", "ratio", Higher),
    layer("runtime.pattern.lookups", "count", Lower),
    layer("runtime.assembly.gathered_mib", "MiB", Lower),
    layer("runtime.assembly.padding_mib", "MiB", Lower),
    layer("runtime.assembly.cache_hit_ratio", "ratio", Higher),
    layer("runtime.assembly.simd_run_ratio", "ratio", Higher),
    layer("host.pcie.h2d_mib", "MiB", Lower),
    layer("host.pcie.d2h_mib", "MiB", Lower),
    layer("gpu.issue_slots", "count", Lower),
    layer("gpu.atomics", "count", Lower),
    layer("gpu.coalesce_ratio", "ratio", Higher),
    layer("gpu.replay_conflicts", "1/block", Lower),
    layer("runtime.graph.busy_s.addr-gen", "s", Lower),
    layer("runtime.graph.busy_s.assemble", "s", Lower),
    layer("runtime.graph.busy_s.transfer", "s", Lower),
    layer("runtime.graph.busy_s.compute", "s", Lower),
    layer("runtime.graph.busy_s.wb-xfer", "s", Lower),
    layer("runtime.graph.busy_s.wb-apply", "s", Lower),
    layer("runtime.graph.stall_s.buffer-reuse", "s", Lower),
    layer("runtime.graph.stall_s.dma-queue", "s", Lower),
    layer("runtime.graph.stall_s.gpu-queue", "s", Lower),
    layer("runtime.graph.stall_s.cpu-thread", "s", Lower),
    layer("runtime.graph.stall_s.backpressure", "s", Lower),
    layer("runtime.graph.chunks", "count", Lower),
    layer("obs.critpath.blame_s.addr-gen", "s", Lower),
    layer("obs.critpath.blame_s.assemble", "s", Lower),
    layer("obs.critpath.blame_s.transfer", "s", Lower),
    layer("obs.critpath.blame_s.compute", "s", Lower),
    layer("obs.critpath.blame_s.wb-xfer", "s", Lower),
    layer("obs.critpath.blame_s.wb-apply", "s", Lower),
    layer("obs.critpath.blame_s.ingest", "s", Lower),
    layer("obs.critpath.analyze_s", "s", Lower),
    layer("runtime.whatif.rank_s", "s", Lower),
    layer("unattributed_s", "s", Lower),
    layer("trace_overhead_pct", "%", Lower),
    layer("paper_err_pct", "%", Lower),
    layer("paper.bk_vs_double", "x", Higher),
    layer("paper.bk_vs_single", "x", Higher),
    layer("paper.bk_vs_cpu_mt", "x", Higher),
    layer("window_latency_p50_ms", "ms", Lower),
    layer("window_latency_p90_ms", "ms", Lower),
];

/// Limits a metric list must respect.
pub const MAX_END_TO_END: usize = 16;
pub const MAX_PER_LAYER: usize = 128;
const MAX_NAME: usize = 64;
const MAX_UNIT: usize = 16;

/// A metric name: starts with a letter or digit, at most 64 characters
/// from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= MAX_NAME
        && name
            .bytes()
            .next()
            .is_some_and(|b| b.is_ascii_alphanumeric())
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// A unit: 1 to 16 characters from `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= MAX_UNIT
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Check both lists against the limits; `Err` names the first violation.
pub fn check(end_to_end: &[Metric], per_layer: &[Metric]) -> Result<(), String> {
    if end_to_end.is_empty() || end_to_end.len() > MAX_END_TO_END {
        return Err(format!(
            "{} end-to-end metrics (1..={MAX_END_TO_END} allowed)",
            end_to_end.len()
        ));
    }
    if per_layer.is_empty() || per_layer.len() > MAX_PER_LAYER {
        return Err(format!(
            "{} per-layer metrics (1..={MAX_PER_LAYER} allowed)",
            per_layer.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for m in end_to_end.iter().chain(per_layer) {
        if !valid_name(m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if !valid_unit(m.unit) {
            return Err(format!("invalid unit {:?} of {}", m.unit, m.name));
        }
        if !seen.insert(m.name) {
            return Err(format!("metric {} listed twice", m.name));
        }
    }
    for m in end_to_end {
        match m.bound {
            Some(b) if b > 0.0 && b <= 0.25 => {}
            _ => return Err(format!("{}: bound must lie in (0, 0.25]", m.name)),
        }
    }
    if let Some(m) = per_layer.iter().find(|m| m.bound.is_some()) {
        return Err(format!("per-layer metric {} carries a bound", m.name));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_charset() {
        for ok in ["norm_cpu_s", "runtime.graph.busy_s.wb-xfer", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/no",
            "pct%",
            "ünïcode",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
        assert!(valid_unit("MiB/s") && valid_unit("%") && valid_unit("1/block"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn limits() {
        let m = layer("m", "s", Lower);
        let e = e2e("e", "s", Lower, 0.1);
        let named = |prefix: &str, n: usize, proto: Metric| -> Vec<Metric> {
            (0..n)
                .map(|i| Metric {
                    name: Box::leak(format!("{prefix}{i}").into_boxed_str()),
                    ..proto
                })
                .collect()
        };
        assert!(check(&named("e", 16, e), &named("m", 128, m)).is_ok());
        assert!(check(&named("e", 17, e), &[m]).is_err());
        assert!(check(&[e], &named("m", 129, m)).is_err());
        assert!(check(&[], &[m]).is_err());
        assert!(check(&[e], &[]).is_err());
        assert!(check(&[e], &[m, m]).is_err(), "duplicate name");
        assert!(check(&[e2e("e", "s", Lower, 0.3)], &[m]).is_err(), "bound");
        assert!(check(&[e], &[e2e("x", "s", Lower, 0.1)]).is_err());
    }

    #[test]
    fn catalog_is_within_limits() {
        check(END_TO_END, PER_LAYER).unwrap();
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            END_TO_END
                .iter()
                .find(|m| m.name == "setup_s")
                .unwrap()
                .bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
    }

    /// `BENCHMARK.json` lists exactly the catalog's metrics, in order, with
    /// the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_catalog() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str, next: &str| -> String {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let end = json[start..]
                .find(&format!("\"{next}\""))
                .map_or(json.len(), |e| start + e);
            json[start..end].to_string()
        };
        let expect = |metrics: &[Metric]| -> Vec<String> {
            metrics
                .iter()
                .map(|m| match m.bound {
                    Some(b) => format!(
                        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {b}}}",
                        m.name,
                        m.unit,
                        m.better.label()
                    ),
                    None => format!(
                        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                        m.name,
                        m.unit,
                        m.better.label()
                    ),
                })
                .collect()
        };
        let entries = |s: &str| -> Vec<String> {
            s.lines()
                .map(str::trim)
                .filter(|l| l.starts_with("{\"name\""))
                .map(|l| l.trim_end_matches(',').to_string())
                .collect()
        };
        assert_eq!(
            entries(&section("end_to_end", "per_layer")),
            expect(END_TO_END)
        );
        assert_eq!(
            entries(&section("per_layer", "workloads")),
            expect(PER_LAYER)
        );
    }
}
