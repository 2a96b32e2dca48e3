//! The reference kernel that host times are normalized by.
//!
//! A shared machine's speed drifts: neighbours on the same physical cores,
//! caches and memory slow this process down for minutes at a time, by as
//! much as 1.8× on a 2-vCPU cloud VM, and CPU time grows with it just as
//! wall time does. The benchmark therefore runs this fixed kernel between
//! jobs and reports every host time rescaled to a machine on which the
//! kernel takes exactly [`NOMINAL_S`]: a job's CPU time times
//! `NOMINAL_S / t`, where `t` is the mean of the kernel's CPU time just
//! before and just after the job. The kernel does what the simulator does
//! most — hashing, allocation, sorting, tree inserts and string formatting
//! over a few MiB — so it slows down with the machine the same way.
//!
//! The kernel is part of the benchmark and must not change between the
//! builds two results compare; changing it changes the scale of every
//! host figure.

use crate::cpuclock::process_cpu;
use std::collections::{BTreeMap, HashMap};

/// CPU time the kernel takes on the machine every host figure is scaled
/// to. Roughly its time on an idle 2.0 GHz Xeon cloud vCPU, so scaled
/// figures read close to raw ones there.
pub const NOMINAL_S: f64 = 0.03;

/// Rounds of the workload in one run of the kernel. One round (about
/// 10 ms) samples the machine's speed too briefly: over six `fixed-stride`
/// runs on a 2-vCPU cloud VM, normalized CPU time spread 6.3% with one
/// round and 3.2% with three.
const ROUNDS: usize = 3;

/// Run the kernel once; returns the CPU seconds it took.
pub fn run() -> f64 {
    let c = process_cpu();
    for _ in 0..ROUNDS {
        round();
    }
    (process_cpu() - c).as_secs_f64()
}

fn round() {
    let mut x: u64 = 0x1234_5678_9abc_def1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let keys: Vec<u64> = (0..60_000).map(|_| next()).collect();
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for (i, &k) in keys.iter().enumerate() {
        *counts.entry(k % 20_000).or_insert(0) += i as u64;
    }
    let mut acc = keys
        .iter()
        .map(|k| counts[&(k % 20_000)])
        .fold(0u64, u64::wrapping_add);
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let tree: BTreeMap<u64, u64> = keys.iter().map(|&k| (k >> 40, k)).collect();
    let text: Vec<String> = keys.iter().take(20_000).map(|k| format!("{k:x}")).collect();
    acc = acc
        .wrapping_add(sorted[sorted.len() / 2])
        .wrapping_add(tree.len() as u64)
        .wrapping_add(text.iter().map(|s| s.len() as u64).sum::<u64>());
    std::hint::black_box(acc);
}
