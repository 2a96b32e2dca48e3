//! # bk-apps — the six evaluation applications (paper §V)
//!
//! Each application module provides a seeded synthetic data generator (the
//! paper's datasets are proprietary — see DESIGN.md §2), a [`StreamKernel`]
//! implementation whose mapped-data access proportions match the paper's
//! Table I, and a verifier comparing every implementation's output against a
//! pure-Rust reference:
//!
//! | module | app | data | record | read | modified |
//! |---|---|---|---|---|---|
//! | [`kmeans`] | K-means | fixed 64 B | reads x,y,z,w | 50% | 12.5% |
//! | [`wordcount`] | Word Count | variable | whole text | 100% | 0% |
//! | [`netflix`] | Netflix | fixed 80 B | rating-pair fields | 30% | 0% |
//! | [`opinion`] | Opinion Finder | fixed 256 B | ts + text prefix | 73% | 0% |
//! | [`dna`] | DNA Assembly | fixed 128 B | id + k-mer window | 36% | 0% |
//! | [`affinity`] | MasterCard Affinity | variable | whole text | 100% | 0% |
//! | [`affinity`] | … (indexed) | variable+index | card+merchant fields | ~25% | 0% |
//!
//! [`harness`] builds the machine a [`HarnessConfig`] describes, runs any app
//! on it under all five implementations (plus the Fig. 5 ablation variants)
//! on identical data, and verifies every run's output ([`run_checked`]).
//! [`streaming`] feeds any app through the continuous ingestion runner and
//! adds drifting variants of Word Count, FilterCount and K-means whose
//! distribution or record schema shifts mid-stream (DESIGN.md §16).
//!
//! [`StreamKernel`]: bk_runtime::StreamKernel

pub mod affinity;
pub mod dna;
pub mod filtercount;
pub mod harness;
pub mod kmeans;
pub mod netflix;
pub mod opinion;
pub mod streaming;
pub mod util;
pub mod wordcount;

pub use harness::{
    build_machine, run_all, run_checked, run_implementation, AppSpec, BenchApp, Checked,
    HarnessConfig, Implementation, Instance,
};
pub use streaming::{
    drifting_apps, run_streamed, run_streamed_at_rate, run_streamed_checked, DriftingFilterCount,
    DriftingKMeans, DriftingWordCount,
};
