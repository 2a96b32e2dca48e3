//! Adaptive occupancy autotuner (closing the loop on §IV.C/§IV.D).
//!
//! The paper fixes the buffer-reuse depth at 3 (`addr-gen(n)` waits for
//! `compute(n−3)`) and sizes buffers for that constant once at startup. Our
//! pipeline traces show that static choice is the binding constraint:
//! `stall.addr-gen.buffer-reuse` is the #1 stall for every app. This module
//! is a deterministic feedback controller that consumes the per-slot
//! [`StallKind`] attribution the scheduler already records, and re-plans the
//! reuse depths (prefetch-data and write-back edges independently) and the
//! chunk size between scheduling windows — bounded by the §IV.D occupancy
//! model so a plan never exceeds what the device can hold
//! ([`bk_gpu::occupancy::max_buffer_sets`]).
//!
//! ## Determinism
//!
//! Every input to a decision is part of the recorded schedule state: window
//! stall totals, window makespans and chunk counts, all derived from the
//! deterministic list scheduler. No wall-clock, no randomness. The same seed
//! therefore reproduces the same re-plan sequence on any thread count, and
//! because re-planning only changes *when* chunks are scheduled — never what
//! they compute — tuned outputs stay bit-identical to untuned runs.
//!
//! ## Controller state machine
//!
//! `Warmup → Searching ⇄ Converged`. The first window is measured without
//! acting (Warmup). While Searching, any window whose reuse-stall fraction
//! exceeds [`AutotuneConfig::stall_threshold`] doubles the depth of the
//! worse-stalling edge (geometric search, clamped to the feasibility cap);
//! a quiet window latches Converged, which also widens the scheduling window
//! to the rest of the wave so a converged run stops paying re-plan drains.
//! A converged controller re-enters Searching if stall returns (e.g. after
//! fault degradation swapped in a shallower graph).

use crate::graph::ShardedSchedule;
use bk_simcore::{ScheduleView, SimTime, StallKind};

/// Consumer stage index of the prefetch-data reuse edge (`addr-gen ↔
/// compute`) in the BigKernel 6-stage graph.
pub const DATA_REUSE_CONSUMER: usize = 3;
/// Consumer stage index of the write-back reuse edge (`compute ↔ wb-apply`).
pub const WB_REUSE_CONSUMER: usize = 5;

/// How the controller picks *which* reuse edge to deepen when a window
/// stalls above threshold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RankBy {
    /// Rank edges by their raw reuse-stall totals (every stalled slot
    /// counts, whether or not the wait bound the makespan).
    #[default]
    StallFraction,
    /// Rank edges by critical-path blame ([`bk_obs::critpath`]): only
    /// waits that sat on the window's bottleneck chain count. Sharper on
    /// windows where one edge stalls often but off the critical path;
    /// falls back to stall totals when no reuse wait is on the path.
    CritBlame,
}

/// Tuner knobs. All thresholds are compared against deterministic simulated
/// quantities, never wall-clock measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct AutotuneConfig {
    /// Chunks per observation window while the controller is not converged.
    /// Each window is scheduled, measured, and may trigger one re-plan.
    pub interval: usize,
    /// Reuse-stall fraction of a window's makespan above which the
    /// controller deepens a reuse edge.
    pub stall_threshold: f64,
    /// Hard cap on either reuse depth, on top of the device feasibility cap.
    pub max_depth: usize,
    /// Lower clamp for chunk-size re-planning.
    pub min_chunk_bytes: u64,
    /// Upper clamp for chunk-size re-planning.
    pub max_chunk_bytes: u64,
    /// Which signal ranks the two reuse edges when deepening.
    pub rank_by: RankBy,
}

impl Default for AutotuneConfig {
    fn default() -> Self {
        AutotuneConfig {
            interval: 4,
            stall_threshold: 0.10,
            max_depth: 32,
            min_chunk_bytes: 64 * 1024,
            max_chunk_bytes: 4 * 1024 * 1024,
            rank_by: RankBy::StallFraction,
        }
    }
}

impl AutotuneConfig {
    /// Panic on nonsensical knobs (mirrors `BigKernelConfig::validate`).
    pub fn validate(&self) {
        assert!(self.interval >= 1, "autotune interval must be >= 1");
        assert!(
            self.stall_threshold.is_finite() && (0.0..1.0).contains(&self.stall_threshold),
            "stall threshold must be in [0, 1)"
        );
        assert!(self.max_depth >= 1, "max depth must be >= 1");
        assert!(
            self.min_chunk_bytes >= 1 && self.min_chunk_bytes <= self.max_chunk_bytes,
            "chunk-size clamps must satisfy 1 <= min <= max"
        );
    }
}

/// The current plan: everything the tuner controls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TunePlan {
    /// Depth of the prefetch-data reuse edge (`addr-gen ↔ compute`).
    pub data_depth: usize,
    /// Depth of the write-back reuse edge (`compute ↔ wb-apply`).
    pub wb_depth: usize,
    /// Input bytes per chunk (per thread-block slice granularity is applied
    /// by the pipeline when it re-chunks a wave).
    pub chunk_bytes: u64,
}

/// Controller state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TunerState {
    /// Measuring the first window before acting.
    Warmup,
    /// Actively deepening reuse edges while stall persists.
    Searching,
    /// Stall below threshold; windows widen to the rest of the wave.
    Converged,
}

/// What one scheduling window looked like — the controller's whole input.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowFeedback {
    /// Chunks scheduled in this window.
    pub chunks: usize,
    /// Window makespan across the concurrent device shards.
    pub makespan: SimTime,
    /// Stall attributed to the prefetch-data reuse edge.
    pub data_reuse_stall: SimTime,
    /// Stall attributed to the write-back reuse edge.
    pub wb_reuse_stall: SimTime,
    /// Prefetch-data reuse waits that sat on the window's critical path
    /// (zero unless produced by [`WindowFeedback::from_sharded_with_blame`]).
    pub data_reuse_crit: SimTime,
    /// Write-back reuse waits that sat on the window's critical path.
    pub wb_reuse_crit: SimTime,
}

impl WindowFeedback {
    /// Extract reuse-stall attribution from a scheduled window. Walks every
    /// slot of every device shard and buckets [`StallKind::Reuse`] stalls by
    /// the consumer stage of the winning edge; the write-back consumer
    /// ([`WB_REUSE_CONSUMER`]) is split out, everything else counts as
    /// prefetch-data stall (this also covers degraded graphs whose reuse
    /// edges name other consumers).
    pub fn from_sharded(sharded: &ShardedSchedule) -> Self {
        let mut data = SimTime::ZERO;
        let mut wb = SimTime::ZERO;
        for shard in sharded.shards() {
            let sched = &shard.sched;
            for c in 0..sched.num_chunks() {
                for s in 0..sched.num_stages() {
                    let meta = sched.slot_meta(c, s);
                    if let Some(StallKind::Reuse { consumer }) = meta.kind {
                        // `% 6` folds fused multi-pass graphs (pass p's
                        // write-back consumer sits at p*6 + 5) onto the
                        // 6-stage role; a no-op for every ≤6-stage graph.
                        if consumer % 6 == WB_REUSE_CONSUMER {
                            wb += meta.stall;
                        } else {
                            data += meta.stall;
                        }
                    }
                }
            }
        }
        WindowFeedback {
            chunks: sharded.num_chunks(),
            makespan: sharded.makespan(),
            data_reuse_stall: data,
            wb_reuse_stall: wb,
            ..WindowFeedback::default()
        }
    }

    /// [`Self::from_sharded`], additionally charging each reuse edge for
    /// the waits that sat on the window's *critical path* (the bottleneck
    /// shard's chain of binding constraints — see [`bk_obs::critpath`]).
    /// Feeds [`RankBy::CritBlame`]: a frequently-stalling edge whose waits
    /// are hidden behind a slower resource gets no credit.
    pub fn from_sharded_with_blame(sharded: &ShardedSchedule) -> Self {
        let mut fb = Self::from_sharded(sharded);
        let Some(bottleneck) =
            sharded
                .shards()
                .iter()
                .fold(None::<&crate::graph::Shard>, |best, s| match best {
                    Some(b) if b.sched.makespan() >= s.sched.makespan() => Some(b),
                    _ => Some(s),
                })
        else {
            return fb;
        };
        for seg in bk_obs::critpath::critical_path(&bottleneck.sched) {
            if let bk_obs::critpath::EdgeKind::Reuse { consumer } = seg.entered {
                if consumer % 6 == WB_REUSE_CONSUMER {
                    fb.wb_reuse_crit += seg.wait;
                } else {
                    fb.data_reuse_crit += seg.wait;
                }
            }
        }
        fb
    }

    /// Fraction of the window makespan lost to reuse stall (0 when empty).
    pub fn reuse_fraction(&self) -> f64 {
        let span = self.makespan.secs();
        if span <= 0.0 {
            return 0.0;
        }
        (self.data_reuse_stall.secs() + self.wb_reuse_stall.secs()) / span
    }
}

/// The feedback controller. One per run; fed after every scheduling window.
#[derive(Clone, Debug)]
pub struct Autotuner {
    cfg: AutotuneConfig,
    state: TunerState,
    plan: TunePlan,
    /// Device feasibility cap from `gpu::occupancy::max_buffer_sets`.
    feasible_depth: usize,
    retunes: u64,
    frozen: bool,
}

impl Autotuner {
    /// A tuner starting from the statically-configured plan. `feasible_depth`
    /// is the occupancy-model cap on buffer sets per active block; the tuner
    /// never plans past `min(feasible_depth, cfg.max_depth)`.
    pub fn new(cfg: AutotuneConfig, initial: TunePlan, feasible_depth: usize) -> Self {
        cfg.validate();
        assert!(initial.data_depth >= 1 && initial.wb_depth >= 1);
        Autotuner {
            cfg,
            state: TunerState::Warmup,
            plan: initial,
            feasible_depth: feasible_depth.max(1),
            retunes: 0,
            frozen: false,
        }
    }

    /// The plan currently in force.
    pub fn plan(&self) -> TunePlan {
        self.plan
    }

    /// Current controller state.
    pub fn state(&self) -> TunerState {
        self.state
    }

    /// Re-plans issued so far.
    pub fn retunes(&self) -> u64 {
        self.retunes
    }

    /// The effective depth ceiling: device feasibility ∧ configured cap.
    pub fn depth_cap(&self) -> usize {
        self.feasible_depth.min(self.cfg.max_depth).max(1)
    }

    /// How many chunks the next scheduling window should cover. While the
    /// controller is measuring or searching this is the configured interval;
    /// once converged the window widens to the rest of the wave so a settled
    /// run stops paying pipeline-drain overhead at window boundaries.
    pub fn window_len(&self) -> usize {
        match self.state {
            TunerState::Converged => usize::MAX,
            _ => self.cfg.interval,
        }
    }

    /// Feed one window's measurements. Returns the new plan if the
    /// controller decided to re-plan the reuse depths, `None` otherwise.
    pub fn observe(&mut self, fb: &WindowFeedback) -> Option<TunePlan> {
        if self.frozen {
            return None;
        }
        let frac = fb.reuse_fraction();
        match self.state {
            TunerState::Warmup => {
                self.state = TunerState::Searching;
                None
            }
            TunerState::Searching => {
                if frac <= self.cfg.stall_threshold {
                    self.state = TunerState::Converged;
                    return None;
                }
                let cap = self.depth_cap();
                let deepen_data = match self.cfg.rank_by {
                    RankBy::StallFraction => fb.data_reuse_stall >= fb.wb_reuse_stall,
                    // No reuse wait on the critical path (pure resource /
                    // dataflow window): fall back to the raw totals.
                    RankBy::CritBlame
                        if fb.data_reuse_crit.is_zero() && fb.wb_reuse_crit.is_zero() =>
                    {
                        fb.data_reuse_stall >= fb.wb_reuse_stall
                    }
                    RankBy::CritBlame => fb.data_reuse_crit >= fb.wb_reuse_crit,
                };
                if deepen_data && self.plan.data_depth < cap {
                    self.plan.data_depth = (self.plan.data_depth * 2).min(cap);
                } else if self.plan.wb_depth < cap {
                    self.plan.wb_depth = (self.plan.wb_depth * 2).min(cap);
                } else if self.plan.data_depth < cap {
                    self.plan.data_depth = (self.plan.data_depth * 2).min(cap);
                } else {
                    // Both edges at the cap and still stalling: nothing left
                    // to trade — stop churning.
                    self.state = TunerState::Converged;
                    return None;
                }
                self.retunes += 1;
                Some(self.plan)
            }
            TunerState::Converged => {
                if frac > self.cfg.stall_threshold {
                    // Stall returned (bigger chunks, degraded graph...):
                    // resume the search on the next window.
                    self.state = TunerState::Searching;
                }
                None
            }
        }
    }

    /// Wave-boundary chunk-size re-plan. Buffers can be swapped between
    /// windows, but the chunk size only changes where no chunk is in flight:
    /// at a wave boundary. `prev_wave_chunks` is how many chunks the
    /// finished wave produced; too few chunks to fill the reuse pipeline
    /// halve the chunk size, an excessive chunk count doubles it. Returns
    /// the new plan if the chunk size changed.
    pub fn plan_wave(&mut self, prev_wave_chunks: usize) -> Option<TunePlan> {
        if self.frozen || self.state == TunerState::Warmup {
            return None;
        }
        let depth = self.plan.data_depth.max(self.plan.wb_depth);
        let bytes = self.plan.chunk_bytes;
        let next = if prev_wave_chunks < 2 * depth + 2 {
            (bytes / 2).max(self.cfg.min_chunk_bytes)
        } else if prev_wave_chunks > 64 * depth {
            (bytes * 2).min(self.cfg.max_chunk_bytes)
        } else {
            bytes
        };
        if next == bytes {
            return None;
        }
        self.plan.chunk_bytes = next;
        self.retunes += 1;
        Some(self.plan)
    }

    /// Distribution-drift hook for the streaming runner
    /// (`crate::stream`): the per-window §IV.A access-pattern fingerprint
    /// changed beyond the configured threshold, so plans tuned for the old
    /// distribution may no longer fit. A converged controller re-opens its
    /// search (narrowing the scheduling window back to the configured
    /// interval); a warming-up or already-searching one is unaffected. The
    /// current plan is kept — re-detection questions the plan's *fitness*,
    /// not its legality — and a frozen controller (serial degradation)
    /// stays frozen. Returns whether the search was re-opened.
    pub fn on_drift(&mut self) -> bool {
        if self.frozen || self.state != TunerState::Converged {
            return false;
        }
        self.state = TunerState::Searching;
        true
    }

    /// Fault-degradation hook: the fault layer swapped the active graph.
    /// Level 1 (double-buffered fallback) adopts that graph's depth-1 edges
    /// as the current plan and resumes searching *from the degraded graph* —
    /// retune, don't reset. Level 2 (serial) has no reuse edges to tune, so
    /// the controller freezes. Returns the adopted plan when it changed.
    pub fn on_degraded(&mut self, level: usize) -> Option<TunePlan> {
        if level >= 2 {
            self.frozen = true;
            self.state = TunerState::Converged;
            return None;
        }
        let adopted = TunePlan {
            data_depth: 1,
            wb_depth: 1,
            chunk_bytes: self.plan.chunk_bytes,
        };
        self.state = TunerState::Searching;
        if adopted == self.plan {
            return None;
        }
        self.plan = adopted;
        Some(adopted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn tuner(cap: usize) -> Autotuner {
        Autotuner::new(
            AutotuneConfig::default(),
            TunePlan {
                data_depth: 3,
                wb_depth: 3,
                chunk_bytes: 256 * 1024,
            },
            cap,
        )
    }

    fn stalled(data: f64, wb: f64) -> WindowFeedback {
        WindowFeedback {
            chunks: 4,
            makespan: t(1.0),
            data_reuse_stall: t(data),
            wb_reuse_stall: t(wb),
            ..WindowFeedback::default()
        }
    }

    #[test]
    fn crit_blame_ranking_overrides_raw_stall_totals() {
        let cfg = AutotuneConfig {
            rank_by: RankBy::CritBlame,
            ..AutotuneConfig::default()
        };
        let mut a = Autotuner::new(
            cfg,
            TunePlan {
                data_depth: 3,
                wb_depth: 3,
                chunk_bytes: 256 * 1024,
            },
            32,
        );
        a.observe(&stalled(0.9, 0.0)); // warmup
                                       // Raw totals say the data edge is worse, but only the wb edge's
                                       // waits sat on the critical path: blame mode deepens wb.
        let fb = WindowFeedback {
            data_reuse_crit: t(0.0),
            wb_reuse_crit: t(0.3),
            ..stalled(0.5, 0.1)
        };
        let p = a.observe(&fb).expect("should retune");
        assert_eq!((p.data_depth, p.wb_depth), (3, 6));
        // With no blame recorded it falls back to the raw comparison.
        let p = a.observe(&stalled(0.5, 0.1)).expect("should retune");
        assert_eq!((p.data_depth, p.wb_depth), (6, 6));
    }

    #[test]
    fn warmup_measures_without_acting() {
        let mut a = tuner(32);
        assert_eq!(a.state(), TunerState::Warmup);
        assert_eq!(a.observe(&stalled(0.9, 0.0)), None);
        assert_eq!(a.state(), TunerState::Searching);
        assert_eq!(a.plan().data_depth, 3);
    }

    #[test]
    fn searching_doubles_the_worse_edge_until_quiet() {
        let mut a = tuner(32);
        a.observe(&stalled(0.9, 0.0)); // warmup
        let p = a.observe(&stalled(0.5, 0.1)).expect("should retune");
        assert_eq!((p.data_depth, p.wb_depth), (6, 3));
        let p = a.observe(&stalled(0.1, 0.4)).expect("wb edge worse now");
        assert_eq!((p.data_depth, p.wb_depth), (6, 6));
        assert_eq!(a.observe(&stalled(0.01, 0.01)), None);
        assert_eq!(a.state(), TunerState::Converged);
        assert_eq!(a.retunes(), 2);
    }

    #[test]
    fn depth_never_exceeds_feasibility_cap() {
        let mut a = tuner(5);
        a.observe(&stalled(0.9, 0.0)); // warmup
        assert_eq!(a.observe(&stalled(0.9, 0.0)).unwrap().data_depth, 5);
        // Data edge capped; the next re-plan falls through to the wb edge.
        assert_eq!(a.observe(&stalled(0.9, 0.0)).unwrap().wb_depth, 5);
        // Both capped: converge rather than churn.
        assert_eq!(a.observe(&stalled(0.9, 0.0)), None);
        assert_eq!(a.state(), TunerState::Converged);
    }

    #[test]
    fn converged_widens_window_and_reopens_on_renewed_stall() {
        let mut a = tuner(32);
        a.observe(&stalled(0.9, 0.0)); // warmup
        a.observe(&stalled(0.0, 0.0)); // quiet → converged
        assert_eq!(a.state(), TunerState::Converged);
        assert_eq!(a.window_len(), usize::MAX);
        assert_eq!(a.observe(&stalled(0.5, 0.0)), None); // reopens, no act yet
        assert_eq!(a.state(), TunerState::Searching);
        assert_eq!(a.window_len(), AutotuneConfig::default().interval);
    }

    #[test]
    fn wave_replanning_halves_chunks_that_cannot_fill_the_pipeline() {
        let mut a = tuner(32);
        a.observe(&stalled(0.9, 0.0)); // leave warmup
                                       // 13-chunk wave at depth 3 fills 2·3+2 = 8 slots: no change.
        assert_eq!(a.plan_wave(13), None);
        // 4-chunk wave cannot: halve toward more, smaller chunks.
        let p = a.plan_wave(4).expect("should shrink chunks");
        assert_eq!(p.chunk_bytes, 128 * 1024);
        // Clamped at the configured floor.
        a.plan_wave(1);
        assert_eq!(a.plan_wave(1).map(|p| p.chunk_bytes), None);
        assert_eq!(a.plan().chunk_bytes, 64 * 1024);
    }

    #[test]
    fn wave_replanning_doubles_excessively_fine_chunks() {
        let mut a = tuner(32);
        a.observe(&stalled(0.9, 0.0));
        let p = a.plan_wave(1000).expect("should coarsen chunks");
        assert_eq!(p.chunk_bytes, 512 * 1024);
    }

    #[test]
    fn degradation_adopts_the_degraded_graph_and_keeps_tuning() {
        let mut a = tuner(32);
        a.observe(&stalled(0.9, 0.0)); // warmup
        a.observe(&stalled(0.9, 0.0)); // depth 3 → 6
        let p = a.on_degraded(1).expect("adopt level-1 depths");
        assert_eq!((p.data_depth, p.wb_depth), (1, 1));
        assert_eq!(a.state(), TunerState::Searching);
        // The controller now retunes the *degraded* graph upward again.
        assert_eq!(a.observe(&stalled(0.9, 0.0)).unwrap().data_depth, 2);
    }

    #[test]
    fn drift_reopens_a_converged_search_only() {
        let mut a = tuner(32);
        assert!(!a.on_drift(), "warmup is unaffected");
        a.observe(&stalled(0.9, 0.0)); // warmup → searching
        assert!(!a.on_drift(), "searching is unaffected");
        a.observe(&stalled(0.0, 0.0)); // quiet → converged
        assert_eq!(a.state(), TunerState::Converged);
        assert!(a.on_drift(), "converged re-opens");
        assert_eq!(a.state(), TunerState::Searching);
        assert_eq!(a.window_len(), AutotuneConfig::default().interval);
        // Frozen controllers (serial degradation) ignore drift.
        a.on_degraded(2);
        assert!(!a.on_drift());
    }

    #[test]
    fn serial_degradation_freezes_the_controller() {
        let mut a = tuner(32);
        a.observe(&stalled(0.9, 0.0));
        assert_eq!(a.on_degraded(2), None);
        assert_eq!(a.observe(&stalled(0.9, 0.9)), None);
        assert_eq!(a.plan_wave(1), None);
        assert_eq!(a.window_len(), usize::MAX);
    }

    #[test]
    fn decisions_are_pure_functions_of_feedback() {
        // Two tuners fed the same sequence make identical decisions —
        // the determinism contract in miniature.
        let feed = [
            stalled(0.9, 0.0),
            stalled(0.4, 0.5),
            stalled(0.2, 0.0),
            stalled(0.0, 0.0),
            stalled(0.6, 0.6),
        ];
        let (mut a, mut b) = (tuner(32), tuner(32));
        for fb in &feed {
            assert_eq!(a.observe(fb), b.observe(fb));
            assert_eq!(a.plan(), b.plan());
            assert_eq!(a.state(), b.state());
        }
    }

    #[test]
    #[should_panic(expected = "interval must be >= 1")]
    fn zero_interval_rejected() {
        let cfg = AutotuneConfig {
            interval: 0,
            ..AutotuneConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "stall threshold")]
    fn threshold_of_one_rejected() {
        let cfg = AutotuneConfig {
            stall_threshold: 1.0,
            ..AutotuneConfig::default()
        };
        cfg.validate();
    }
}
