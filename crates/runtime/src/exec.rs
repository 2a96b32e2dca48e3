//! Per-block execution of the pipeline stages (functional simulation +
//! cost accounting), split out of the pipeline runner so `pipeline.rs` is a
//! thin configuration layer over the stage-graph executor.
//!
//! Everything here implements the *work* of a chunk — address generation,
//! assembly, DMA, the kernel body, write-back — under the two-phase block
//! algorithm described in [`crate::pipeline`]'s module docs (pure costing
//! phases that may run on the rayon pool, ordered effect phases that keep
//! results bit-identical to the sequential block schedule). Scheduling the
//! resulting stage durations is the stage graph's job ([`crate::graph`]).
//!
//! Functional execution always uses the primary device's memory image
//! (`machine.gmem` is one unified image shared by all simulated devices)
//! and runs in global chunk order — multi-GPU sharding is a timing-level
//! decision, so outputs are identical for any device count.

use crate::addr::LaneAddrs;
use crate::assembly::{assemble, AssemblyOutput, GatherConfig};
use crate::config::BigKernelConfig;
use crate::ctx::{AddrGenCtx, ComputeCtx, DevMemory, LiveMem, LoggedMem};
use crate::fusion::PassIo;
use crate::kernel::{LaunchConfig, StreamKernel};
use crate::layout::ChunkLayout;
use crate::machine::Machine;
use crate::pool::{AddrGenScratch, Compression};
use crate::stream::{StreamArray, StreamId};
use bk_gpu::{BlockLog, BlockSim, DeviceSpec, KernelCost, ReplayOutcome, WARP_SIZE};
use bk_host::{ArenaRef, CacheSim, CpuCost, DmaDirection, PinnedArena};
use bk_obs::MetricsRegistry;
use bk_simcore::SimTime;
use rayon::prelude::*;
use std::ops::Range;

/// Per-active-block simulation state, persistent across chunks and waves:
/// the warp aligner (with its reusable trace arena), this block slot's LLC
/// model (one assembly thread per block, so one cache each), and the pooled
/// addr-gen/assembly scratch whose vectors cycle chunk to chunk.
pub(crate) struct BlockSlot {
    pub(crate) sim: BlockSim,
    pub(crate) llc: CacheSim,
    pub(crate) scratch: AddrGenScratch,
    /// Reusable write-log backing storage (maps, op and mirror buffers).
    pub(crate) log: bk_gpu::LogScratch,
}

impl BlockSlot {
    pub(crate) fn new() -> Self {
        BlockSlot {
            sim: BlockSim::new(),
            llc: CacheSim::xeon_llc(),
            scratch: AddrGenScratch::new(),
            log: bk_gpu::LogScratch::default(),
        }
    }

    /// Return a finished chunk's pure-phase vectors to this slot's pool so
    /// the next chunk allocates nothing. Resetting the arena recycles the
    /// chunk's pinned prefetch window (and invalidates its `ArenaRef`s, so
    /// any stale read past this point panics instead of aliasing).
    fn recycle(&mut self, pure: BlockPure) {
        if let BlockPure::Assembled(pure) = pure {
            self.scratch.pool.give_lanes(pure.lane_addrs);
            self.scratch.pool.give_output(pure.out);
        }
        self.scratch.pool.arena.reset();
    }
}

/// Address-generation metrics accumulated per block in the pure phase and
/// folded into the run metrics in block order.
#[derive(Default)]
struct AddrCounts {
    entries: u64,
    patterns_found: u64,
    segmented_found: u64,
    patterns_missed: u64,
}

/// How a chunk's blocks stage their input on the device.
#[derive(Clone, Copy)]
pub(crate) enum ChunkMode<'a> {
    /// The full pipeline: address generation, assembly into the prefetch
    /// layout and write-back through the write-value buffer. `io` carries a
    /// fused pass's byte-cost elision (`None` outside fused runs).
    Assembled {
        cfg: &'a BigKernelConfig,
        io: Option<&'a PassIo>,
    },
    /// The overlap-only variant (`transfer_all`): each block's lane slices
    /// are staged verbatim and modified in place; `aux` holds the secondary
    /// streams staged whole to device buffers.
    Staged {
        aux: &'a [(StreamId, bk_gpu::BufferId)],
    },
}

impl<'a> ChunkMode<'a> {
    fn io(self) -> Option<&'a PassIo> {
        match self {
            ChunkMode::Assembled { io, .. } => io,
            ChunkMode::Staged { .. } => None,
        }
    }
}

/// What every block of one chunk shares.
pub(crate) struct ChunkJob<'a> {
    pub(crate) kernel: &'a dyn StreamKernel,
    pub(crate) streams: &'a [StreamArray],
    pub(crate) mode: ChunkMode<'a>,
    pub(crate) launch: LaunchConfig,
}

/// Assembled-mode output of stages 1–2.
pub(crate) struct AssembledPure {
    lane_addrs: Vec<LaneAddrs>,
    ag_cost: KernelCost,
    out: AssemblyOutput,
    counts: AddrCounts,
    addr_bytes: u64,
}

/// Overlap-only output of the staging copy.
pub(crate) struct StagedPure {
    layout: ChunkLayout,
    bytes: ArenaRef,
}

/// One block's pure-phase output (no shared-simulator mutation). One value
/// per active block, held in its cell for the chunk: boxing the large
/// variant would only add a heap allocation per block per chunk.
#[allow(clippy::large_enum_variant)]
pub(crate) enum BlockPure {
    Assembled(AssembledPure),
    Staged(StagedPure),
}

/// Per-block output of the compute stage.
pub(crate) struct BlockComputed {
    comp_cost: KernelCost,
    bytes_read: u64,
    bytes_written: u64,
    /// Per-lane count of stream writes performed (assembled mode).
    writes_performed: Vec<usize>,
    /// Any in-place modification of the *primary* stream (read by the
    /// overlap-only write-back).
    any_writes: bool,
    /// Bitmask of aux-staged secondary streams written (overlap-only mode;
    /// bit = table index, see [`ComputeCtx::set_aux`]).
    aux_dirty: u64,
    /// The block's logged device effects, pending ordered replay. `None`
    /// after replay, or when the block executed live.
    effects: Option<bk_gpu::BlockEffects>,
}

/// One active block's work for the current chunk.
pub(crate) struct WaveCell<'s> {
    pub(crate) block: u32,
    pub(crate) slices: Vec<Range<u64>>,
    pub(crate) slot: &'s mut BlockSlot,
    pub(crate) pure: Option<BlockPure>,
    pub(crate) data_buf: Option<bk_gpu::BufferId>,
    pub(crate) write_buf: Option<bk_gpu::BufferId>,
    pub(crate) computed: Option<BlockComputed>,
}

/// Per-chunk cost accumulators shared by every execution path.
pub(crate) struct ChunkCosts {
    pub(crate) ag: KernelCost,
    pub(crate) asm: CpuCost,
    pub(crate) xfer: SimTime,
    /// H2D transfer count (each pays the completion-flag copy).
    pub(crate) h2d_flags: u64,
    /// H2D transfers with a nonzero payload (each pays the DMA setup
    /// latency).
    pub(crate) h2d_lats: u64,
    pub(crate) comp: KernelCost,
    pub(crate) wb_bytes: u64,
    pub(crate) wb: CpuCost,
    pub(crate) addr_bytes: u64,
    /// Union of per-block aux-stream dirty masks (overlap-only mode).
    pub(crate) aux_dirty: u64,
}

impl ChunkCosts {
    pub(crate) fn new() -> Self {
        ChunkCosts {
            ag: KernelCost::new(),
            asm: CpuCost::new(),
            xfer: SimTime::ZERO,
            h2d_flags: 0,
            h2d_lats: 0,
            comp: KernelCost::new(),
            wb_bytes: 0,
            wb: CpuCost::new(),
            addr_bytes: 0,
            aux_dirty: 0,
        }
    }
}

/// Run `f` over every cell — on the rayon pool when `parallel`, serially
/// otherwise. Both orders produce identical cells: `f` touches only its own
/// cell plus shared read-only state.
fn for_each_cell<T: Send>(parallel: bool, cells: &mut [T], f: impl Fn(&mut T) + Sync) {
    if parallel && cells.len() > 1 {
        cells.par_iter_mut().for_each(&f);
    } else {
        for c in cells.iter_mut() {
            f(c);
        }
    }
}

/// Tally one committed lane stream into the per-block counts (the former
/// `compress_stream` bookkeeping; the decision itself lives in
/// [`crate::pool::AddrGenScratch`]).
fn tally(counts: &mut AddrCounts, c: Compression) {
    match c {
        Compression::Pattern => counts.patterns_found += 1,
        Compression::Segmented => counts.segmented_found += 1,
        Compression::Missed => counts.patterns_missed += 1,
        Compression::Raw => {}
    }
}

/// Pure phase, stages 1–2: address generation + compression + assembly
/// against this block's own LLC. Reads shared state immutably; safe to run
/// concurrently across blocks.
///
/// The whole phase runs out of the slot's pooled scratch: lanes record into
/// the reusable [`crate::ctx::AddrRecorder`] (with §IV.A detection running
/// online as entries are emitted), committed streams and the assembly
/// output draw their vectors from the slot's [`crate::pool::StreamPool`],
/// and everything returns there when the chunk retires — so steady-state
/// chunks allocate nothing.
fn block_pure_bigkernel(
    machine: &Machine,
    kernel: &dyn StreamKernel,
    streams: &[StreamArray],
    slices: &[Range<u64>],
    tpb: u32,
    cfg: &BigKernelConfig,
    slot: &mut BlockSlot,
) -> AssembledPure {
    let mut ag_cost = KernelCost::new();
    let mut counts = AddrCounts::default();
    let BlockSlot {
        sim,
        llc,
        scratch,
        log: _,
    } = slot;
    let mut lane_addrs: Vec<LaneAddrs> = scratch.pool.take_lanes();
    {
        let gmem = &machine.gmem;
        let counts = &mut counts;
        let lane_addrs = &mut lane_addrs;
        let scratch = &mut *scratch;
        bk_gpu::run_block_lanes(machine.gpu(), sim, tpb, &mut ag_cost, |lane, trace| {
            scratch.begin_lane(cfg.pattern_recognition);
            {
                let mut ctx = AddrGenCtx::recording(gmem, trace, &mut scratch.recorder);
                kernel.addresses(&mut ctx, slices[lane].clone());
            }
            counts.entries += (scratch.recorder.reads_len() + scratch.recorder.writes_len()) as u64;
            let (reads, rc) = scratch.commit_reads(cfg);
            let (writes, wc) = scratch.commit_writes(cfg);
            tally(counts, rc);
            tally(counts, wc);
            lane_addrs.push(LaneAddrs { reads, writes });
        });
    }
    ag_cost.add_barrier(1);
    let addr_bytes: u64 = lane_addrs.iter().map(|l| l.encoded_bytes()).sum();
    let out = assemble(
        &machine.hmem,
        streams,
        &lane_addrs,
        GatherConfig::from_config(cfg),
        llc,
        &mut scratch.pool,
    );
    AssembledPure {
        lane_addrs,
        ag_cost,
        out,
        counts,
        addr_bytes,
    }
}

/// Fold one block's pure-phase results into chunk costs and metrics (block
/// order).
fn fold_pure(pure: &AssembledPure, costs: &mut ChunkCosts, metrics: &mut MetricsRegistry) {
    costs.ag.merge(&pure.ag_cost);
    metrics.add("addr.entries", pure.counts.entries);
    metrics.add("addr.patterns_found", pure.counts.patterns_found);
    metrics.add("addr.segmented_found", pure.counts.segmented_found);
    metrics.add("addr.patterns_missed", pure.counts.patterns_missed);
    costs.addr_bytes += pure.addr_bytes;
    metrics.add("addr.encoded_bytes", pure.addr_bytes);
    metrics.add("pcie.d2h_bytes", pure.addr_bytes);
    costs.asm.merge(&pure.out.cost);
    metrics.add("assembly.gathered_bytes", pure.out.gathered_bytes);
    metrics.add("assembly.padding_bytes", pure.out.padding_bytes);
    metrics.add("assembly.cache_hits", pure.out.cost.cache_hits);
    metrics.add("assembly.cache_misses", pure.out.cost.cache_misses);
    if pure.out.locality_order_used {
        metrics.incr("assembly.locality_order_chunks");
    }
    metrics.add("assembly.simd_runs", pure.out.simd_runs);
    metrics.add("assembly.scalar_runs", pure.out.scalar_runs);
    metrics.add("assembly.cache_blocked_warps", pure.out.cache_blocked_warps);
    metrics.merge_hist("hist.assembly.run_bytes", &pure.out.run_bytes);
    metrics.add("stream.bytes_read_unique", pure.out.gathered_bytes);
}

/// Ordered phase, stage 3: allocate the block's device buffers and DMA the
/// assembled bytes in.
///
/// Under a fusion plan (`io`), reads of device-resident streams — proven
/// covered by an earlier fused pass's writes — never cross PCIe in the
/// modeled system, so their bytes are elided from the transfer *cost* and
/// counted under `fusion.h2d_saved_bytes` instead. The functional `dma_in`
/// still carries the full assembled buffer (the simulator's unified memory
/// image), which is exactly what keeps fused outputs bit-identical.
fn stage_transfer(
    machine: &mut Machine,
    pure: &AssembledPure,
    arena: &PinnedArena,
    io: Option<&PassIo>,
    costs: &mut ChunkCosts,
    metrics: &mut MetricsRegistry,
) -> (bk_gpu::BufferId, Option<bk_gpu::BufferId>) {
    let bytes = arena.bytes(&pure.out.bytes);
    let buf_len = pure.out.layout.total_len().max(1);
    let data_buf = machine.gmem.alloc(buf_len);
    machine.gmem.dma_in(data_buf, 0, bytes);
    let mut resident = 0u64;
    if let Some(io) = io.filter(|io| io.any_resident()) {
        for l in &pure.lane_addrs {
            for e in l.reads.iter() {
                if io
                    .resident_reads
                    .get(e.stream.0 as usize)
                    .copied()
                    .unwrap_or(false)
                {
                    resident += e.width as u64;
                }
            }
        }
    }
    let charged = (bytes.len() as u64).saturating_sub(resident);
    costs.xfer += machine
        .link
        .dma_time_with_flag(DmaDirection::HostToDevice, charged);
    costs.h2d_flags += 1;
    if charged > 0 {
        costs.h2d_lats += 1;
    }
    metrics.add("pcie.h2d_bytes", charged);
    if (bytes.len() as u64) > charged {
        metrics.add("fusion.h2d_saved_bytes", bytes.len() as u64 - charged);
    }
    let write_buf = pure
        .out
        .write_layout
        .as_ref()
        .map(|wl| machine.gmem.alloc(wl.total_len().max(1)));
    (data_buf, write_buf)
}

/// Fold one block's compute results into chunk costs and metrics (block
/// order).
fn fold_computed(computed: &BlockComputed, costs: &mut ChunkCosts, metrics: &mut MetricsRegistry) {
    costs.comp.merge(&computed.comp_cost);
    costs.aux_dirty |= computed.aux_dirty;
    metrics.add("stream.bytes_read", computed.bytes_read);
    metrics.add("stream.bytes_written", computed.bytes_written);
}

/// Ordered phase, stages 5–6 of the assembled path.
///
/// Under a fusion plan (`io`), writes to scratch streams consumed entirely
/// by later fused passes stay device-resident: their bytes are elided from
/// the write-back transfer/apply *cost* (counted under
/// `fusion.d2h_saved_bytes`), while the functional scatter into host memory
/// still runs — see [`stage_transfer`] for why that keeps outputs
/// bit-identical.
#[allow(clippy::too_many_arguments)]
fn writeback_assembled(
    machine: &mut Machine,
    streams: &[StreamArray],
    pure: &AssembledPure,
    write_buf: Option<bk_gpu::BufferId>,
    computed: &BlockComputed,
    io: Option<&PassIo>,
    llc: &mut CacheSim,
    costs: &mut ChunkCosts,
    metrics: &mut MetricsRegistry,
) {
    if let (Some(wl), Some(wb)) = (pure.out.write_layout.as_ref(), write_buf) {
        let total = wl.total_len();
        let mut charged = total;
        if let Some(io) = io.filter(|io| io.any_skipped_writeback()) {
            let mut entry_total = 0u64;
            let mut scratch = 0u64;
            for (lane, l) in pure.lane_addrs.iter().enumerate() {
                let n = computed.writes_performed.get(lane).copied().unwrap_or(0);
                for e in l.writes.iter().take(n) {
                    entry_total += e.width as u64;
                    if io
                        .skip_writeback
                        .get(e.stream.0 as usize)
                        .copied()
                        .unwrap_or(false)
                    {
                        scratch += e.width as u64;
                    }
                }
            }
            // All performed writes scratch → the whole buffer (padding
            // included) stays on the device; a mix elides the scratch
            // entries' bytes only.
            charged = if scratch == entry_total {
                0
            } else {
                total.saturating_sub(scratch)
            };
        }
        costs.wb_bytes += charged;
        metrics.add("pcie.d2h_bytes", charged);
        if total > charged {
            metrics.add("fusion.d2h_saved_bytes", total - charged);
        }
        apply_writeback(
            machine,
            streams,
            &pure.lane_addrs,
            wl,
            wb,
            &computed.writes_performed,
            io,
            &mut costs.wb,
            llc,
        );
    }
}

/// Scatter the chunk's write-buffer values into the mapped host arrays
/// (pipeline stage 6, functional + cost).
#[allow(clippy::too_many_arguments)]
fn apply_writeback(
    machine: &mut Machine,
    streams: &[StreamArray],
    lane_addrs: &[LaneAddrs],
    write_layout: &ChunkLayout,
    write_buf: bk_gpu::BufferId,
    writes_performed: &[usize],
    io: Option<&PassIo>,
    wb_cost: &mut CpuCost,
    llc: &mut CacheSim,
) {
    for (lane, l) in lane_addrs.iter().enumerate() {
        let n = writes_performed[lane];
        let mut perlane_cursor = 0u64;
        for (k, e) in l.writes.iter().take(n).enumerate() {
            let pos = match write_layout {
                ChunkLayout::Interleaved { warps, .. } => {
                    warps[lane / WARP_SIZE].slot(lane % WARP_SIZE, k).0
                }
                ChunkLayout::PerLane { lane_base, .. } => {
                    let p = lane_base[lane] + perlane_cursor;
                    perlane_cursor += e.width as u64;
                    p
                }
                ChunkLayout::Staged { .. } => unreachable!(),
            };
            let Machine {
                ref gmem,
                ref mut hmem,
                ..
            } = *machine;
            let val = gmem.read(write_buf, pos, e.width as usize);
            let arr = &streams[e.stream.0 as usize];
            hmem.write(arr.region, e.offset, val);
            // A fused scratch stream stays device-resident: the host-side
            // scatter above is simulator bookkeeping only, so it carries no
            // apply cost in the modeled system.
            if io.is_some_and(|io| {
                io.skip_writeback
                    .get(e.stream.0 as usize)
                    .copied()
                    .unwrap_or(false)
            }) {
                continue;
            }
            // Cost: sequential read of the landed write buffer + scattered
            // store into the mapped array.
            let (h, m) = llc.access_range(hmem.vaddr(arr.region, e.offset), e.width as u64);
            wb_cost.cache_hits += h;
            wb_cost.cache_misses += m;
            wb_cost.dram_bytes += m * llc.line_bytes() + e.width as u64;
            wb_cost.instructions += 4;
        }
    }
}

/// Pure phase of the overlap-only variant: staging-window layout + host-side
/// gather into a local buffer.
fn block_pure_staged(
    machine: &Machine,
    kernel: &dyn StreamKernel,
    streams: &[StreamArray],
    slices: &[Range<u64>],
    arena: &mut PinnedArena,
) -> StagedPure {
    let primary = &streams[0];
    let halo = kernel.halo_bytes();
    let layout = ChunkLayout::build_staged_slices(slices, halo, primary.len());
    let bytes_ref = arena.alloc_zeroed(layout.total_len() as usize);
    if let ChunkLayout::Staged { segs, .. } = &layout {
        let bytes = arena.bytes_mut(&bytes_ref);
        for (base, range) in segs {
            let src = machine.hmem.read(
                primary.region,
                range.start,
                (range.end - range.start) as usize,
            );
            bytes[*base as usize..*base as usize + src.len()].copy_from_slice(src);
        }
    }
    StagedPure {
        layout,
        bytes: bytes_ref,
    }
}

/// Ordered phase, stage 3 of the overlap-only variant: "assembly" is the
/// plain staging copy (1 read + 1 write per byte, the classical scheme),
/// then the whole window ships over the link.
fn stage_transfer_staged(
    machine: &mut Machine,
    staged: &StagedPure,
    arena: &PinnedArena,
    costs: &mut ChunkCosts,
    metrics: &mut MetricsRegistry,
) -> bk_gpu::BufferId {
    costs
        .asm
        .merge(&CpuCost::streaming(staged.layout.total_len(), 2, 1));
    let data_buf = machine.gmem.alloc(staged.layout.total_len().max(1));
    machine.gmem.dma_in(data_buf, 0, arena.bytes(&staged.bytes));
    costs.xfer += machine
        .link
        .dma_time_with_flag(DmaDirection::HostToDevice, staged.layout.total_len());
    costs.h2d_flags += 1;
    if staged.layout.total_len() > 0 {
        costs.h2d_lats += 1;
    }
    metrics.add("pcie.h2d_bytes", staged.layout.total_len());
    data_buf
}

/// Ordered phase, stages 5–6 of the overlap-only variant: the staged chunk
/// was modified in place; copy each lane's own slice (not the halo) back.
#[allow(clippy::too_many_arguments)]
fn writeback_staged(
    machine: &mut Machine,
    streams: &[StreamArray],
    layout: &ChunkLayout,
    data_buf: bk_gpu::BufferId,
    slices: &[Range<u64>],
    any_writes: bool,
    costs: &mut ChunkCosts,
    metrics: &mut MetricsRegistry,
) {
    if !any_writes {
        return;
    }
    let primary = &streams[0];
    if let ChunkLayout::Staged { segs, lane_seg, .. } = layout {
        let mut copied = 0u64;
        for (lane, sl) in slices.iter().enumerate() {
            if sl.is_empty() {
                continue;
            }
            let (base, range) = &segs[lane_seg[lane]];
            let off_in_seg = base + (sl.start - range.start);
            let len = sl.end - sl.start;
            let bytes = machine.gmem.dma_out(data_buf, off_in_seg, len as usize);
            machine.hmem.write(primary.region, sl.start, &bytes);
            copied += len;
        }
        costs.wb_bytes += copied;
        metrics.add("pcie.d2h_bytes", copied);
        costs.wb.merge(&CpuCost::streaming(copied, 2, 1));
    }
}

/// Pure phase, stages 1–2 in either chunk mode. Reads shared state
/// immutably; safe to run concurrently across blocks.
fn block_pure(
    machine: &Machine,
    job: &ChunkJob<'_>,
    slices: &[Range<u64>],
    slot: &mut BlockSlot,
) -> BlockPure {
    match job.mode {
        ChunkMode::Assembled { cfg, .. } => BlockPure::Assembled(block_pure_bigkernel(
            machine,
            job.kernel,
            job.streams,
            slices,
            job.launch.threads_per_block,
            cfg,
            slot,
        )),
        ChunkMode::Staged { .. } => BlockPure::Staged(block_pure_staged(
            machine,
            job.kernel,
            job.streams,
            slices,
            &mut slot.scratch.pool.arena,
        )),
    }
}

/// Ordered phase, stage 3: fold the block's pure results and DMA its bytes
/// into freshly allocated device buffers.
fn stage_in(
    machine: &mut Machine,
    job: &ChunkJob<'_>,
    cell: &mut WaveCell<'_>,
    costs: &mut ChunkCosts,
    metrics: &mut MetricsRegistry,
) {
    let arena = &cell.slot.scratch.pool.arena;
    let (data_buf, write_buf) = match cell.pure.as_ref().expect("pure phase ran") {
        BlockPure::Assembled(p) => {
            fold_pure(p, costs, metrics);
            stage_transfer(machine, p, arena, job.mode.io(), costs, metrics)
        }
        BlockPure::Staged(s) => (
            stage_transfer_staged(machine, s, arena, costs, metrics),
            None,
        ),
    };
    cell.data_buf = Some(data_buf);
    cell.write_buf = write_buf;
}

/// Stage 4, the kernel body, with device effects going to `mem`: a write
/// log over the chunk-start snapshot or live device memory.
fn compute<M: DevMemory>(
    gpu: &DeviceSpec,
    mut mem: M,
    job: &ChunkJob<'_>,
    cell: &mut WaveCell<'_>,
) -> BlockComputed {
    let aux = match job.mode {
        ChunkMode::Assembled { .. } => &[][..],
        ChunkMode::Staged { aux } => aux,
    };
    let pure = cell.pure.as_ref().expect("pure phase ran");
    let data_buf = cell.data_buf.expect("stage_in ran");
    let write_buf = cell.write_buf;
    let tpb = job.launch.threads_per_block;
    let threads = job.launch.total_threads();
    let mut computed = BlockComputed {
        comp_cost: KernelCost::new(),
        bytes_read: 0,
        bytes_written: 0,
        writes_performed: match pure {
            BlockPure::Assembled(_) => vec![0; tpb as usize],
            BlockPure::Staged(_) => Vec::new(),
        },
        any_writes: false,
        aux_dirty: 0,
        effects: None,
    };
    let (block, slices) = (cell.block, &cell.slices);
    let sim = &mut cell.slot.sim;
    bk_gpu::run_block_lanes(gpu, sim, tpb, &mut computed.comp_cost, |lane, trace| {
        let tid = block * tpb + lane as u32;
        let mut ctx = match pure {
            BlockPure::Assembled(p) => ComputeCtx::assembled_on(
                &mut mem,
                data_buf,
                write_buf,
                &p.out.layout,
                p.out.write_layout.as_ref(),
                &p.lane_addrs[lane],
                lane,
                tid,
                threads,
                trace,
            ),
            BlockPure::Staged(s) => {
                ComputeCtx::staged_on(&mut mem, data_buf, &s.layout, lane, tid, threads, trace)
            }
        }
        .set_aux(aux);
        job.kernel.process(&mut ctx, slices[lane].clone());
        computed.bytes_read += ctx.stream_bytes_read;
        computed.bytes_written += ctx.stream_bytes_written;
        computed.any_writes |= ctx.primary_bytes_written > 0;
        computed.aux_dirty |= ctx.aux_written_mask;
        if let Some(n) = computed.writes_performed.get_mut(lane) {
            *n = ctx.write_count();
        }
    });
    computed.comp_cost.add_barrier(2);
    computed
}

/// [`compute`] against live memory (sequential-capability kernels and
/// conflict re-execution at the block's in-order turn).
fn compute_live(
    machine: &mut Machine,
    job: &ChunkJob<'_>,
    cell: &mut WaveCell<'_>,
) -> BlockComputed {
    let Machine {
        ref devices,
        ref mut gmem,
        ..
    } = *machine;
    compute(&devices[0], LiveMem(gmem), job, cell)
}

/// Ordered phase, stages 5–6: fold the block's compute results, write back
/// to host memory, free its device buffers and return its chunk storage to
/// the slot's pool for the next chunk.
fn retire(
    machine: &mut Machine,
    job: &ChunkJob<'_>,
    cell: &mut WaveCell<'_>,
    costs: &mut ChunkCosts,
    metrics: &mut MetricsRegistry,
) {
    let pure = cell.pure.take().expect("pure phase ran");
    let data_buf = cell.data_buf.take().expect("stage_in ran");
    let done = cell.computed.as_ref().expect("compute ran");
    fold_computed(done, costs, metrics);
    match &pure {
        BlockPure::Assembled(p) => writeback_assembled(
            machine,
            job.streams,
            p,
            cell.write_buf,
            done,
            job.mode.io(),
            &mut cell.slot.llc,
            costs,
            metrics,
        ),
        BlockPure::Staged(s) => writeback_staged(
            machine,
            job.streams,
            &s.layout,
            data_buf,
            &cell.slices,
            done.any_writes,
            costs,
            metrics,
        ),
    }
    machine.gmem.free(data_buf);
    if let Some(wb) = cell.write_buf.take() {
        machine.gmem.free(wb);
    }
    cell.slot.recycle(pure);
}

/// One chunk under the two-phase algorithm, in either chunk mode.
pub(crate) fn run_chunk(
    machine: &mut Machine,
    job: &ChunkJob<'_>,
    cells: &mut [WaveCell<'_>],
    parallel: bool,
    costs: &mut ChunkCosts,
    metrics: &mut MetricsRegistry,
) {
    // Phase A (pure, concurrent): stages 1–2 per block.
    let shared: &Machine = machine;
    for_each_cell(parallel, cells, |cell| {
        cell.pure = Some(block_pure(shared, job, &cell.slices, cell.slot));
    });

    // Phase B (ordered): fold pure results; allocate + DMA in block order so
    // device addresses are schedule-independent.
    for cell in cells.iter_mut() {
        stage_in(machine, job, cell, costs, metrics);
    }

    // Phase C (pure, concurrent): kernel body against each block's write
    // log over the chunk-start snapshot.
    let shared: &Machine = machine;
    for_each_cell(parallel, cells, |cell| {
        let mut log = BlockLog::with_scratch(&shared.gmem, &mut cell.slot.log);
        match cell.pure.as_ref().expect("pure phase ran") {
            // The write buffer is block-private: mirror it so writes commit
            // wholesale on replay. Freshly allocated by the transfer stage
            // and untouched since, so the mirror can skip the snapshot read.
            // The data buffer is also block-private but only read, so
            // snapshot reads need no mirror.
            BlockPure::Assembled(_) => {
                if let Some(wb) = cell.write_buf {
                    log.register_private_zeroed(wb);
                }
            }
            // The staged chunk itself is a private mirror: in-place
            // modifications commit wholesale on replay.
            BlockPure::Staged(_) => log.register_private(cell.data_buf.expect("stage_in ran")),
        }
        let mut done = compute(shared.gpu(), LoggedMem(&mut log), job, cell);
        done.effects = Some(log.finish_into(&mut cell.slot.log));
        cell.computed = Some(done);
    });

    // Phase D (ordered): replay effects in block order; a conflicting block
    // re-executes live at its turn. Then write-back, frees and recycling.
    for cell in cells.iter_mut() {
        let effects = cell
            .computed
            .as_mut()
            .and_then(|c| c.effects.take())
            .expect("logged compute records effects");
        let outcome = effects.replay(&mut machine.gmem);
        effects.reclaim(&mut cell.slot.log);
        if outcome == ReplayOutcome::Conflict {
            metrics.incr("parallel.replay_conflicts");
            cell.computed = Some(compute_live(machine, job, cell));
        }
        retire(machine, job, cell, costs, metrics);
    }
}

/// Legacy per-block path (sequential-capability kernels): the block's
/// stages run live, eagerly, strictly in block order.
pub(crate) fn run_block_sequential(
    machine: &mut Machine,
    job: &ChunkJob<'_>,
    cell: &mut WaveCell<'_>,
    costs: &mut ChunkCosts,
    metrics: &mut MetricsRegistry,
) {
    cell.pure = Some(block_pure(machine, job, &cell.slices, cell.slot));
    stage_in(machine, job, cell, costs, metrics);
    cell.computed = Some(compute_live(machine, job, cell));
    retire(machine, job, cell, costs, metrics);
}
