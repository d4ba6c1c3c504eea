//! Numeric distributed selected inversion over the `pselinv-mpisim`
//! runtime.
//!
//! This module holds the options, the per-rank state and the building
//! blocks of a run: tags, packing, the GEMM step, the diagonal step and
//! phase 1 (ascending, blocking diagonal broadcasts, each supernode's `L̂`
//! solved on the rank's pool in the shared buffer it is sent from). There
//! is no assembly: each rank writes the `A⁻¹` blocks it owns into the
//! query's output panels in place, and reads them there
//! ([`crate::ainv`]); the panels are the result.
//!
//! The GEMM step ([`local_gemms`]) is one fork-join per rank and
//! supernode. The stacked `Û` is packed once into the microkernel's column
//! panels ([`PackedCols`]) when any pair takes the blocked path, and every
//! strip task reads it. Each task gathers its strip of target blocks'
//! `A⁻¹` straight into the microkernel's row tiles ([`RowTiles`], one tile
//! set per target) and runs [`gemm_tiled`] over them; runs of targets whose
//! every pair is scalar keep a column-major gather and one scalar pass
//! ([`gemm_partitioned`]). The gathers read the lower and diagonal pieces
//! straight from this rank's regions of the output panels, and upper pieces
//! from step 5's received blocks or, self-transposed, from the panel too. On
//! the diagonal owner, the diagonal block's `ldlt_invert` is one more job of
//! the same fork-join.
//!
//! Phase 2 — supernodes from the etree root down
//! ([`crate::engine::descent_order`]); within a supernode: transpose sends,
//! `Col-Bcast`s, local GEMMs, `Row-Reduce`s, the diagonal reduction, and
//! the step-5 `A⁻¹` transposes, restricted to the
//! collectives a rank participates in — runs on the one engine of
//! [`crate::engine`], whose window ([`DistOptions::window`]) is the only
//! schedule knob. A standalone run is a batch of one query: its entry
//! points hand the factor to [`crate::batch`], which builds the plan and
//! runs the rank entry. Sends are buffered and never block, so a schedule
//! that is a restriction of one global order is deadlock-free. The asynchronous
//! *timing* behaviour at scale is modeled separately by `pselinv-des`; this
//! module establishes the numerical correctness of the tree-routed
//! communication.

use crate::ainv::{AinvPanels, Cols};
use crate::batch::{try_batched_selinv, try_batched_selinv_traced, BatchOptions, BatchRun};
use crate::layout::Layout;
use crate::plan::SupernodePlan;
use pselinv_dense::{
    gemm_partitioned, gemm_tiled, ldlt_invert, scalar_path, trsm_right_lower_cols, BlockPush, Mat,
    PackedCols, RowTiles,
};
use pselinv_factor::LdlFactor;
use pselinv_mpisim::collectives::tree_bcast;
use pselinv_mpisim::{Grid2D, Payload, RankCtx, RankVolume};
use pselinv_order::symbolic::SnBlock;
use pselinv_order::SymbolicFactor;
use pselinv_pool::Pool;
use pselinv_selinv::SelectedInverse;
use pselinv_trace::{CollKind, Trace};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Options for a distributed run.
#[derive(Clone, Copy, Debug)]
pub struct DistOptions {
    /// Tree routing scheme for every restricted collective.
    pub scheme: pselinv_trees::TreeScheme,
    /// Global seed for the shifted/random schemes.
    pub seed: u64,
    /// Worker threads of each rank's persistent pool
    /// (`pselinv-pool`), which runs the local GEMM step. `0` and `1` both
    /// mean "compute inline, no workers" — every consumer reads the knob
    /// through [`DistOptions::worker_threads`], which owns that
    /// normalization. The GEMM step's strips hold disjoint target rows and
    /// each entry's operations keep one fixed order, so any thread count
    /// produces bit-identical results.
    pub threads: usize,
    /// How many supernodes may compute at once in phase 2: the window of
    /// the engine ([`crate::engine`]), whose nonblocking tree collectives
    /// are driven by a per-rank progress loop. The window bounds GEMM
    /// stages; a tail of reducing tasks follows it. `1` (the default) runs
    /// one supernode's GEMM stage at a time, in descending index, while the
    /// reductions of those before it finish; `>= 2` lets up to `lookahead`
    /// GEMM stages overlap (use `usize::MAX` for an unbounded window), taken
    /// from the etree top down, depth by depth, so a window holds
    /// supernodes that do not depend on each other; `0` means `1` — read it
    /// through [`DistOptions::window`].
    /// Behind the window, as many supernodes again already exchange their
    /// `Û` (transposes and `Col-Bcast`s), at any window size. Results stay
    /// bit-identical and logical communication volumes unchanged.
    pub lookahead: usize,
}

impl Default for DistOptions {
    fn default() -> Self {
        Self {
            scheme: pselinv_trees::TreeScheme::ShiftedBinary,
            seed: 0x5e11,
            threads: 1,
            lookahead: 1,
        }
    }
}

impl DistOptions {
    /// The effective worker-thread count: [`DistOptions::threads`] with
    /// `0` normalized to `1`. This is the single place that normalization
    /// happens — the rank entry sizes its pool with it, so `threads: 0` can
    /// never reach a `div_ceil(0)` or a zero-worker pool.
    pub fn worker_threads(&self) -> usize {
        self.threads.max(1)
    }

    /// The effective phase-2 window: [`DistOptions::lookahead`] with `0`
    /// normalized to `1`, next to [`DistOptions::worker_threads`]. The rank
    /// entry of every run reads the knob through here: a window of zero
    /// would never admit a supernode and hang the run.
    pub fn window(&self) -> usize {
        self.lookahead.max(1)
    }
}

pub(crate) const PHASE_DIAG_BCAST: u64 = 1 << 56;
pub(crate) const PHASE_TRANSPOSE: u64 = 2 << 56;
pub(crate) const PHASE_COL_BCAST: u64 = 3 << 56;
pub(crate) const PHASE_ROW_REDUCE: u64 = 4 << 56;
pub(crate) const PHASE_DIAG_REDUCE: u64 = 5 << 56;
pub(crate) const PHASE_AINV_TRANS: u64 = 6 << 56;

/// Packs `(query, phase, supernode, block)` into one message tag: the phase
/// in the top byte, the query id in bits 48..56, the supernode in bits
/// 24..48, the block index in bits 0..24. The query lane is what lets the
/// pole-batch engine interleave the collectives of many concurrent selected
/// inversions over one runtime — two queries at the same `(phase, k, bi)`
/// still get distinct tags, so their messages can never cross-match in the
/// runtime's `(src, tag)` matching. The fields must stay inside their lanes
/// or tags of different collectives collide; the debug assertions catch any
/// workload large enough to overflow.
pub(crate) fn tag_q(qid: u64, phase: u64, k: usize, bi: usize) -> u64 {
    debug_assert!(
        phase != 0 && phase.trailing_zeros() >= 56,
        "phase {phase:#x} outside the top byte"
    );
    debug_assert!(qid < (1 << 8), "query {qid} overflows its 8-bit tag lane");
    debug_assert!((k as u64) < (1 << 24), "supernode {k} overflows its 24-bit tag lane");
    debug_assert!((bi as u64) < (1 << 24), "block index {bi} overflows its 24-bit tag lane");
    phase | (qid << 48) | ((k as u64) << 24) | bi as u64
}

/// A message tag read back into the fields [`tag_q`] packed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TagFields {
    pub(crate) qid: u64,
    /// One of the six `PHASE_*` lane values.
    pub(crate) phase: u64,
    pub(crate) k: usize,
    pub(crate) bi: usize,
}

/// The inverse of [`tag_q`]: the `(query, phase, supernode, block)` a tag
/// names, or `None` when its top byte is not one of the six phase lanes
/// (the runtime's ack, barrier and recovery lanes).
pub(crate) fn untag_q(tag: u64) -> Option<TagFields> {
    let phase = tag & (0xFF << 56);
    if !(PHASE_DIAG_BCAST..=PHASE_AINV_TRANS).contains(&phase) {
        return None;
    }
    const LANE24: u64 = (1 << 24) - 1;
    Some(TagFields {
        qid: (tag >> 48) & 0xFF,
        phase,
        k: ((tag >> 24) & LANE24) as usize,
        bi: (tag & LANE24) as usize,
    })
}

/// [`tag_q`] for single-query runs (query id 0) — tag values are unchanged
/// from before the query lane existed. Production call sites all thread the
/// query id through [`RankState`]; this shorthand anchors the
/// backwards-compatibility tests.
#[cfg(test)]
pub(crate) fn tag(phase: u64, k: usize, bi: usize) -> u64 {
    tag_q(0, phase, k, bi)
}

/// Trace-scope key for supernode `k` of query `qid`: the supernode in the
/// low bits, the query id above the supernode lane — the same namespacing as
/// [`tag_q`], so per-query spans stay distinguishable in a batched trace.
/// Query 0 keys equal the bare supernode, preserving single-run traces.
pub(crate) fn span_key(qid: u64, k: usize) -> u64 {
    (qid << 48) | k as u64
}

/// Finds the block of supernode `col_sn` whose ancestor is `row_sn`
/// (i.e. block `(row_sn, col_sn)`), returning `(global block index, block)`.
pub(crate) fn find_block(sf: &SymbolicFactor, row_sn: usize, col_sn: usize) -> (usize, SnBlock) {
    let blocks = sf.blocks_of(col_sn);
    let i = blocks
        .binary_search_by_key(&row_sn, |b| b.sn)
        .unwrap_or_else(|_| panic!("block ({row_sn},{col_sn}) not in structure"));
    (sf.blocks_ptr[col_sn] + i, blocks[i])
}

/// Packs a matrix into a sendable [`Payload`]. Shared-storage matrices
/// hand out their existing buffer for free; owned ones pay one packing
/// copy, charged to the rank's physical-copy counter.
pub(crate) fn pack(ctx: &mut RankCtx, m: &Mat) -> Payload {
    if !m.is_shared() {
        ctx.account_copy((m.data().len() * 8) as u64);
    }
    Payload::from_arc(m.to_shared())
}

/// Wraps a received payload as a matrix without copying (copy-on-write:
/// a later mutation detaches, so the sender's buffer is never scribbled).
pub(crate) fn unpack(nrows: usize, ncols: usize, data: Payload) -> Mat {
    Mat::from_shared(nrows, ncols, data.into_arc())
}

/// One rank's state during the distributed inversion.
pub(crate) struct RankState<'a> {
    pub(crate) sf: &'a SymbolicFactor,
    pub(crate) factor: &'a LdlFactor,
    pub(crate) layout: &'a Layout,
    pub(crate) me: usize,
    /// Query id namespacing every tag ([`tag_q`]) and trace-scope key
    /// ([`span_key`]) this state produces: `0` for standalone runs, the
    /// pole index in a batched run.
    pub(crate) qid: u64,
    /// `L̂` blocks this rank owns, keyed by global block index.
    pub(crate) lhat: HashMap<usize, Mat>,
    /// The query's `A⁻¹` panels: this rank writes and reads the lower and
    /// diagonal blocks it owns there, in place ([`crate::ainv`]).
    pub(crate) ainv: &'a AinvPanels,
    /// `A⁻¹` upper blocks (stored transposed) received by step 5's
    /// transposes, keyed by the corresponding lower block's global index. A
    /// self-transposed block is read from this rank's own panel instead.
    pub(crate) ainv_upper: HashMap<usize, Mat>,
}

impl<'a> RankState<'a> {
    /// `L̂` block `(b.sn, k) = L_{b,K} · L_{K,K}⁻¹` against the diagonal
    /// factor block `d`: the factor's block is copied once, straight into
    /// the shared buffer every later send and read of it reuses, and solved
    /// there. Only legal on the owning rank (asserted) — the discipline that
    /// turns shared memory into distributed memory.
    pub(crate) fn lhat_block(&self, k: usize, b: &SnBlock, d: &Mat) -> Mat {
        assert_eq!(self.layout.lower_owner(b, k), self.me, "reading a non-owned block");
        let (lb, w) = (b.rows_begin - self.sf.rows_ptr[k], self.sf.width(k));
        let mut data = self.factor.panels[k].below.submatrix_shared(lb, 0, b.nrows(), w);
        let buf = Arc::get_mut(&mut data).expect("a fresh buffer has one holder");
        trsm_right_lower_cols(buf, d, true);
        Mat::from_shared(b.nrows(), w, data)
    }

    pub(crate) fn factor_diag(&self, k: usize) -> Mat {
        assert_eq!(self.layout.diag_owner(k), self.me, "reading a non-owned diagonal");
        self.factor.panels[k].diag.clone()
    }

    /// `A⁻¹[rows of targets, rows of ancestors]` (blocks of one supernode)
    /// as one column-major strip: target `J`'s rows stacked down it in
    /// order, ancestor `I`'s rows across it, so block pair `(J, I)` is one
    /// sub-block. Each ancestor's columns are written as soon as
    /// [`RankState::strip_pieces`] has located its pieces.
    pub(crate) fn gather_strip(
        &self,
        blocks: &[SnBlock],
        targets: &[usize],
        ancestors: &[usize],
    ) -> Mat {
        let rows_of = |ids: &[usize]| ids.iter().map(|&b| blocks[b].nrows()).sum::<usize>();
        let (m, k) = (rows_of(targets), rows_of(ancestors));
        let mut strip = Vec::with_capacity(m * k);
        self.strip_pieces(blocks, targets, ancestors, |width, pieces, offsets| {
            for q in 0..width {
                for p in pieces {
                    p.push_column(q, offsets, &mut strip);
                }
            }
        });
        Mat::from_vec(m, k, strip)
    }

    /// The same `A⁻¹` strip as [`RankState::gather_strip`], written straight
    /// into the microkernel's row tiles, one row block per target (rows
    /// `row_ptr`), `k` columns: once every piece is located, each target's
    /// tiles column by column, so every entry moves once between its source
    /// and the layout the GEMM reads.
    pub(crate) fn gather_tiles(
        &self,
        blocks: &[SnBlock],
        targets: &[usize],
        ancestors: &[usize],
        row_ptr: &[usize],
        k: usize,
    ) -> RowTiles {
        // Every ancestor's pieces, ancestor-major, with their offset lists
        // appended to one list.
        let (mut all, mut all_offsets, mut widths) = (Vec::new(), Vec::new(), Vec::new());
        self.strip_pieces(blocks, targets, ancestors, |width, pieces, offsets| {
            let base = all_offsets.len();
            all_offsets.extend_from_slice(offsets);
            all.extend(pieces.iter().map(|p| p.rebased(base)));
            widths.push(width);
        });
        let nt = targets.len();
        RowTiles::from_fn(row_ptr, k, |t, block| {
            for (a, &width) in widths.iter().enumerate() {
                let p = &all[a * nt + t];
                for q in 0..width {
                    p.push_column(q, &all_offsets, &mut *block);
                }
            }
        })
    }

    /// Locates the `A⁻¹` piece of every block pair `(J, I)` of a strip,
    /// ancestor by ancestor, and hands each ancestor's row count and pieces
    /// (one per target, in order, indexing the offset list passed with
    /// them) to `put`. Each piece is read where it lives: the lower block
    /// `(J, I)` of supernode `I` or the diagonal block of `J == I`, both in
    /// this rank's own panels; or the transpose of block `(I, J)` of
    /// supernode `J`, received by step 5 or, self-transposed, in this rank's
    /// panel too. One cursor walks `I`'s blocks as the targets ascend, and
    /// one per target walks `J`'s blocks as the ancestors ascend.
    fn strip_pieces<'s>(
        &'s self,
        blocks: &[SnBlock],
        targets: &[usize],
        ancestors: &[usize],
        mut put: impl FnMut(usize, &[Piece<'s>], &[usize]),
    ) {
        let sf = self.sf;
        let mut pieces = Vec::with_capacity(targets.len());
        let mut offsets = Vec::new();
        let mut upper_at = vec![0; targets.len()];
        for &bi_i in ancestors {
            let (isn, ri) = (blocks[bi_i].sn, sf.block_rows(&blocks[bi_i]));
            let lower = sf.blocks_of(isn);
            let mut lower_at = 0;
            pieces.clear();
            offsets.clear();
            // `I`'s rows are columns of supernode `I`: the column of a lower
            // or diagonal piece, times the piece's leading dimension.
            let first_i = sf.first_col(isn);
            let cols_i = Offsets::list(ri.iter().map(|&c| c - first_i), &mut offsets);
            for (&bj_i, up) in targets.iter().zip(&mut upper_at) {
                let (jsn, rj) = (blocks[bj_i].sn, sf.block_rows(&blocks[bj_i]));
                let (src, rows, cols, transposed) = match jsn.cmp(&isn) {
                    Ordering::Greater => {
                        lower_at += seek(&lower[lower_at..], jsn, isn);
                        let src = self.ainv.lower(self.me, isn, lower_at);
                        let rows = Offsets::positions(sf, &lower[lower_at], rj, &mut offsets);
                        (src, rows, cols_i, false)
                    }
                    Ordering::Less => {
                        // `J`'s rows are columns of the stored block `(I, J)`.
                        let own = sf.blocks_of(jsn);
                        *up += seek(&own[*up..], isn, jsn);
                        let src = match self.ainv_upper.get(&(sf.blocks_ptr[jsn] + *up)) {
                            Some(received) => Cols::of(received),
                            None => self.ainv.lower(self.me, jsn, *up),
                        };
                        let first = sf.first_col(jsn);
                        let cols = Offsets::list(rj.iter().map(|&r| r - first), &mut offsets);
                        (src, cols, Offsets::positions(sf, &own[*up], ri, &mut offsets), true)
                    }
                    Ordering::Equal => {
                        let src = self.ainv.diag(self.me, jsn);
                        let rows = Offsets::list(rj.iter().map(|&r| r - first_i), &mut offsets);
                        (src, rows, cols_i, false)
                    }
                };
                pieces.push(Piece { src, rows, len: rj.len(), cols, transposed });
            }
            put(ri.len(), &pieces, &offsets);
        }
    }
}

/// Offset of the block of ancestor `sn` in `blocks` (a tail of supernode
/// `of`'s ascending blocks), by a forward walk.
fn seek(blocks: &[SnBlock], sn: usize, of: usize) -> usize {
    blocks
        .iter()
        .position(|b| b.sn == sn)
        .unwrap_or_else(|| panic!("block ({sn},{of}) not in structure"))
}

/// Where one block pair's `A⁻¹` piece lives ([`RankState::strip_pieces`]):
/// its entry `(p, q)`, for `len` rows, is row `rows.at(p)` of column
/// `cols.at(q)` of `src` — or, for a `transposed` piece (an upper block
/// stored as its lower transpose), row `cols.at(q)` of column `rows.at(p)`.
struct Piece<'s> {
    src: Cols<'s>,
    rows: Offsets,
    len: usize,
    cols: Offsets,
    transposed: bool,
}

impl<'s> Piece<'s> {
    /// The piece with its offset lists moved `base` entries down a longer
    /// list.
    fn rebased(&self, base: usize) -> Self {
        let shift = |o| match o {
            Offsets::List(i) => Offsets::List(base + i),
            run => run,
        };
        Piece { rows: shift(self.rows), cols: shift(self.cols), ..*self }
    }

    /// Appends column `q` of the piece to `out`: a slice of one stored
    /// column when its rows are a run of it, otherwise entry by entry. Each
    /// storage shape gets its own loop.
    #[inline]
    fn push_column(&self, q: usize, list: &[usize], out: &mut impl ColumnSink) {
        let (c, src, len) = (self.cols.at(q, list), self.src, self.len);
        match (self.transposed, self.rows) {
            (false, Offsets::Run(r0)) => out.put(&src.col(c)[r0..][..len]),
            (false, Offsets::List(o)) => {
                let (col, rows) = (src.col(c), &list[o..o + len]);
                out.put_with(len, |i| col[rows[i]])
            }
            (true, Offsets::Run(c0)) => out.put_with(len, |i| src.col(c0 + i)[c]),
            (true, Offsets::List(o)) => {
                let cols = &list[o..o + len];
                out.put_with(len, |i| src.col(cols[i])[c])
            }
        }
    }
}

/// Where a gather writes the columns of its pieces.
trait ColumnSink {
    /// Appends `s`.
    fn put(&mut self, s: &[f64]);
    /// Appends `value(0..len)`.
    fn put_with(&mut self, len: usize, value: impl FnMut(usize) -> f64);
}

/// A column-major strip, filled down each column.
impl ColumnSink for Vec<f64> {
    fn put(&mut self, s: &[f64]) {
        self.extend_from_slice(s);
    }

    fn put_with(&mut self, len: usize, value: impl FnMut(usize) -> f64) {
        self.extend((0..len).map(value));
    }
}

/// One target's row tiles, filled one whole column of the target at a time.
impl ColumnSink for BlockPush<'_> {
    fn put(&mut self, s: &[f64]) {
        self.push_col(s);
    }

    fn put_with(&mut self, _len: usize, value: impl FnMut(usize) -> f64) {
        self.push_col_with(value);
    }
}

/// Ascending storage offsets of one side of a [`Piece`].
#[derive(Clone, Copy)]
enum Offsets {
    /// Consecutive offsets from this one.
    Run(usize),
    /// The offsets stored in the strip's offset list from this index.
    List(usize),
}

impl Offsets {
    fn at(self, i: usize, list: &[usize]) -> usize {
        match self {
            Offsets::Run(o) => o + i,
            Offsets::List(o) => list[o + i],
        }
    }

    /// Stores `offsets` (ascending) unless they are consecutive.
    fn list(offsets: impl ExactSizeIterator<Item = usize>, list: &mut Vec<usize>) -> Offsets {
        let (start, len) = (list.len(), offsets.len());
        list.extend(offsets);
        match list[start..] {
            [first, .., last] if last - first != len - 1 => Offsets::List(start),
            [first, ..] => {
                list.truncate(start);
                Offsets::Run(first)
            }
            [] => Offsets::Run(0),
        }
    }

    /// The position among block `blk`'s rows of every entry of `wanted`.
    /// Both are ascending row lists and `wanted ⊆ rows` (a block's rows lie
    /// inside the ancestor block that holds its `A⁻¹` piece), so equal
    /// lengths mean equal lists, and when `rows` holds `wanted`'s last row
    /// where a run would end, the positions are that run; otherwise one
    /// merge walk stores them.
    fn positions(
        sf: &SymbolicFactor,
        blk: &SnBlock,
        wanted: &[usize],
        list: &mut Vec<usize>,
    ) -> Offsets {
        if blk.nrows() == wanted.len() {
            return Offsets::Run(0);
        }
        let rows = sf.block_rows(blk);
        let Some((&w0, &wl)) = wanted.first().zip(wanted.last()) else { return Offsets::Run(0) };
        let p0 = rows.partition_point(|&r| r < w0);
        if rows.get(p0 + wanted.len() - 1) == Some(&wl) {
            return Offsets::Run(p0);
        }
        let (start, mut at) = (list.len(), p0);
        list.extend(wanted.iter().map(|&r| {
            at += rows[at..].iter().position(|&x| x == r).expect("row containment");
            at
        }));
        Offsets::List(start)
    }
}

/// Runs the distributed selected inversion on `grid.size()` rank threads
/// and returns the panels they filled. Panics propagate from rank threads.
///
/// Also returns the per-rank communication volumes measured by the runtime.
pub fn distributed_selinv(
    factor: &LdlFactor,
    grid: Grid2D,
    opts: &DistOptions,
) -> (SelectedInverse, Vec<RankVolume>) {
    try_distributed_selinv(factor, grid, opts, &pselinv_mpisim::RunOptions::default())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`distributed_selinv`] under explicit [`RunOptions`] (watchdog budget,
/// poll interval, fault injection), surfacing runtime failures instead of
/// panicking — the entry point for chaos testing the numeric engine.
///
/// [`RunOptions`]: pselinv_mpisim::RunOptions
pub fn try_distributed_selinv(
    factor: &LdlFactor,
    grid: Grid2D,
    opts: &DistOptions,
    run_opts: &pselinv_mpisim::RunOptions,
) -> Result<(SelectedInverse, Vec<RankVolume>), pselinv_mpisim::RunError> {
    let run =
        try_batched_selinv(std::slice::from_ref(factor), grid, &batch_of_one(opts), run_opts)?;
    Ok(only_query(run))
}

/// [`distributed_selinv`] with tracing enabled on every rank: the returned
/// [`Trace`] carries per-phase spans keyed by supernode, message events and
/// per-rank byte counters whose `ColBcast` / `RowReduce` totals agree
/// exactly with [`crate::volume::replay_volumes`] for the same layout,
/// scheme and seed.
pub fn distributed_selinv_traced(
    factor: &LdlFactor,
    grid: Grid2D,
    opts: &DistOptions,
    label: &str,
) -> (SelectedInverse, Vec<RankVolume>, Trace) {
    try_distributed_selinv_traced(factor, grid, opts, &pselinv_mpisim::RunOptions::default(), label)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`distributed_selinv_traced`] under explicit [`RunOptions`] — the entry
/// point for traced runs with live telemetry ([`RunOptions::telemetry`])
/// or fault injection attached.
///
/// [`RunOptions`]: pselinv_mpisim::RunOptions
/// [`RunOptions::telemetry`]: pselinv_mpisim::RunOptions::telemetry
pub fn try_distributed_selinv_traced(
    factor: &LdlFactor,
    grid: Grid2D,
    opts: &DistOptions,
    run_opts: &pselinv_mpisim::RunOptions,
    label: &str,
) -> Result<(SelectedInverse, Vec<RankVolume>, Trace), pselinv_mpisim::RunError> {
    let (run, trace) = try_batched_selinv_traced(
        std::slice::from_ref(factor),
        grid,
        &batch_of_one(opts),
        run_opts,
        label,
    )?;
    let (inverse, volumes) = only_query(run);
    Ok((inverse, volumes, trace))
}

/// A standalone run is a batch of one query, admitted alone, so the batch
/// engine's plan, rank entry and output panels serve every run.
fn batch_of_one(opts: &DistOptions) -> BatchOptions {
    BatchOptions { dist: *opts, max_inflight: 1 }
}

/// The inverse and aggregate volumes of a batch of one.
fn only_query(run: BatchRun) -> (SelectedInverse, Vec<RankVolume>) {
    let BatchRun { mut inverses, volumes, .. } = run;
    (inverses.pop().expect("a batch of one has one inverse"), volumes)
}

/// Supernode `k`'s local GEMM step on this rank, as `(targets, ancestors)`
/// block indices: the step is every pair of the two — block pair `(J, I)`
/// is computed at grid position `(prow(J), pcol(I))`, so the pairs on one
/// rank are a product of the blocks in its process row with the blocks in
/// its process column. The single source of truth for the engine's GEMM
/// stage and its dependency set, so the two cannot drift apart. Both lists
/// are ascending, and ascending ancestors is the fixed per-target
/// accumulation order of the bit-identity contract. The step is empty if
/// either list is; `targets` is not computed when `ancestors` is empty.
pub(crate) fn gemm_task_specs(st: &RankState<'_>, blocks: &[SnBlock]) -> (Vec<usize>, Vec<usize>) {
    let grid = &st.layout.grid;
    let (my_prow, my_pcol) = (grid.row_of(st.me), grid.col_of(st.me));
    let ancestors: Vec<usize> =
        (0..blocks.len()).filter(|&bi| grid.pcol_of_block(blocks[bi].sn) == my_pcol).collect();
    if ancestors.is_empty() {
        return (Vec::new(), ancestors);
    }
    let targets =
        (0..blocks.len()).filter(|&bj| grid.prow_of_block(blocks[bj].sn) == my_prow).collect();
    (targets, ancestors)
}

/// Target strips per pool participant in [`local_gemms`]: enough that the
/// claim cursor evens out strips of unequal cost, few enough that each
/// strip still stacks many targets into one product.
const STRIPS_PER_THREAD: usize = 4;

/// Step 1 of Algorithm 1 on one rank: for every target block `J` among
/// `blocks` (supernode `k`'s) whose GEMM participants include this rank,
/// `−Σ_I A⁻¹[RJ,RI]·Û_{I,K}` over the ancestor blocks `I`. The ancestors'
/// `Û` blocks are stacked once; the targets are cut into strips of about
/// equal rows (one on a one-thread pool, a few per participant otherwise),
/// and each pool task gathers its strip's `A⁻¹` once and multiplies it. A
/// target with a `(J, I)` pair on the dense kernel's blocked path
/// ([`scalar_path`]) is gathered straight into row tiles
/// ([`RankState::gather_tiles`]) and multiplied by [`gemm_tiled`] against
/// the stacked `Û`, packed into column panels once per supernode and shared
/// by every strip; a run of targets whose every pair is scalar is gathered
/// column-major ([`RankState::gather_strip`]) and multiplied in one scalar
/// pass by [`gemm_partitioned`]. Both entries are bit-identical to one
/// `gemm` per `(J, I)` pair in ascending `I`, and rows of different targets
/// never meet, so neither the thread count nor the cut moves a bit.
///
/// When this rank owns `K`'s diagonal, `ldlt_invert` of its factor block
/// joins the same fork-join as one more job, and comes back as the second
/// value for the diagonal step ([`crate::engine`]'s `finish_diag`). With no
/// targets there is no fork-join, and no inverse.
pub(crate) fn local_gemms(
    st: &RankState<'_>,
    ucur: &HashMap<usize, Mat>,
    k: usize,
    w: usize,
    pool: &Pool,
) -> (HashMap<usize, Mat>, Option<Mat>) {
    let blocks = st.sf.blocks_of(k);
    let (targets, ancestors) = gemm_task_specs(st, blocks);
    if targets.is_empty() {
        return (HashMap::new(), None);
    }
    let ptr = |ids: &[usize]| -> Vec<usize> {
        std::iter::once(0)
            .chain(ids.iter().scan(0, |at, &b| {
                *at += blocks[b].nrows();
                Some(*at)
            }))
            .collect()
    };
    let term_ptr = ptr(&ancestors);
    let kk = term_ptr[ancestors.len()];
    let mut u = vec![0.0; kk * w];
    for (t, &bi_i) in ancestors.iter().enumerate() {
        let ub = &ucur[&bi_i];
        for j in 0..w {
            u[j * kk + term_ptr[t]..][..ub.nrows()].copy_from_slice(ub.col(j));
        }
    }
    let u = Mat::from_vec(kk, w, u);
    let widest = ancestors.iter().map(|&b| blocks[b].nrows()).max().unwrap_or(0);
    let blocked = |bj_i: &usize| !scalar_path(blocks[*bj_i].nrows(), w, widest);
    let packed = targets.iter().any(blocked).then(|| PackedCols::new(&u));
    let n_strips = if pool.threads() == 1 { 1 } else { STRIPS_PER_THREAD * pool.threads() };
    let strips = row_strips(&targets, &ptr(&targets), n_strips);
    let inverse = (st.layout.diag_owner(k) == st.me).then_some(GemmJob::Inverse);
    let jobs: Vec<GemmJob<'_>> =
        inverse.into_iter().chain(strips.into_iter().map(GemmJob::Strip)).collect();
    let done = pool.map(jobs, |job| {
        let strip = match job {
            GemmJob::Inverse => return GemmDone::Inverse(ldlt_invert(&st.factor_diag(k))),
            GemmJob::Strip(strip) => strip,
        };
        // Runs of targets with a blocked-path pair are gathered into tiles;
        // runs of all-scalar targets stay one column-major scalar pass.
        let mut out = Vec::with_capacity(strip.len());
        for run in strip.chunk_by(|a, b| blocked(a) == blocked(b)) {
            let row_ptr = ptr(run);
            let m = row_ptr[run.len()];
            let mut c = Mat::zeros(m, w);
            match &packed {
                Some(pu) if blocked(&run[0]) => {
                    let a = st.gather_tiles(blocks, run, &ancestors, &row_ptr, kk);
                    gemm_tiled(-1.0, &a, &term_ptr, pu, &mut c);
                }
                _ => {
                    let a = st.gather_strip(blocks, run, &ancestors);
                    gemm_partitioned(-1.0, &a, &row_ptr, &term_ptr, &u, &mut c);
                }
            }
            let c = c.data();
            out.extend(run.iter().zip(row_ptr.windows(2)).map(|(&bj_i, r)| {
                let mut cj = Vec::with_capacity((r[1] - r[0]) * w);
                for j in 0..w {
                    cj.extend_from_slice(&c[j * m + r[0]..j * m + r[1]]);
                }
                (bj_i, Mat::from_vec(r[1] - r[0], w, cj))
            }));
        }
        GemmDone::Blocks(out)
    });
    let (mut contrib, mut inverse) = (HashMap::new(), None);
    for d in done {
        match d {
            GemmDone::Inverse(m) => inverse = Some(m),
            GemmDone::Blocks(b) => contrib.extend(b),
        }
    }
    (contrib, inverse)
}

/// One job of [`local_gemms`]' fork-join.
enum GemmJob<'t> {
    /// `ldlt_invert` of the diagonal factor block, on its owner.
    Inverse,
    /// A strip of target blocks.
    Strip(&'t [usize]),
}

/// What a [`GemmJob`] computed.
enum GemmDone {
    Inverse(Mat),
    Blocks(Vec<(usize, Mat)>),
}

/// Cuts `targets` (row offsets `row_ptr`) into at most `n` runs of about
/// equal rows: a target's GEMM costs its rows times the same `K·w`.
fn row_strips<'t>(targets: &'t [usize], row_ptr: &[usize], n: usize) -> Vec<&'t [usize]> {
    let m = row_ptr[targets.len()];
    let mut strips = Vec::with_capacity(n);
    let mut start = 0;
    for s in 1..=n {
        let end = if s == n { targets.len() } else { row_ptr.partition_point(|&r| r * n < s * m) };
        if end > start {
            strips.push(&targets[start..end]);
            start = end;
        }
    }
    strips
}

/// Step 2's diagonal contribution `Σ L̂ᵀ_{I,K}·A⁻¹_{I,K}` over this rank's
/// owned blocks of supernode `k`, each `A⁻¹_{I,K}` read where it landed in
/// the panel. Each block gets its own `w×w` accumulator (a pool task); the
/// partial results are merged elementwise in ascending block order, so the
/// sum is deterministic and identical across thread counts and windows.
pub(crate) fn diag_contrib(
    st: &RankState<'_>,
    k: usize,
    owned_bids: &[usize],
    w: usize,
    pool: &Pool,
) -> Mat {
    let parts = pool.map(owned_bids, |&bid: &usize| {
        let mut t = Mat::zeros(w, w);
        st.ainv.lower(st.me, k, bid - st.sf.blocks_ptr[k]).gemm_tn(&st.lhat[&bid], &mut t);
        t
    });
    let mut dcon = Mat::zeros(w, w);
    for t in &parts {
        dcon.axpy(1.0, t);
    }
    dcon
}

/// Phase 1 (ascending): normalize panels, L̂ = L_{R,K} L_{K,K}⁻¹. Each
/// supernode's owned blocks are solved on the pool, one job per block, each
/// in the shared buffer it is sent from ([`RankState::lhat_block`]), and
/// stored on the rank thread in block order.
pub(crate) fn phase1(
    ctx: &mut RankCtx,
    st: &mut RankState<'_>,
    plans: &[SupernodePlan],
    pool: &Pool,
) {
    let sf = st.sf;
    let me = st.me;
    let layout = st.layout;
    let ns = sf.num_supernodes();
    for k in 0..ns {
        let sp = &plans[k];
        let blocks = sf.blocks_of(k);
        let w = sf.width(k);
        let my_blocks: Vec<usize> =
            (0..blocks.len()).filter(|&bi| layout.lower_owner(&blocks[bi], k) == me).collect();
        let in_bcast = sp.diag_bcast.members().contains(&me);
        if !in_bcast && my_blocks.is_empty() {
            continue;
        }
        // Obtain the diagonal block (unit-lower L_{K,K} in its strict lower
        // part; the diagonal holds D and is ignored by the unit trsm).
        ctx.tracer().push_scope(CollKind::DiagBcast, span_key(st.qid, k));
        let diag = if layout.diag_owner(k) == me {
            let d = st.factor_diag(k);
            if !sp.diag_bcast.is_empty() {
                let p = pack(ctx, &d);
                tree_bcast(ctx, &sp.diag_bcast, tag_q(st.qid, PHASE_DIAG_BCAST, k, 0), Some(p));
            }
            Some(d)
        } else if in_bcast {
            let data = tree_bcast(
                ctx,
                &sp.diag_bcast,
                tag_q(st.qid, PHASE_DIAG_BCAST, k, 0),
                None::<Payload>,
            );
            Some(unpack(w, w, data))
        } else {
            None
        };
        ctx.tracer().pop_scope();
        if let Some(d) = diag {
            let view: &RankState<'_> = st;
            let solved = pool.map(&my_blocks, |&bi| view.lhat_block(k, &blocks[bi], &d));
            for (bi, m) in my_blocks.into_iter().zip(solved) {
                // The one packing copy: the transpose send, the same-rank Û
                // handle and the diag-reduce read all reuse this buffer.
                ctx.account_copy((m.data().len() * 8) as u64);
                st.lhat.insert(sf.blocks_ptr[k] + bi, m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CommPlan;
    use pselinv_order::{analyze, AnalyzeOptions};
    use pselinv_selinv::selinv_ldlt;
    use pselinv_sparse::gen;
    use pselinv_trees::{TreeBuilder, TreeScheme};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn check_matches_sequential(
        a: &pselinv_sparse::SparseMatrix,
        grid: Grid2D,
        scheme: TreeScheme,
    ) {
        let sf = Arc::new(analyze(&a.pattern(), &AnalyzeOptions::default()));
        let f = pselinv_factor::factorize(a, sf.clone()).unwrap();
        let seq = selinv_ldlt(&f);
        let (dist, _) = distributed_selinv(
            &f,
            grid,
            &DistOptions { scheme, seed: 7, threads: 1, lookahead: 1 },
        );
        for s in 0..sf.num_supernodes() {
            let d = (&seq.panels[s].diag, &dist.panels[s].diag);
            for j in 0..sf.width(s) {
                for i in 0..sf.width(s) {
                    assert!(
                        (d.0[(i, j)] - d.1[(i, j)]).abs() < 1e-9,
                        "diag {s} ({i},{j}): {} vs {}",
                        d.0[(i, j)],
                        d.1[(i, j)]
                    );
                }
            }
            let b = (&seq.panels[s].below, &dist.panels[s].below);
            for j in 0..sf.width(s) {
                for i in 0..sf.rows_of(s).len() {
                    assert!(
                        (b.0[(i, j)] - b.1[(i, j)]).abs() < 1e-9,
                        "below {s} ({i},{j}): {} vs {}",
                        b.0[(i, j)],
                        b.1[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn single_rank_matches_sequential() {
        let w = gen::grid_laplacian_2d(8, 8);
        check_matches_sequential(&w.matrix, Grid2D::new(1, 1), TreeScheme::Flat);
    }

    #[test]
    fn small_grids_all_schemes() {
        let w = gen::grid_laplacian_2d(9, 8);
        for scheme in [
            TreeScheme::Flat,
            TreeScheme::Binary,
            TreeScheme::ShiftedBinary,
            TreeScheme::RandomPerm,
            TreeScheme::Hybrid { flat_threshold: 3 },
        ] {
            check_matches_sequential(&w.matrix, Grid2D::new(2, 2), scheme);
        }
    }

    #[test]
    fn rectangular_grids() {
        let w = gen::grid_laplacian_2d(10, 7);
        check_matches_sequential(&w.matrix, Grid2D::new(2, 3), TreeScheme::ShiftedBinary);
        check_matches_sequential(&w.matrix, Grid2D::new(3, 2), TreeScheme::Binary);
        check_matches_sequential(&w.matrix, Grid2D::new(1, 4), TreeScheme::ShiftedBinary);
        check_matches_sequential(&w.matrix, Grid2D::new(4, 1), TreeScheme::Flat);
    }

    #[test]
    fn grid3d_larger_grid() {
        let w = gen::grid_laplacian_3d(4, 4, 3);
        check_matches_sequential(&w.matrix, Grid2D::new(3, 3), TreeScheme::ShiftedBinary);
    }

    #[test]
    fn dg_matrix_with_wide_supernodes() {
        let w = gen::dg_hamiltonian(3, 2, 1, 8, 2);
        check_matches_sequential(&w.matrix, Grid2D::new(2, 3), TreeScheme::ShiftedBinary);
    }

    #[test]
    fn multithreaded_local_gemms_are_bit_identical_to_inline() {
        // The threads knob only parallelizes independent per-target
        // accumulators; results and communication volumes must match the
        // inline path exactly, not just within tolerance.
        let w = gen::grid_laplacian_2d(9, 9);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let f = pselinv_factor::factorize(&w.matrix, sf.clone()).unwrap();
        let grid = Grid2D::new(2, 2);
        let mk = |threads| DistOptions {
            scheme: TreeScheme::ShiftedBinary,
            seed: 7,
            threads,
            lookahead: 1,
        };
        let (base, vol1) = distributed_selinv(&f, grid, &mk(1));
        for threads in [2, 4] {
            let (par, voln) = distributed_selinv(&f, grid, &mk(threads));
            assert_eq!(vol1, voln, "threads={threads}");
            for s in 0..sf.num_supernodes() {
                for j in 0..sf.width(s) {
                    for i in 0..sf.width(s) {
                        assert_eq!(
                            base.panels[s].diag[(i, j)].to_bits(),
                            par.panels[s].diag[(i, j)].to_bits(),
                            "diag {s} ({i},{j}) threads={threads}"
                        );
                    }
                    for i in 0..sf.rows_of(s).len() {
                        assert_eq!(
                            base.panels[s].below[(i, j)].to_bits(),
                            par.panels[s].below[(i, j)].to_bits(),
                            "below {s} ({i},{j}) threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn runtime_volumes_match_structural_replay() {
        // The mpisim byte counters of the numeric run must agree exactly
        // with the structure-only replay used for the paper tables.
        let w = gen::grid_laplacian_2d(10, 10);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let f = pselinv_factor::factorize(&w.matrix, sf.clone()).unwrap();
        let grid = Grid2D::new(3, 3);
        let opts =
            DistOptions { scheme: TreeScheme::ShiftedBinary, seed: 7, threads: 1, lookahead: 1 };
        let (_, volumes) = distributed_selinv(&f, grid, &opts);
        let layout = Layout::new(sf, grid);
        let rep = crate::volume::replay_volumes(&layout, TreeBuilder::new(opts.scheme, opts.seed));
        let measured_total: u64 = volumes.iter().map(|v| v.sent).sum();
        assert_eq!(measured_total, rep.total_bytes());
    }

    #[test]
    fn tag_packing_is_injective() {
        // Distinct (query, phase, supernode, block) tuples must produce
        // distinct tags — a collision would let messages of different
        // collectives (or of the same collective in two interleaved pole
        // queries) cross-match in the runtime's (src, tag) matching.
        use std::collections::HashMap;
        let phases = [
            PHASE_DIAG_BCAST,
            PHASE_TRANSPOSE,
            PHASE_COL_BCAST,
            PHASE_ROW_REDUCE,
            PHASE_DIAG_REDUCE,
            PHASE_AINV_TRANS,
        ];
        // Sample the corners and interiors of each lane.
        let qids = [0u64, 1, 2, 127, 255];
        let ks = [0usize, 1, 2, 1000, (1 << 24) - 1];
        let bis = [0usize, 1, 7, 4095, (1 << 24) - 1];
        let mut seen: HashMap<u64, (u64, u64, usize, usize)> = HashMap::new();
        for &q in &qids {
            for &p in &phases {
                for &k in &ks {
                    for &bi in &bis {
                        let t = tag_q(q, p, k, bi);
                        if let Some(prev) = seen.insert(t, (q, p, k, bi)) {
                            panic!("tag collision: {prev:?} and ({q},{p:#x},{k},{bi}) -> {t:#x}");
                        }
                    }
                }
            }
        }
        assert_eq!(seen.len(), qids.len() * phases.len() * ks.len() * bis.len());
        // Query 0 reproduces the pre-batching tag values through the
        // shorthand, so standalone runs are byte-for-byte unchanged.
        for &p in &phases {
            for &k in &ks {
                for &bi in &bis {
                    assert_eq!(tag(p, k, bi), tag_q(0, p, k, bi));
                }
            }
        }
        // The runtime's barrier owns two reserved values in the same top
        // byte. They must never land in one of our six phase lanes, for any
        // low-56-bit caller tag — the barrier's original design (flipping
        // the caller tag's top bit) would have collided with PHASE_* lanes.
        use pselinv_mpisim::{BARRIER_DOWN_LANE, BARRIER_UP_LANE};
        for lane in [BARRIER_UP_LANE, BARRIER_DOWN_LANE] {
            for &p in &phases {
                assert_ne!(lane >> 56, p >> 56, "barrier lane collides with phase {p:#x}");
            }
            for &q in &qids {
                for &k in &ks {
                    for &bi in &bis {
                        // Low-56-bit part of any phase tag.
                        let caller = (q << 48) | ((k as u64) << 24) | bi as u64;
                        assert!(
                            !seen.contains_key(&(lane | caller)),
                            "barrier tag {:#x} collides with a phase tag",
                            lane | caller
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn untag_q_inverts_tag_q_and_rejects_runtime_lanes() {
        let phases = [
            PHASE_DIAG_BCAST,
            PHASE_TRANSPOSE,
            PHASE_COL_BCAST,
            PHASE_ROW_REDUCE,
            PHASE_DIAG_REDUCE,
            PHASE_AINV_TRANS,
        ];
        let top = (1usize << 24) - 1;
        for phase in phases {
            for qid in [0u64, 255] {
                for k in [0, top] {
                    for bi in [0, top] {
                        let want = TagFields { qid, phase, k, bi };
                        assert_eq!(untag_q(tag_q(qid, phase, k, bi)), Some(want), "{want:?}");
                    }
                }
            }
        }
        use pselinv_mpisim::{ACK_LANE, BARRIER_DOWN_LANE, BARRIER_UP_LANE};
        for lane in [ACK_LANE, BARRIER_UP_LANE, BARRIER_DOWN_LANE] {
            assert_eq!(untag_q(lane), None, "{lane:#x}");
            assert_eq!(untag_q(lane | tag_q(3, PHASE_ROW_REDUCE, 5, 2)), None, "{lane:#x}");
        }
        assert_eq!(untag_q(0), None, "a tag below every phase lane");
    }

    #[test]
    fn span_key_namespaces_queries() {
        assert_eq!(span_key(0, 17), 17, "query 0 keeps bare supernode keys");
        assert_ne!(span_key(1, 17), span_key(0, 17));
        assert_ne!(span_key(1, 17), span_key(2, 17));
        assert_eq!(span_key(3, 17) & ((1 << 48) - 1), 17);
    }

    #[test]
    #[should_panic(expected = "24-bit tag lane")]
    #[cfg(debug_assertions)]
    fn tag_rejects_block_index_overflow() {
        let _ = tag(PHASE_COL_BCAST, 0, 1 << 24);
    }

    #[test]
    #[should_panic(expected = "supernode")]
    #[cfg(debug_assertions)]
    fn tag_rejects_supernode_overflow() {
        let _ = tag(PHASE_COL_BCAST, 1 << 24, 0);
    }

    #[test]
    #[should_panic(expected = "8-bit tag lane")]
    #[cfg(debug_assertions)]
    fn tag_rejects_query_overflow() {
        let _ = tag_q(256, PHASE_COL_BCAST, 0, 0);
    }

    #[test]
    fn traced_volumes_match_structural_replay_exactly() {
        // The acceptance link of the trace layer: per-rank ColBcast bytes
        // attributed by the traced numeric run must equal the structural
        // replay's col_bcast_sent per rank — not just in total.
        let w = gen::grid_laplacian_2d(10, 10);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let f = pselinv_factor::factorize(&w.matrix, sf.clone()).unwrap();
        let grid = Grid2D::new(3, 3);
        for scheme in [TreeScheme::Flat, TreeScheme::ShiftedBinary] {
            let opts = DistOptions { scheme, seed: 7, threads: 1, lookahead: 1 };
            let (_, _, trace) = distributed_selinv_traced(&f, grid, &opts, "unit");
            let layout = Layout::new(sf.clone(), grid);
            let rep =
                crate::volume::replay_volumes(&layout, TreeBuilder::new(opts.scheme, opts.seed));
            assert_eq!(trace.sent_bytes(CollKind::ColBcast), rep.col_bcast_sent, "{scheme}");
            assert_eq!(trace.recv_bytes(CollKind::RowReduce), rep.row_reduce_received, "{scheme}");
        }
    }

    #[test]
    fn traced_run_has_phase_spans_and_matches_untraced_result() {
        let w = gen::grid_laplacian_2d(8, 8);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let f = pselinv_factor::factorize(&w.matrix, sf.clone()).unwrap();
        let opts = DistOptions::default();
        let (plain, vol_a) = distributed_selinv(&f, Grid2D::new(2, 2), &opts);
        let (traced, vol_b, trace) =
            distributed_selinv_traced(&f, Grid2D::new(2, 2), &opts, "unit/traced");
        // Tracing must not perturb results or communication.
        assert_eq!(vol_a, vol_b);
        for s in 0..sf.num_supernodes() {
            for j in 0..sf.width(s) {
                for i in 0..sf.width(s) {
                    assert_eq!(plain.panels[s].diag[(i, j)], traced.panels[s].diag[(i, j)]);
                }
            }
        }
        // The trace is self-describing.
        assert_eq!(trace.meta_str("backend"), Some("mpisim"));
        assert_eq!(trace.meta_str("grid"), Some("2x2"));
        assert_eq!(trace.meta_str("scheme"), Some(opts.scheme.to_string().as_str()));
        // Every rank has its phase spans under each supernode's key: a
        // Col-Bcast span for every supernode it takes part in (one opens at
        // activation) and a Row-Reduce span for every supernode whose
        // Row-Reduce trees include it.
        let layout = Layout::new(sf.clone(), Grid2D::new(2, 2));
        let plans = CommPlan::new(layout.clone(), TreeBuilder::new(opts.scheme, opts.seed))
            .precompute_all();
        assert_eq!(trace.ranks.len(), 4);
        for r in &trace.ranks {
            let me = r.rank;
            let keys = |coll: CollKind| -> BTreeSet<u64> {
                r.events
                    .iter()
                    .filter_map(|e| match e.kind {
                        pselinv_trace::EventKind::Span { coll: c, key, .. } if c == coll => {
                            Some(key)
                        }
                        _ => None,
                    })
                    .collect()
            };
            let sns = |f: &dyn Fn(&SupernodePlan, usize) -> bool| -> BTreeSet<u64> {
                (0..sf.num_supernodes()).filter(|&k| f(&plans[k], k)).map(|k| k as u64).collect()
            };
            let part = sns(&|sp, k| crate::engine::participates(&layout, me, sp, k));
            assert!(!part.is_empty(), "rank {me} takes part in no supernode");
            assert_eq!(keys(CollKind::ColBcast), part, "rank {me}");
            let rr = sns(&|sp, _| sp.row_reduces.iter().any(|t| t.members().contains(&me)));
            assert!(!rr.is_empty(), "rank {me} is in no Row-Reduce tree");
            assert_eq!(keys(CollKind::RowReduce), rr, "rank {me}");
        }
    }

    #[test]
    fn traced_waits_keep_their_phase_and_supernode() {
        // Every blocked receive is filed under the phase it waited in and
        // a supernode key — in phase 2 too, where the rank parks in the
        // engine's progress loop rather than inside a collective.
        let w = gen::grid_laplacian_2d(10, 10);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let f = pselinv_factor::factorize(&w.matrix, sf).unwrap();
        for lookahead in [1, 3] {
            let opts = DistOptions { lookahead, ..DistOptions::default() };
            let (_, _, trace) = distributed_selinv_traced(&f, Grid2D::new(2, 3), &opts, "unit");
            let mut waits = 0;
            for r in &trace.ranks {
                for e in &r.events {
                    if let pselinv_trace::EventKind::Wait { coll, key, .. } = e.kind {
                        let what = format!("lookahead {lookahead} rank {} at {}", r.rank, e.ts_us);
                        assert_ne!(coll, CollKind::Other, "{what}");
                        assert_ne!(key, pselinv_trace::NO_KEY, "{what}");
                        waits += 1;
                    }
                }
            }
            assert!(waits > 0, "lookahead {lookahead}: no rank ever blocked");
        }
    }

    #[test]
    fn get_api_matches_dense_inverse_through_distribution() {
        let w = gen::grid_laplacian_2d(6, 6);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let f = pselinv_factor::factorize(&w.matrix, sf.clone()).unwrap();
        let (dist, _) = distributed_selinv(&f, Grid2D::new(2, 3), &DistOptions::default());
        // verify against dense inverse
        let n = w.matrix.nrows();
        let mut dm = Mat::from_col_major(n, n, &w.matrix.to_dense_col_major());
        let piv = pselinv_dense::lu_factor(&mut dm).unwrap();
        let dinv = pselinv_dense::lu_invert(&dm, &piv);
        for (i, j, _) in w.matrix.iter() {
            let v = dist.get(i, j).expect("selected entry");
            assert!((v - dinv[(i, j)]).abs() < 1e-9, "({i},{j})");
        }
    }
}
