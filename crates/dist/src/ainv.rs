//! Where `A⁻¹` lives: each query's output panels, filled in place by the
//! ranks that own their blocks.
//!
//! PSelInv keeps every selected block of `A⁻¹` on the processor that owns
//! it in the 2-D block-cyclic layout, in the same distributed structure as
//! the factor. Here that structure is the result itself: an [`AinvPanels`]
//! holds one query's panels, shaped like the factor's, before any rank
//! starts, and every rank writes — and later reads — only the regions
//! [`Layout`] gives it:
//!
//! * the lower block `(J, K)` of supernode `K`'s panel, on
//!   [`Layout::lower_owner`], written once where its `Row-Reduce` lands;
//! * the diagonal block of `K`, on [`Layout::diag_owner`], written once
//!   where the diagonal reduction finishes.
//!
//! The lower and diagonal blocks tile every panel, so once each has landed
//! the panels are the [`SelectedInverse`] ([`AinvPanels::into_inverse`]):
//! there is no second copy of the result, and no assembly.
//!
//! # The ownership guard
//!
//! Ranks write disjoint rows of the same column-major panel, so no
//! reference to a panel, or to a whole column of one, may exist while they
//! run. Every access goes through a *region*: one block of one panel. Each
//! region has a state word — empty, being written, or landed by a rank —
//! and every access checks it with the owner:
//!
//! * a write asserts that the caller owns the region and moves it from
//!   empty to being written (a second write panics); it copies column by
//!   column, never building a reference wider than one column of the
//!   region's rows, then publishes the region as landed by the caller;
//! * a read asserts the same ownership and that the caller has landed the
//!   region, and hands out [`Cols`], whose slices are single columns of the
//!   region.
//!
//! A region is written once and never again, so a landed region can be
//! read through shared slices for as long as the panels are borrowed. The
//! state word also records the writer, which is what
//! [`AinvPanels::lower_writer`] and [`AinvPanels::diag_writer`] report, and
//! what the engine's GEMM stage asks ([`AinvPanels::landed_lower`]) before
//! it reads a piece.

use crate::layout::Layout;
use pselinv_dense::kernels::gemm_raw;
use pselinv_dense::{Mat, Transpose};
use pselinv_factor::Panel;
use pselinv_order::SymbolicFactor;
use pselinv_selinv::SelectedInverse;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Region state: nobody has written it.
const EMPTY: usize = 0;
/// Region state: its owner is writing it. A landed region holds its
/// writer's rank plus one.
const WRITING: usize = usize::MAX;

/// One query's `A⁻¹` panels, written in place by the owners of their
/// blocks (see the module docs).
pub struct AinvPanels {
    layout: Layout,
    /// Per supernode, the `below` and `diag` buffers: allocated at full
    /// size, their length set only once every region has landed.
    below: Vec<Vec<f64>>,
    diag: Vec<Vec<f64>>,
    /// The buffers' base pointers, taken once so no reference to a buffer
    /// is made while ranks write it.
    below_at: Vec<*mut f64>,
    diag_at: Vec<*mut f64>,
    /// Per region — lower block `bid` at `bid`, supernode `k`'s diagonal at
    /// `blocks.len() + k` — [`EMPTY`], [`WRITING`] or its writer plus one.
    state: Vec<AtomicUsize>,
}

// SAFETY: the raw pointers address the buffers this value owns, which never
// move or reallocate while it lives. Every access goes through a region's
// state word: a write takes it from EMPTY to WRITING with a compare-exchange
// (so one thread writes a region, once) and publishes it with a Release
// store; a read first loads it with Acquire and proceeds only on a landed
// region, which is never written again. Regions tile the buffers without
// overlap, so a writer and any other access touch disjoint entries, and the
// Release/Acquire pair orders a region's entries before every read of them —
// including reads by a rank's pool workers inside a GEMM fork-join, whose
// job hand-off happens after the rank thread's write.
unsafe impl Send for AinvPanels {}
unsafe impl Sync for AinvPanels {}

impl AinvPanels {
    /// Empty panels shaped like the factor of `layout`'s structure: every
    /// region unwritten.
    pub fn new(layout: &Layout) -> Self {
        let sf = &*layout.symbolic;
        let ns = sf.num_supernodes();
        let mut below: Vec<Vec<f64>> =
            (0..ns).map(|k| Vec::with_capacity(sf.rows_of(k).len() * sf.width(k))).collect();
        let mut diag: Vec<Vec<f64>> =
            (0..ns).map(|k| Vec::with_capacity(sf.width(k) * sf.width(k))).collect();
        // The regions must tile every panel: `into_inverse` exposes the
        // buffers once each region has landed, and every write stays
        // inside its buffer.
        for k in 0..ns {
            let end = sf.blocks_of(k).iter().fold(sf.rows_ptr[k], |at, b| {
                assert_eq!(b.rows_begin, at, "supernode {k}'s blocks do not tile its rows");
                b.rows_end
            });
            assert_eq!(end, sf.rows_ptr[k + 1], "supernode {k}'s blocks do not tile its rows");
        }
        let below_at = below.iter_mut().map(Vec::as_mut_ptr).collect();
        let diag_at = diag.iter_mut().map(Vec::as_mut_ptr).collect();
        let state = (0..sf.blocks.len() + ns).map(|_| AtomicUsize::new(EMPTY)).collect();
        Self { layout: layout.clone(), below, diag, below_at, diag_at, state }
    }

    fn sf(&self) -> &SymbolicFactor {
        &self.layout.symbolic
    }

    /// Asserts that rank `me` owns supernode `k`'s lower block `bi` and
    /// returns its global block index.
    fn own_lower(&self, me: usize, k: usize, bi: usize) -> usize {
        let owner = self.layout.lower_owner(&self.sf().blocks_of(k)[bi], k);
        assert_eq!(
            owner, me,
            "rank {me} reached supernode {k}'s block {bi}, owned by rank {owner}"
        );
        self.sf().blocks_ptr[k] + bi
    }

    /// Asserts that rank `me` owns supernode `k`'s diagonal block and
    /// returns its region.
    fn own_diag(&self, me: usize, k: usize) -> usize {
        let owner = self.layout.diag_owner(k);
        assert_eq!(
            owner, me,
            "rank {me} reached supernode {k}'s diagonal block, owned by rank {owner}"
        );
        self.sf().blocks.len() + k
    }

    /// Region `r` of supernode `k` as a message names it.
    fn name(&self, k: usize, r: usize) -> String {
        match r.checked_sub(self.sf().blocks.len()) {
            Some(_) => format!("supernode {k}'s diagonal block"),
            None => format!("supernode {k}'s block {}", r - self.sf().blocks_ptr[k]),
        }
    }

    /// Rank `me` writes `src` — `rows × width(k)`, column-major — into
    /// region `r` of supernode `k`, which starts at `base` in a buffer of
    /// leading dimension `ld`.
    fn write(
        &self,
        me: usize,
        k: usize,
        r: usize,
        at: (*mut f64, usize),
        rows: usize,
        src: &[f64],
    ) {
        assert_eq!(src.len(), rows * self.sf().width(k), "{}: shape", self.name(k, r));
        let claim =
            self.state[r].compare_exchange(EMPTY, WRITING, Ordering::Acquire, Ordering::Relaxed);
        if let Err(s) = claim {
            panic!("rank {me} wrote {} twice (state {s})", self.name(k, r));
        }
        let (base, ld) = at;
        for (j, col) in src.chunks_exact(rows.max(1)).enumerate() {
            // SAFETY: column `j` of the region lies inside its buffer, and
            // the WRITING state held since the exchange above makes this
            // thread the only one touching it.
            unsafe { std::slice::from_raw_parts_mut(base.add(j * ld), rows) }.copy_from_slice(col);
        }
        self.state[r].store(me + 1, Ordering::Release);
    }

    /// Rank `me` writes `A⁻¹` of supernode `k`'s lower block `bi` — the
    /// `Row-Reduce` result, column-major — into its panel. Panics unless
    /// `me` owns the block, or when it was written before.
    pub fn write_lower(&self, me: usize, k: usize, bi: usize, src: &[f64]) {
        let bid = self.own_lower(me, k, bi);
        let b = self.sf().blocks[bid];
        let (lb, ld) = (b.rows_begin - self.sf().rows_ptr[k], self.sf().rows_of(k).len());
        // SAFETY: `lb` is the block's first row inside the `ld`-row buffer.
        let base = unsafe { self.below_at[k].add(lb) };
        self.write(me, k, bid, (base, ld), b.nrows(), src);
    }

    /// Rank `me` writes `A⁻¹_{K,K}` of supernode `k`, column-major. Panics
    /// unless `me` owns the diagonal, or when it was written before.
    pub fn write_diag(&self, me: usize, k: usize, src: &[f64]) {
        let r = self.own_diag(me, k);
        let w = self.sf().width(k);
        self.write(me, k, r, (self.diag_at[k], w), w, src);
    }

    /// Whether rank `me` has landed lower block `bid` (a global block
    /// index). `false` on every other rank.
    pub fn landed_lower(&self, me: usize, bid: usize) -> bool {
        self.state[bid].load(Ordering::Acquire) == me + 1
    }

    /// Whether rank `me` has landed supernode `k`'s diagonal block.
    pub fn landed_diag(&self, me: usize, k: usize) -> bool {
        self.state[self.sf().blocks.len() + k].load(Ordering::Acquire) == me + 1
    }

    /// Asserts that rank `me` landed region `r` of supernode `k`, before a
    /// read.
    fn check_landed(&self, me: usize, k: usize, r: usize) {
        let s = self.state[r].load(Ordering::Acquire);
        assert!(s == me + 1, "rank {me} read {} before it landed (state {s})", self.name(k, r));
    }

    /// The landed lower block `bi` of supernode `k`, read by its owner `me`.
    pub fn lower(&self, me: usize, k: usize, bi: usize) -> Cols<'_> {
        let bid = self.own_lower(me, k, bi);
        self.check_landed(me, k, bid);
        let b = self.sf().blocks[bid];
        let lb = b.rows_begin - self.sf().rows_ptr[k];
        // SAFETY: `lb` is the block's first row inside the buffer.
        let ptr = unsafe { self.below_at[k].add(lb) };
        let ld = self.sf().rows_of(k).len();
        Cols { ptr, ld, rows: b.nrows(), ncols: self.sf().width(k), _region: PhantomData }
    }

    /// The landed diagonal block of supernode `k`, read by its owner `me`.
    pub fn diag(&self, me: usize, k: usize) -> Cols<'_> {
        let r = self.own_diag(me, k);
        self.check_landed(me, k, r);
        let w = self.sf().width(k);
        Cols { ptr: self.diag_at[k], ld: w, rows: w, ncols: w, _region: PhantomData }
    }

    /// The rank that wrote supernode `k`'s lower block `bi`, once it has
    /// landed.
    pub fn lower_writer(&self, k: usize, bi: usize) -> Option<usize> {
        assert!(bi < self.sf().blocks_of(k).len(), "supernode {k} has no block {bi}");
        writer(&self.state[self.sf().blocks_ptr[k] + bi])
    }

    /// The rank that wrote supernode `k`'s diagonal block, once it has
    /// landed.
    pub fn diag_writer(&self, k: usize) -> Option<usize> {
        writer(&self.state[self.sf().blocks.len() + k])
    }

    /// The panels as the selected inverse. Panics unless every region has
    /// landed.
    pub fn into_inverse(mut self) -> SelectedInverse {
        let sf = self.layout.symbolic.clone();
        for k in 0..sf.num_supernodes() {
            for bi in 0..sf.blocks_of(k).len() {
                assert!(
                    self.lower_writer(k, bi).is_some(),
                    "supernode {k}'s block {bi} never landed"
                );
            }
            assert!(self.diag_writer(k).is_some(), "supernode {k}'s diagonal block never landed");
        }
        let panels = (0..sf.num_supernodes())
            .map(|k| {
                let (r, w) = (sf.rows_of(k).len(), sf.width(k));
                let (mut below, mut diag) =
                    (std::mem::take(&mut self.below[k]), std::mem::take(&mut self.diag[k]));
                // SAFETY: the capacities are `r·w` and `w·w`, and every
                // entry was written: the landed lower blocks tile the
                // below-diagonal rows (asserted in `new`), the landed
                // diagonal fills its block, and a landed region was written
                // in full before its state was published.
                unsafe {
                    below.set_len(r * w);
                    diag.set_len(w * w);
                }
                Panel { diag: Mat::from_vec(w, w, diag), below: Mat::from_vec(r, w, below) }
            })
            .collect();
        SelectedInverse { symbolic: sf, panels }
    }
}

/// The writer a landed region's state records.
fn writer(state: &AtomicUsize) -> Option<usize> {
    match state.load(Ordering::Acquire) {
        EMPTY | WRITING => None,
        s => Some(s - 1),
    }
}

/// The columns of one landed `A⁻¹` block: a region of an [`AinvPanels`]
/// panel, or a whole [`Mat`] (a received piece). Column `j` is `rows`
/// entries from `ptr + j·ld`; no slice spans more than one column.
#[derive(Clone, Copy)]
pub struct Cols<'a> {
    ptr: *const f64,
    ld: usize,
    rows: usize,
    ncols: usize,
    _region: PhantomData<&'a [f64]>,
}

impl<'a> Cols<'a> {
    /// Every column of `m`.
    pub(crate) fn of(m: &'a Mat) -> Self {
        let (rows, ncols) = (m.nrows(), m.ncols());
        Cols { ptr: m.data().as_ptr(), ld: rows, rows, ncols, _region: PhantomData }
    }

    /// Column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> &'a [f64] {
        assert!(j < self.ncols, "column {j} of {}", self.ncols);
        // SAFETY: column `j` of a landed region (or of a borrowed `Mat`)
        // lies inside its buffer and is never written while `'a` lasts.
        unsafe { std::slice::from_raw_parts(self.ptr.add(j * self.ld), self.rows) }
    }

    /// `c = aᵀ·B` for this block `B`, read where it lives: the same kernel
    /// and bits as `gemm(1, a, Yes, B, No, 0, c)` on a copy of it.
    pub(crate) fn gemm_tn(&self, a: &Mat, c: &mut Mat) {
        assert_eq!(a.nrows(), self.rows, "inner dimensions differ");
        assert!(c.nrows() == a.ncols() && c.ncols() == self.ncols, "c is not aᵀ·B's shape");
        let (m, ldc) = (a.ncols(), c.nrows());
        // SAFETY: `a` covers its `rows × m`, the block covers `rows ×
        // ncols` at stride `ld` inside a landed region, and `c` is a
        // distinct allocation of `m × ncols`.
        unsafe {
            gemm_raw(
                m,
                self.ncols,
                self.rows,
                1.0,
                a.data().as_ptr(),
                a.nrows(),
                Transpose::Yes,
                self.ptr,
                self.ld,
                Transpose::No,
                0.0,
                c.data_mut().as_mut_ptr(),
                ldc,
            );
        }
    }
}
