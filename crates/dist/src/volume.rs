//! Structure-only communication volume replay.
//!
//! Reproduces the measurement behind the paper's Tables I/II and
//! Figures 4–7: per-rank bytes sent during `Col-Bcast` and received during
//! `Row-Reduce`, for any grid size and tree scheme, without running any
//! numeric computation. Only the symbolic structure matters, so this
//! scales to the paper's 46×46 (2,116-rank) and larger grids on a laptop.

use crate::layout::Layout;
use crate::plan::CommPlan;
use pselinv_trees::{bcast_sent_volume, reduce_received_volume, TreeBuilder, VolumeStats};

/// Per-rank communication volumes of one full selected inversion.
#[derive(Clone, Debug)]
pub struct VolumeReport {
    /// Grid shape `(pr, pc)`.
    pub grid: (usize, usize),
    /// Bytes *sent* by each rank during all `Col-Bcast` collectives.
    pub col_bcast_sent: Vec<u64>,
    /// Bytes *received* by each rank during all `Row-Reduce` collectives.
    pub row_reduce_received: Vec<u64>,
    /// Bytes sent by each rank in the `L̂ → Û` and `A⁻¹` transpose
    /// point-to-points (not part of the paper's two headline measurements
    /// but included in totals).
    pub transpose_sent: Vec<u64>,
    /// Bytes sent by each rank in the loop-1 diagonal broadcasts and the
    /// diagonal reductions.
    pub diag_sent: Vec<u64>,
}

impl VolumeReport {
    /// Statistics of the `Col-Bcast` sent volumes, in MB (as in Table I).
    pub fn col_bcast_stats_mb(&self) -> VolumeStats {
        VolumeStats::from_volumes(&self.col_bcast_sent).scaled(1e-6)
    }

    /// Statistics of the `Row-Reduce` received volumes, in MB (Table II).
    pub fn row_reduce_stats_mb(&self) -> VolumeStats {
        VolumeStats::from_volumes(&self.row_reduce_received).scaled(1e-6)
    }

    /// `Col-Bcast` sent volume as a `pr × pc` heat map in MB, row-major
    /// (Figs. 5/6).
    pub fn col_bcast_heatmap_mb(&self) -> Vec<Vec<f64>> {
        self.heatmap(&self.col_bcast_sent)
    }

    /// `Row-Reduce` received volume heat map in MB (Fig. 7).
    pub fn row_reduce_heatmap_mb(&self) -> Vec<Vec<f64>> {
        self.heatmap(&self.row_reduce_received)
    }

    fn heatmap(&self, v: &[u64]) -> Vec<Vec<f64>> {
        let (pr, pc) = self.grid;
        (0..pr).map(|r| (0..pc).map(|c| v[r * pc + c] as f64 * 1e-6).collect()).collect()
    }

    /// Histogram of a volume vector (Fig. 4): returns `(bin_edges, counts)`
    /// with `nbins` equal-width bins over the data range, volumes in MB.
    pub fn histogram_mb(volumes: &[u64], nbins: usize) -> (Vec<f64>, Vec<usize>) {
        assert!(nbins > 0);
        let mb: Vec<f64> = volumes.iter().map(|&v| v as f64 * 1e-6).collect();
        let lo = mb.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = mb.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let span = (hi - lo).max(1e-12);
        let mut counts = vec![0usize; nbins];
        for &v in &mb {
            let mut b = ((v - lo) / span * nbins as f64) as usize;
            if b >= nbins {
                b = nbins - 1;
            }
            counts[b] += 1;
        }
        let edges = (0..=nbins).map(|i| lo + span * i as f64 / nbins as f64).collect();
        (edges, counts)
    }

    /// Total bytes over all phases and ranks.
    pub fn total_bytes(&self) -> u64 {
        self.col_bcast_sent.iter().sum::<u64>()
            + self.row_reduce_received.iter().sum::<u64>()
            + self.transpose_sent.iter().sum::<u64>()
            + self.diag_sent.iter().sum::<u64>()
    }
}

/// Replays the communication of a full selected inversion and accumulates
/// per-rank volumes.
///
/// ```
/// use pselinv_dist::{replay_volumes, Layout};
/// use pselinv_mpisim::Grid2D;
/// use pselinv_order::{analyze, AnalyzeOptions};
/// use pselinv_sparse::gen;
/// use pselinv_trees::{TreeBuilder, TreeScheme};
/// use std::sync::Arc;
///
/// let w = gen::grid_laplacian_2d(12, 12);
/// let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
/// let layout = Layout::new(sf, Grid2D::new(4, 4));
/// let flat = replay_volumes(&layout, TreeBuilder::new(TreeScheme::Flat, 0));
/// let shifted = replay_volumes(&layout, TreeBuilder::new(TreeScheme::ShiftedBinary, 0));
/// // routing never changes the total volume, only its distribution
/// assert_eq!(
///     flat.col_bcast_sent.iter().sum::<u64>(),
///     shifted.col_bcast_sent.iter().sum::<u64>(),
/// );
/// ```
pub fn replay_volumes(layout: &Layout, builder: TreeBuilder) -> VolumeReport {
    let plan = CommPlan::new(layout.clone(), builder);
    let sf = layout.symbolic.clone();
    let p = layout.grid.size();
    let mut col_bcast_sent = vec![0u64; p];
    let mut row_reduce_received = vec![0u64; p];
    let mut transpose_sent = vec![0u64; p];
    let mut diag_sent = vec![0u64; p];

    for k in 0..sf.num_supernodes() {
        let sp = plan.supernode_plan(k);
        let blocks = sf.blocks_of(k);
        let diag_bytes = layout.diag_bytes(k);
        bcast_sent_volume(&sp.diag_bcast, diag_bytes, &mut diag_sent);
        for (bi, b) in blocks.iter().enumerate() {
            let bytes = layout.block_bytes(b, k);
            // The L̂ → Û transpose and the step-5 A⁻¹ transpose travel
            // the same edge.
            let (src, dst) = sp.transposes[bi];
            if src != dst {
                transpose_sent[src] += 2 * bytes;
            }
            bcast_sent_volume(&sp.col_bcasts[bi], bytes, &mut col_bcast_sent);
            reduce_received_volume(&sp.row_reduces[bi], bytes, &mut row_reduce_received);
        }
        // Diagonal-contribution reduction carries w×w blocks.
        reduce_received_volume(&sp.diag_reduce, diag_bytes, &mut diag_sent);
    }

    VolumeReport {
        grid: (layout.grid.pr, layout.grid.pc),
        col_bcast_sent,
        row_reduce_received,
        transpose_sent,
        diag_sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pselinv_mpisim::Grid2D;
    use pselinv_order::{analyze, AnalyzeOptions};
    use pselinv_sparse::gen;
    use pselinv_trees::TreeScheme;
    use std::sync::Arc;

    fn layout(pr: usize, pc: usize) -> Layout {
        let w = gen::grid_laplacian_2d(16, 16);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        Layout::new(sf, Grid2D::new(pr, pc))
    }

    #[test]
    fn total_tree_volume_is_scheme_invariant() {
        // A tree routes p̄-1 copies of each message regardless of shape, so
        // the *total* Col-Bcast volume must match across schemes; only the
        // distribution differs.
        let l = layout(4, 4);
        let flat = replay_volumes(&l, TreeBuilder::new(TreeScheme::Flat, 1));
        let bin = replay_volumes(&l, TreeBuilder::new(TreeScheme::Binary, 1));
        let shifted = replay_volumes(&l, TreeBuilder::new(TreeScheme::ShiftedBinary, 1));
        let t1: u64 = flat.col_bcast_sent.iter().sum();
        let t2: u64 = bin.col_bcast_sent.iter().sum();
        let t3: u64 = shifted.col_bcast_sent.iter().sum();
        assert_eq!(t1, t2);
        assert_eq!(t1, t3);
        let r1: u64 = flat.row_reduce_received.iter().sum();
        let r2: u64 = shifted.row_reduce_received.iter().sum();
        assert_eq!(r1, r2);
    }

    #[test]
    fn flat_tree_concentrates_on_roots() {
        // Under Flat the max per-rank volume must be at least the max under
        // ShiftedBinary (the whole point of the paper).
        let l = layout(4, 4);
        let flat = replay_volumes(&l, TreeBuilder::new(TreeScheme::Flat, 1));
        let shifted = replay_volumes(&l, TreeBuilder::new(TreeScheme::ShiftedBinary, 1));
        let fmax = *flat.col_bcast_sent.iter().max().unwrap();
        let smax = *shifted.col_bcast_sent.iter().max().unwrap();
        assert!(fmax >= smax, "flat max {fmax} < shifted max {smax}");
    }

    #[test]
    fn heatmap_shape_and_content() {
        let l = layout(3, 5);
        let rep = replay_volumes(&l, TreeBuilder::new(TreeScheme::Flat, 0));
        let hm = rep.col_bcast_heatmap_mb();
        assert_eq!(hm.len(), 3);
        assert_eq!(hm[0].len(), 5);
        let total: f64 = hm.iter().flatten().sum();
        let expect = rep.col_bcast_sent.iter().sum::<u64>() as f64 * 1e-6;
        assert!((total - expect).abs() < 1e-9);
    }

    #[test]
    fn histogram_counts_all_ranks() {
        let l = layout(4, 4);
        let rep = replay_volumes(&l, TreeBuilder::new(TreeScheme::Binary, 2));
        let (edges, counts) = VolumeReport::histogram_mb(&rep.col_bcast_sent, 8);
        assert_eq!(edges.len(), 9);
        assert_eq!(counts.iter().sum::<usize>(), 16);
    }

    #[test]
    fn single_rank_has_zero_volume() {
        let l = layout(1, 1);
        let rep = replay_volumes(&l, TreeBuilder::new(TreeScheme::ShiftedBinary, 0));
        assert_eq!(rep.total_bytes(), 0);
    }

    #[test]
    fn stats_are_consistent_with_raw_vectors() {
        let l = layout(4, 4);
        let rep = replay_volumes(&l, TreeBuilder::new(TreeScheme::ShiftedBinary, 3));
        let s = rep.col_bcast_stats_mb();
        let max = *rep.col_bcast_sent.iter().max().unwrap() as f64 * 1e-6;
        assert!((s.max - max).abs() < 1e-12);
        assert!(s.min <= s.median && s.median <= s.max);
    }
}
