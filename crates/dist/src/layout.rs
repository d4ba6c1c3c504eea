//! 2-D block-cyclic layout of the supernodal factor.

use pselinv_mpisim::Grid2D;
use pselinv_order::symbolic::SnBlock;
use pselinv_order::SymbolicFactor;
use std::sync::Arc;

/// Mapping of supernodal blocks onto a process grid.
///
/// Supernodal block `(I, K)` (row supernode `I`, column supernode `K`)
/// lives on rank `(I mod Pr, K mod Pc)`, exactly SuperLU_DIST's cyclic
/// mapping of the 2-D supernode partition (paper Fig. 1).
#[derive(Clone)]
pub struct Layout {
    /// Symbolic structure being distributed.
    pub symbolic: Arc<SymbolicFactor>,
    /// The process grid.
    pub grid: Grid2D,
}

impl Layout {
    /// Creates a layout.
    pub fn new(symbolic: Arc<SymbolicFactor>, grid: Grid2D) -> Self {
        Self { symbolic, grid }
    }

    /// Owner of the diagonal block of supernode `k`.
    pub fn diag_owner(&self, k: usize) -> usize {
        self.grid.owner_of_block(k, k)
    }

    /// Owner of the lower block `(b.sn, k)` of supernode `k`'s panel.
    pub fn lower_owner(&self, b: &SnBlock, k: usize) -> usize {
        self.grid.owner_of_block(b.sn, k)
    }

    /// Owner of the matching upper position `(k, b.sn)` (where `Û_{K,I}`
    /// and `A⁻¹_{K,I}` are stored in the symmetric algorithm).
    pub fn upper_owner(&self, b: &SnBlock, k: usize) -> usize {
        self.grid.owner_of_block(k, b.sn)
    }

    /// Bytes of the dense block `(b.sn, k)`.
    pub fn block_bytes(&self, b: &SnBlock, k: usize) -> u64 {
        (b.nrows() * self.symbolic.width(k) * std::mem::size_of::<f64>()) as u64
    }

    /// Bytes of supernode `k`'s diagonal block.
    pub fn diag_bytes(&self, k: usize) -> u64 {
        let w = self.symbolic.width(k);
        (w * w * std::mem::size_of::<f64>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pselinv_order::{analyze, AnalyzeOptions};
    use pselinv_sparse::gen;

    fn layout(pr: usize, pc: usize) -> Layout {
        let w = gen::grid_laplacian_2d(10, 10);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        Layout::new(sf, Grid2D::new(pr, pc))
    }

    #[test]
    fn owners_follow_cyclic_rule() {
        let l = layout(3, 4);
        let sf = l.symbolic.clone();
        for k in 0..sf.num_supernodes() {
            assert_eq!(l.diag_owner(k), l.grid.rank_of(k % 3, k % 4));
            for b in sf.blocks_of(k) {
                assert_eq!(l.lower_owner(b, k), l.grid.rank_of(b.sn % 3, k % 4));
                assert_eq!(l.upper_owner(b, k), l.grid.rank_of(k % 3, b.sn % 4));
            }
        }
    }

    #[test]
    fn block_bytes_are_dense_sizes() {
        let l = layout(2, 2);
        let sf = l.symbolic.clone();
        for k in 0..sf.num_supernodes() {
            for b in sf.blocks_of(k) {
                assert_eq!(l.block_bytes(b, k), (b.nrows() * sf.width(k) * 8) as u64);
            }
            assert_eq!(l.diag_bytes(k), (sf.width(k) * sf.width(k) * 8) as u64);
        }
    }
}
