//! The 2-D block-cyclic process grid of PSelInv / SuperLU_DIST.

/// A virtual `Pr × Pc` process grid. Ranks are laid out row-major
/// (`rank = prow * pc + pcol`), matching SuperLU_DIST, so that consecutive
/// ranks fill a process row — the property the paper's locality argument
/// relies on ("most MPI implementations assign ranks so that consecutive
/// ranks first fill up a node").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid2D {
    /// Number of process rows.
    pub pr: usize,
    /// Number of process columns.
    pub pc: usize,
}

impl Grid2D {
    /// Creates a `pr × pc` grid.
    pub fn new(pr: usize, pc: usize) -> Self {
        assert!(pr > 0 && pc > 0);
        Self { pr, pc }
    }

    /// A near-square grid for `p` ranks (`pr ≤ pc`, `pr·pc = p`), the shape
    /// the paper's experiments use (e.g. 46×46 = 2,116).
    pub fn square_for(p: usize) -> Self {
        assert!(p > 0);
        let mut pr = (p as f64).sqrt() as usize;
        while pr > 1 && !p.is_multiple_of(pr) {
            pr -= 1;
        }
        Self { pr, pc: p / pr }
    }

    /// Total number of ranks.
    pub fn size(&self) -> usize {
        self.pr * self.pc
    }

    /// Rank at grid position `(prow, pcol)`.
    pub fn rank_of(&self, prow: usize, pcol: usize) -> usize {
        debug_assert!(prow < self.pr && pcol < self.pc);
        prow * self.pc + pcol
    }

    /// Grid row of `rank`.
    pub fn row_of(&self, rank: usize) -> usize {
        rank / self.pc
    }

    /// Grid column of `rank`.
    pub fn col_of(&self, rank: usize) -> usize {
        rank % self.pc
    }

    /// Owner rank of the block at supernodal position `(i, j)` under the
    /// cyclic mapping: `(i mod pr, j mod pc)`.
    pub fn owner_of_block(&self, i: usize, j: usize) -> usize {
        self.rank_of(i % self.pr, j % self.pc)
    }

    /// Process row owning supernodal row `i`.
    pub fn prow_of_block(&self, i: usize) -> usize {
        i % self.pr
    }

    /// Process column owning supernodal column `j`.
    pub fn pcol_of_block(&self, j: usize) -> usize {
        j % self.pc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_layout() {
        let g = Grid2D::new(4, 3);
        assert_eq!(g.size(), 12);
        assert_eq!(g.rank_of(0, 0), 0);
        assert_eq!(g.rank_of(0, 2), 2);
        assert_eq!(g.rank_of(1, 0), 3);
        for rank in 0..12 {
            assert_eq!(g.rank_of(g.row_of(rank), g.col_of(rank)), rank);
        }
    }

    #[test]
    fn cyclic_block_mapping() {
        let g = Grid2D::new(2, 3);
        assert_eq!(g.owner_of_block(0, 0), 0);
        assert_eq!(g.owner_of_block(2, 3), 0);
        assert_eq!(g.owner_of_block(5, 4), g.rank_of(1, 1));
    }

    #[test]
    fn square_for_perfect_squares_and_others() {
        assert_eq!(Grid2D::square_for(2116), Grid2D::new(46, 46));
        assert_eq!(Grid2D::square_for(12), Grid2D::new(3, 4));
        assert_eq!(Grid2D::square_for(7), Grid2D::new(1, 7));
        assert_eq!(Grid2D::square_for(1), Grid2D::new(1, 1));
    }
}
