//! Supernode partitioning: fundamental supernodes, relaxed amalgamation and
//! width capping.

use crate::etree::NONE;

/// A partition of columns `0..n` into contiguous supernodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SupernodePartition {
    /// `sn_ptr[s]..sn_ptr[s+1]` is the column range of supernode `s`.
    pub sn_ptr: Vec<usize>,
    /// Supernode containing each column.
    pub col_to_sn: Vec<usize>,
}

impl SupernodePartition {
    fn from_starts(starts: Vec<usize>, n: usize) -> Self {
        let mut sn_ptr = starts;
        sn_ptr.push(n);
        let mut col_to_sn = vec![0usize; n];
        for s in 0..sn_ptr.len() - 1 {
            for j in sn_ptr[s]..sn_ptr[s + 1] {
                col_to_sn[j] = s;
            }
        }
        Self { sn_ptr, col_to_sn }
    }

    /// Number of supernodes.
    pub fn num_supernodes(&self) -> usize {
        self.sn_ptr.len() - 1
    }

    /// First column of supernode `s`.
    pub fn first_col(&self, s: usize) -> usize {
        self.sn_ptr[s]
    }

    /// One past the last column of supernode `s`.
    pub fn end_col(&self, s: usize) -> usize {
        self.sn_ptr[s + 1]
    }

    /// Number of columns in supernode `s`.
    pub fn width(&self, s: usize) -> usize {
        self.sn_ptr[s + 1] - self.sn_ptr[s]
    }
}

/// Options controlling supernode formation.
#[derive(Clone, Copy, Debug)]
pub struct SupernodeOptions {
    /// Maximum supernode width; wider supernodes are split (0 = unlimited).
    /// Splitting bounds panel memory and exposes 2-D parallelism, as in
    /// SuperLU_DIST's `maxsup`.
    pub max_width: usize,
    /// A child supernode of width ≤ this is merged into its parent whenever
    /// the columns are adjacent, regardless of fill (CHOLMOD-style "small
    /// supernode" relaxation).
    pub relax_small: usize,
    /// Merge when the estimated fraction of explicit zeros introduced in the
    /// merged panel stays below this bound.
    pub relax_zero_fraction: f64,
}

impl Default for SupernodeOptions {
    fn default() -> Self {
        Self { max_width: 64, relax_small: 4, relax_zero_fraction: 0.2 }
    }
}

/// Detects fundamental supernodes from the elimination tree and factor
/// column counts: column `j` joins the supernode of `j-1` iff
/// `parent(j-1) = j` and `count(j) = count(j-1) - 1`.
pub fn fundamental_supernodes(parent: &[usize], col_counts: &[usize]) -> SupernodePartition {
    let n = parent.len();
    assert_eq!(col_counts.len(), n);
    let mut starts = Vec::new();
    for j in 0..n {
        let fuse = j > 0 && parent[j - 1] == j && col_counts[j] + 1 == col_counts[j - 1];
        if !fuse {
            starts.push(j);
        }
    }
    SupernodePartition::from_starts(starts, n)
}

/// Applies relaxed amalgamation and width capping to a partition.
///
/// Amalgamation greedily merges a supernode with the one that follows it
/// when (a) the elimination-tree parent of its last column is the first
/// column of the next supernode's range and (b) either the child is small
/// (`relax_small`) or the estimated explicit-zero fraction stays below
/// `relax_zero_fraction`. Estimates use column counts only.
pub fn relax_supernodes(
    part: &SupernodePartition,
    parent: &[usize],
    col_counts: &[usize],
    opts: &SupernodeOptions,
) -> SupernodePartition {
    let n = parent.len();
    let ns = part.num_supernodes();
    let mut starts: Vec<usize> = Vec::with_capacity(ns);

    // Greedy left-to-right merging of adjacent supernodes.
    let mut s = 0;
    while s < ns {
        let begin = part.first_col(s);
        let mut end = part.end_col(s);
        starts.push(begin);
        while s + 1 < ns {
            let next_begin = part.first_col(s + 1);
            let next_end = part.end_col(s + 1);
            // Columns must chain through the elimination tree.
            if parent[end - 1] != next_begin {
                break;
            }
            let new_width = next_end - begin;
            if opts.max_width != 0 && new_width > opts.max_width {
                break;
            }
            let child_width = end - begin;
            let allowed = if opts.relax_small == 0 && opts.relax_zero_fraction == 0.0 {
                // Zero tolerance: keep the fundamental partition exactly.
                // (The zero estimate below is a heuristic lower bound — fill
                // from siblings can exceed it — so it cannot guarantee "no
                // explicit zeros".)
                false
            } else if child_width <= opts.relax_small || (next_end - next_begin) <= opts.relax_small
            {
                true
            } else {
                // Estimated nnz if merged: every column of the merged
                // supernode gets the (longest) structure of its first
                // column, shrinking by one per column.
                let cc0 = col_counts[begin];
                let merged: usize = (0..new_width).map(|k| cc0.saturating_sub(k)).sum();
                let current: usize = (begin..next_end).map(|j| col_counts[j]).sum();
                let zeros = merged.saturating_sub(current);
                (zeros as f64) <= opts.relax_zero_fraction * current as f64
            };
            if !allowed {
                break;
            }
            end = next_end;
            s += 1;
        }
        s += 1;
    }

    // Width capping: split ranges wider than max_width into near-equal parts.
    let capped = if opts.max_width == 0 {
        starts
    } else {
        let mut out = Vec::with_capacity(starts.len());
        let mut bounds = starts.clone();
        bounds.push(n);
        for w in bounds.windows(2) {
            let (b, e) = (w[0], w[1]);
            let width = e - b;
            if width <= opts.max_width {
                out.push(b);
            } else {
                let parts = width.div_ceil(opts.max_width);
                let base = width / parts;
                let extra = width % parts;
                let mut c = b;
                for p in 0..parts {
                    out.push(c);
                    c += base + usize::from(p < extra);
                }
                debug_assert_eq!(c, e);
            }
        }
        out
    };
    SupernodePartition::from_starts(capped, n)
}

/// Computes the supernodal elimination tree: `parent_sn[s]` is the supernode
/// containing the etree parent of the last column of `s` (`NONE` for roots).
pub fn supernodal_etree(part: &SupernodePartition, parent: &[usize]) -> Vec<usize> {
    (0..part.num_supernodes())
        .map(|s| {
            let last = part.end_col(s) - 1;
            match parent[last] {
                NONE => NONE,
                p => part.col_to_sn[p],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etree::{elimination_tree, factor_counts};
    use crate::perm::Permutation;
    use pselinv_sparse::{gen, SparseMatrix};

    /// Natural-order etree and column counts of a matrix.
    fn tree_and_counts(m: &SparseMatrix) -> (Vec<usize>, Vec<usize>) {
        let pat = m.pattern().symmetrized_with_diagonal();
        let parent = elimination_tree(&pat, &Permutation::identity(pat.ncols()));
        let (cc, _) = factor_counts(&pat, &parent);
        (parent, cc)
    }

    fn setup(nx: usize, ny: usize) -> (Vec<usize>, Vec<usize>) {
        tree_and_counts(&gen::grid_laplacian_2d(nx, ny).matrix)
    }

    #[test]
    fn partition_covers_all_columns() {
        let (parent, cc) = setup(6, 6);
        let p = fundamental_supernodes(&parent, &cc);
        assert_eq!(p.sn_ptr[0], 0);
        assert_eq!(*p.sn_ptr.last().unwrap(), 36);
        for s in 0..p.num_supernodes() {
            assert!(p.width(s) >= 1);
            for j in p.first_col(s)..p.end_col(s) {
                assert_eq!(p.col_to_sn[j], s);
            }
        }
    }

    #[test]
    fn fundamental_condition_holds() {
        let (parent, cc) = setup(8, 8);
        let p = fundamental_supernodes(&parent, &cc);
        for s in 0..p.num_supernodes() {
            for j in p.first_col(s) + 1..p.end_col(s) {
                assert_eq!(parent[j - 1], j);
                assert_eq!(cc[j] + 1, cc[j - 1]);
            }
        }
    }

    #[test]
    fn dense_matrix_is_single_supernode() {
        let (parent, cc) = tree_and_counts(&gen::random_spd(10, 1.0, 0));
        let p = fundamental_supernodes(&parent, &cc);
        assert_eq!(p.num_supernodes(), 1);
    }

    #[test]
    fn width_cap_respected() {
        let (parent, cc) = tree_and_counts(&gen::random_spd(30, 1.0, 0));
        let p = fundamental_supernodes(&parent, &cc);
        let opts = SupernodeOptions { max_width: 8, ..Default::default() };
        let r = relax_supernodes(&p, &parent, &cc, &opts);
        for s in 0..r.num_supernodes() {
            assert!(r.width(s) <= 8, "supernode {s} too wide: {}", r.width(s));
        }
        // 30 columns capped at 8 → at least 4 supernodes
        assert!(r.num_supernodes() >= 4);
    }

    #[test]
    fn amalgamation_reduces_supernode_count() {
        let (parent, cc) = setup(12, 12);
        let p = fundamental_supernodes(&parent, &cc);
        let opts = SupernodeOptions { max_width: 64, relax_small: 8, relax_zero_fraction: 0.3 };
        let r = relax_supernodes(&p, &parent, &cc, &opts);
        assert!(r.num_supernodes() < p.num_supernodes());
        // merged ranges must still chain through the etree or be splits
        assert_eq!(*r.sn_ptr.last().unwrap(), 144);
    }

    #[test]
    fn supernodal_etree_is_monotone() {
        let (parent, cc) = setup(10, 10);
        let p = fundamental_supernodes(&parent, &cc);
        let sn_parent = supernodal_etree(&p, &parent);
        for s in 0..p.num_supernodes() {
            if sn_parent[s] != NONE {
                assert!(sn_parent[s] > s, "supernodal etree must be monotone");
            }
        }
        // exactly the last supernode is a root for a connected grid
        assert_eq!(sn_parent[p.num_supernodes() - 1], NONE);
    }
}
