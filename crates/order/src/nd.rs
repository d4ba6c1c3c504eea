//! Geometric nested dissection for grid-structured matrices.
//!
//! The paper's matrices come from meshes (FEM models, DG element grids), for
//! which SuperLU_DIST would use (Par)METIS nested dissection. We reproduce
//! the same elimination-tree shape with a geometric variant: recursively
//! bisect the grid along its longest axis, ordering the two halves first and
//! the separator plane last. All degrees of freedom of one grid node stay
//! contiguous, so DG blocks remain intact.

use crate::perm::Permutation;
use pselinv_sparse::gen::Geometry;

/// Options for geometric nested dissection.
#[derive(Clone, Copy, Debug)]
pub struct NdOptions {
    /// Boxes with at most this many grid nodes are ordered lexicographically
    /// instead of being split further.
    pub leaf_size: usize,
}

impl Default for NdOptions {
    fn default() -> Self {
        Self { leaf_size: 32 }
    }
}

#[derive(Clone, Copy)]
struct BoxRange {
    lo: [usize; 3],
    hi: [usize; 3], // exclusive
}

impl BoxRange {
    fn nodes(&self) -> usize {
        (0..3).map(|d| self.hi[d] - self.lo[d]).product()
    }

    fn longest_axis(&self) -> usize {
        let mut best = 0;
        for d in 1..3 {
            if self.hi[d] - self.lo[d] > self.hi[best] - self.lo[best] {
                best = d;
            }
        }
        best
    }
}

/// Computes a nested-dissection permutation ("old → new") for `geometry`.
pub fn nested_dissection(geometry: &Geometry, opts: NdOptions) -> Permutation {
    let n = geometry.n();
    let mut order: Vec<usize> = Vec::with_capacity(n); // new -> old
    let root = BoxRange { lo: [0, 0, 0], hi: geometry.dims };
    dissect(geometry, root, opts.leaf_size.max(1), &mut order);
    assert_eq!(order.len(), n);
    Permutation::from_old_of_new(order)
}

fn emit_box(geometry: &Geometry, b: BoxRange, order: &mut Vec<usize>) {
    let [nx, ny, _] = geometry.dims;
    for z in b.lo[2]..b.hi[2] {
        for y in b.lo[1]..b.hi[1] {
            for x in b.lo[0]..b.hi[0] {
                let node = (z * ny + y) * nx + x;
                for d in 0..geometry.dof {
                    order.push(node * geometry.dof + d);
                }
            }
        }
    }
}

fn dissect(geometry: &Geometry, b: BoxRange, leaf: usize, order: &mut Vec<usize>) {
    if b.nodes() == 0 {
        return;
    }
    let axis = b.longest_axis();
    let extent = b.hi[axis] - b.lo[axis];
    if b.nodes() <= leaf || extent < 3 {
        emit_box(geometry, b, order);
        return;
    }
    let mid = b.lo[axis] + extent / 2;
    let mut left = b;
    left.hi[axis] = mid;
    let mut sep = b;
    sep.lo[axis] = mid;
    sep.hi[axis] = mid + 1;
    let mut right = b;
    right.lo[axis] = mid + 1;
    dissect(geometry, left, leaf, order);
    dissect(geometry, right, leaf, order);
    emit_box(geometry, sep, order);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etree::{elimination_tree, factor_counts, nnz_factor};
    use pselinv_sparse::gen;

    #[test]
    fn permutation_is_bijective() {
        let g = Geometry { dims: [7, 5, 3], dof: 2 };
        let p = nested_dissection(&g, NdOptions::default());
        assert_eq!(p.len(), g.n());
        // from_old_of_new already validates bijectivity; spot-check a value
        let _ = p.new_of(0);
    }

    #[test]
    fn dof_blocks_stay_contiguous() {
        let g = Geometry { dims: [6, 6, 1], dof: 3 };
        let p = nested_dissection(&g, NdOptions { leaf_size: 4 });
        for node in 0..36usize {
            let base = p.new_of(node * 3);
            assert_eq!(p.new_of(node * 3 + 1), base + 1);
            assert_eq!(p.new_of(node * 3 + 2), base + 2);
        }
    }

    #[test]
    fn nd_reduces_fill_vs_natural_order() {
        let w = gen::grid_laplacian_2d(24, 24);
        let pat = w.matrix.pattern().symmetrized_with_diagonal();

        let natural_parent = elimination_tree(&pat, &Permutation::identity(pat.ncols()));
        let (cc, _) = factor_counts(&pat, &natural_parent);
        let natural_nnz = nnz_factor(&cc);

        let p = nested_dissection(&w.geometry, NdOptions { leaf_size: 8 });
        let permuted = w.matrix.permute_sym(p.new_of_old());
        let ppat = permuted.pattern().symmetrized_with_diagonal();
        let nd_parent = elimination_tree(&ppat, &Permutation::identity(ppat.ncols()));
        let (ncc, _) = factor_counts(&ppat, &nd_parent);
        let nd_nnz = nnz_factor(&ncc);

        assert!(
            (nd_nnz as f64) < 0.8 * natural_nnz as f64,
            "ND fill {nd_nnz} not clearly below natural fill {natural_nnz}"
        );
    }

    #[test]
    fn separator_comes_last() {
        // On a 1-D chain the first split's separator node must be ordered
        // after both halves.
        let g = Geometry { dims: [9, 1, 1], dof: 1 };
        let p = nested_dissection(&g, NdOptions { leaf_size: 1 });
        let sep = 4usize; // middle of 0..9
        for other in 0..9 {
            if other != sep {
                assert!(p.new_of(other) < p.new_of(sep));
            }
        }
    }
}
