//! Gathering the dense ancestor sub-matrix `A⁻¹_{C,C}`.
//!
//! For supernode `K` with below-diagonal rows `R`, step 3 of Algorithm 1
//! multiplies by the `|R| × |R|` matrix `A⁻¹_{R,R}`, whose entries live
//! scattered across ancestor panels. The stored structure guarantees every
//! needed entry exists: the block ancestors of `K` lie on `K`'s supernodal
//! parent chain, and `rows(K)` beyond ancestor `J`'s columns is a subset of
//! `rows(J)`.

use pselinv_factor::Panel;
use pselinv_order::SymbolicFactor;

/// Position of each tail row of `K` inside ancestor `J`'s panel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AncestorPos {
    /// Row is one of `J`'s columns: local diagonal-block offset.
    Diag(usize),
    /// Row is in `J`'s below panel at this offset.
    Below(usize),
    /// Row precedes `J` (never queried).
    BeforeJ,
}

/// Computes, for every row in `rows` (sorted), its position within
/// supernode `j`'s panel. Rows before `j`'s first column map to
/// [`AncestorPos::BeforeJ`]. Panics if a row at or beyond `j`'s columns is
/// missing from `j`'s structure (which would violate the parent-chain
/// containment property).
pub fn ancestor_positions(sf: &SymbolicFactor, j: usize, rows: &[usize]) -> Vec<AncestorPos> {
    let first = sf.first_col(j);
    let end = sf.end_col(j);
    let rj = sf.rows_of(j);
    let mut out = Vec::with_capacity(rows.len());
    let mut t = 0usize; // cursor into rj
    for &r in rows {
        if r < first {
            out.push(AncestorPos::BeforeJ);
        } else if r < end {
            out.push(AncestorPos::Diag(r - first));
        } else {
            while t < rj.len() && rj[t] < r {
                t += 1;
            }
            assert!(
                t < rj.len() && rj[t] == r,
                "row {r} of a descendant is missing from ancestor supernode {j}"
            );
            out.push(AncestorPos::Below(t));
        }
    }
    out
}

/// Reads `A⁻¹(row_pos, col_local)` from ancestor `J`'s panel given a
/// precomputed position.
#[inline]
pub fn read_ancestor(panel: &Panel, pos: AncestorPos, col_local: usize) -> f64 {
    match pos {
        AncestorPos::Diag(il) => panel.diag[(il, col_local)],
        AncestorPos::Below(il) => panel.below[(il, col_local)],
        AncestorPos::BeforeJ => panic!("reading a row that precedes the ancestor"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pselinv_order::{analyze, AnalyzeOptions};
    use pselinv_sparse::gen;

    #[test]
    fn positions_resolve_for_all_blocks() {
        let w = gen::grid_laplacian_3d(4, 3, 3);
        let sf = analyze(&w.matrix.pattern(), &AnalyzeOptions::default());
        for k in 0..sf.num_supernodes() {
            let rows = sf.rows_of(k);
            for b in sf.blocks_of(k) {
                let pos = ancestor_positions(&sf, b.sn, rows);
                // Every row at/after the block's ancestor must resolve.
                for (p, &r) in rows.iter().enumerate() {
                    match pos[p] {
                        AncestorPos::BeforeJ => assert!(r < sf.first_col(b.sn)),
                        AncestorPos::Diag(il) => {
                            assert_eq!(sf.first_col(b.sn) + il, r)
                        }
                        AncestorPos::Below(il) => {
                            assert_eq!(sf.rows_of(b.sn)[il], r)
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn block_ancestors_lie_on_parent_chain() {
        // The property the gather relies on.
        let w = gen::dg_hamiltonian(4, 4, 4, 12, 0x3a7e4);
        let sf = analyze(&w.matrix.pattern(), &AnalyzeOptions::default());
        for k in 0..sf.num_supernodes() {
            let mut chain = Vec::new();
            let mut p = sf.sn_parent[k];
            while p != pselinv_order::etree::NONE {
                chain.push(p);
                p = sf.sn_parent[p];
            }
            for b in sf.blocks_of(k) {
                assert!(chain.contains(&b.sn), "block ancestor {} off the parent chain", b.sn);
            }
        }
    }
}
