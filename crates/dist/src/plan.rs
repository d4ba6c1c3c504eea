//! Per-supernode communication plans (the paper's preprocessing step).
//!
//! Once the factors and the 2-D mapping are fixed, the participant set of
//! every restricted collective is known; trees can therefore be built
//! locally and deterministically on every rank ("no further communication
//! is needed to set up the tree once the list of processors is known").

use crate::layout::Layout;
use pselinv_trees::{CollectiveTree, TreeBuilder};

/// Collective kinds, used to derive independent tree keys and message tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollectiveKind {
    /// Loop-1 broadcast of `L_{K,K}` down process column `pc(K)`.
    DiagBcast,
    /// `Col-Bcast`: broadcast of `Û_{K,I} = L̂ᵀ_{I,K}` down process column
    /// `pc(I)` (step a in paper Fig. 2).
    ColBcast,
    /// `Row-Reduce`: reduction of `A⁻¹_{J,I} L̂_{I,K}` across process row
    /// `pr(J)` onto the owner of `A⁻¹_{J,K}` (step b).
    RowReduce,
    /// Reduction of `L̂ᵀ_{I,K} A⁻¹_{I,K}` down process column `pc(K)` onto
    /// the diagonal owner (step c).
    DiagReduce,
}

impl CollectiveKind {
    fn key_base(self) -> u64 {
        match self {
            CollectiveKind::DiagBcast => 1 << 60,
            CollectiveKind::ColBcast => 2 << 60,
            CollectiveKind::RowReduce => 3 << 60,
            CollectiveKind::DiagReduce => 4 << 60,
        }
    }
}

/// Everything supernode `K`'s step of Algorithm 1 needs to communicate.
#[derive(Clone, Debug)]
pub struct SupernodePlan {
    /// The supernode.
    pub k: usize,
    /// Loop-1 broadcast of the diagonal block within `pc(K)`.
    pub diag_bcast: CollectiveTree,
    /// Per ancestor block (same order as `blocks_of(k)`): the transpose
    /// point-to-point `(src, dst)`, from the `L̂` owner to the `Û` owner.
    /// The step-5 `A⁻¹` transpose travels the same edge.
    pub transposes: Vec<(usize, usize)>,
    /// Per ancestor block: the `Col-Bcast` tree rooted at the `Û` owner.
    pub col_bcasts: Vec<CollectiveTree>,
    /// Per ancestor block (as reduction target `J`): the `Row-Reduce` tree
    /// rooted at the owner of `A⁻¹_{J,K}`.
    pub row_reduces: Vec<CollectiveTree>,
    /// Diagonal-contribution reduction within `pc(K)`.
    pub diag_reduce: CollectiveTree,
}

/// Builds [`SupernodePlan`]s on demand from a layout and a tree builder.
#[derive(Clone)]
pub struct CommPlan {
    /// The block-cyclic layout.
    pub layout: Layout,
    /// Deterministic tree factory (scheme + seed).
    pub builder: TreeBuilder,
}

impl CommPlan {
    /// Creates a plan factory.
    pub fn new(layout: Layout, builder: TreeBuilder) -> Self {
        Self { layout, builder }
    }

    /// Key identifying one collective of one supernode, mixed into the
    /// tree builder's seed so concurrent collectives get independent
    /// shifts.
    pub fn tree_key(kind: CollectiveKind, k: usize, block_in_k: usize) -> u64 {
        kind.key_base() | ((k as u64) << 24) | block_in_k as u64
    }

    /// Builds the plans of every supernode once, for shared read-only use
    /// by all rank threads. Without this, each rank rebuilds every tree of
    /// every supernode in both traversal phases — `O(ranks × supernodes)`
    /// redundant tree constructions per run.
    pub fn precompute_all(&self) -> std::sync::Arc<Vec<SupernodePlan>> {
        let ns = self.layout.symbolic.num_supernodes();
        std::sync::Arc::new((0..ns).map(|k| self.supernode_plan(k)).collect())
    }

    /// Builds the full communication plan of supernode `k`.
    pub fn supernode_plan(&self, k: usize) -> SupernodePlan {
        let sf = &*self.layout.symbolic;
        let grid = self.layout.grid;
        let blocks = sf.blocks_of(k);
        let diag_owner = self.layout.diag_owner(k);

        // Loop-1 diag bcast: to every distinct lower-block owner.
        let mut lower_owners: Vec<usize> =
            blocks.iter().map(|b| self.layout.lower_owner(b, k)).collect();
        let mut diag_receivers = lower_owners.clone();
        diag_receivers.sort_unstable();
        diag_receivers.dedup();
        diag_receivers.retain(|&r| r != diag_owner);
        let diag_bcast = self.builder.build(
            diag_owner,
            &diag_receivers,
            Self::tree_key(CollectiveKind::DiagBcast, k, 0),
        );

        // The distinct process rows and columns of the ancestor blocks: the
        // GEMM participants of block `I` are the ranks of `pc(I)` in these
        // rows, and the `Row-Reduce` contributors of block `J` the ranks of
        // `pr(J)` in these columns. `rank_of` ascends in either coordinate,
        // so each list below comes out sorted and distinct.
        let distinct = |of: &dyn Fn(usize) -> usize| {
            let mut v: Vec<usize> = blocks.iter().map(|b| of(b.sn)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let prows = distinct(&|sn| grid.prow_of_block(sn));
        let pcols = distinct(&|sn| grid.pcol_of_block(sn));

        let mut transposes = Vec::with_capacity(blocks.len());
        let mut col_bcasts = Vec::with_capacity(blocks.len());
        let mut row_reduces = Vec::with_capacity(blocks.len());
        let mut others = Vec::with_capacity(prows.len().max(pcols.len()));

        for (bi, b) in blocks.iter().enumerate() {
            let src = lower_owners[bi];
            let dst = self.layout.upper_owner(b, k);
            transposes.push((src, dst));

            // Col-Bcast of Û_{K,I} within process column pc(I): one message
            // per distinct process row hosting a GEMM participant.
            let pcol_i = grid.pcol_of_block(b.sn);
            others.clear();
            others.extend(prows.iter().map(|&pr| grid.rank_of(pr, pcol_i)).filter(|&r| r != dst));
            col_bcasts.push(self.builder.build(
                dst,
                &others,
                Self::tree_key(CollectiveKind::ColBcast, k, bi),
            ));

            // Row-Reduce onto the owner of A⁻¹_{J,K} within process row
            // pr(J): one contribution per distinct process column hosting
            // one of the ancestors I.
            let prow_j = grid.prow_of_block(b.sn);
            others.clear();
            others.extend(pcols.iter().map(|&pc| grid.rank_of(prow_j, pc)).filter(|&r| r != src));
            row_reduces.push(self.builder.build(
                src,
                &others,
                Self::tree_key(CollectiveKind::RowReduce, k, bi),
            ));
        }

        // Diagonal reduction within pc(K): contributions from every
        // distinct lower-block owner.
        lower_owners.sort_unstable();
        lower_owners.dedup();
        lower_owners.retain(|&r| r != diag_owner);
        let diag_reduce = self.builder.build(
            diag_owner,
            &lower_owners,
            Self::tree_key(CollectiveKind::DiagReduce, k, 0),
        );

        SupernodePlan { k, diag_bcast, transposes, col_bcasts, row_reduces, diag_reduce }
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

    fn make_plan(pr: usize, pc: usize, scheme: TreeScheme) -> CommPlan {
        let w = gen::grid_laplacian_2d(12, 12);
        let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
        let layout = Layout::new(sf, Grid2D::new(pr, pc));
        CommPlan::new(layout, TreeBuilder::new(scheme, 42))
    }

    #[test]
    fn col_bcast_stays_in_one_process_column() {
        let plan = make_plan(3, 4, TreeScheme::ShiftedBinary);
        let sf = plan.layout.symbolic.clone();
        for k in 0..sf.num_supernodes() {
            let sp = plan.supernode_plan(k);
            for (bi, b) in sf.blocks_of(k).iter().enumerate() {
                let tree = &sp.col_bcasts[bi];
                let pcol = plan.layout.grid.pcol_of_block(b.sn);
                for &m in tree.members() {
                    assert_eq!(plan.layout.grid.col_of(m), pcol, "k={k} block={bi}");
                }
                assert_eq!(tree.root(), plan.layout.upper_owner(b, k));
            }
        }
    }

    #[test]
    fn row_reduce_stays_in_one_process_row() {
        let plan = make_plan(4, 3, TreeScheme::Binary);
        let sf = plan.layout.symbolic.clone();
        for k in 0..sf.num_supernodes() {
            let sp = plan.supernode_plan(k);
            for (bi, b) in sf.blocks_of(k).iter().enumerate() {
                let tree = &sp.row_reduces[bi];
                let prow = plan.layout.grid.prow_of_block(b.sn);
                for &m in tree.members() {
                    assert_eq!(plan.layout.grid.row_of(m), prow, "k={k} block={bi}");
                }
                assert_eq!(tree.root(), plan.layout.lower_owner(b, k));
            }
        }
    }

    #[test]
    fn gemm_participants_are_covered_by_col_bcast() {
        // Every rank that must run a GEMM with Û_{K,I} is a member of the
        // Col-Bcast tree of block I.
        let plan = make_plan(3, 3, TreeScheme::Flat);
        let sf = plan.layout.symbolic.clone();
        let grid = plan.layout.grid;
        for k in 0..sf.num_supernodes() {
            let blocks = sf.blocks_of(k);
            let sp = plan.supernode_plan(k);
            for (bi, b) in blocks.iter().enumerate() {
                let pcol_i = grid.pcol_of_block(b.sn);
                for bj in blocks {
                    let gemm_rank = grid.rank_of(grid.prow_of_block(bj.sn), pcol_i);
                    assert!(
                        sp.col_bcasts[bi].members().contains(&gemm_rank),
                        "k={k}: GEMM rank {gemm_rank} missing from Col-Bcast of block {bi}"
                    );
                }
            }
        }
    }

    #[test]
    fn plans_are_deterministic() {
        let p1 = make_plan(3, 4, TreeScheme::ShiftedBinary);
        let p2 = make_plan(3, 4, TreeScheme::ShiftedBinary);
        for k in 0..p1.layout.symbolic.num_supernodes() {
            let a = p1.supernode_plan(k);
            let b = p2.supernode_plan(k);
            assert_eq!(a.col_bcasts, b.col_bcasts);
            assert_eq!(a.row_reduces, b.row_reduces);
            assert_eq!(a.transposes, b.transposes);
        }
    }

    #[test]
    fn precomputed_plans_match_on_demand_construction() {
        let plan = make_plan(3, 4, TreeScheme::ShiftedBinary);
        let all = plan.precompute_all();
        assert_eq!(all.len(), plan.layout.symbolic.num_supernodes());
        for (k, sp) in all.iter().enumerate() {
            let fresh = plan.supernode_plan(k);
            assert_eq!(sp.k, fresh.k);
            assert_eq!(sp.diag_bcast, fresh.diag_bcast);
            assert_eq!(sp.col_bcasts, fresh.col_bcasts);
            assert_eq!(sp.row_reduces, fresh.row_reduces);
            assert_eq!(sp.diag_reduce, fresh.diag_reduce);
            assert_eq!(sp.transposes, fresh.transposes);
        }
    }

    #[test]
    fn keys_are_unique_across_collectives() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..1000usize {
            for b in 0..20usize {
                for kind in [
                    CollectiveKind::DiagBcast,
                    CollectiveKind::ColBcast,
                    CollectiveKind::RowReduce,
                    CollectiveKind::DiagReduce,
                ] {
                    assert!(seen.insert(CommPlan::tree_key(kind, k, b)));
                }
            }
        }
    }

    #[test]
    fn single_rank_grid_degenerates_gracefully() {
        let plan = make_plan(1, 1, TreeScheme::ShiftedBinary);
        let sf = plan.layout.symbolic.clone();
        for k in 0..sf.num_supernodes() {
            let sp = plan.supernode_plan(k);
            assert!(sp.diag_bcast.is_empty());
            for t in &sp.col_bcasts {
                assert!(t.is_empty());
            }
            for &(s, d) in &sp.transposes {
                assert_eq!(s, d);
            }
        }
    }
}
