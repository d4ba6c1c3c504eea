//! Fill-reducing orderings, elimination trees and supernodal symbolic
//! factorization.
//!
//! This crate performs the entire *analysis* phase of a sparse symmetric
//! factorization, mirroring what SuperLU_DIST / symPACK do before numeric
//! factorization in the paper's pipeline:
//!
//! 1. a fill-reducing permutation — geometric [nested dissection](nd) for
//!    grid-born matrices or [minimum degree](mmd) for general ones;
//! 2. the [elimination tree](etree) of the permuted matrix and a postorder;
//! 3. column counts of the Cholesky factor `L`, by the Gilbert–Ng–Peyton
//!    skeleton-leaf algorithm in O(nnz(A)·α(n));
//! 4. a [supernode partition](supernodes) (fundamental supernodes + relaxed
//!    amalgamation + width capping);
//! 5. the [supernodal symbolic factor](symbolic::SymbolicFactor): per
//!    supernode, the sorted set of below-diagonal row indices of `L`.
//!
//! The input `A` is symmetrized at most once, before any permutation; no
//! step builds the permuted matrix. Each reads it through the permutation
//! instead.
//!
//! The resulting [`symbolic::SymbolicFactor`] is the single structure shared
//! by the sequential numeric factorization (`pselinv-factor`), the sequential
//! selected inversion (`pselinv-selinv`) and the distributed algorithm
//! (`pselinv-dist`).

pub mod etree;
pub mod mmd;
pub mod nd;
pub mod perm;
pub mod supernodes;
pub mod symbolic;

pub use perm::Permutation;
pub use symbolic::{analyze, AnalyzeOptions, OrderingChoice, SymbolicFactor};
