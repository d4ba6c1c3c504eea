//! Sequential selected inversion.
//!
//! Implements Algorithm 1 of the paper at supernode-block granularity,
//! walking the supernodes from last to first:
//!
//! ```text
//! for K = N, N-1, …, 1:
//!     L̂_{C,K}  ← L_{C,K} (L_{K,K})⁻¹
//!     A⁻¹_{C,K} ← -A⁻¹_{C,C} L̂_{C,K}
//!     A⁻¹_{K,K} ← (L_{K,K} D_K L_{K,K}ᵀ)⁻¹ - L̂_{C,K}ᵀ A⁻¹_{C,K}
//! ```
//!
//! [`selinv_ldlt`] inverts the `L·D·Lᵀ` factor the paper works with; it is
//! the correctness oracle for the distributed algorithm in `pselinv-dist`.

pub mod gather;
pub mod symmetric;

pub use symmetric::{selinv_ldlt, SelectedInverse};
