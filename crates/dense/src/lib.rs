//! Column-major dense block kernels.
//!
//! The supernodal numeric factorization and the selected inversion operate
//! on dense panels; this crate provides the BLAS-3-style kernels they need
//! (no external BLAS dependency):
//!
//! * [`Mat`] — an owned column-major matrix with views into raw slices;
//! * [`gemm`] — general matrix multiply with transpose flags, and
//!   [`gemm_partitioned`] — a sum of block products in one pass, bit-identical
//!   to one `gemm` per block;
//! * [`trsm_right_lower`] / [`trsm_left_lower`] — triangular solves against
//!   unit/non-unit lower-triangular blocks;
//! * [`ldlt_factor`] / [`ldlt_invert`] — LDLᵀ of a symmetric diagonal block
//!   and the symmetric inverse `L⁻ᵀ D⁻¹ L⁻¹`;
//! * [`lu_factor`] / [`lu_invert`] — partially pivoted LU for the
//!   unsymmetric path.

pub mod kernels;
pub mod ldlt;
pub mod lu;
pub mod mat;

pub use kernels::{
    gemm, gemm_naive, gemm_partitioned, trsm_left_lower, trsm_left_lower_naive,
    trsm_left_lower_trans, trsm_left_lower_trans_naive, trsm_right_lower, trsm_right_lower_naive,
    trsm_right_lower_trans, trsm_right_lower_trans_naive, Transpose,
};
pub use ldlt::{ldlt_factor, ldlt_factor_naive, ldlt_invert, ldlt_solve};
pub use lu::{lu_factor, lu_factor_naive, lu_invert, lu_solve};
pub use mat::Mat;
