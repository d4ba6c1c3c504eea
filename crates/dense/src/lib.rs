//! Column-major dense block kernels.
//!
//! The supernodal numeric factorization and the selected inversion operate
//! on dense panels; this crate provides the BLAS-3-style kernels they need
//! (no external BLAS dependency):
//!
//! * [`Mat`] — an owned column-major matrix with views into raw slices;
//! * [`gemm`] — general matrix multiply with transpose flags, and
//!   [`gemm_partitioned`] — a sum of block products in one pass, bit-identical
//!   to one `gemm` per block; [`gemm_tiled`] is the same pass over operands
//!   already in the microkernel's layout — `A`'s row blocks as [`RowTiles`]
//!   (`MR`-row tiles over all of `k`), `B` packed once as [`PackedCols`]
//!   (`NR`-column panels over all of `k`) — so a caller can gather `A`
//!   straight into tiles and share one packed `B` among many products, and
//!   [`scalar_path`] is the one rule that picks a product's path;
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
    gemm, gemm_partitioned, gemm_tiled, scalar_path, trsm_left_lower, trsm_left_lower_trans,
    trsm_right_lower, trsm_right_lower_cols, trsm_right_lower_trans, BlockPush, PackedCols,
    RowTiles, Transpose,
};
pub use ldlt::{ldlt_factor, ldlt_invert, ldlt_solve};
pub use lu::{lu_factor, lu_invert, lu_solve};
pub use mat::Mat;
