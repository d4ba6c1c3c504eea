//! Supernodal numeric factorization, as one task DAG over supernode
//! updates on a `pselinv-pool` pool.
//!
//! [`ldlt::factorize`] computes a supernodal `L·D·Lᵀ` factorization of a
//! symmetric matrix using the structure prepared by
//! [`pselinv_order::analyze`], on one worker per available CPU;
//! [`ldlt::factorize_on`] runs the same code on a caller's
//! [`pselinv_pool::Pool`]. Both run one scheduler (the private `dag`
//! module), and the factor is bit-identical at every worker count. The
//! resulting [`ldlt::LdlFactor`] stores one
//! dense panel per supernode — exactly the representation the selected
//! inversion (sequential in `pselinv-selinv`, distributed in
//! `pselinv-dist`) consumes, and the same one SuperLU_DIST hands to
//! PSelInv in the paper's pipeline.

mod dag;
pub mod ldlt;
pub mod panel;

pub use dag::default_pool;
pub use ldlt::{factorize, factorize_on, FactorError, LdlFactor};
pub use panel::Panel;
