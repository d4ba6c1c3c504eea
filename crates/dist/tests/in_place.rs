//! `A⁻¹` is written in place: every rank fills the blocks of the output
//! panels it owns, and nothing else.
//!
//! Each region of a query's [`AinvPanels`] — one lower block, or one
//! diagonal block — records the rank that wrote it, and refuses a second
//! write. After a run, every region of every panel must have been written,
//! by [`Layout::lower_owner`] or [`Layout::diag_owner`]: so each block was
//! written exactly once, by its owner. Any access by another rank panics
//! and names the rank, the supernode and the block.

use pselinv_dist::{
    factor_poles, try_batched_selinv_panels, AinvPanels, BatchOptions, DistOptions, Layout,
};
use pselinv_mpisim::{Grid2D, RunOptions};
use pselinv_order::{analyze, AnalyzeOptions};
use pselinv_selinv::selinv_ldlt;
use pselinv_sparse::gen;
use pselinv_trees::TreeScheme;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const GRIDS: [(usize, usize); 4] = [(1, 1), (2, 2), (2, 3), (3, 1)];

/// Asserts that every region of `panels` was written by its owner.
fn assert_written_by_owners(panels: &AinvPanels, layout: &Layout, what: &str) {
    let sf = &layout.symbolic;
    for k in 0..sf.num_supernodes() {
        for (bi, b) in sf.blocks_of(k).iter().enumerate() {
            let owner = layout.lower_owner(b, k);
            assert_eq!(panels.lower_writer(k, bi), Some(owner), "{what}: supernode {k} block {bi}");
        }
        let owner = layout.diag_owner(k);
        assert_eq!(panels.diag_writer(k), Some(owner), "{what}: supernode {k} diagonal");
    }
}

fn options(threads: usize, lookahead: usize) -> DistOptions {
    DistOptions { scheme: TreeScheme::ShiftedBinary, seed: 7, threads, lookahead }
}

#[test]
fn every_block_is_written_once_by_its_owner_on_every_grid() {
    let w = gen::grid_laplacian_2d(12, 12);
    let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
    let f = pselinv_factor::factorize(&w.matrix, sf.clone()).expect("nonsingular");
    let seq = selinv_ldlt(&f);
    for (pr, pc) in GRIDS {
        for (threads, lookahead) in [(1, 1), (2, 4)] {
            let grid = Grid2D::new(pr, pc);
            let what = format!("{pr}x{pc} t{threads} window {lookahead}");
            let opts = BatchOptions { dist: options(threads, lookahead), max_inflight: 1 };
            let (mut panels, _, _) = try_batched_selinv_panels(
                std::slice::from_ref(&f),
                grid,
                &opts,
                &RunOptions::default(),
            )
            .expect("a fault-free run completes");
            let layout = Layout::new(sf.clone(), grid);
            assert_written_by_owners(&panels[0], &layout, &what);
            // The panels are the result, as the sequential inversion has it.
            let inv = panels.pop().expect("one query").into_inverse();
            for (s, (a, b)) in inv.panels.iter().zip(&seq.panels).enumerate() {
                let close =
                    |x: &[f64], y: &[f64]| x.iter().zip(y).all(|(p, q)| (p - q).abs() < 1e-9);
                assert!(close(a.diag.data(), b.diag.data()), "{what}: diagonal of {s}");
                assert!(close(a.below.data(), b.below.data()), "{what}: panel of {s}");
            }
        }
    }
}

#[test]
fn a_two_pole_batch_writes_each_poles_blocks_once_by_their_owners() {
    let w = gen::grid_laplacian_2d(12, 12);
    let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
    let factors = factor_poles(&w.matrix, &[0.37, 2.8], sf.clone()).expect("generic shifts");
    let grid = Grid2D::new(2, 2);
    let opts = BatchOptions { dist: options(1, 2), max_inflight: 2 };
    let (panels, _, _) = try_batched_selinv_panels(&factors, grid, &opts, &RunOptions::default())
        .expect("a fault-free batch completes");
    assert_eq!(panels.len(), 2);
    let layout = Layout::new(sf, grid);
    for (q, p) in panels.iter().enumerate() {
        assert_written_by_owners(p, &layout, &format!("pole {q}"));
    }
}

/// The panic message of `f`.
fn panic_of(f: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("the access must panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn an_access_by_a_non_owner_panics_and_names_rank_supernode_and_block() {
    let w = gen::grid_laplacian_2d(8, 8);
    let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
    let layout = Layout::new(sf.clone(), Grid2D::new(2, 2));
    let panels = AinvPanels::new(&layout);
    // A lower block whose owner differs from its diagonal's, to reach both
    // kinds of region as a non-owner.
    let (k, bi, owner) = (0..sf.num_supernodes())
        .flat_map(|k| sf.blocks_of(k).iter().enumerate().map(move |(bi, b)| (k, bi, b)))
        .map(|(k, bi, b)| (k, bi, layout.lower_owner(b, k)))
        .find(|&(k, _, owner)| owner != layout.diag_owner(k))
        .expect("a 2x2 grid splits some panel");
    let stranger = (owner + 1) % 4;
    let width = sf.width(k);
    let rows = sf.blocks_of(k)[bi].nrows();
    let block = vec![1.0; rows * width];
    let names = |msg: &str, block: &str| {
        for part in [format!("rank {stranger}"), format!("supernode {k}"), block.to_string()] {
            assert!(msg.contains(&part), "{msg:?} does not name {part:?}");
        }
    };
    let lower = format!("block {bi}");
    names(&panic_of(|| panels.write_lower(stranger, k, bi, &block)), &lower);
    names(
        &panic_of(|| {
            let _ = panels.lower(stranger, k, bi);
        }),
        &lower,
    );
    let diag_stranger = (layout.diag_owner(k) + 1) % 4;
    let diag = vec![1.0; width * width];
    let msg = panic_of(|| panels.write_diag(diag_stranger, k, &diag));
    assert!(
        msg.contains(&format!("rank {diag_stranger}")) && msg.contains(&format!("supernode {k}"))
    );
    assert!(msg.contains("diagonal block"), "{msg:?}");
    // Nothing was written: the owner still finds the region empty.
    assert_eq!(panels.lower_writer(k, bi), None);
    assert!(!panels.landed_lower(owner, sf.blocks_ptr[k] + bi));
}

#[test]
fn a_region_is_read_only_after_it_landed_and_written_only_once() {
    let w = gen::grid_laplacian_2d(8, 8);
    let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
    let layout = Layout::new(sf.clone(), Grid2D::new(1, 1));
    let panels = AinvPanels::new(&layout);
    let k = (0..sf.num_supernodes()).find(|&k| !sf.blocks_of(k).is_empty()).expect("a block");
    let (rows, width) = (sf.blocks_of(k)[0].nrows(), sf.width(k));
    let block: Vec<f64> = (0..rows * width).map(|i| i as f64).collect();
    let early = panic_of(|| {
        let _ = panels.lower(0, k, 0);
    });
    assert!(early.contains("before it landed"), "{early:?}");
    panels.write_lower(0, k, 0, &block);
    assert_eq!(panels.lower_writer(k, 0), Some(0));
    let cols = panels.lower(0, k, 0);
    for j in 0..width {
        assert_eq!(cols.col(j), &block[j * rows..(j + 1) * rows], "column {j}");
    }
    let again = panic_of(|| panels.write_lower(0, k, 0, &block));
    assert!(again.contains("twice") && again.contains(&format!("supernode {k}")), "{again:?}");
    // An inverse needs every region.
    let unfinished = panic_of(move || drop(panels.into_inverse()));
    assert!(unfinished.contains("never landed"), "{unfinished:?}");
}
