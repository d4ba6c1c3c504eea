//! Golden digests of the distributed selected inversion at `lookahead = 1`.
//!
//! The window of one has no second implementation to be compared with, so
//! every digest below was **recorded at commit `b77c350`** — where
//! `lookahead = 1` ran a separate blocking loop — with this same file, and
//! must never change: the engine's result is bit-for-bit and byte-for-byte
//! or it is wrong. On a mismatch the test prints the whole table as it
//! computes it now.
//!
//! What is hashed (FNV-1a, 64 bit): per supernode, the panel shape and the
//! `to_bits()` of every entry of `diag` and of `below` (column-major); then
//! every field of every rank's `RankVolume`. The batched case hashes each
//! pole's panels, the aggregate volumes and every pole's per-rank volumes.
//!
//! Re-recording follows the `des`/`factor` goldens: a change that is *meant*
//! to move a result fails `digests_match_the_parent_commit`, whose panic
//! prints the table as computed now. Check that the moved lines are the ones
//! the change should move, paste the table over `GOLDEN`, and name the new
//! parent commit above.

use pselinv_dist::{
    distributed_selinv, factor_poles, try_batched_selinv, BatchOptions, DistOptions,
};
use pselinv_factor::{LdlFactor, Panel};
use pselinv_mpisim::{Grid2D, RankVolume, RunOptions};
use pselinv_order::nd::NdOptions;
use pselinv_order::supernodes::SupernodeOptions;
use pselinv_order::{analyze, AnalyzeOptions, OrderingChoice};
use pselinv_selinv::SelectedInverse;
use pselinv_sparse::{gen, SparseMatrix};
use pselinv_trees::TreeScheme;
use std::fmt::Write as _;
use std::sync::Arc;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for x in v.to_le_bytes() {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn values(&mut self, vals: &[f64]) {
        self.u64(vals.len() as u64);
        for v in vals {
            self.u64(v.to_bits());
        }
    }

    fn panel(&mut self, p: &Panel) {
        self.u64(p.width() as u64);
        self.u64(p.num_below() as u64);
        self.values(p.diag.data());
        self.values(p.below.data());
    }

    fn inverse(&mut self, inv: &SelectedInverse) {
        self.u64(inv.panels.len() as u64);
        inv.panels.iter().for_each(|p| self.panel(p));
    }

    fn volumes(&mut self, vols: &[RankVolume]) {
        self.u64(vols.len() as u64);
        for v in vols {
            let RankVolume { sent, received, msgs_sent, msgs_received, copied, retransmitted } = *v;
            for x in [sent, received, msgs_sent, msgs_received, copied, retransmitted] {
                self.u64(x);
            }
        }
    }
}

fn matrices() -> Vec<(&'static str, SparseMatrix)> {
    vec![
        ("lap12", gen::grid_laplacian_2d(12, 12).matrix),
        ("fem4x4x3", gen::fem_3d(4, 4, 3, 2, 7).matrix),
        ("dg6x6", gen::dg_hamiltonian(6, 6, 1, 6, 0xd6f).matrix),
    ]
}

fn factor(a: &SparseMatrix) -> LdlFactor {
    let sf = Arc::new(analyze(&a.pattern(), &AnalyzeOptions::default()));
    pselinv_factor::factorize(a, sf).expect("the test matrices are nonsingular")
}

const GRIDS: [(usize, usize); 4] = [(1, 1), (2, 2), (2, 3), (3, 1)];

const SCHEMES: [TreeScheme; 5] = [
    TreeScheme::Flat,
    TreeScheme::Binary,
    TreeScheme::ShiftedBinary,
    TreeScheme::RandomPerm,
    TreeScheme::Hybrid { flat_threshold: 3 },
];

fn table() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (name, a) in matrices() {
        let f = factor(&a);
        for (pr, pc) in GRIDS {
            for scheme in SCHEMES {
                for threads in [1, 2] {
                    let opts = DistOptions { scheme, seed: 7, threads, lookahead: 1 };
                    let (inv, vols) = distributed_selinv(&f, Grid2D::new(pr, pc), &opts);
                    let mut h = Fnv::new();
                    h.inverse(&inv);
                    h.volumes(&vols);
                    out.push((format!("{name}/{pr}x{pc}/{scheme}/t{threads}"), h.0));
                }
            }
        }
    }
    out.push(("batch/lap12/2x2/two-poles".to_string(), batch_digest()));
    out
}

/// Two indefinite poles of the Laplacian batched on a 2×2 grid.
fn batch_digest() -> u64 {
    let w = gen::grid_laplacian_2d(12, 12);
    let sf = Arc::new(analyze(&w.matrix.pattern(), &AnalyzeOptions::default()));
    let factors = factor_poles(&w.matrix, &[0.37, 2.8], sf).expect("generic shifts factor");
    let opts = BatchOptions {
        dist: DistOptions { scheme: TreeScheme::ShiftedBinary, seed: 7, threads: 1, lookahead: 1 },
        max_inflight: 2,
    };
    let run = try_batched_selinv(&factors, Grid2D::new(2, 2), &opts, &RunOptions::default())
        .expect("a fault-free batch completes");
    let mut h = Fnv::new();
    run.inverses.iter().for_each(|inv| h.inverse(inv));
    h.volumes(&run.volumes);
    run.query_volumes.iter().for_each(|v| h.volumes(v));
    h.0
}

/// Structures whose GEMM step mixes the dense kernel's two paths, and
/// one with `lap2d-msgs`' narrow supernodes. The three [`matrices`] have two
/// blocked-path `(target, ancestor)` products between them (both in
/// `dg6x6`); `fem8x8x8` has 560 of its 1 658 on a 1×1 grid. Recorded at
/// commit `9e66343`, before the GEMM step gathered one strip per rank and
/// supernode, so the strip's merged products are pinned to the per-pair
/// calls bit for bit.
fn strip_table() -> Vec<(String, u64)> {
    let fem = gen::fem_3d(8, 8, 8, 3, 7);
    let lap = gen::grid_laplacian_2d(24, 24);
    let narrow = AnalyzeOptions {
        ordering: OrderingChoice::NestedDissection(lap.geometry, NdOptions::default()),
        supernode: SupernodeOptions { max_width: 8, relax_small: 2, relax_zero_fraction: 0.3 },
        ..AnalyzeOptions::default()
    };
    let cases =
        [("fem8x8x8", fem.matrix, AnalyzeOptions::default()), ("lap24w8", lap.matrix, narrow)];
    let mut out = Vec::new();
    for (name, a, analyze_opts) in cases {
        let sf = Arc::new(analyze(&a.pattern(), &analyze_opts));
        let f = pselinv_factor::factorize(&a, sf).expect("the test matrices are nonsingular");
        for (pr, pc) in [(1, 1), (2, 2), (2, 3)] {
            for threads in [1, 2] {
                let scheme = TreeScheme::ShiftedBinary;
                let opts = DistOptions { scheme, seed: 7, threads, lookahead: 1 };
                let (inv, vols) = distributed_selinv(&f, Grid2D::new(pr, pc), &opts);
                let mut h = Fnv::new();
                h.inverse(&inv);
                h.volumes(&vols);
                out.push((format!("{name}/{pr}x{pc}/{scheme}/t{threads}"), h.0));
            }
        }
    }
    out
}

/// Panics with the table as computed now unless `actual` equals `golden`.
fn assert_table(actual: &[(String, u64)], golden: &[(&str, u64)]) {
    let same = actual.len() == golden.len()
        && actual.iter().zip(golden).all(|((la, da), (lg, dg))| la == lg && da == dg);
    if same {
        return;
    }
    let mut table = String::new();
    for (label, digest) in actual {
        writeln!(table, "    (\"{label}\", 0x{digest:016x}),").unwrap();
    }
    let moved: Vec<&str> = actual
        .iter()
        .zip(golden)
        .filter(|((la, da), (lg, dg))| la != lg || da != dg)
        .map(|((la, _), _)| la.as_str())
        .collect();
    panic!(
        "{} of {} digests differ from the ones recorded at the parent commit (first: {:?}). \
         Computed now:\n{table}",
        moved.len().max(actual.len().abs_diff(golden.len())),
        golden.len(),
        moved.first()
    );
}

#[test]
fn digests_match_the_parent_commit() {
    assert_table(&table(), GOLDEN);
}

#[test]
fn strip_digests_match_the_parent_commit() {
    assert_table(&strip_table(), STRIP_GOLDEN);
}

#[test]
fn threads_do_not_move_a_digest() {
    // Pool ≡ serial is a contract of its own: the t1 and t2 lines of one
    // case must agree, so the table is not just a record of itself.
    for pair in GOLDEN[..GOLDEN.len() - 1].chunks(2).chain(STRIP_GOLDEN.chunks(2)) {
        let [(l1, d1), (l2, d2)] = pair else { panic!("odd table") };
        assert!(l1.ends_with("/t1") && l2.ends_with("/t2"), "{l1} {l2}");
        assert_eq!(d1, d2, "{l1} vs {l2}");
    }
}

/// Three and four participants split a supernode's GEMM jobs — its strips
/// and, on the diagonal owner, the diagonal inverse — and phase 1's solves
/// unevenly, where two split them evenly more often: `fem8x8x8` still hashes
/// to its one-thread digest on 1×1 and 2×2.
#[test]
fn fem8x8x8_at_three_and_four_threads_hashes_to_its_one_thread_digest() {
    let f = factor(&gen::fem_3d(8, 8, 8, 3, 7).matrix);
    let scheme = TreeScheme::ShiftedBinary;
    for (pr, pc) in [(1, 1), (2, 2)] {
        let label = format!("fem8x8x8/{pr}x{pc}/{scheme}/t1");
        let golden = STRIP_GOLDEN.iter().find(|(l, _)| *l == label).expect("a recorded case").1;
        for threads in [3, 4] {
            let opts = DistOptions { scheme, seed: 7, threads, lookahead: 1 };
            let (inv, vols) = distributed_selinv(&f, Grid2D::new(pr, pc), &opts);
            let mut h = Fnv::new();
            h.inverse(&inv);
            h.volumes(&vols);
            assert_eq!(h.0, golden, "{label} at {threads} threads");
        }
    }
}

/// Loss, duplication and reordering reach every data message — the
/// engine's plain transposes as much as its tree collectives — and the
/// reliable transport repairs them: the lossy run hashes to the fault-free
/// golden digest once the control-plane `retransmitted` counter (the only
/// volume field loss may move) is set aside.
#[test]
fn lap12_2x2_under_loss_equals_its_golden_digest() {
    use pselinv_chaos::{FaultPlan, FaultSpec};
    use pselinv_dist::try_distributed_selinv_traced;
    use pselinv_mpisim::ReliableConfig;
    use pselinv_trace::{EventKind, FaultKind};
    use std::time::Duration;

    let scheme = TreeScheme::ShiftedBinary;
    let label = format!("lap12/2x2/{scheme}/t1");
    let golden = GOLDEN.iter().find(|(l, _)| *l == label).expect("a recorded case").1;
    let plan = FaultPlan::new(0x1055).with_default(FaultSpec {
        drop_permille: 100,
        duplicate_permille: 200,
        reorder_permille: 200,
        ..FaultSpec::default()
    });
    let run_opts = RunOptions {
        poll: Duration::from_millis(2),
        faults: Some(plan),
        reliable: Some(ReliableConfig {
            rto: Duration::from_millis(2),
            ..ReliableConfig::default()
        }),
        ..RunOptions::default()
    };
    let f = factor(&matrices().swap_remove(0).1);
    let opts = DistOptions { scheme, seed: 7, threads: 1, lookahead: 1 };
    let (inv, mut vols, trace) =
        try_distributed_selinv_traced(&f, Grid2D::new(2, 2), &opts, &run_opts, "lossy")
            .expect("a lossy run completes under the reliable transport");
    // The top tag byte is the engine's phase: 2 and 6 are its two
    // transposes (`L̂ → Û` and step 5's `A⁻¹`).
    let lost_transposes = trace
        .ranks
        .iter()
        .flat_map(|r| &r.events)
        .filter(|e| {
            matches!(e.kind, EventKind::Fault { what: FaultKind::Dropped, tag, .. }
                if matches!(tag >> 56, 2 | 6))
        })
        .count();
    assert!(lost_transposes > 0, "the plan must drop some transposes");
    vols.iter_mut().for_each(|v| v.retransmitted = 0);
    let mut h = Fnv::new();
    h.inverse(&inv);
    h.volumes(&vols);
    assert_eq!(h.0, golden, "{label} under loss");
}

#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("lap12/1x1/Flat-Tree/t1", 0x57f970b246ccf618),
    ("lap12/1x1/Flat-Tree/t2", 0x57f970b246ccf618),
    ("lap12/1x1/Binary-Tree/t1", 0x57f970b246ccf618),
    ("lap12/1x1/Binary-Tree/t2", 0x57f970b246ccf618),
    ("lap12/1x1/Shifted Binary-Tree/t1", 0x57f970b246ccf618),
    ("lap12/1x1/Shifted Binary-Tree/t2", 0x57f970b246ccf618),
    ("lap12/1x1/Random-Permutation Tree/t1", 0x57f970b246ccf618),
    ("lap12/1x1/Random-Permutation Tree/t2", 0x57f970b246ccf618),
    ("lap12/1x1/Hybrid(3)/t1", 0x57f970b246ccf618),
    ("lap12/1x1/Hybrid(3)/t2", 0x57f970b246ccf618),
    ("lap12/2x2/Flat-Tree/t1", 0x1e13f68ecf027ca9),
    ("lap12/2x2/Flat-Tree/t2", 0x1e13f68ecf027ca9),
    ("lap12/2x2/Binary-Tree/t1", 0x1e13f68ecf027ca9),
    ("lap12/2x2/Binary-Tree/t2", 0x1e13f68ecf027ca9),
    ("lap12/2x2/Shifted Binary-Tree/t1", 0x1e13f68ecf027ca9),
    ("lap12/2x2/Shifted Binary-Tree/t2", 0x1e13f68ecf027ca9),
    ("lap12/2x2/Random-Permutation Tree/t1", 0x1e13f68ecf027ca9),
    ("lap12/2x2/Random-Permutation Tree/t2", 0x1e13f68ecf027ca9),
    ("lap12/2x2/Hybrid(3)/t1", 0x1e13f68ecf027ca9),
    ("lap12/2x2/Hybrid(3)/t2", 0x1e13f68ecf027ca9),
    ("lap12/2x3/Flat-Tree/t1", 0x99c694de6b78950e),
    ("lap12/2x3/Flat-Tree/t2", 0x99c694de6b78950e),
    ("lap12/2x3/Binary-Tree/t1", 0x99c694de6b78950e),
    ("lap12/2x3/Binary-Tree/t2", 0x99c694de6b78950e),
    ("lap12/2x3/Shifted Binary-Tree/t1", 0xdc3a1a465f27ae8f),
    ("lap12/2x3/Shifted Binary-Tree/t2", 0xdc3a1a465f27ae8f),
    ("lap12/2x3/Random-Permutation Tree/t1", 0x99c694de6b78950e),
    ("lap12/2x3/Random-Permutation Tree/t2", 0x99c694de6b78950e),
    ("lap12/2x3/Hybrid(3)/t1", 0xdc3a1a465f27ae8f),
    ("lap12/2x3/Hybrid(3)/t2", 0xdc3a1a465f27ae8f),
    ("lap12/3x1/Flat-Tree/t1", 0xe76f899a2cf93374),
    ("lap12/3x1/Flat-Tree/t2", 0xe76f899a2cf93374),
    ("lap12/3x1/Binary-Tree/t1", 0xe76f899a2cf93374),
    ("lap12/3x1/Binary-Tree/t2", 0xe76f899a2cf93374),
    ("lap12/3x1/Shifted Binary-Tree/t1", 0xe76f899a2cf93374),
    ("lap12/3x1/Shifted Binary-Tree/t2", 0xe76f899a2cf93374),
    ("lap12/3x1/Random-Permutation Tree/t1", 0xe76f899a2cf93374),
    ("lap12/3x1/Random-Permutation Tree/t2", 0xe76f899a2cf93374),
    ("lap12/3x1/Hybrid(3)/t1", 0xe76f899a2cf93374),
    ("lap12/3x1/Hybrid(3)/t2", 0xe76f899a2cf93374),
    ("fem4x4x3/1x1/Flat-Tree/t1", 0xad80def166beee94),
    ("fem4x4x3/1x1/Flat-Tree/t2", 0xad80def166beee94),
    ("fem4x4x3/1x1/Binary-Tree/t1", 0xad80def166beee94),
    ("fem4x4x3/1x1/Binary-Tree/t2", 0xad80def166beee94),
    ("fem4x4x3/1x1/Shifted Binary-Tree/t1", 0xad80def166beee94),
    ("fem4x4x3/1x1/Shifted Binary-Tree/t2", 0xad80def166beee94),
    ("fem4x4x3/1x1/Random-Permutation Tree/t1", 0xad80def166beee94),
    ("fem4x4x3/1x1/Random-Permutation Tree/t2", 0xad80def166beee94),
    ("fem4x4x3/1x1/Hybrid(3)/t1", 0xad80def166beee94),
    ("fem4x4x3/1x1/Hybrid(3)/t2", 0xad80def166beee94),
    ("fem4x4x3/2x2/Flat-Tree/t1", 0x5f6a6a2fa3504add),
    ("fem4x4x3/2x2/Flat-Tree/t2", 0x5f6a6a2fa3504add),
    ("fem4x4x3/2x2/Binary-Tree/t1", 0x5f6a6a2fa3504add),
    ("fem4x4x3/2x2/Binary-Tree/t2", 0x5f6a6a2fa3504add),
    ("fem4x4x3/2x2/Shifted Binary-Tree/t1", 0x5f6a6a2fa3504add),
    ("fem4x4x3/2x2/Shifted Binary-Tree/t2", 0x5f6a6a2fa3504add),
    ("fem4x4x3/2x2/Random-Permutation Tree/t1", 0x5f6a6a2fa3504add),
    ("fem4x4x3/2x2/Random-Permutation Tree/t2", 0x5f6a6a2fa3504add),
    ("fem4x4x3/2x2/Hybrid(3)/t1", 0x5f6a6a2fa3504add),
    ("fem4x4x3/2x2/Hybrid(3)/t2", 0x5f6a6a2fa3504add),
    ("fem4x4x3/2x3/Flat-Tree/t1", 0x7032ba37fb8d3723),
    ("fem4x4x3/2x3/Flat-Tree/t2", 0x7032ba37fb8d3723),
    ("fem4x4x3/2x3/Binary-Tree/t1", 0x7032ba37fb8d3723),
    ("fem4x4x3/2x3/Binary-Tree/t2", 0x7032ba37fb8d3723),
    ("fem4x4x3/2x3/Shifted Binary-Tree/t1", 0x7032ba37fb8d3723),
    ("fem4x4x3/2x3/Shifted Binary-Tree/t2", 0x7032ba37fb8d3723),
    ("fem4x4x3/2x3/Random-Permutation Tree/t1", 0x7032ba37fb8d3723),
    ("fem4x4x3/2x3/Random-Permutation Tree/t2", 0x7032ba37fb8d3723),
    ("fem4x4x3/2x3/Hybrid(3)/t1", 0x7032ba37fb8d3723),
    ("fem4x4x3/2x3/Hybrid(3)/t2", 0x7032ba37fb8d3723),
    ("fem4x4x3/3x1/Flat-Tree/t1", 0x4677032954cd207d),
    ("fem4x4x3/3x1/Flat-Tree/t2", 0x4677032954cd207d),
    ("fem4x4x3/3x1/Binary-Tree/t1", 0x4677032954cd207d),
    ("fem4x4x3/3x1/Binary-Tree/t2", 0x4677032954cd207d),
    ("fem4x4x3/3x1/Shifted Binary-Tree/t1", 0x4677032954cd207d),
    ("fem4x4x3/3x1/Shifted Binary-Tree/t2", 0x4677032954cd207d),
    ("fem4x4x3/3x1/Random-Permutation Tree/t1", 0x4677032954cd207d),
    ("fem4x4x3/3x1/Random-Permutation Tree/t2", 0x4677032954cd207d),
    ("fem4x4x3/3x1/Hybrid(3)/t1", 0x4677032954cd207d),
    ("fem4x4x3/3x1/Hybrid(3)/t2", 0x4677032954cd207d),
    ("dg6x6/1x1/Flat-Tree/t1", 0xf2406d4fa2bf1998),
    ("dg6x6/1x1/Flat-Tree/t2", 0xf2406d4fa2bf1998),
    ("dg6x6/1x1/Binary-Tree/t1", 0xf2406d4fa2bf1998),
    ("dg6x6/1x1/Binary-Tree/t2", 0xf2406d4fa2bf1998),
    ("dg6x6/1x1/Shifted Binary-Tree/t1", 0xf2406d4fa2bf1998),
    ("dg6x6/1x1/Shifted Binary-Tree/t2", 0xf2406d4fa2bf1998),
    ("dg6x6/1x1/Random-Permutation Tree/t1", 0xf2406d4fa2bf1998),
    ("dg6x6/1x1/Random-Permutation Tree/t2", 0xf2406d4fa2bf1998),
    ("dg6x6/1x1/Hybrid(3)/t1", 0xf2406d4fa2bf1998),
    ("dg6x6/1x1/Hybrid(3)/t2", 0xf2406d4fa2bf1998),
    ("dg6x6/2x2/Flat-Tree/t1", 0xbdf46280e808e4ed),
    ("dg6x6/2x2/Flat-Tree/t2", 0xbdf46280e808e4ed),
    ("dg6x6/2x2/Binary-Tree/t1", 0xbdf46280e808e4ed),
    ("dg6x6/2x2/Binary-Tree/t2", 0xbdf46280e808e4ed),
    ("dg6x6/2x2/Shifted Binary-Tree/t1", 0xbdf46280e808e4ed),
    ("dg6x6/2x2/Shifted Binary-Tree/t2", 0xbdf46280e808e4ed),
    ("dg6x6/2x2/Random-Permutation Tree/t1", 0xbdf46280e808e4ed),
    ("dg6x6/2x2/Random-Permutation Tree/t2", 0xbdf46280e808e4ed),
    ("dg6x6/2x2/Hybrid(3)/t1", 0xbdf46280e808e4ed),
    ("dg6x6/2x2/Hybrid(3)/t2", 0xbdf46280e808e4ed),
    ("dg6x6/2x3/Flat-Tree/t1", 0xf7505a7782c3768d),
    ("dg6x6/2x3/Flat-Tree/t2", 0xf7505a7782c3768d),
    ("dg6x6/2x3/Binary-Tree/t1", 0xf7505a7782c3768d),
    ("dg6x6/2x3/Binary-Tree/t2", 0xf7505a7782c3768d),
    ("dg6x6/2x3/Shifted Binary-Tree/t1", 0xf7505a7782c3768d),
    ("dg6x6/2x3/Shifted Binary-Tree/t2", 0xf7505a7782c3768d),
    ("dg6x6/2x3/Random-Permutation Tree/t1", 0xf7505a7782c3768d),
    ("dg6x6/2x3/Random-Permutation Tree/t2", 0xf7505a7782c3768d),
    ("dg6x6/2x3/Hybrid(3)/t1", 0xf7505a7782c3768d),
    ("dg6x6/2x3/Hybrid(3)/t2", 0xf7505a7782c3768d),
    ("dg6x6/3x1/Flat-Tree/t1", 0xc056e784331c9808),
    ("dg6x6/3x1/Flat-Tree/t2", 0xc056e784331c9808),
    ("dg6x6/3x1/Binary-Tree/t1", 0xc056e784331c9808),
    ("dg6x6/3x1/Binary-Tree/t2", 0xc056e784331c9808),
    ("dg6x6/3x1/Shifted Binary-Tree/t1", 0xc056e784331c9808),
    ("dg6x6/3x1/Shifted Binary-Tree/t2", 0xc056e784331c9808),
    ("dg6x6/3x1/Random-Permutation Tree/t1", 0xc056e784331c9808),
    ("dg6x6/3x1/Random-Permutation Tree/t2", 0xc056e784331c9808),
    ("dg6x6/3x1/Hybrid(3)/t1", 0xc056e784331c9808),
    ("dg6x6/3x1/Hybrid(3)/t2", 0xc056e784331c9808),
    ("batch/lap12/2x2/two-poles", 0x04f29f84d8b88200),
];

#[rustfmt::skip]
const STRIP_GOLDEN: &[(&str, u64)] = &[
    ("fem8x8x8/1x1/Shifted Binary-Tree/t1", 0x0e5798706fb83c0c),
    ("fem8x8x8/1x1/Shifted Binary-Tree/t2", 0x0e5798706fb83c0c),
    ("fem8x8x8/2x2/Shifted Binary-Tree/t1", 0xc8e5a2195f1f0c8f),
    ("fem8x8x8/2x2/Shifted Binary-Tree/t2", 0xc8e5a2195f1f0c8f),
    ("fem8x8x8/2x3/Shifted Binary-Tree/t1", 0x78574fb199c51cff),
    ("fem8x8x8/2x3/Shifted Binary-Tree/t2", 0x78574fb199c51cff),
    ("lap24w8/1x1/Shifted Binary-Tree/t1", 0x3439ffd13827095e),
    ("lap24w8/1x1/Shifted Binary-Tree/t2", 0x3439ffd13827095e),
    ("lap24w8/2x2/Shifted Binary-Tree/t1", 0xeac34df6b07d729c),
    ("lap24w8/2x2/Shifted Binary-Tree/t2", 0xeac34df6b07d729c),
    ("lap24w8/2x3/Shifted Binary-Tree/t1", 0xf149da7f260d8b9c),
    ("lap24w8/2x3/Shifted Binary-Tree/t2", 0xf149da7f260d8b9c),
];
