//! Golden digests of the distributed selected inversion at `lookahead = 1`.
//!
//! The window of one has no second implementation to be compared with, so
//! its results are pinned to recorded values, and must never change: the
//! engine's result is bit-for-bit and byte-for-byte or it is wrong. On a
//! mismatch the test prints the whole table as it computes it now.
//!
//! Two tables pin each case:
//!
//! * `GOLDEN` / `STRIP_GOLDEN` (FNV-1a, 64 bit): per supernode, the panel
//!   shape and the `to_bits()` of every entry of `diag` and of `below`
//!   (column-major); then every rank's `RankVolume` except `copied`. The
//!   batched case hashes each pole's panels, the aggregate volumes and every
//!   pole's per-rank volumes. These are the results and the logical traffic;
//!   the panel bits go back to commit `b77c350`, where `lookahead = 1` ran a
//!   separate blocking loop, and the tables were re-derived with this file
//!   at commit `6ada59e`, when `copied` left the hash.
//! * `COPIED` / `STRIP_COPIED`: every rank's `copied`, the bytes it moved
//!   into shared buffers to send. It is how the ranks store things, not what
//!   they compute or send, so it moves when storage does; it was recorded
//!   when the ranks began writing `A⁻¹` into the output panels in place
//!   (EXPERIMENTS.md lists every case before and after).
//!
//! Re-recording follows the `des`/`factor` goldens: a change that is *meant*
//! to move a result fails `digests_match_the_parent_commit` (or
//! `copied_matches_the_parent_commit`), whose panic prints the table as
//! computed now. Check that the moved lines are the ones the change should
//! move, paste the table over the constant, and name the new parent commit
//! above.

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

    /// Every field but `copied`, which [`copied`] pins on its own.
    fn volumes(&mut self, vols: &[RankVolume]) {
        self.u64(vols.len() as u64);
        for v in vols {
            let RankVolume { sent, received, msgs_sent, msgs_received, copied: _, retransmitted } =
                *v;
            for x in [sent, received, msgs_sent, msgs_received, retransmitted] {
                self.u64(x);
            }
        }
    }
}

/// Each rank's `copied`.
fn copied(vols: &[RankVolume]) -> Vec<u64> {
    vols.iter().map(|v| v.copied).collect()
}

/// One case as the tables pin it: the digest of its panels and volumes,
/// and each rank's `copied`.
struct Case {
    label: String,
    digest: u64,
    copied: Vec<u64>,
}

impl Case {
    fn new(label: String, inv: &SelectedInverse, vols: &[RankVolume]) -> Self {
        let mut h = Fnv::new();
        h.inverse(inv);
        h.volumes(vols);
        Case { label, digest: h.0, copied: copied(vols) }
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

fn table() -> Vec<Case> {
    let mut out = Vec::new();
    for (name, a) in matrices() {
        let f = factor(&a);
        for (pr, pc) in GRIDS {
            for scheme in SCHEMES {
                for threads in [1, 2] {
                    let opts = DistOptions { scheme, seed: 7, threads, lookahead: 1 };
                    let (inv, vols) = distributed_selinv(&f, Grid2D::new(pr, pc), &opts);
                    let label = format!("{name}/{pr}x{pc}/{scheme}/t{threads}");
                    out.push(Case::new(label, &inv, &vols));
                }
            }
        }
    }
    out.push(batch_case());
    out
}

/// Two indefinite poles of the Laplacian batched on a 2×2 grid.
fn batch_case() -> Case {
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
    Case {
        label: "batch/lap12/2x2/two-poles".to_string(),
        digest: h.0,
        copied: copied(&run.volumes),
    }
}

/// Structures whose GEMM step mixes the dense kernel's two paths, and
/// one with `lap2d-msgs`' narrow supernodes. The three [`matrices`] have two
/// blocked-path `(target, ancestor)` products between them (both in
/// `dg6x6`); `fem8x8x8` has 560 of its 1 658 on a 1×1 grid. Recorded at
/// commit `9e66343`, before the GEMM step gathered one strip per rank and
/// supernode, so the strip's merged products are pinned to the per-pair
/// calls bit for bit.
fn strip_table() -> Vec<Case> {
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
                let label = format!("{name}/{pr}x{pc}/{scheme}/t{threads}");
                out.push(Case::new(label, &inv, &vols));
            }
        }
    }
    out
}

/// Panics with the table as computed now unless every `(label, value)` of
/// `actual` equals `golden`'s, in order; `show` writes one value.
fn assert_table<T: PartialEq + ?Sized>(
    actual: &[(&str, &T)],
    golden: &[(&str, &T)],
    show: impl Fn(&T) -> String,
) {
    let same = actual.len() == golden.len()
        && actual.iter().zip(golden).all(|((la, da), (lg, dg))| la == lg && da == dg);
    if same {
        return;
    }
    let mut table = String::new();
    for (label, value) in actual {
        writeln!(table, "    (\"{label}\", {}),", show(value)).unwrap();
    }
    let moved: Vec<&str> = actual
        .iter()
        .zip(golden)
        .filter(|((la, da), (lg, dg))| la != lg || da != dg)
        .map(|((la, _), _)| *la)
        .collect();
    panic!(
        "{} of {} values differ from the ones recorded at the parent commit (first: {:?}). \
         Computed now:\n{table}",
        moved.len().max(actual.len().abs_diff(golden.len())),
        golden.len(),
        moved.first()
    );
}

fn assert_digests(cases: &[Case], golden: &[(&str, u64)]) {
    let actual: Vec<(&str, &u64)> = cases.iter().map(|c| (c.label.as_str(), &c.digest)).collect();
    let golden: Vec<(&str, &u64)> = golden.iter().map(|(l, d)| (*l, d)).collect();
    assert_table(&actual, &golden, |d| format!("0x{d:016x}"));
}

fn assert_copied(cases: &[Case], golden: &[(&str, &[u64])]) {
    let actual: Vec<(&str, &[u64])> =
        cases.iter().map(|c| (c.label.as_str(), c.copied.as_slice())).collect();
    assert_table(&actual, golden, |c| format!("&{c:?}"));
}

#[test]
fn digests_match_the_parent_commit() {
    assert_digests(&table(), GOLDEN);
}

#[test]
fn strip_digests_match_the_parent_commit() {
    assert_digests(&strip_table(), STRIP_GOLDEN);
}

#[test]
fn copied_matches_the_parent_commit() {
    assert_copied(&table(), COPIED);
    assert_copied(&strip_table(), STRIP_COPIED);
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
    for pair in COPIED[..COPIED.len() - 1].chunks(2).chain(STRIP_COPIED.chunks(2)) {
        let [(l1, c1), (l2, c2)] = pair else { panic!("odd table") };
        assert!(l1.ends_with("/t1") && l2.ends_with("/t2"), "{l1} {l2}");
        assert_eq!(c1, c2, "{l1} vs {l2}");
    }
}

/// The recorded digest and `copied` of `label` in the strip tables.
fn strip_golden(label: &str) -> (u64, &'static [u64]) {
    let digest = STRIP_GOLDEN.iter().find(|(l, _)| *l == label).expect("a recorded case").1;
    let copied = STRIP_COPIED.iter().find(|(l, _)| *l == label).expect("a recorded case").1;
    (digest, copied)
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
        let (digest, golden_copied) = strip_golden(&label);
        for threads in [3, 4] {
            let opts = DistOptions { scheme, seed: 7, threads, lookahead: 1 };
            let (inv, vols) = distributed_selinv(&f, Grid2D::new(pr, pc), &opts);
            let case = Case::new(label.clone(), &inv, &vols);
            assert_eq!(case.digest, digest, "{label} at {threads} threads");
            assert_eq!(case.copied, golden_copied, "{label} at {threads} threads: copied");
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
    let golden_copied = COPIED.iter().find(|(l, _)| *l == label).expect("a recorded case").1;
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
    let case = Case::new(label.clone(), &inv, &vols);
    assert_eq!(case.digest, golden, "{label} under loss");
    assert_eq!(case.copied, golden_copied, "{label} under loss: copied");
}

#[rustfmt::skip]
const GOLDEN: &[(&str, u64)] = &[
    ("lap12/1x1/Flat-Tree/t1", 0x25a9878fc364f229),
    ("lap12/1x1/Flat-Tree/t2", 0x25a9878fc364f229),
    ("lap12/1x1/Binary-Tree/t1", 0x25a9878fc364f229),
    ("lap12/1x1/Binary-Tree/t2", 0x25a9878fc364f229),
    ("lap12/1x1/Shifted Binary-Tree/t1", 0x25a9878fc364f229),
    ("lap12/1x1/Shifted Binary-Tree/t2", 0x25a9878fc364f229),
    ("lap12/1x1/Random-Permutation Tree/t1", 0x25a9878fc364f229),
    ("lap12/1x1/Random-Permutation Tree/t2", 0x25a9878fc364f229),
    ("lap12/1x1/Hybrid(3)/t1", 0x25a9878fc364f229),
    ("lap12/1x1/Hybrid(3)/t2", 0x25a9878fc364f229),
    ("lap12/2x2/Flat-Tree/t1", 0xf9983c3d1573fb0c),
    ("lap12/2x2/Flat-Tree/t2", 0xf9983c3d1573fb0c),
    ("lap12/2x2/Binary-Tree/t1", 0xf9983c3d1573fb0c),
    ("lap12/2x2/Binary-Tree/t2", 0xf9983c3d1573fb0c),
    ("lap12/2x2/Shifted Binary-Tree/t1", 0xf9983c3d1573fb0c),
    ("lap12/2x2/Shifted Binary-Tree/t2", 0xf9983c3d1573fb0c),
    ("lap12/2x2/Random-Permutation Tree/t1", 0xf9983c3d1573fb0c),
    ("lap12/2x2/Random-Permutation Tree/t2", 0xf9983c3d1573fb0c),
    ("lap12/2x2/Hybrid(3)/t1", 0xf9983c3d1573fb0c),
    ("lap12/2x2/Hybrid(3)/t2", 0xf9983c3d1573fb0c),
    ("lap12/2x3/Flat-Tree/t1", 0xd631fe2bda9c285d),
    ("lap12/2x3/Flat-Tree/t2", 0xd631fe2bda9c285d),
    ("lap12/2x3/Binary-Tree/t1", 0xd631fe2bda9c285d),
    ("lap12/2x3/Binary-Tree/t2", 0xd631fe2bda9c285d),
    ("lap12/2x3/Shifted Binary-Tree/t1", 0x5dde0c657f6e44c8),
    ("lap12/2x3/Shifted Binary-Tree/t2", 0x5dde0c657f6e44c8),
    ("lap12/2x3/Random-Permutation Tree/t1", 0xd631fe2bda9c285d),
    ("lap12/2x3/Random-Permutation Tree/t2", 0xd631fe2bda9c285d),
    ("lap12/2x3/Hybrid(3)/t1", 0x5dde0c657f6e44c8),
    ("lap12/2x3/Hybrid(3)/t2", 0x5dde0c657f6e44c8),
    ("lap12/3x1/Flat-Tree/t1", 0x4a1ef363fd7c423e),
    ("lap12/3x1/Flat-Tree/t2", 0x4a1ef363fd7c423e),
    ("lap12/3x1/Binary-Tree/t1", 0x4a1ef363fd7c423e),
    ("lap12/3x1/Binary-Tree/t2", 0x4a1ef363fd7c423e),
    ("lap12/3x1/Shifted Binary-Tree/t1", 0x4a1ef363fd7c423e),
    ("lap12/3x1/Shifted Binary-Tree/t2", 0x4a1ef363fd7c423e),
    ("lap12/3x1/Random-Permutation Tree/t1", 0x4a1ef363fd7c423e),
    ("lap12/3x1/Random-Permutation Tree/t2", 0x4a1ef363fd7c423e),
    ("lap12/3x1/Hybrid(3)/t1", 0x4a1ef363fd7c423e),
    ("lap12/3x1/Hybrid(3)/t2", 0x4a1ef363fd7c423e),
    ("fem4x4x3/1x1/Flat-Tree/t1", 0x979db9832f89cf98),
    ("fem4x4x3/1x1/Flat-Tree/t2", 0x979db9832f89cf98),
    ("fem4x4x3/1x1/Binary-Tree/t1", 0x979db9832f89cf98),
    ("fem4x4x3/1x1/Binary-Tree/t2", 0x979db9832f89cf98),
    ("fem4x4x3/1x1/Shifted Binary-Tree/t1", 0x979db9832f89cf98),
    ("fem4x4x3/1x1/Shifted Binary-Tree/t2", 0x979db9832f89cf98),
    ("fem4x4x3/1x1/Random-Permutation Tree/t1", 0x979db9832f89cf98),
    ("fem4x4x3/1x1/Random-Permutation Tree/t2", 0x979db9832f89cf98),
    ("fem4x4x3/1x1/Hybrid(3)/t1", 0x979db9832f89cf98),
    ("fem4x4x3/1x1/Hybrid(3)/t2", 0x979db9832f89cf98),
    ("fem4x4x3/2x2/Flat-Tree/t1", 0xbf9026680c80c9f0),
    ("fem4x4x3/2x2/Flat-Tree/t2", 0xbf9026680c80c9f0),
    ("fem4x4x3/2x2/Binary-Tree/t1", 0xbf9026680c80c9f0),
    ("fem4x4x3/2x2/Binary-Tree/t2", 0xbf9026680c80c9f0),
    ("fem4x4x3/2x2/Shifted Binary-Tree/t1", 0xbf9026680c80c9f0),
    ("fem4x4x3/2x2/Shifted Binary-Tree/t2", 0xbf9026680c80c9f0),
    ("fem4x4x3/2x2/Random-Permutation Tree/t1", 0xbf9026680c80c9f0),
    ("fem4x4x3/2x2/Random-Permutation Tree/t2", 0xbf9026680c80c9f0),
    ("fem4x4x3/2x2/Hybrid(3)/t1", 0xbf9026680c80c9f0),
    ("fem4x4x3/2x2/Hybrid(3)/t2", 0xbf9026680c80c9f0),
    ("fem4x4x3/2x3/Flat-Tree/t1", 0x973ce3611641894f),
    ("fem4x4x3/2x3/Flat-Tree/t2", 0x973ce3611641894f),
    ("fem4x4x3/2x3/Binary-Tree/t1", 0x973ce3611641894f),
    ("fem4x4x3/2x3/Binary-Tree/t2", 0x973ce3611641894f),
    ("fem4x4x3/2x3/Shifted Binary-Tree/t1", 0x973ce3611641894f),
    ("fem4x4x3/2x3/Shifted Binary-Tree/t2", 0x973ce3611641894f),
    ("fem4x4x3/2x3/Random-Permutation Tree/t1", 0x973ce3611641894f),
    ("fem4x4x3/2x3/Random-Permutation Tree/t2", 0x973ce3611641894f),
    ("fem4x4x3/2x3/Hybrid(3)/t1", 0x973ce3611641894f),
    ("fem4x4x3/2x3/Hybrid(3)/t2", 0x973ce3611641894f),
    ("fem4x4x3/3x1/Flat-Tree/t1", 0x5e9af600a38e5dfa),
    ("fem4x4x3/3x1/Flat-Tree/t2", 0x5e9af600a38e5dfa),
    ("fem4x4x3/3x1/Binary-Tree/t1", 0x5e9af600a38e5dfa),
    ("fem4x4x3/3x1/Binary-Tree/t2", 0x5e9af600a38e5dfa),
    ("fem4x4x3/3x1/Shifted Binary-Tree/t1", 0x5e9af600a38e5dfa),
    ("fem4x4x3/3x1/Shifted Binary-Tree/t2", 0x5e9af600a38e5dfa),
    ("fem4x4x3/3x1/Random-Permutation Tree/t1", 0x5e9af600a38e5dfa),
    ("fem4x4x3/3x1/Random-Permutation Tree/t2", 0x5e9af600a38e5dfa),
    ("fem4x4x3/3x1/Hybrid(3)/t1", 0x5e9af600a38e5dfa),
    ("fem4x4x3/3x1/Hybrid(3)/t2", 0x5e9af600a38e5dfa),
    ("dg6x6/1x1/Flat-Tree/t1", 0x929e0cc3d4401b76),
    ("dg6x6/1x1/Flat-Tree/t2", 0x929e0cc3d4401b76),
    ("dg6x6/1x1/Binary-Tree/t1", 0x929e0cc3d4401b76),
    ("dg6x6/1x1/Binary-Tree/t2", 0x929e0cc3d4401b76),
    ("dg6x6/1x1/Shifted Binary-Tree/t1", 0x929e0cc3d4401b76),
    ("dg6x6/1x1/Shifted Binary-Tree/t2", 0x929e0cc3d4401b76),
    ("dg6x6/1x1/Random-Permutation Tree/t1", 0x929e0cc3d4401b76),
    ("dg6x6/1x1/Random-Permutation Tree/t2", 0x929e0cc3d4401b76),
    ("dg6x6/1x1/Hybrid(3)/t1", 0x929e0cc3d4401b76),
    ("dg6x6/1x1/Hybrid(3)/t2", 0x929e0cc3d4401b76),
    ("dg6x6/2x2/Flat-Tree/t1", 0x3fb41284836522ff),
    ("dg6x6/2x2/Flat-Tree/t2", 0x3fb41284836522ff),
    ("dg6x6/2x2/Binary-Tree/t1", 0x3fb41284836522ff),
    ("dg6x6/2x2/Binary-Tree/t2", 0x3fb41284836522ff),
    ("dg6x6/2x2/Shifted Binary-Tree/t1", 0x3fb41284836522ff),
    ("dg6x6/2x2/Shifted Binary-Tree/t2", 0x3fb41284836522ff),
    ("dg6x6/2x2/Random-Permutation Tree/t1", 0x3fb41284836522ff),
    ("dg6x6/2x2/Random-Permutation Tree/t2", 0x3fb41284836522ff),
    ("dg6x6/2x2/Hybrid(3)/t1", 0x3fb41284836522ff),
    ("dg6x6/2x2/Hybrid(3)/t2", 0x3fb41284836522ff),
    ("dg6x6/2x3/Flat-Tree/t1", 0x6a7752cba46c8226),
    ("dg6x6/2x3/Flat-Tree/t2", 0x6a7752cba46c8226),
    ("dg6x6/2x3/Binary-Tree/t1", 0x6a7752cba46c8226),
    ("dg6x6/2x3/Binary-Tree/t2", 0x6a7752cba46c8226),
    ("dg6x6/2x3/Shifted Binary-Tree/t1", 0x6a7752cba46c8226),
    ("dg6x6/2x3/Shifted Binary-Tree/t2", 0x6a7752cba46c8226),
    ("dg6x6/2x3/Random-Permutation Tree/t1", 0x6a7752cba46c8226),
    ("dg6x6/2x3/Random-Permutation Tree/t2", 0x6a7752cba46c8226),
    ("dg6x6/2x3/Hybrid(3)/t1", 0x6a7752cba46c8226),
    ("dg6x6/2x3/Hybrid(3)/t2", 0x6a7752cba46c8226),
    ("dg6x6/3x1/Flat-Tree/t1", 0xd4a919fa74545485),
    ("dg6x6/3x1/Flat-Tree/t2", 0xd4a919fa74545485),
    ("dg6x6/3x1/Binary-Tree/t1", 0xd4a919fa74545485),
    ("dg6x6/3x1/Binary-Tree/t2", 0xd4a919fa74545485),
    ("dg6x6/3x1/Shifted Binary-Tree/t1", 0xd4a919fa74545485),
    ("dg6x6/3x1/Shifted Binary-Tree/t2", 0xd4a919fa74545485),
    ("dg6x6/3x1/Random-Permutation Tree/t1", 0xd4a919fa74545485),
    ("dg6x6/3x1/Random-Permutation Tree/t2", 0xd4a919fa74545485),
    ("dg6x6/3x1/Hybrid(3)/t1", 0xd4a919fa74545485),
    ("dg6x6/3x1/Hybrid(3)/t2", 0xd4a919fa74545485),
    ("batch/lap12/2x2/two-poles", 0xa643edd3eeba74cd),
];

#[rustfmt::skip]
const STRIP_GOLDEN: &[(&str, u64)] = &[
    ("fem8x8x8/1x1/Shifted Binary-Tree/t1", 0x3307ad528912a86f),
    ("fem8x8x8/1x1/Shifted Binary-Tree/t2", 0x3307ad528912a86f),
    ("fem8x8x8/2x2/Shifted Binary-Tree/t1", 0x11d602abac9afd23),
    ("fem8x8x8/2x2/Shifted Binary-Tree/t2", 0x11d602abac9afd23),
    ("fem8x8x8/2x3/Shifted Binary-Tree/t1", 0xf57f46a5b2db7718),
    ("fem8x8x8/2x3/Shifted Binary-Tree/t2", 0xf57f46a5b2db7718),
    ("lap24w8/1x1/Shifted Binary-Tree/t1", 0x0b764141d6d9aba7),
    ("lap24w8/1x1/Shifted Binary-Tree/t2", 0x0b764141d6d9aba7),
    ("lap24w8/2x2/Shifted Binary-Tree/t1", 0x6d83729ff892665e),
    ("lap24w8/2x2/Shifted Binary-Tree/t2", 0x6d83729ff892665e),
    ("lap24w8/2x3/Shifted Binary-Tree/t1", 0x2981119fb933d977),
    ("lap24w8/2x3/Shifted Binary-Tree/t2", 0x2981119fb933d977),
];

#[rustfmt::skip]
const COPIED: &[(&str, &[u64])] = &[
    ("lap12/1x1/Flat-Tree/t1", &[6600]),
    ("lap12/1x1/Flat-Tree/t2", &[6600]),
    ("lap12/1x1/Binary-Tree/t1", &[6600]),
    ("lap12/1x1/Binary-Tree/t2", &[6600]),
    ("lap12/1x1/Shifted Binary-Tree/t1", &[6600]),
    ("lap12/1x1/Shifted Binary-Tree/t2", &[6600]),
    ("lap12/1x1/Random-Permutation Tree/t1", &[6600]),
    ("lap12/1x1/Random-Permutation Tree/t2", &[6600]),
    ("lap12/1x1/Hybrid(3)/t1", &[6600]),
    ("lap12/1x1/Hybrid(3)/t2", &[6600]),
    ("lap12/2x2/Flat-Tree/t1", &[4792, 1504, 11128, 6168]),
    ("lap12/2x2/Flat-Tree/t2", &[4792, 1504, 11128, 6168]),
    ("lap12/2x2/Binary-Tree/t1", &[4792, 1504, 11128, 6168]),
    ("lap12/2x2/Binary-Tree/t2", &[4792, 1504, 11128, 6168]),
    ("lap12/2x2/Shifted Binary-Tree/t1", &[4792, 1504, 11128, 6168]),
    ("lap12/2x2/Shifted Binary-Tree/t2", &[4792, 1504, 11128, 6168]),
    ("lap12/2x2/Random-Permutation Tree/t1", &[4792, 1504, 11128, 6168]),
    ("lap12/2x2/Random-Permutation Tree/t2", &[4792, 1504, 11128, 6168]),
    ("lap12/2x2/Hybrid(3)/t1", &[4792, 1504, 11128, 6168]),
    ("lap12/2x2/Hybrid(3)/t2", &[4792, 1504, 11128, 6168]),
    ("lap12/2x3/Flat-Tree/t1", &[3584, 2000, 1056, 10312, 4960, 2544]),
    ("lap12/2x3/Flat-Tree/t2", &[3584, 2000, 1056, 10312, 4960, 2544]),
    ("lap12/2x3/Binary-Tree/t1", &[3584, 2000, 1056, 10312, 4960, 2544]),
    ("lap12/2x3/Binary-Tree/t2", &[3584, 2000, 1056, 10312, 4960, 2544]),
    ("lap12/2x3/Shifted Binary-Tree/t1", &[3584, 2000, 1056, 10312, 4960, 2544]),
    ("lap12/2x3/Shifted Binary-Tree/t2", &[3584, 2000, 1056, 10312, 4960, 2544]),
    ("lap12/2x3/Random-Permutation Tree/t1", &[3584, 2000, 1056, 10312, 4960, 2544]),
    ("lap12/2x3/Random-Permutation Tree/t2", &[3584, 2000, 1056, 10312, 4960, 2544]),
    ("lap12/2x3/Hybrid(3)/t1", &[3584, 2000, 1056, 10312, 4960, 2544]),
    ("lap12/2x3/Hybrid(3)/t2", &[3584, 2000, 1056, 10312, 4960, 2544]),
    ("lap12/3x1/Flat-Tree/t1", &[10728, 2088, 1040]),
    ("lap12/3x1/Flat-Tree/t2", &[10728, 2088, 1040]),
    ("lap12/3x1/Binary-Tree/t1", &[10728, 2088, 1040]),
    ("lap12/3x1/Binary-Tree/t2", &[10728, 2088, 1040]),
    ("lap12/3x1/Shifted Binary-Tree/t1", &[10728, 2088, 1040]),
    ("lap12/3x1/Shifted Binary-Tree/t2", &[10728, 2088, 1040]),
    ("lap12/3x1/Random-Permutation Tree/t1", &[10728, 2088, 1040]),
    ("lap12/3x1/Random-Permutation Tree/t2", &[10728, 2088, 1040]),
    ("lap12/3x1/Hybrid(3)/t1", &[10728, 2088, 1040]),
    ("lap12/3x1/Hybrid(3)/t2", &[10728, 2088, 1040]),
    ("fem4x4x3/1x1/Flat-Tree/t1", &[6656]),
    ("fem4x4x3/1x1/Flat-Tree/t2", &[6656]),
    ("fem4x4x3/1x1/Binary-Tree/t1", &[6656]),
    ("fem4x4x3/1x1/Binary-Tree/t2", &[6656]),
    ("fem4x4x3/1x1/Shifted Binary-Tree/t1", &[6656]),
    ("fem4x4x3/1x1/Shifted Binary-Tree/t2", &[6656]),
    ("fem4x4x3/1x1/Random-Permutation Tree/t1", &[6656]),
    ("fem4x4x3/1x1/Random-Permutation Tree/t2", &[6656]),
    ("fem4x4x3/1x1/Hybrid(3)/t1", &[6656]),
    ("fem4x4x3/1x1/Hybrid(3)/t2", &[6656]),
    ("fem4x4x3/2x2/Flat-Tree/t1", &[128, 0, 1920, 6656]),
    ("fem4x4x3/2x2/Flat-Tree/t2", &[128, 0, 1920, 6656]),
    ("fem4x4x3/2x2/Binary-Tree/t1", &[128, 0, 1920, 6656]),
    ("fem4x4x3/2x2/Binary-Tree/t2", &[128, 0, 1920, 6656]),
    ("fem4x4x3/2x2/Shifted Binary-Tree/t1", &[128, 0, 1920, 6656]),
    ("fem4x4x3/2x2/Shifted Binary-Tree/t2", &[128, 0, 1920, 6656]),
    ("fem4x4x3/2x2/Random-Permutation Tree/t1", &[128, 0, 1920, 6656]),
    ("fem4x4x3/2x2/Random-Permutation Tree/t2", &[128, 0, 1920, 6656]),
    ("fem4x4x3/2x2/Hybrid(3)/t1", &[128, 0, 1920, 6656]),
    ("fem4x4x3/2x2/Hybrid(3)/t2", &[128, 0, 1920, 6656]),
    ("fem4x4x3/2x3/Flat-Tree/t1", &[64, 32, 32, 5024, 6912, 4544]),
    ("fem4x4x3/2x3/Flat-Tree/t2", &[64, 32, 32, 5024, 6912, 4544]),
    ("fem4x4x3/2x3/Binary-Tree/t1", &[64, 32, 32, 5024, 6912, 4544]),
    ("fem4x4x3/2x3/Binary-Tree/t2", &[64, 32, 32, 5024, 6912, 4544]),
    ("fem4x4x3/2x3/Shifted Binary-Tree/t1", &[64, 32, 32, 5024, 6912, 4544]),
    ("fem4x4x3/2x3/Shifted Binary-Tree/t2", &[64, 32, 32, 5024, 6912, 4544]),
    ("fem4x4x3/2x3/Random-Permutation Tree/t1", &[64, 32, 32, 5024, 6912, 4544]),
    ("fem4x4x3/2x3/Random-Permutation Tree/t2", &[64, 32, 32, 5024, 6912, 4544]),
    ("fem4x4x3/2x3/Hybrid(3)/t1", &[64, 32, 32, 5024, 6912, 4544]),
    ("fem4x4x3/2x3/Hybrid(3)/t2", &[64, 32, 32, 5024, 6912, 4544]),
    ("fem4x4x3/3x1/Flat-Tree/t1", &[1088, 12608, 1056]),
    ("fem4x4x3/3x1/Flat-Tree/t2", &[1088, 12608, 1056]),
    ("fem4x4x3/3x1/Binary-Tree/t1", &[1088, 12608, 1056]),
    ("fem4x4x3/3x1/Binary-Tree/t2", &[1088, 12608, 1056]),
    ("fem4x4x3/3x1/Shifted Binary-Tree/t1", &[1088, 12608, 1056]),
    ("fem4x4x3/3x1/Shifted Binary-Tree/t2", &[1088, 12608, 1056]),
    ("fem4x4x3/3x1/Random-Permutation Tree/t1", &[1088, 12608, 1056]),
    ("fem4x4x3/3x1/Random-Permutation Tree/t2", &[1088, 12608, 1056]),
    ("fem4x4x3/3x1/Hybrid(3)/t1", &[1088, 12608, 1056]),
    ("fem4x4x3/3x1/Hybrid(3)/t2", &[1088, 12608, 1056]),
    ("dg6x6/1x1/Flat-Tree/t1", &[41184]),
    ("dg6x6/1x1/Flat-Tree/t2", &[41184]),
    ("dg6x6/1x1/Binary-Tree/t1", &[41184]),
    ("dg6x6/1x1/Binary-Tree/t2", &[41184]),
    ("dg6x6/1x1/Shifted Binary-Tree/t1", &[41184]),
    ("dg6x6/1x1/Shifted Binary-Tree/t2", &[41184]),
    ("dg6x6/1x1/Random-Permutation Tree/t1", &[41184]),
    ("dg6x6/1x1/Random-Permutation Tree/t2", &[41184]),
    ("dg6x6/1x1/Hybrid(3)/t1", &[41184]),
    ("dg6x6/1x1/Hybrid(3)/t2", &[41184]),
    ("dg6x6/2x2/Flat-Tree/t1", &[47520, 103392, 18720, 47520]),
    ("dg6x6/2x2/Flat-Tree/t2", &[47520, 103392, 18720, 47520]),
    ("dg6x6/2x2/Binary-Tree/t1", &[47520, 103392, 18720, 47520]),
    ("dg6x6/2x2/Binary-Tree/t2", &[47520, 103392, 18720, 47520]),
    ("dg6x6/2x2/Shifted Binary-Tree/t1", &[47520, 103392, 18720, 47520]),
    ("dg6x6/2x2/Shifted Binary-Tree/t2", &[47520, 103392, 18720, 47520]),
    ("dg6x6/2x2/Random-Permutation Tree/t1", &[47520, 103392, 18720, 47520]),
    ("dg6x6/2x2/Random-Permutation Tree/t2", &[47520, 103392, 18720, 47520]),
    ("dg6x6/2x2/Hybrid(3)/t1", &[47520, 103392, 18720, 47520]),
    ("dg6x6/2x2/Hybrid(3)/t2", &[47520, 103392, 18720, 47520]),
    ("dg6x6/2x3/Flat-Tree/t1", &[37728, 51552, 69408, 5184, 31392, 33696]),
    ("dg6x6/2x3/Flat-Tree/t2", &[37728, 51552, 69408, 5184, 31392, 33696]),
    ("dg6x6/2x3/Binary-Tree/t1", &[37728, 51552, 69408, 5184, 31392, 33696]),
    ("dg6x6/2x3/Binary-Tree/t2", &[37728, 51552, 69408, 5184, 31392, 33696]),
    ("dg6x6/2x3/Shifted Binary-Tree/t1", &[37728, 51552, 69408, 5184, 31392, 33696]),
    ("dg6x6/2x3/Shifted Binary-Tree/t2", &[37728, 51552, 69408, 5184, 31392, 33696]),
    ("dg6x6/2x3/Random-Permutation Tree/t1", &[37728, 51552, 69408, 5184, 31392, 33696]),
    ("dg6x6/2x3/Random-Permutation Tree/t2", &[37728, 51552, 69408, 5184, 31392, 33696]),
    ("dg6x6/2x3/Hybrid(3)/t1", &[37728, 51552, 69408, 5184, 31392, 33696]),
    ("dg6x6/2x3/Hybrid(3)/t2", &[37728, 51552, 69408, 5184, 31392, 33696]),
    ("dg6x6/3x1/Flat-Tree/t1", &[122400, 24480, 48096]),
    ("dg6x6/3x1/Flat-Tree/t2", &[122400, 24480, 48096]),
    ("dg6x6/3x1/Binary-Tree/t1", &[122400, 24480, 48096]),
    ("dg6x6/3x1/Binary-Tree/t2", &[122400, 24480, 48096]),
    ("dg6x6/3x1/Shifted Binary-Tree/t1", &[122400, 24480, 48096]),
    ("dg6x6/3x1/Shifted Binary-Tree/t2", &[122400, 24480, 48096]),
    ("dg6x6/3x1/Random-Permutation Tree/t1", &[122400, 24480, 48096]),
    ("dg6x6/3x1/Random-Permutation Tree/t2", &[122400, 24480, 48096]),
    ("dg6x6/3x1/Hybrid(3)/t1", &[122400, 24480, 48096]),
    ("dg6x6/3x1/Hybrid(3)/t2", &[122400, 24480, 48096]),
    ("batch/lap12/2x2/two-poles", &[9584, 3008, 22256, 12336]),
];

#[rustfmt::skip]
const STRIP_COPIED: &[(&str, &[u64])] = &[
    ("fem8x8x8/1x1/Shifted Binary-Tree/t1", &[1875304]),
    ("fem8x8x8/1x1/Shifted Binary-Tree/t2", &[1875304]),
    ("fem8x8x8/2x2/Shifted Binary-Tree/t1", &[1186184, 1533976, 1886624, 1161640]),
    ("fem8x8x8/2x2/Shifted Binary-Tree/t2", &[1186184, 1533976, 1886624, 1161640]),
    ("fem8x8x8/2x3/Shifted Binary-Tree/t1", &[1253896, 1345208, 1334968, 1326944, 1457856, 1455864]),
    ("fem8x8x8/2x3/Shifted Binary-Tree/t2", &[1253896, 1345208, 1334968, 1326944, 1457856, 1455864]),
    ("lap24w8/1x1/Shifted Binary-Tree/t1", &[71928]),
    ("lap24w8/1x1/Shifted Binary-Tree/t2", &[71928]),
    ("lap24w8/2x2/Shifted Binary-Tree/t1", &[55960, 83256, 66256, 48792]),
    ("lap24w8/2x2/Shifted Binary-Tree/t2", &[55960, 83256, 66256, 48792]),
    ("lap24w8/2x3/Shifted Binary-Tree/t1", &[59280, 64480, 61960, 50480, 51376, 47624]),
    ("lap24w8/2x3/Shifted Binary-Tree/t2", &[59280, 64480, 61960, 50480, 51376, 47624]),
];
