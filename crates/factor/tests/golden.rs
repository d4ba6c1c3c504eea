//! Golden digests of the numeric factors.
//!
//! The ancestor-update loop of `factorize` was rewritten (relative indices
//! instead of one binary search per updated entry, the GEMM operand read
//! in place, one workspace per factorization) and the old loop deleted, so
//! there is no second implementation to compare against. Instead, every
//! digest below was **recorded at the parent commit `35f482f`** with this
//! same file and must never change: the rewrite is bit-for-bit or it is
//! wrong. On a mismatch the test prints the whole table as it computes it
//! now.
//!
//! The factorization is a task DAG on the pool, so every table is computed
//! through `factorize_on` at 1, 2, 3 and 4 workers and must equal the same
//! digests at each.
//!
//! What is hashed (FNV-1a, 64 bit): per supernode, the panel shape, then
//! the `to_bits()` of every entry of `diag` and of `below` (column-major).
//! A factorization that fails hashes the `Singular { supernode, pivot }` it
//! returned instead.

use pselinv_factor::{factorize_on, FactorError, Panel};
use pselinv_order::nd::NdOptions;
use pselinv_order::supernodes::SupernodeOptions;
use pselinv_order::{analyze, AnalyzeOptions, OrderingChoice};
use pselinv_pool::Pool;
use pselinv_sparse::{gen, SparseMatrix, TripletMatrix};
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

    fn error(&mut self, e: &FactorError) {
        match *e {
            FactorError::Singular { supernode, pivot } => {
                self.u64(0x5146);
                self.u64(supernode as u64);
                self.u64(pivot as u64);
            }
            FactorError::ShapeMismatch { .. } => panic!("the test matrices fit their structure"),
        }
    }
}

fn nd(geometry: gen::Geometry, supernode: SupernodeOptions) -> AnalyzeOptions {
    AnalyzeOptions {
        ordering: OrderingChoice::NestedDissection(geometry, NdOptions::default()),
        supernode,
        ..Default::default()
    }
}

/// A Laplacian next to a disconnected all-ones block: in the natural order
/// the block's second pivot is exactly zero, after the Laplacian's
/// supernodes were factored (with `max_width: 1`, by an ancestor update).
fn singular() -> SparseMatrix {
    let lap = gen::grid_laplacian_2d(5, 5).matrix;
    let n = lap.nrows();
    let mut t = TripletMatrix::new(n + 3, n + 3);
    for (i, j, v) in lap.iter() {
        t.push(i, j, v);
    }
    for i in 0..3 {
        for j in 0..3 {
            t.push(n + i, n + j, 1.0);
        }
    }
    t.to_csc()
}

/// The symmetric test matrices with the analysis each is factored under.
fn cases() -> Vec<(String, SparseMatrix, AnalyzeOptions)> {
    let relaxed = SupernodeOptions { max_width: 8, relax_small: 2, relax_zero_fraction: 0.3 };
    let width1 = SupernodeOptions { max_width: 1, ..Default::default() };
    let fem = gen::fem_3d(6, 6, 6, 3, 1);
    let lap = gen::grid_laplacian_2d(40, 40);
    let dg = gen::dg_hamiltonian(3, 2, 1, 6, 5);
    let mut out = vec![
        ("fem3d-6/nd".to_string(), fem.matrix, nd(fem.geometry, SupernodeOptions::default())),
        ("lap40/relaxed".to_string(), lap.matrix.clone(), nd(lap.geometry, relaxed)),
        ("lap40/width1".to_string(), lap.matrix, nd(lap.geometry, width1)),
        ("dg-3x2x1".to_string(), dg.matrix, AnalyzeOptions::default()),
    ];
    for seed in 0..4 {
        out.push((format!("spd60/{seed}"), gen::random_spd(60, 0.1, seed), Default::default()));
    }
    let natural = AnalyzeOptions { ordering: OrderingChoice::Natural, ..Default::default() };
    out.push(("singular".to_string(), singular(), natural));
    let opts = AnalyzeOptions { supernode: width1, ..natural };
    out.push(("singular/width1".to_string(), singular(), opts));
    out
}

/// Three indefinite poles `H − σ I` of a 30×30 Laplacian, as
/// `dist::factor_poles` forms them.
fn poles() -> Vec<(String, SparseMatrix, AnalyzeOptions)> {
    let lap = gen::grid_laplacian_2d(30, 30);
    let eye = SparseMatrix::identity(lap.matrix.nrows());
    let opts = nd(lap.geometry, SupernodeOptions::default());
    [0.37, 2.8, 5.9]
        .iter()
        .map(|&sigma| {
            (format!("poles/lap30/{sigma}"), lap.matrix.add_scaled(&eye, 1.0, -sigma), opts)
        })
        .collect()
}

/// The worker counts every table is computed at.
const WORKERS: std::ops::RangeInclusive<usize> = 1..=4;

fn ldlt_table(pool: &Pool) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (label, a, opts) in cases().into_iter().chain(poles()) {
        let sf = Arc::new(analyze(&a.pattern(), &opts));
        let mut h = Fnv::new();
        match factorize_on(&a, sf, pool) {
            Ok(f) => f.panels.iter().for_each(|p| h.panel(p)),
            Err(e) => h.error(&e),
        }
        out.push((format!("ldlt/{label}"), h.0));
    }
    out
}

fn check(what: &str, actual: &[(String, u64)], golden: &[(&str, u64)]) {
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
        "{what}: {} of {} digests differ from the ones recorded at the parent commit \
         (first: {:?}). Computed now:\n{table}",
        moved.len().max(actual.len().abs_diff(golden.len())),
        golden.len(),
        moved.first()
    );
}

#[test]
fn ldlt_digests_match_the_parent_commit() {
    for workers in WORKERS {
        check(
            &format!("LDLᵀ factors, {workers} workers"),
            &ldlt_table(&Pool::new(workers)),
            LDLT_GOLDEN,
        );
    }
}

#[test]
fn zero_pivots_are_found_where_the_parent_found_them() {
    // The digests above pin these too; spelled out so that a failure names
    // the supernode. Both analyses put the singular block last.
    for workers in WORKERS {
        let pool = Pool::new(workers);
        for (label, a, opts) in cases().into_iter().filter(|(l, _, _)| l.starts_with("singular")) {
            let sf = Arc::new(analyze(&a.pattern(), &opts));
            let last = sf.num_supernodes() - 1;
            match factorize_on(&a, sf, &pool) {
                Err(FactorError::Singular { supernode, pivot }) => {
                    let want = SINGULAR_AT[label.ends_with("width1") as usize];
                    assert_eq!((supernode, pivot), want, "{label}, {workers} workers");
                    assert!(supernode <= last);
                }
                other => panic!("{label}: expected Singular, got {other:?}"),
            }
        }
    }
}

/// Two all-ones blocks (each exactly singular) after an 8×8 Laplacian, in
/// the natural order: the first is coupled to the Laplacian's last column
/// by explicit zeros, so it waits for the whole Laplacian (and stays
/// exactly singular: every update it receives is zero), while the second
/// is a leaf of its own that a second worker can reach first.
fn two_singular_blocks() -> (SparseMatrix, [usize; 2]) {
    let lap = gen::grid_laplacian_2d(8, 8).matrix;
    let n = lap.nrows();
    let mut t = TripletMatrix::new(n + 6, n + 6);
    for (i, j, v) in lap.iter() {
        t.push(i, j, v);
    }
    t.push_sym(n, n - 1, 0.0);
    for first in [n, n + 3] {
        for i in 0..3 {
            for j in 0..3 {
                t.push(first + i, first + j, 1.0);
            }
        }
    }
    (t.to_csc(), [n, n + 3])
}

#[test]
fn the_lowest_zero_pivot_wins_when_a_higher_one_is_reached_first() {
    let (a, [first, second]) = two_singular_blocks();
    let natural = AnalyzeOptions { ordering: OrderingChoice::Natural, ..Default::default() };
    let width1 = SupernodeOptions { max_width: 1, ..Default::default() };
    for opts in [natural, AnalyzeOptions { supernode: width1, ..natural }] {
        let sf = Arc::new(analyze(&a.pattern(), &opts));
        let sn = |col: usize| sf.part.col_to_sn[col];
        assert!(sn(first + 2) < sn(second), "the blocks share no supernode");
        let mut found = Vec::new();
        for workers in WORKERS {
            let pool = Pool::new(workers);
            // Repeated, so that the second block gets its chance to fail first.
            for _ in 0..8 {
                match factorize_on(&a, sf.clone(), &pool) {
                    Err(FactorError::Singular { supernode, pivot }) => {
                        found.push((supernode, pivot))
                    }
                    other => panic!("expected Singular, got {other:?}"),
                }
            }
        }
        let (supernode, _) = found[0];
        assert!(
            (sn(first)..=sn(first + 2)).contains(&supernode),
            "not the first block: {supernode}"
        );
        assert!(found.iter().all(|&f| f == found[0]), "{found:?}");
    }
}

#[test]
fn the_tables_are_not_degenerate() {
    let mut seen: Vec<u64> = LDLT_GOLDEN.iter().map(|&(_, d)| d).collect();
    let n = seen.len();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), n, "two lines of the golden tables share a digest");
}

/// `(supernode, pivot)` of the zero pivot: default analysis, `max_width: 1`.
const SINGULAR_AT: [(usize, usize); 2] = [(1, 1), (26, 0)];

#[rustfmt::skip]
const LDLT_GOLDEN: &[(&str, u64)] = &[
    ("ldlt/fem3d-6/nd", 0x77e93cbdde8d8272),
    ("ldlt/lap40/relaxed", 0xc065c17e1e81c351),
    ("ldlt/lap40/width1", 0x30ce603e88edc23c),
    ("ldlt/dg-3x2x1", 0x03382f83dff7a539),
    ("ldlt/spd60/0", 0xcb36e370bc6b10b2),
    ("ldlt/spd60/1", 0x438b465d2abcb18b),
    ("ldlt/spd60/2", 0x0b8f01895220e26f),
    ("ldlt/spd60/3", 0x145467f3bf5879f4),
    ("ldlt/singular", 0x46425fdda147f018),
    ("ldlt/singular/width1", 0x4c6931ecf5520c62),
    ("ldlt/poles/lap30/0.37", 0xddf0a088ac378797),
    ("ldlt/poles/lap30/2.8", 0x65b53745c7864667),
    ("ldlt/poles/lap30/5.9", 0x669a236993b59e57),
];
