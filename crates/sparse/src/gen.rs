//! Synthetic workload generators.
//!
//! The paper evaluates on matrices we cannot redistribute (UF collection) or
//! regenerate (electronic-structure Hamiltonians from DGDFT). These
//! generators produce matrices in the same two structural regimes:
//!
//! * **FEM regime** (audikw_1, Flan_1565): 3-D meshes with a few degrees of
//!   freedom per node — very sparse `A`, moderate fill in `L`;
//! * **DG regime** (DG_PNF14000, DG_Graphene, DG_Water, LU_C_BN_C): dense
//!   `b×b` blocks on a coarse 1-D/2-D/3-D element grid with dense coupling
//!   between neighbouring elements — "relatively dense" `A` and heavy fill.
//!
//! All generators return symmetric positive definite matrices (diagonally
//! dominant), so the LDLᵀ path needs no pivoting, together with a
//! [`Geometry`] describing the underlying grid for geometric nested
//! dissection.
//!
//! The four grid generators write their CSC arrays in place (`GridCsc`):
//! a grid matrix's entries are fixed by its shape, its `dof` and its
//! stencil, so its structure is built first and every drawn value goes
//! straight to its slot. Only [`random_spd`] assembles through
//! [`TripletMatrix`].

use crate::csc::SparseMatrix;
use crate::triplet::TripletMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Grid geometry attached to a generated matrix, consumed by the geometric
/// nested-dissection ordering. Index layout is
/// `idx = (x + nx*(y + ny*z)) * dof + d`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Geometry {
    /// Grid extents; unused trailing dimensions are 1.
    pub dims: [usize; 3],
    /// Degrees of freedom (matrix rows) per grid point.
    pub dof: usize,
}

impl Geometry {
    /// Total number of matrix rows described by this geometry.
    pub fn n(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2] * self.dof
    }
}

/// A generated workload: matrix plus grid geometry.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Human-readable name (proxy target from the paper when applicable).
    pub name: String,
    /// The assembled SPD matrix.
    pub matrix: SparseMatrix,
    /// Grid geometry for nested dissection.
    pub geometry: Geometry,
}

/// Which grid points a point couples to.
#[derive(Clone, Copy, Debug)]
enum Stencil {
    /// The point and its face neighbours (±x, ±y, ±z).
    Faces,
    /// The 3×3×3 box around the point.
    Box,
}

impl Stencil {
    fn offsets(self) -> &'static [[isize; 3]] {
        match self {
            Stencil::Faces => &FACES,
            Stencil::Box => &BOX,
        }
    }
}

/// Offsets `[dx, dy, dz]` in increasing `(dz, dy, dx)` order, which is the
/// order of the neighbours' indices on any grid they fit in.
const FACES: [[isize; 3]; 7] =
    [[0, 0, -1], [0, -1, 0], [-1, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]];
const BOX: [[isize; 3]; 27] = {
    let mut o = [[0; 3]; 27];
    let mut k = 0;
    while k < 27 {
        o[k] = [(k % 3) as isize - 1, (k / 3 % 3) as isize - 1, (k / 9) as isize - 1];
        k += 1;
    }
    o
};

/// A grid matrix assembled in place, in CSC, with no triplets and no sort.
///
/// Point `q`'s `dof` columns each hold the `dof` rows of every stencil
/// neighbour `p` of `q` inside the grid, in increasing index. So the slot of
/// entry (`p`, `d1`; `q`, `d2`) follows from `q`'s position and the offset
/// `p - q` alone ([`GridCsc::rank`]): the structure is built once from the
/// shape, and each value the generator draws is written to its slot. Every
/// slot must be written exactly once (checked in debug builds), and
/// [`SparseMatrix::from_raw_parts`] validates the result.
struct GridCsc {
    dims: [usize; 3],
    dof: usize,
    stencil: Stencil,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
    #[cfg(debug_assertions)]
    written: Vec<bool>,
}

impl GridCsc {
    fn new(dims: [usize; 3], dof: usize, stencil: Stencil) -> Self {
        let [nx, ny, nz] = dims;
        let points = || {
            (0..nz).flat_map(move |z| (0..ny).flat_map(move |y| (0..nx).map(move |x| [x, y, z])))
        };
        let nnz =
            points().map(|q| Self::neighbours(dims, stencil, q).count()).sum::<usize>() * dof * dof;
        let mut col_ptr = Vec::with_capacity(nx * ny * nz * dof + 1);
        let mut row_idx = Vec::with_capacity(nnz);
        col_ptr.push(0);
        for q in points() {
            let start = row_idx.len();
            for p in Self::neighbours(dims, stencil, q) {
                row_idx.extend(p * dof..(p + 1) * dof);
            }
            let len = row_idx.len() - start;
            for _ in 1..dof {
                row_idx.extend_from_within(start..start + len);
            }
            col_ptr.extend((1..=dof).map(|d| start + d * len));
        }
        debug_assert_eq!(row_idx.len(), nnz);
        Self {
            dims,
            dof,
            stencil,
            col_ptr,
            row_idx,
            values: vec![0.0; nnz],
            #[cfg(debug_assertions)]
            written: vec![false; nnz],
        }
    }

    /// Index of point `p`.
    fn index(dims: [usize; 3], p: [usize; 3]) -> usize {
        (p[2] * dims[1] + p[1]) * dims[0] + p[0]
    }

    /// Whether `q + o` lies inside the grid.
    fn inside(dims: [usize; 3], q: [usize; 3], o: [isize; 3]) -> bool {
        (0..3).all(|a| q[a].checked_add_signed(o[a]).is_some_and(|c| c < dims[a]))
    }

    /// Indices of `q`'s stencil neighbours inside the grid, increasing.
    fn neighbours(
        dims: [usize; 3],
        stencil: Stencil,
        q: [usize; 3],
    ) -> impl Iterator<Item = usize> {
        stencil
            .offsets()
            .iter()
            .filter(move |&&o| Self::inside(dims, q, o))
            .map(move |&o| Self::index(dims, [0, 1, 2].map(|a| q[a].wrapping_add_signed(o[a]))))
    }

    /// Position of the neighbour at offset `o` among `q`'s neighbours inside
    /// the grid: the number of those that come before it.
    fn rank(&self, q: [usize; 3], o: [isize; 3]) -> usize {
        // Whether `q` has a neighbour below / above it along axis `a`.
        let below = |a: usize| usize::from(q[a] > 0);
        let above = |a: usize| usize::from(q[a] + 1 < self.dims[a]);
        match self.stencil {
            // The neighbours inside are a product of one run per axis.
            Stencil::Box => {
                let run = |a: usize| below(a) + 1 + above(a);
                let at = |a: usize| o[a].wrapping_add_unsigned(below(a)) as usize;
                (at(2) * run(1) + at(1)) * run(0) + at(0)
            }
            // Which of `FACES` are inside, then the position of `o` there.
            Stencil::Faces => {
                let inside = [below(2), below(1), below(0), 1, above(0), above(1), above(2)];
                inside[..(3 + o[0] + 2 * o[1] + 3 * o[2]) as usize].iter().sum()
            }
        }
    }

    /// Writes entry (`p`, `d1`; `q`, `d2`): row `d1` of point `p`, column
    /// `d2` of point `q`.
    fn set(&mut self, p: [usize; 3], d1: usize, q: [usize; 3], d2: usize, v: f64) {
        let col = Self::index(self.dims, q) * self.dof + d2;
        let o = [0, 1, 2].map(|a| p[a] as isize - q[a] as isize);
        let slot = self.col_ptr[col] + self.rank(q, o) * self.dof + d1;
        debug_assert_eq!(self.row_idx[slot], Self::index(self.dims, p) * self.dof + d1);
        #[cfg(debug_assertions)]
        assert!(
            !std::mem::replace(&mut self.written[slot], true),
            "entry ({p:?}, {d1}; {q:?}, {d2}) written twice"
        );
        self.values[slot] = v;
    }

    /// Writes entry (`p`, `d1`; `q`, `d2`) and its mirror (`q`, `d2`;
    /// `p`, `d1`), once on the diagonal.
    fn set_sym(&mut self, p: [usize; 3], d1: usize, q: [usize; 3], d2: usize, v: f64) {
        self.set(p, d1, q, d2, v);
        if (p, d1) != (q, d2) {
            self.set(q, d2, p, d1, v);
        }
    }

    fn finish(self) -> SparseMatrix {
        #[cfg(debug_assertions)]
        if let Some(slot) = self.written.iter().position(|&w| !w) {
            panic!("slot {slot} (row {}) never written", self.row_idx[slot]);
        }
        let n = self.col_ptr.len() - 1;
        SparseMatrix::from_raw_parts(n, n, self.col_ptr, self.row_idx, self.values)
    }
}

/// 5-point 2-D grid Laplacian on an `nx × ny` grid, shifted to be SPD.
pub fn grid_laplacian_2d(nx: usize, ny: usize) -> Workload {
    assert!(nx > 0 && ny > 0);
    let mut g = GridCsc::new([nx, ny, 1], 1, Stencil::Faces);
    for y in 0..ny {
        for x in 0..nx {
            let i = [x, y, 0];
            g.set(i, 0, i, 0, 4.0 + 0.01);
            if x + 1 < nx {
                g.set_sym([x + 1, y, 0], 0, i, 0, -1.0);
            }
            if y + 1 < ny {
                g.set_sym([x, y + 1, 0], 0, i, 0, -1.0);
            }
        }
    }
    Workload {
        name: format!("laplace2d_{nx}x{ny}"),
        matrix: g.finish(),
        geometry: Geometry { dims: [nx, ny, 1], dof: 1 },
    }
}

/// 7-point 3-D grid Laplacian on an `nx × ny × nz` grid, shifted to be SPD.
pub fn grid_laplacian_3d(nx: usize, ny: usize, nz: usize) -> Workload {
    assert!(nx > 0 && ny > 0 && nz > 0);
    let mut g = GridCsc::new([nx, ny, nz], 1, Stencil::Faces);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = [x, y, z];
                g.set(i, 0, i, 0, 6.0 + 0.01);
                if x + 1 < nx {
                    g.set_sym([x + 1, y, z], 0, i, 0, -1.0);
                }
                if y + 1 < ny {
                    g.set_sym([x, y + 1, z], 0, i, 0, -1.0);
                }
                if z + 1 < nz {
                    g.set_sym([x, y, z + 1], 0, i, 0, -1.0);
                }
            }
        }
    }
    Workload {
        name: format!("laplace3d_{nx}x{ny}x{nz}"),
        matrix: g.finish(),
        geometry: Geometry { dims: [nx, ny, nz], dof: 1 },
    }
}

/// 3-D FEM-style matrix: 27-point stencil with `dof` unknowns per node and
/// dense `dof × dof` coupling blocks. This is the audikw_1 / Flan_1565
/// structural regime (sparse A, 3-D mesh, multiple DOFs per node).
pub fn fem_3d(nx: usize, ny: usize, nz: usize, dof: usize, seed: u64) -> Workload {
    assert!(nx > 0 && ny > 0 && nz > 0 && dof > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    // Each node couples to its 26 neighbours; per-node stencil weight is a
    // random dense dof×dof block, symmetrized across the pair.
    let mut g = GridCsc::new([nx, ny, nz], dof, Stencil::Box);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let a = [x, y, z];
                // Strong diagonal block guarantees positive definiteness:
                // row sums of off-diagonal magnitudes are < 26, so 30 + dof
                // dominates.
                for d1 in 0..dof {
                    for d2 in 0..=d1 {
                        let v =
                            if d1 == d2 { 30.0 + dof as f64 } else { rng.random_range(-0.2..0.2) };
                        g.set_sym(a, d1, a, d2, v);
                    }
                }
                // Lexicographically "forward" neighbours only (symmetric push).
                for dz in 0..=1usize {
                    for dy in -1i64..=1 {
                        for dx in -1i64..=1 {
                            if (dz, dy, dx) == (0, 0, 0) {
                                continue;
                            }
                            // only strictly forward triples to avoid duplicates
                            if dz == 0 && (dy < 0 || (dy == 0 && dx <= 0)) {
                                continue;
                            }
                            let (xx, yy, zz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz as i64);
                            if xx < 0 || yy < 0 || xx >= nx as i64 || yy >= ny as i64 {
                                continue;
                            }
                            if zz >= nz as i64 {
                                continue;
                            }
                            let b = [xx as usize, yy as usize, zz as usize];
                            for d1 in 0..dof {
                                for d2 in 0..dof {
                                    let v = rng.random_range(-1.0..0.0);
                                    g.set_sym(b, d1, a, d2, v / dof as f64);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Workload {
        name: format!("fem3d_{nx}x{ny}x{nz}_dof{dof}"),
        matrix: g.finish(),
        geometry: Geometry { dims: [nx, ny, nz], dof },
    }
}

/// Discontinuous-Galerkin-style Hamiltonian: a `gx × gy × gz` element grid
/// with a dense `b × b` block per element and dense coupling blocks between
/// face-adjacent elements. This is the DG_PNF14000 / DG_Graphene regime
/// ("relatively dense" matrices with large uniform supernodes).
pub fn dg_hamiltonian(gx: usize, gy: usize, gz: usize, b: usize, seed: u64) -> Workload {
    assert!(gx > 0 && gy > 0 && gz > 0 && b > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = GridCsc::new([gx, gy, gz], b, Stencil::Faces);
    let push_dense_block =
        |g: &mut GridCsc, ea: [usize; 3], eb: [usize; 3], rng: &mut StdRng, scale: f64| {
            // Dense block coupling element ea (rows) to eb (cols), mirrored.
            for i in 0..b {
                for j in 0..b {
                    let v = rng.random_range(-1.0..1.0) * scale / b as f64;
                    g.set_sym(ea, i, eb, j, v);
                }
            }
        };
    for z in 0..gz {
        for y in 0..gy {
            for x in 0..gx {
                let e = [x, y, z];
                // Dense symmetric diagonal block, strongly diagonally dominant.
                for i in 0..b {
                    for j in 0..=i {
                        let v = if i == j { 8.0 } else { rng.random_range(-1.0..1.0) / b as f64 };
                        g.set_sym(e, i, e, j, v);
                    }
                }
                if x + 1 < gx {
                    push_dense_block(&mut g, [x + 1, y, z], e, &mut rng, 1.0);
                }
                if y + 1 < gy {
                    push_dense_block(&mut g, [x, y + 1, z], e, &mut rng, 1.0);
                }
                if z + 1 < gz {
                    push_dense_block(&mut g, [x, y, z + 1], e, &mut rng, 1.0);
                }
            }
        }
    }
    Workload {
        name: format!("dg_{gx}x{gy}x{gz}_b{b}"),
        matrix: g.finish(),
        geometry: Geometry { dims: [gx, gy, gz], dof: b },
    }
}

/// Random sparse SPD matrix: `density` off-diagonal fill, diagonally
/// dominant. Used by property tests and the minimum-degree ordering path.
pub fn random_spd(n: usize, density: f64, seed: u64) -> SparseMatrix {
    assert!(n > 0);
    assert!((0.0..=1.0).contains(&density));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = TripletMatrix::new(n, n);
    let mut row_sums = vec![0.0f64; n];
    let mut offdiag: Vec<(usize, usize, f64)> = Vec::new();
    for j in 0..n {
        for i in (j + 1)..n {
            if rng.random_range(0.0..1.0) < density {
                let v: f64 = rng.random_range(-1.0..1.0);
                offdiag.push((i, j, v));
                row_sums[i] += v.abs();
                row_sums[j] += v.abs();
            }
        }
    }
    for (i, j, v) in offdiag {
        t.push_sym(i, j, v);
    }
    for (i, s) in row_sums.iter().enumerate() {
        t.push(i, i, s + 1.0);
    }
    t.to_csc()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_diag_dominant(m: &SparseMatrix) -> bool {
        let n = m.nrows();
        let mut diag = vec![0.0; n];
        let mut off = vec![0.0; n];
        for (i, j, v) in m.iter() {
            if i == j {
                diag[i] = v;
            } else {
                off[i] += v.abs();
            }
        }
        (0..n).all(|i| diag[i] > off[i])
    }

    #[test]
    fn laplace2d_structure() {
        let w = grid_laplacian_2d(3, 4);
        let m = &w.matrix;
        assert_eq!(m.nrows(), 12);
        assert!(m.is_symmetric(0.0));
        assert!(is_diag_dominant(m));
        // interior point has 4 neighbours + diagonal
        assert_eq!(m.col_rows(4).len(), 5);
        // corner has 2 neighbours + diagonal
        assert_eq!(m.col_rows(0).len(), 3);
    }

    #[test]
    fn laplace3d_structure() {
        let w = grid_laplacian_3d(3, 3, 3);
        let m = &w.matrix;
        assert_eq!(m.nrows(), 27);
        assert!(m.is_symmetric(0.0));
        assert!(is_diag_dominant(m));
        // center point (1,1,1) has 6 neighbours + diagonal
        let c = (3 + 1) * 3 + 1;
        assert_eq!(m.col_rows(c).len(), 7);
    }

    #[test]
    fn fem3d_symmetric_spd_shape() {
        let w = fem_3d(3, 3, 2, 2, 42);
        let m = &w.matrix;
        assert_eq!(m.nrows(), 3 * 3 * 2 * 2);
        assert!(m.is_symmetric(1e-14));
        assert!(is_diag_dominant(m));
        assert_eq!(w.geometry.n(), m.nrows());
    }

    #[test]
    fn dg_blocks_are_dense() {
        let b = 5;
        let w = dg_hamiltonian(2, 2, 1, b, 7);
        let m = &w.matrix;
        assert!(m.is_symmetric(1e-14));
        assert!(is_diag_dominant(m));
        // each element couples to itself + up to 2 neighbours in a 2x2 grid
        // → first column has 3*b entries (self block + two neighbour blocks)
        assert_eq!(m.col_rows(0).len(), 3 * b);
    }

    #[test]
    fn every_stencil_entry_lands_in_its_own_slot() {
        for stencil in [Stencil::Faces, Stencil::Box] {
            for dims in [[1, 1, 1], [3, 1, 1], [1, 4, 2], [3, 3, 3], [4, 2, 3]] {
                for dof in 1..=2 {
                    let mut g = GridCsc::new(dims, dof, stencil);
                    let [nx, ny, nz] = dims;
                    let n = nx * ny * nz * dof;
                    let mut expected = Vec::new();
                    for q in (0..nz)
                        .flat_map(|z| (0..ny).flat_map(move |y| (0..nx).map(move |x| [x, y, z])))
                    {
                        for &o in stencil.offsets().iter().filter(|&&o| GridCsc::inside(dims, q, o))
                        {
                            let p = [0, 1, 2].map(|a| q[a].wrapping_add_signed(o[a]));
                            for (d1, d2) in (0..dof).flat_map(|d1| (0..dof).map(move |d2| (d1, d2)))
                            {
                                let row = GridCsc::index(dims, p) * dof + d1;
                                let col = GridCsc::index(dims, q) * dof + d2;
                                let v = (row * n + col) as f64;
                                g.set(p, d1, q, d2, v);
                                expected.push((row, col, v));
                            }
                        }
                    }
                    let m = g.finish();
                    assert_eq!(m.nnz(), expected.len(), "{stencil:?} {dims:?} dof {dof}");
                    for (row, col, v) in expected {
                        assert_eq!(m.get(row, col), v, "{stencil:?} {dims:?} dof {dof}");
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "written twice")]
    fn a_stencil_entry_written_twice_panics_in_debug() {
        let mut g = GridCsc::new([2, 1, 1], 1, Stencil::Faces);
        g.set([1, 0, 0], 0, [0, 0, 0], 0, -1.0);
        g.set([1, 0, 0], 0, [0, 0, 0], 0, -1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never written")]
    fn a_stencil_entry_left_unwritten_panics_in_debug() {
        let mut g = GridCsc::new([2, 1, 1], 1, Stencil::Faces);
        g.set_sym([0, 0, 0], 0, [0, 0, 0], 0, 4.0);
        g.set_sym([1, 0, 0], 0, [0, 0, 0], 0, -1.0);
        g.finish();
    }

    #[test]
    fn random_spd_is_spd_shaped() {
        let m = random_spd(40, 0.1, 3);
        assert!(m.is_symmetric(1e-14));
        assert!(is_diag_dominant(&m));
    }

    #[test]
    fn generators_are_deterministic() {
        let a = fem_3d(3, 3, 3, 2, 9).matrix;
        let b = fem_3d(3, 3, 3, 2, 9).matrix;
        assert_eq!(a, b);
        let c = fem_3d(3, 3, 3, 2, 10).matrix;
        assert_ne!(a, c);
    }
}
