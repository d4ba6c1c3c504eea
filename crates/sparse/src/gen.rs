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

/// 5-point 2-D grid Laplacian on an `nx × ny` grid, shifted to be SPD.
pub fn grid_laplacian_2d(nx: usize, ny: usize) -> Workload {
    assert!(nx > 0 && ny > 0);
    let n = nx * ny;
    let idx = |x: usize, y: usize| y * nx + x;
    let mut t = TripletMatrix::with_capacity(n, n, 5 * n);
    for y in 0..ny {
        for x in 0..nx {
            let i = idx(x, y);
            t.push(i, i, 4.0 + 0.01);
            if x + 1 < nx {
                t.push_sym(idx(x + 1, y), i, -1.0);
            }
            if y + 1 < ny {
                t.push_sym(idx(x, y + 1), i, -1.0);
            }
        }
    }
    Workload {
        name: format!("laplace2d_{nx}x{ny}"),
        matrix: t.to_csc(),
        geometry: Geometry { dims: [nx, ny, 1], dof: 1 },
    }
}

/// 7-point 3-D grid Laplacian on an `nx × ny × nz` grid, shifted to be SPD.
pub fn grid_laplacian_3d(nx: usize, ny: usize, nz: usize) -> Workload {
    assert!(nx > 0 && ny > 0 && nz > 0);
    let n = nx * ny * nz;
    let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    let mut t = TripletMatrix::with_capacity(n, n, 7 * n);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y, z);
                t.push(i, i, 6.0 + 0.01);
                if x + 1 < nx {
                    t.push_sym(idx(x + 1, y, z), i, -1.0);
                }
                if y + 1 < ny {
                    t.push_sym(idx(x, y + 1, z), i, -1.0);
                }
                if z + 1 < nz {
                    t.push_sym(idx(x, y, z + 1), i, -1.0);
                }
            }
        }
    }
    Workload {
        name: format!("laplace3d_{nx}x{ny}x{nz}"),
        matrix: t.to_csc(),
        geometry: Geometry { dims: [nx, ny, nz], dof: 1 },
    }
}

/// 3-D FEM-style matrix: 27-point stencil with `dof` unknowns per node and
/// dense `dof × dof` coupling blocks. This is the audikw_1 / Flan_1565
/// structural regime (sparse A, 3-D mesh, multiple DOFs per node).
pub fn fem_3d(nx: usize, ny: usize, nz: usize, dof: usize, seed: u64) -> Workload {
    assert!(nx > 0 && ny > 0 && nz > 0 && dof > 0);
    let nodes = nx * ny * nz;
    let n = nodes * dof;
    let mut rng = StdRng::seed_from_u64(seed);
    let node_idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    // Each node couples to its 26 neighbours; per-node stencil weight is a
    // random dense dof×dof block, symmetrized across the pair.
    let mut t = TripletMatrix::with_capacity(n, n, 27 * n * dof);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let a = node_idx(x, y, z);
                // Strong diagonal block guarantees positive definiteness:
                // row sums of off-diagonal magnitudes are < 26, so 30 + dof
                // dominates.
                for d1 in 0..dof {
                    for d2 in 0..=d1 {
                        let v =
                            if d1 == d2 { 30.0 + dof as f64 } else { rng.random_range(-0.2..0.2) };
                        t.push_sym(a * dof + d1, a * dof + d2, v);
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
                            let b = node_idx(xx as usize, yy as usize, zz as usize);
                            for d1 in 0..dof {
                                for d2 in 0..dof {
                                    let v = rng.random_range(-1.0..0.0);
                                    t.push(b * dof + d1, a * dof + d2, v / dof as f64);
                                    t.push(a * dof + d2, b * dof + d1, v / dof as f64);
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
        matrix: t.to_csc(),
        geometry: Geometry { dims: [nx, ny, nz], dof },
    }
}

/// Discontinuous-Galerkin-style Hamiltonian: a `gx × gy × gz` element grid
/// with a dense `b × b` block per element and dense coupling blocks between
/// face-adjacent elements. This is the DG_PNF14000 / DG_Graphene regime
/// ("relatively dense" matrices with large uniform supernodes).
pub fn dg_hamiltonian(gx: usize, gy: usize, gz: usize, b: usize, seed: u64) -> Workload {
    assert!(gx > 0 && gy > 0 && gz > 0 && b > 0);
    let elems = gx * gy * gz;
    let n = elems * b;
    let mut rng = StdRng::seed_from_u64(seed);
    let eidx = |x: usize, y: usize, z: usize| (z * gy + y) * gx + x;
    let mut t = TripletMatrix::with_capacity(n, n, (7 * b * b * elems) / 2);
    let push_dense_block =
        |t: &mut TripletMatrix, ea: usize, eb: usize, rng: &mut StdRng, scale: f64| {
            // Dense block coupling element ea (rows) to eb (cols), mirrored.
            for i in 0..b {
                for j in 0..b {
                    let v = rng.random_range(-1.0..1.0) * scale / b as f64;
                    t.push(ea * b + i, eb * b + j, v);
                    t.push(eb * b + j, ea * b + i, v);
                }
            }
        };
    for z in 0..gz {
        for y in 0..gy {
            for x in 0..gx {
                let e = eidx(x, y, z);
                // Dense symmetric diagonal block, strongly diagonally dominant.
                for i in 0..b {
                    for j in 0..=i {
                        let v = if i == j { 8.0 } else { rng.random_range(-1.0..1.0) / b as f64 };
                        t.push_sym(e * b + i, e * b + j, v);
                    }
                }
                if x + 1 < gx {
                    push_dense_block(&mut t, eidx(x + 1, y, z), e, &mut rng, 1.0);
                }
                if y + 1 < gy {
                    push_dense_block(&mut t, eidx(x, y + 1, z), e, &mut rng, 1.0);
                }
                if z + 1 < gz {
                    push_dense_block(&mut t, eidx(x, y, z + 1), e, &mut rng, 1.0);
                }
            }
        }
    }
    Workload {
        name: format!("dg_{gx}x{gy}x{gz}_b{b}"),
        matrix: t.to_csc(),
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
