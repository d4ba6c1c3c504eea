//! Owned column-major dense matrix with copy-on-write shared storage.

use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// Backing storage of a [`Mat`]: either exclusively owned, or a shared
/// reference-counted buffer (e.g. a message payload received from the
/// `pselinv-mpisim` runtime, used in place without copying).
#[derive(Clone)]
enum Store {
    Owned(Vec<f64>),
    Shared(Arc<[f64]>),
}

impl Store {
    #[inline]
    fn as_slice(&self) -> &[f64] {
        match self {
            Store::Owned(v) => v,
            Store::Shared(a) => a,
        }
    }
}

/// A dense column-major matrix of `f64`.
///
/// Element `(i, j)` is stored at `data[j * nrows + i]`, matching the layout
/// of supernodal panels so kernels can run directly on panel storage.
///
/// A matrix built from a shared buffer ([`Mat::from_shared`]) borrows that
/// buffer for every read; the first mutable access copies it out
/// (copy-on-write), so no receiver can ever scribble on a buffer another
/// rank still reads.
#[derive(Clone)]
pub struct Mat {
    nrows: usize,
    ncols: usize,
    store: Store,
}

impl Mat {
    /// Zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self { nrows, ncols, store: Store::Owned(vec![0.0; nrows * ncols]) }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a column-major slice.
    pub fn from_col_major(nrows: usize, ncols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), nrows * ncols);
        Self { nrows, ncols, store: Store::Owned(data.to_vec()) }
    }

    /// Builds from a row-major slice (converts to column-major).
    pub fn from_row_major(nrows: usize, ncols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), nrows * ncols);
        let mut m = Self::zeros(nrows, ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                m[(i, j)] = data[i * ncols + j];
            }
        }
        m
    }

    /// Takes ownership of a column-major buffer without copying it.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols);
        Self { nrows, ncols, store: Store::Owned(data) }
    }

    /// Wraps a shared column-major buffer without copying it. Reads go
    /// straight to the shared buffer; the first mutable access copies.
    pub fn from_shared(nrows: usize, ncols: usize, data: Arc<[f64]>) -> Self {
        assert_eq!(data.len(), nrows * ncols);
        Self { nrows, ncols, store: Store::Shared(data) }
    }

    /// Consumes the matrix, returning its column-major buffer: the owned
    /// `Vec` moves out without copying; shared storage is copied out.
    pub fn into_vec(self) -> Vec<f64> {
        match self.store {
            Store::Owned(v) => v,
            Store::Shared(a) => a.to_vec(),
        }
    }

    /// Converts to shared storage, so subsequent [`Mat::clone`]s and
    /// [`Mat::to_shared`] calls are reference-count bumps instead of
    /// buffer copies. Owned storage pays one move into a fresh `Arc`
    /// allocation; already-shared matrices are returned unchanged.
    pub fn into_shared(self) -> Self {
        let store = match self.store {
            Store::Owned(v) => Store::Shared(Arc::from(v)),
            shared @ Store::Shared(_) => shared,
        };
        Self { nrows: self.nrows, ncols: self.ncols, store }
    }

    /// The storage as a shareable buffer: free when already shared
    /// ([`Mat::from_shared`] round-trips without copying), one copy when
    /// exclusively owned.
    pub fn to_shared(&self) -> Arc<[f64]> {
        match &self.store {
            Store::Owned(v) => Arc::from(v.as_slice()),
            Store::Shared(a) => a.clone(),
        }
    }

    /// `true` while the storage is a shared buffer (no mutable access has
    /// happened yet).
    pub fn is_shared(&self) -> bool {
        matches!(self.store, Store::Shared(_))
    }

    /// Ensures exclusively owned storage (the copy-on-write step).
    #[inline]
    fn make_owned(&mut self) -> &mut Vec<f64> {
        if let Store::Shared(a) = &self.store {
            self.store = Store::Owned(a.to_vec());
        }
        match &mut self.store {
            Store::Owned(v) => v,
            Store::Shared(_) => unreachable!("make_owned left shared storage"),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Raw column-major storage.
    #[inline]
    pub fn data(&self) -> &[f64] {
        self.store.as_slice()
    }

    /// Mutable raw column-major storage (copies shared storage out first).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        self.make_owned()
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data()[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        let nrows = self.nrows;
        &mut self.make_owned()[j * nrows..(j + 1) * nrows]
    }

    /// Two distinct columns as mutable slices (`j0 != j1`), for kernels
    /// that update one column from another in place.
    pub fn col_pair_mut(&mut self, j0: usize, j1: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(j0, j1, "col_pair_mut needs two distinct columns");
        assert!(j0 < self.ncols && j1 < self.ncols);
        let nrows = self.nrows;
        let (lo, hi) = (j0.min(j1), j0.max(j1));
        let data = self.make_owned();
        let (head, tail) = data.split_at_mut(hi * nrows);
        let a = &mut head[lo * nrows..(lo + 1) * nrows];
        let b = &mut tail[..nrows];
        if j0 < j1 {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Element read, bounds-checked only in debug builds. The packed
    /// kernels iterate in patterns the compiler cannot always prove in
    /// range; their loop bounds are asserted once at entry instead.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.nrows && j < self.ncols, "at({i},{j}) out of bounds");
        let idx = j * self.nrows + i;
        debug_assert!(idx < self.data().len());
        // SAFETY: idx < nrows * ncols == data.len(), checked above in debug
        // builds and guaranteed by the callers' asserted loop bounds.
        unsafe { *self.data().get_unchecked(idx) }
    }

    /// Element write, bounds-checked only in debug builds (copies shared
    /// storage out first).
    #[inline(always)]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols, "at_mut({i},{j}) out of bounds");
        let idx = j * self.nrows + i;
        let data = self.make_owned();
        debug_assert!(idx < data.len());
        // SAFETY: idx < nrows * ncols == data.len(), as above.
        unsafe { data.get_unchecked_mut(idx) }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.ncols, self.nrows);
        for j in 0..self.ncols {
            for i in 0..self.nrows {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data().iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Max-abs norm.
    pub fn norm_max(&self) -> f64 {
        self.data().iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// `self += alpha * other` (same shape).
    pub fn axpy(&mut self, alpha: f64, other: &Mat) {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        for (a, b) in self.data_mut().iter_mut().zip(other.store.as_slice()) {
            *a += alpha * b;
        }
    }

    /// Copies the `r×c` sub-matrix at `(row, col)` into a new matrix.
    pub fn submatrix(&self, row: usize, col: usize, r: usize, c: usize) -> Mat {
        assert!(row + r <= self.nrows && col + c <= self.ncols);
        let mut m = Mat::zeros(r, c);
        for j in 0..c {
            for i in 0..r {
                m[(i, j)] = self[(row + i, col + j)];
            }
        }
        m
    }

    /// Copies the `r×c` sub-matrix at `(row, col)` straight into a fresh
    /// shared buffer, column by column: one copy, where
    /// [`Mat::submatrix`] followed by [`Mat::into_shared`] makes two. The
    /// buffer has one holder, so `Arc::get_mut` can update it in place
    /// before it is wrapped ([`Mat::from_shared`]) and handed out.
    pub fn submatrix_shared(&self, row: usize, col: usize, r: usize, c: usize) -> Arc<[f64]> {
        assert!(row + r <= self.nrows && col + c <= self.ncols);
        let mut buf = Arc::<[f64]>::new_uninit_slice(r * c);
        let cols = Arc::get_mut(&mut buf).expect("a fresh buffer has one holder");
        for (j, dst) in cols.chunks_exact_mut(r.max(1)).enumerate() {
            dst.write_copy_of_slice(&self.col(col + j)[row..row + r]);
        }
        // SAFETY: the `c` chunks of `r` entries tile the buffer, and each
        // was written from a source column of exactly `r` entries.
        unsafe { buf.assume_init() }
    }
}

impl PartialEq for Mat {
    /// Shape and element equality, regardless of how each side is stored.
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows && self.ncols == other.ncols && self.data() == other.data()
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.store.as_slice()[j * self.nrows + i]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        let idx = j * self.nrows + i;
        &mut self.make_owned()[idx]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.nrows, self.ncols)?;
        for i in 0..self.nrows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.ncols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_column_major() {
        let m = Mat::from_col_major(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn row_major_conversion() {
        let m = Mat::from_row_major(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Mat::from_row_major(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn norms() {
        let m = Mat::from_col_major(1, 2, &[3.0, -4.0]);
        assert!((m.norm_fro() - 5.0).abs() < 1e-15);
        assert_eq!(m.norm_max(), 4.0);
    }

    #[test]
    fn submatrix_extracts() {
        let m = Mat::from_row_major(3, 3, &[1., 2., 3., 4., 5., 6., 7., 8., 9.]);
        let s = m.submatrix(1, 1, 2, 2);
        assert_eq!(s[(0, 0)], 5.0);
        assert_eq!(s[(1, 1)], 9.0);
    }

    #[test]
    fn axpy_adds() {
        let mut a = Mat::identity(2);
        let b = Mat::from_col_major(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        a.axpy(2.0, &b);
        assert_eq!(a[(0, 0)], 3.0);
        assert_eq!(a[(1, 0)], 2.0);
    }

    #[test]
    fn shared_storage_reads_without_copy_and_cows_on_write() {
        let buf: Arc<[f64]> = Arc::from(vec![1.0, 2.0, 3.0, 4.0].as_slice());
        let mut m = Mat::from_shared(2, 2, buf.clone());
        assert!(m.is_shared());
        assert_eq!(Arc::strong_count(&buf), 2);
        assert_eq!(m[(1, 0)], 2.0);
        assert!(m.is_shared(), "reads must not detach shared storage");
        // Round-trip back out is free while shared.
        let back = m.to_shared();
        assert!(Arc::ptr_eq(&back, &buf));
        drop(back);
        // First write copies; the original buffer stays intact.
        m[(0, 0)] = 99.0;
        assert!(!m.is_shared());
        assert_eq!(buf[0], 1.0, "writer must never alias the shared buffer");
        assert_eq!(m[(0, 0)], 99.0);
        assert_eq!(Arc::strong_count(&buf), 1);
    }

    #[test]
    fn submatrix_shared_equals_submatrix() {
        let m = Mat::from_col_major(3, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        for (row, col, r, c) in [(1, 1, 2, 2), (0, 0, 3, 3), (2, 0, 1, 3), (0, 2, 0, 1)] {
            let shared = Mat::from_shared(r, c, m.submatrix_shared(row, col, r, c));
            assert_eq!(shared, m.submatrix(row, col, r, c), "({row},{col}) {r}x{c}");
        }
    }

    #[test]
    fn shared_and_owned_compare_by_contents() {
        let owned = Mat::from_col_major(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let shared = Mat::from_shared(2, 2, Arc::from(vec![1.0, 2.0, 3.0, 4.0].as_slice()));
        assert_eq!(owned, shared);
    }

    #[test]
    fn clone_of_shared_is_cheap_and_detaches_on_write() {
        let m = Mat::from_shared(1, 3, Arc::from(vec![1.0, 2.0, 3.0].as_slice()));
        let mut c = m.clone();
        c[(0, 1)] = -2.0;
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(c[(0, 1)], -2.0);
    }

    #[test]
    fn col_pair_mut_returns_disjoint_columns() {
        let mut m = Mat::from_col_major(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let (a, b) = m.col_pair_mut(2, 0);
        assert_eq!(a, &[5.0, 6.0]);
        assert_eq!(b, &[1.0, 2.0]);
        a[0] = 50.0;
        b[1] = 20.0;
        assert_eq!(m[(0, 2)], 50.0);
        assert_eq!(m[(1, 0)], 20.0);
    }

    #[test]
    #[should_panic(expected = "distinct columns")]
    fn col_pair_mut_rejects_same_column() {
        let mut m = Mat::zeros(2, 2);
        let _ = m.col_pair_mut(1, 1);
    }

    #[test]
    fn at_accessors_match_indexing() {
        let mut m = Mat::from_col_major(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.at(1, 1), 4.0);
        *m.at_mut(0, 1) = 7.0;
        assert_eq!(m[(0, 1)], 7.0);
    }
}
