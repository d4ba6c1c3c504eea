//! Structure-only sparse matrix (no values), used by symbolic analysis.

/// Sparsity pattern of a CSC matrix: column pointers + sorted row indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparsityPattern {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
}

impl SparsityPattern {
    /// Builds a pattern from raw arrays, validating invariants.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
    ) -> Self {
        assert_eq!(col_ptr.len(), ncols + 1);
        assert_eq!(col_ptr[0], 0);
        assert_eq!(*col_ptr.last().unwrap(), row_idx.len());
        for j in 0..ncols {
            assert!(col_ptr[j] <= col_ptr[j + 1]);
            for k in col_ptr[j]..col_ptr[j + 1] {
                assert!(row_idx[k] < nrows);
                if k > col_ptr[j] {
                    assert!(row_idx[k - 1] < row_idx[k], "rows must be strictly increasing");
                }
            }
        }
        Self { nrows, ncols, col_ptr, row_idx }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored positions.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Column pointer array.
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row index array.
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// Row indices of column `j`.
    pub fn col_rows(&self, j: usize) -> &[usize] {
        &self.row_idx[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// `true` if position `(i, j)` is stored.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.col_rows(j).binary_search(&i).is_ok()
    }

    /// Transposed pattern.
    pub fn transpose(&self) -> SparsityPattern {
        let mut col_ptr = vec![0usize; self.nrows + 1];
        for &r in &self.row_idx {
            col_ptr[r + 1] += 1;
        }
        for i in 0..self.nrows {
            col_ptr[i + 1] += col_ptr[i];
        }
        let mut heads = col_ptr[..self.nrows].to_vec();
        let mut row_idx = vec![0usize; self.nnz()];
        for j in 0..self.ncols {
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                let r = self.row_idx[k];
                row_idx[heads[r]] = j;
                heads[r] += 1;
            }
        }
        SparsityPattern { nrows: self.ncols, ncols: self.nrows, col_ptr, row_idx }
    }

    /// `true` if the pattern equals its [`Self::symmetrized_with_diagonal`]:
    /// square, structurally symmetric, every diagonal entry stored. One
    /// pass over the entries and one cursor per column, nothing else
    /// allocated.
    pub fn is_symmetric_with_diagonal(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        // Walking the columns in order meets the entries (i, j) of row i in
        // increasing j: in a symmetric pattern, the rows of column i in order.
        let mut next = self.col_ptr[..self.ncols].to_vec();
        for j in 0..self.ncols {
            let mut diagonal = false;
            for &i in self.col_rows(j) {
                let k = next[i];
                if k == self.col_ptr[i + 1] || self.row_idx[k] != j {
                    return false;
                }
                next[i] = k + 1;
                diagonal |= i == j;
            }
            if !diagonal {
                return false;
            }
        }
        true
    }

    /// Pattern of `A + Aᵀ` (square matrices only), with the diagonal forced
    /// present — the canonical input for symmetric orderings.
    pub fn symmetrized_with_diagonal(&self) -> SparsityPattern {
        assert_eq!(self.nrows, self.ncols);
        let n = self.nrows;
        let t = self.transpose();
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_idx = Vec::with_capacity(2 * self.nnz() + n);
        let mut merged: Vec<usize> = Vec::new();
        for j in 0..n {
            merged.clear();
            let (a, b) = (self.col_rows(j), t.col_rows(j));
            let (mut ia, mut ib) = (0usize, 0usize);
            let mut seen_diag = false;
            loop {
                let next = match (a.get(ia), b.get(ib)) {
                    (Some(&ra), Some(&rb)) if ra == rb => {
                        ia += 1;
                        ib += 1;
                        ra
                    }
                    (Some(&ra), Some(&rb)) if ra < rb => {
                        ia += 1;
                        ra
                    }
                    (Some(_), Some(&rb)) => {
                        ib += 1;
                        rb
                    }
                    (Some(&ra), None) => {
                        ia += 1;
                        ra
                    }
                    (None, Some(&rb)) => {
                        ib += 1;
                        rb
                    }
                    (None, None) => break,
                };
                if !seen_diag && next >= j {
                    if next > j {
                        merged.push(j);
                    }
                    seen_diag = true;
                }
                merged.push(next);
            }
            if !seen_diag {
                merged.push(j);
            }
            row_idx.extend_from_slice(&merged);
            col_ptr[j + 1] = row_idx.len();
        }
        SparsityPattern { nrows: n, ncols: n, col_ptr, row_idx }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat() -> SparsityPattern {
        // column 0: rows {0,2}; column 1: {}; column 2: {1}
        SparsityPattern::from_raw_parts(3, 3, vec![0, 2, 2, 3], vec![0, 2, 1])
    }

    #[test]
    fn contains_works() {
        let p = pat();
        assert!(p.contains(0, 0));
        assert!(p.contains(2, 0));
        assert!(!p.contains(1, 0));
        assert!(p.contains(1, 2));
    }

    #[test]
    fn transpose_involutive() {
        let p = pat();
        assert_eq!(p.transpose().transpose(), p);
    }

    #[test]
    fn symmetry_check_agrees_with_symmetrizing() {
        let from_cols = |n: usize, cols: &[&[usize]]| {
            let mut col_ptr = vec![0];
            let mut rows = Vec::new();
            for c in cols {
                rows.extend_from_slice(c);
                col_ptr.push(rows.len());
            }
            SparsityPattern::from_raw_parts(n, cols.len(), col_ptr, rows)
        };
        let cases = [
            pat(),
            pat().symmetrized_with_diagonal(),
            from_cols(0, &[]),
            from_cols(1, &[&[0]]),
            from_cols(1, &[&[]]),
            // symmetric, one diagonal entry missing
            from_cols(3, &[&[0, 1], &[0], &[2]]),
            // full diagonal, one mirror missing
            from_cols(3, &[&[0, 2], &[1], &[2]]),
            // as many entries as the mirror needs, in the wrong place
            from_cols(3, &[&[0, 1], &[1, 2], &[0, 2]]),
            // not square
            from_cols(3, &[&[0, 1], &[0, 1]]),
        ];
        for (k, p) in cases.iter().enumerate() {
            let expect = p.nrows() == p.ncols() && *p == p.symmetrized_with_diagonal();
            assert_eq!(p.is_symmetric_with_diagonal(), expect, "case {k}");
        }
    }

    #[test]
    fn symmetrized_has_diagonal_and_mirror() {
        let p = pat().symmetrized_with_diagonal();
        for j in 0..3 {
            assert!(p.contains(j, j), "missing diagonal {j}");
        }
        assert!(p.contains(2, 0));
        assert!(p.contains(0, 2));
        assert!(p.contains(1, 2));
        assert!(p.contains(2, 1));
        // strictly increasing rows per column
        for j in 0..3 {
            let rows = p.col_rows(j);
            for w in rows.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }
}
