//! Coordinate (triplet) format builder for sparse matrices.

use crate::csc::SparseMatrix;

/// A sparse matrix under construction, stored as unordered `(row, col, val)`
/// triplets. Duplicate entries are summed on conversion to CSC, in the order
/// they were pushed, matching the Matrix Market convention for assembled
/// finite-element matrices.
#[derive(Clone, Debug, Default)]
pub struct TripletMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl TripletMatrix {
    /// Creates an empty `nrows x ncols` triplet accumulator.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self { nrows, ncols, rows: Vec::new(), cols: Vec::new(), vals: Vec::new() }
    }

    /// Creates an empty accumulator with room for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        Self {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
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

    /// Number of accumulated triplets (before duplicate summing).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Appends one entry. Panics if the indices are out of bounds.
    pub fn push(&mut self, row: usize, col: usize, val: f64) {
        assert!(row < self.nrows, "row {row} out of bounds ({})", self.nrows);
        assert!(col < self.ncols, "col {col} out of bounds ({})", self.ncols);
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Appends `val` at `(row, col)` and, when off-diagonal, also at
    /// `(col, row)` — convenient for assembling symmetric matrices.
    pub fn push_sym(&mut self, row: usize, col: usize, val: f64) {
        self.push(row, col, val);
        if row != col {
            self.push(col, row, val);
        }
    }

    /// Converts to CSC, sorting row indices within each column and summing
    /// duplicates in push order: the entries of one `(row, col)` are added
    /// left to right, starting from `0.0`, in the order they were pushed, so
    /// the sum does not depend on where the others in the column sit.
    pub fn to_csc(&self) -> SparseMatrix {
        // Counting sort by column, then sort-and-compress each column; both
        // sorts are stable, so duplicates keep their push order.
        let mut col_counts = vec![0usize; self.ncols + 1];
        for &c in &self.cols {
            col_counts[c + 1] += 1;
        }
        for j in 0..self.ncols {
            col_counts[j + 1] += col_counts[j];
        }
        let mut heads = col_counts[..self.ncols].to_vec();
        let mut row_idx = vec![0usize; self.nnz()];
        let mut values = vec![0f64; self.nnz()];
        for k in 0..self.nnz() {
            let c = self.cols[k];
            let slot = heads[c];
            heads[c] += 1;
            row_idx[slot] = self.rows[k];
            values[slot] = self.vals[k];
        }

        let mut col_ptr = vec![0usize; self.ncols + 1];
        let mut out_rows = Vec::with_capacity(self.nnz());
        let mut out_vals = Vec::with_capacity(self.nnz());
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for j in 0..self.ncols {
            scratch.clear();
            for k in col_counts[j]..col_counts[j + 1] {
                scratch.push((row_idx[k], values[k]));
            }
            scratch.sort_by_key(|&(r, _)| r);
            let mut i = 0;
            while i < scratch.len() {
                let r = scratch[i].0;
                let mut v = 0.0;
                while i < scratch.len() && scratch[i].0 == r {
                    v += scratch[i].1;
                    i += 1;
                }
                out_rows.push(r);
                out_vals.push(v);
            }
            col_ptr[j + 1] = out_rows.len();
        }
        SparseMatrix::from_raw_parts(self.nrows, self.ncols, col_ptr, out_rows, out_vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix() {
        let t = TripletMatrix::new(3, 4);
        let m = t.to_csc();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 0, 2.5);
        t.push(1, 0, -1.0);
        let m = t.to_csc();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.get(1, 0), -1.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn push_sym_mirrors_off_diagonals() {
        let mut t = TripletMatrix::new(3, 3);
        t.push_sym(0, 0, 4.0);
        t.push_sym(2, 1, -1.0);
        let m = t.to_csc();
        assert_eq!(m.get(2, 1), -1.0);
        assert_eq!(m.get(1, 2), -1.0);
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(2, 0, 1.0);
    }

    #[test]
    fn duplicates_are_summed_in_push_order() {
        // Summed in push order, 1e16 + 1.0 rounds back to 1e16 and row 0
        // reads 0.0; summed as 1e16 - 1e16 + 1.0 it reads 1.0. An unstable
        // sort of this 503-entry column (500 other rows, descending, with
        // the duplicates in the middle) reorders the duplicates that way.
        let mut t = TripletMatrix::new(501, 1);
        for r in (251..=500).rev() {
            t.push(r, 0, r as f64);
        }
        for v in [1e16, 1.0, -1e16] {
            t.push(0, 0, v);
        }
        for r in (1..=250).rev() {
            t.push(r, 0, r as f64);
        }
        let m = t.to_csc();
        assert_eq!(m.col_rows(0).len(), 501);
        assert_eq!(m.get(0, 0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn rows_sorted_within_columns() {
        let mut t = TripletMatrix::new(4, 1);
        t.push(3, 0, 3.0);
        t.push(0, 0, 0.5);
        t.push(2, 0, 2.0);
        let m = t.to_csc();
        assert_eq!(m.col_rows(0), &[0, 2, 3]);
        assert_eq!(m.col_values(0), &[0.5, 2.0, 3.0]);
    }
}
