//! Compressed sparse row (CSR) matrices for the revised simplex.
//!
//! The LPs produced by the COYOTE pipeline are extremely sparse: a flow
//! conservation row touches only the edges incident to one node, a capacity
//! row only the per-destination copies of one edge. The dense tableau stores
//! (and eliminates over) millions of structural zeros; the revised simplex
//! ([`crate::revised`]) instead keeps the constraint matrix in CSR form and
//! works with `O(nnz)` per product.
//!
//! The same type doubles as a CSC store: the solver keeps the constraint
//! matrix *by columns* (each logical LP column stored as one CSR row), since
//! pricing and FTRAN both consume columns. The basis kernel keeps its `L`
//! and `U` factors and its eta file in it too, filled row by row
//! ([`CsrMatrix::push`] / [`CsrMatrix::close_row`]) and refilled in place.

/// A sparse matrix in compressed sparse row format.
///
/// Rows are stored contiguously: row `i` occupies
/// `col_idx[row_ptr[i]..row_ptr[i+1]]` / `values[row_ptr[i]..row_ptr[i+1]]`,
/// with column indices strictly increasing inside a row.
#[derive(Debug, Clone)]
pub(crate) struct CsrMatrix {
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds the matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate `(row, col)` entries are summed (coalesced) in triplet
    /// order; entries whose coalesced sum is exactly `0.0` are dropped, as
    /// are explicit zero triplets. The layout is canonical whatever the
    /// triplet order. Triplets are bucketed by row with a stable counting
    /// sort, and a row whose columns arrived out of order is then stably
    /// sorted by column — together a stable `(row, col)` sort, in `O(nnz)`
    /// when every row's columns arrive in order (the revised simplex emits
    /// its column store that way).
    ///
    /// # Panics
    ///
    /// Panics if a triplet lies outside `nrows x ncols`.
    pub(crate) fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Self {
        let mut row_ptr = vec![0usize; nrows + 1];
        for &(r, c, _) in triplets {
            assert!(
                r < nrows && c < ncols,
                "triplet ({r}, {c}) out of {nrows}x{ncols}"
            );
            row_ptr[r + 1] += 1;
        }
        for r in 0..nrows {
            row_ptr[r + 1] += row_ptr[r];
        }
        // `ends[r]` is where row `r`'s next entry goes — its end once every
        // triplet is placed.
        let mut ends = row_ptr[..nrows].to_vec();
        let mut entries = vec![(0usize, 0.0f64); triplets.len()];
        for &(r, c, v) in triplets {
            entries[ends[r]] = (c, v);
            ends[r] += 1;
        }

        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        let mut start = 0;
        for (r, &end) in ends.iter().enumerate() {
            let row = &mut entries[start..end];
            start = end;
            if !row.is_sorted_by_key(|&(c, _)| c) {
                row.sort_by_key(|&(c, _)| c);
            }
            let mut i = 0;
            while i < row.len() {
                let (c, mut v) = row[i];
                i += 1;
                while i < row.len() && row[i].0 == c {
                    v += row[i].1;
                    i += 1;
                }
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr[r + 1] = col_idx.len();
        }
        Self {
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// An empty matrix (no rows yet) with room for `rows` rows and `entries`
    /// entries, to be filled with [`Self::push`] and [`Self::close_row`].
    pub(crate) fn with_capacity(rows: usize, ncols: usize, entries: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        Self {
            ncols,
            row_ptr,
            col_idx: Vec::with_capacity(entries),
            values: Vec::with_capacity(entries),
        }
    }

    /// Appends an entry to the open row. The caller keeps column indices
    /// strictly increasing inside a row.
    #[inline]
    pub(crate) fn push(&mut self, col: usize, value: f64) {
        debug_assert!(col < self.ncols);
        self.col_idx.push(col);
        self.values.push(value);
    }

    /// Closes the open row: entries pushed from here on belong to the next.
    #[inline]
    pub(crate) fn close_row(&mut self) {
        self.row_ptr.push(self.col_idx.len());
    }

    /// Drops every row and keeps the capacity.
    pub(crate) fn clear(&mut self) {
        self.row_ptr.truncate(1);
        self.col_idx.clear();
        self.values.clear();
    }

    /// Number of columns.
    #[inline]
    pub(crate) fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub(crate) fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Address and capacity of the three arrays (the no-reallocation tests).
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> [(usize, usize); 3] {
        let of = |ptr: *const u8, capacity| (ptr as usize, capacity);
        [
            of(self.row_ptr.as_ptr().cast(), self.row_ptr.capacity()),
            of(self.col_idx.as_ptr().cast(), self.col_idx.capacity()),
            of(self.values.as_ptr().cast(), self.values.capacity()),
        ]
    }

    /// Iterates the `(col, value)` entries of row `i`.
    #[inline]
    pub(crate) fn iter_row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let entries = self.row_ptr[i]..self.row_ptr[i + 1];
        let (cols, vals) = (&self.col_idx[entries.clone()], &self.values[entries]);
        cols.iter().copied().zip(vals.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The comparison sort `from_triplets` replaced, kept as its oracle:
    /// one stable `(row, col)` sort, then coalescing.
    fn sorted_by_key(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = vec![0usize; nrows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());
        let mut i = 0;
        while i < sorted.len() {
            let (r, c, mut v) = sorted[i];
            i += 1;
            while i < sorted.len() && sorted[i].0 == r && sorted[i].1 == c {
                v += sorted[i].2;
                i += 1;
            }
            if v != 0.0 {
                col_idx.push(c);
                values.push(v);
                row_ptr[r + 1] += 1;
            }
        }
        for r in 0..nrows {
            row_ptr[r + 1] += row_ptr[r];
        }
        CsrMatrix {
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    fn row(m: &CsrMatrix, i: usize) -> Vec<(usize, f64)> {
        m.iter_row(i).collect()
    }

    #[test]
    fn from_triplets_builds_canonical_rows() {
        // Out-of-order triplets land sorted inside each row.
        let m =
            CsrMatrix::from_triplets(2, 3, &[(1, 2, 5.0), (0, 1, 2.0), (1, 0, -1.0), (0, 0, 1.0)]);
        assert_eq!(m.ncols(), 3);
        assert_eq!(row(&m, 0), [(0, 1.0), (1, 2.0)]);
        assert_eq!(row(&m, 1), [(0, -1.0), (2, 5.0)]);
    }

    #[test]
    fn duplicate_entries_are_coalesced() {
        // Duplicates sum; a pair that cancels to exactly zero is dropped.
        let m = CsrMatrix::from_triplets(
            2,
            2,
            &[
                (0, 0, 1.0),
                (0, 0, 2.5),
                (1, 1, 4.0),
                (1, 1, -4.0),
                (1, 0, 0.0),
            ],
        );
        assert_eq!(row(&m, 0), [(0, 3.5)]);
        assert_eq!(row(&m, 1), []);
    }

    #[test]
    fn empty_rows_are_representable() {
        let m = CsrMatrix::from_triplets(4, 4, &[(1, 2, 7.0)]);
        assert_eq!(row(&m, 0), []);
        assert_eq!(row(&m, 1), [(2, 7.0)]);
        assert_eq!(row(&m, 2), []);
        assert_eq!(row(&m, 3), []);
    }

    #[test]
    fn rows_can_be_appended_and_refilled_in_place() {
        let mut m = CsrMatrix::with_capacity(3, 3, 3);
        let before = m.buffers();
        for _ in 0..2 {
            m.push(0, 1.0);
            m.push(2, -2.0);
            m.close_row();
            m.close_row();
            m.push(1, 4.0);
            m.close_row();
            assert_eq!(m.nnz(), 3);
            assert_eq!(row(&m, 0), [(0, 1.0), (2, -2.0)]);
            assert_eq!(row(&m, 1), []);
            assert_eq!(row(&m, 2), [(1, 4.0)]);
            m.clear();
            assert_eq!(m.nnz(), 0);
        }
        assert_eq!(m.buffers(), before);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_triplets_panic() {
        let _ = CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The counting sort equals the comparison sort `to_bits`: on
        /// duplicates (summed in an order that rounds), entries that cancel
        /// to `0.0`, explicit zeros, out-of-order columns inside a row and
        /// empty rows — and on triplets whose columns arrive in order, the
        /// path that sorts nothing.
        #[test]
        fn counting_sort_equals_the_comparison_sort(
            nrows in 1usize..9,
            ncols in 1usize..9,
            raw in collection::vec((0usize..9, 0usize..9, -5i32..6), 0..48),
            columns_in_order in 0usize..2,
        ) {
            let mut triplets: Vec<(usize, usize, f64)> = raw
                .iter()
                .map(|&(r, c, k)| (r % nrows, c % ncols, f64::from(k) / 10.0))
                .collect();
            if columns_in_order == 1 {
                triplets.sort_by_key(|&(_, c, _)| c);
            }
            let counted = CsrMatrix::from_triplets(nrows, ncols, &triplets);
            let oracle = sorted_by_key(nrows, ncols, &triplets);
            prop_assert_eq!(&counted.row_ptr, &oracle.row_ptr);
            prop_assert_eq!(&counted.col_idx, &oracle.col_idx);
            let bits = |m: &CsrMatrix| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&counted), bits(&oracle));
        }
    }
}
