//! Basis factorization for the revised simplex: sparse LU with
//! product-form (eta) updates.
//!
//! The revised simplex never forms `B⁻¹` explicitly. It keeps a sparse LU
//! factorization `P·B = L·U` of the basis matrix (left-looking
//! Gilbert–Peierls elimination with partial pivoting) plus a short *eta
//! file*: after each pivot the new basis is `B' = B·E` where `E` is the
//! identity with one column replaced by the FTRAN'd entering column, so
//!
//! * FTRAN (`B·x = b`) solves through the LU then applies the etas forward;
//! * BTRAN (`Bᵀ·y = c`) applies the eta transposes in reverse then solves
//!   through the LU transpose.
//!
//! The eta file grows by one spike per pivot; once it exceeds
//! [`REFRESH_PIVOTS`] the solver refactorizes from scratch, which both
//! bounds the solve cost and resets accumulated floating-point drift (the
//! sparse analogue of the dense tableau's reprice-and-verify loop).

use crate::sparse::CsrMatrix;
use crate::tol::{MIN_COLUMN_SCALE, SINGULAR_TOL};

/// Eta-file length that triggers a refactorization. Chosen near the dense
/// solver's stall window: long enough to amortize the factorization, short
/// enough that FTRAN/BTRAN stay `O(nnz(LU))`-ish and drift stays small.
pub(crate) const REFRESH_PIVOTS: usize = 64;

/// Sparse LU factors of a basis matrix, `P·B = L·U` with implicit unit
/// diagonal on `L`. Row permutation only; columns are eliminated in basis
/// order, so elimination step `j` corresponds to basis position `j`.
#[derive(Debug, Clone)]
pub(crate) struct LuFactors {
    n: usize,
    /// `perm[k]` = original row chosen as pivot at elimination step `k`.
    perm: Vec<usize>,
    /// Multipliers of step `k`: `(original_row, L[pinv[row], k])` for rows
    /// pivoted after step `k`.
    lower: Vec<Vec<(usize, f64)>>,
    /// Above-diagonal entries of column `j` of `U`: `(step, value)` with
    /// `step < j`.
    upper: Vec<Vec<(usize, f64)>>,
    /// Diagonal of `U`.
    diag: Vec<f64>,
}

/// Why a factorization attempt failed.
#[derive(Debug, Clone)]
pub(crate) struct Singular {
    /// Basis position whose column turned out dependent on its predecessors.
    pub position: usize,
    /// Rows still unpivoted when the failure was detected (candidates for a
    /// repair column).
    pub unpivoted_rows: Vec<usize>,
}

impl LuFactors {
    /// Identity factorization of an empty (0×0) basis.
    pub fn empty() -> Self {
        Self {
            n: 0,
            perm: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            diag: Vec::new(),
        }
    }

    /// Factorizes the basis whose columns are `basis[j]` of the
    /// column-stored constraint matrix `cols` (each CSR row of `cols` is one
    /// LP column over `m` constraint rows).
    pub fn factorize(cols: &CsrMatrix, basis: &[usize]) -> Result<Self, Singular> {
        let n = basis.len();
        let m = cols.ncols();
        debug_assert_eq!(n, m, "basis must be square");
        let mut perm = Vec::with_capacity(n);
        let mut pinv = vec![usize::MAX; m];
        let mut lower: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        let mut upper: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        let mut diag = Vec::with_capacity(n);

        // Dense scratch over original rows, cleared via the touched list.
        let mut work = vec![0.0f64; m];
        let mut seen = vec![false; m];
        let mut touched: Vec<usize> = Vec::new();

        for (j, &col) in basis.iter().enumerate() {
            // Scatter column j of the basis.
            for (r, v) in cols.iter_row(col) {
                work[r] = v;
                if !seen[r] {
                    seen[r] = true;
                    touched.push(r);
                }
            }
            // Left-looking elimination: apply every earlier step whose pivot
            // row currently holds a nonzero. The `k` scan is O(j) index
            // checks; arithmetic stays proportional to the fill actually
            // produced.
            for k in 0..j {
                let p = perm[k];
                let xk = work[p];
                if xk == 0.0 {
                    continue;
                }
                for &(r, l) in &lower[k] {
                    if !seen[r] {
                        seen[r] = true;
                        touched.push(r);
                    }
                    work[r] -= l * xk;
                }
            }
            // Gather U column and pick the partial pivot among unpivoted
            // rows. Sorting the touched list keeps ties (and therefore the
            // whole factorization) deterministic regardless of fill order.
            touched.sort_unstable();
            let mut ucol = Vec::new();
            for k in 0..j {
                let v = work[perm[k]];
                if v != 0.0 {
                    ucol.push((k, v));
                }
            }
            let mut col_max = 0.0f64;
            let mut pivot_row = usize::MAX;
            let mut pivot_mag = 0.0f64;
            for &r in &touched {
                let mag = work[r].abs();
                col_max = col_max.max(mag);
                if pinv[r] == usize::MAX && mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = r;
                }
            }
            if pivot_row == usize::MAX || pivot_mag <= SINGULAR_TOL * col_max.max(MIN_COLUMN_SCALE)
            {
                let unpivoted_rows: Vec<usize> =
                    (0..m).filter(|&r| pinv[r] == usize::MAX).collect();
                return Err(Singular {
                    position: j,
                    unpivoted_rows,
                });
            }
            let d = work[pivot_row];
            let mut lcol = Vec::new();
            for &r in &touched {
                if pinv[r] == usize::MAX && r != pivot_row && work[r] != 0.0 {
                    lcol.push((r, work[r] / d));
                }
            }
            perm.push(pivot_row);
            pinv[pivot_row] = j;
            diag.push(d);
            upper.push(ucol);
            lower.push(lcol);
            // Clear scratch.
            for &r in &touched {
                work[r] = 0.0;
                seen[r] = false;
            }
            touched.clear();
        }

        Ok(Self {
            n,
            perm,
            lower,
            upper,
            diag,
        })
    }

    /// Solves `B·x = b`. `b` is indexed by original constraint row; the
    /// result is indexed by basis position.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut work = b.to_vec();
        // Forward: y = L⁻¹·P·b, with y[k] left at work[perm[k]].
        for k in 0..self.n {
            let t = work[self.perm[k]];
            if t == 0.0 {
                continue;
            }
            for &(r, l) in &self.lower[k] {
                work[r] -= l * t;
            }
        }
        // Backward: U·x = y, by columns.
        let mut x = vec![0.0; self.n];
        for j in (0..self.n).rev() {
            let xj = work[self.perm[j]] / self.diag[j];
            x[j] = xj;
            if xj == 0.0 {
                continue;
            }
            for &(k, u) in &self.upper[j] {
                work[self.perm[k]] -= u * xj;
            }
        }
        x
    }

    /// Solves `Bᵀ·y = c`. `c` is indexed by basis position; the result is
    /// indexed by original constraint row.
    pub fn solve_transpose(&self, c: &[f64]) -> Vec<f64> {
        // Uᵀ·w = c (forward over positions).
        let mut w = vec![0.0; self.n];
        for j in 0..self.n {
            let mut t = c[j];
            for &(k, u) in &self.upper[j] {
                t -= u * w[k];
            }
            w[j] = t / self.diag[j];
        }
        // Lᵀ·v = w (backward); v[k] is stored directly at its original row
        // slot y[perm[k]], so y = Pᵀ·v falls out of the loop. A multiplier
        // row `r` was pivoted at step pinv[r] > k, so its v value is already
        // final and sits at y[r].
        let mut y = vec![0.0; self.n];
        for k in (0..self.n).rev() {
            let mut t = w[k];
            for &(r, l) in &self.lower[k] {
                t -= l * y[r];
            }
            y[self.perm[k]] = t;
        }
        y
    }
}

/// One product-form update: the basis column at `pos` was replaced by a
/// column whose FTRAN image was `w` (so `B' = B·E` with `E` the identity
/// carrying `w` in column `pos`).
#[derive(Debug, Clone)]
struct Eta {
    pos: usize,
    pivot: f64,
    /// `(position, w[position])` for the nonzero off-pivot entries.
    spike: Vec<(usize, f64)>,
}

/// LU factors plus the eta file accumulated since the last refactorization.
#[derive(Debug, Clone)]
pub(crate) struct Factorization {
    lu: LuFactors,
    etas: Vec<Eta>,
}

impl Factorization {
    /// Wraps freshly computed LU factors (empty eta file).
    pub fn new(lu: LuFactors) -> Self {
        Self {
            lu,
            etas: Vec::new(),
        }
    }

    /// Number of pivots applied since the last refactorization.
    #[cfg(test)]
    pub fn updates(&self) -> usize {
        self.etas.len()
    }

    /// True when the eta file is long enough that the caller should
    /// refactorize.
    #[inline]
    pub fn needs_refresh(&self) -> bool {
        self.etas.len() >= REFRESH_PIVOTS
    }

    /// FTRAN: solves `B·x = b` through the factors and the eta file. `b` is
    /// indexed by original row, the result by basis position.
    pub fn ftran(&self, b: &[f64]) -> Vec<f64> {
        let mut x = self.lu.solve(b);
        for eta in &self.etas {
            let xp = x[eta.pos] / eta.pivot;
            if xp != 0.0 {
                for &(i, w) in &eta.spike {
                    x[i] -= w * xp;
                }
            }
            x[eta.pos] = xp;
        }
        x
    }

    /// BTRAN: solves `Bᵀ·y = c`. `c` is indexed by basis position, the
    /// result by original row.
    pub fn btran(&self, c: &[f64]) -> Vec<f64> {
        let mut c = c.to_vec();
        for eta in self.etas.iter().rev() {
            let mut t = c[eta.pos];
            for &(i, w) in &eta.spike {
                t -= w * c[i];
            }
            c[eta.pos] = t / eta.pivot;
        }
        self.lu.solve_transpose(&c)
    }

    /// Records a pivot: the entering column's FTRAN image `w` replaces the
    /// basis column at position `pos`.
    pub fn update(&mut self, w: &[f64], pos: usize) {
        let spike: Vec<(usize, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != pos && v != 0.0)
            .map(|(i, &v)| (i, v))
            .collect();
        self.etas.push(Eta {
            pos,
            pivot: w[pos],
            spike,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a column store (one CSR row per LP column) from dense columns.
    fn col_store(cols: &[Vec<f64>]) -> CsrMatrix {
        let m = cols.first().map(|c| c.len()).unwrap_or(0);
        let mut triplets = Vec::new();
        for (j, col) in cols.iter().enumerate() {
            for (r, &v) in col.iter().enumerate() {
                if v != 0.0 {
                    triplets.push((j, r, v));
                }
            }
        }
        CsrMatrix::from_triplets(cols.len(), m, &triplets)
    }

    fn dense_mul(cols: &[Vec<f64>], basis: &[usize], x: &[f64]) -> Vec<f64> {
        let m = cols[0].len();
        let mut y = vec![0.0; m];
        for (j, &c) in basis.iter().enumerate() {
            for r in 0..m {
                y[r] += cols[c][r] * x[j];
            }
        }
        y
    }

    #[test]
    fn lu_solves_a_permuted_system() {
        // Columns chosen so that partial pivoting must permute rows.
        let cols = vec![
            vec![0.0, 2.0, 0.0],
            vec![1.0, 1.0, 0.0],
            vec![3.0, 0.0, 1.0],
        ];
        let store = col_store(&cols);
        let basis = [0usize, 1, 2];
        let lu = LuFactors::factorize(&store, &basis).unwrap();
        let b = vec![5.0, 7.0, -1.0];
        let x = lu.solve(&b);
        let back = dense_mul(&cols, &basis, &x);
        for r in 0..3 {
            assert!(
                (back[r] - b[r]).abs() < 1e-10,
                "row {r}: {} vs {}",
                back[r],
                b[r]
            );
        }
        // Transpose solve: Bᵀ y = c  ⇔  yᵀ B = cᵀ.
        let c = vec![1.0, -2.0, 0.5];
        let y = lu.solve_transpose(&c);
        for (j, &col) in basis.iter().enumerate() {
            let dot: f64 = (0..3).map(|r| y[r] * cols[col][r]).sum();
            assert!((dot - c[j]).abs() < 1e-10, "col {j}: {dot} vs {}", c[j]);
        }
    }

    #[test]
    fn singular_basis_is_reported_with_uncovered_rows() {
        // Third column = sum of the first two: dependent at position 2, and
        // row 2 is never pivoted.
        let cols = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![1.0, 1.0, 0.0],
        ];
        let store = col_store(&cols);
        let err = LuFactors::factorize(&store, &[0, 1, 2]).unwrap_err();
        assert_eq!(err.position, 2);
        assert_eq!(err.unpivoted_rows, vec![2]);
    }

    #[test]
    fn eta_updates_track_a_changing_basis() {
        // Start from the identity basis and pivot in two new columns; the
        // factorization must keep solving the *current* basis exactly.
        let cols = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![1.0, 2.0, 0.0],
            vec![0.0, 1.0, 3.0],
        ];
        let store = col_store(&cols);
        let mut basis = vec![0usize, 1, 2];
        let lu = LuFactors::factorize(&store, &basis).unwrap();
        let mut fact = Factorization::new(lu);

        for &(enter, pos) in &[(3usize, 1usize), (4, 2)] {
            // FTRAN the entering column, then record the replacement.
            let mut dense_col = vec![0.0; 3];
            for (r, v) in store.iter_row(enter) {
                dense_col[r] = v;
            }
            let w = fact.ftran(&dense_col);
            fact.update(&w, pos);
            basis[pos] = enter;

            // Both FTRAN and BTRAN must now agree with the dense basis.
            let b = vec![1.0, -1.0, 2.0];
            let x = fact.ftran(&b);
            let back = dense_mul(&cols, &basis, &x);
            for r in 0..3 {
                assert!((back[r] - b[r]).abs() < 1e-10);
            }
            let c = vec![0.5, 1.5, -2.0];
            let y = fact.btran(&c);
            for (j, &col) in basis.iter().enumerate() {
                let dot: f64 = (0..3).map(|r| y[r] * cols[col][r]).sum();
                assert!((dot - c[j]).abs() < 1e-10);
            }
        }
        assert_eq!(fact.updates(), 2);
        assert!(!fact.needs_refresh());
    }

    #[test]
    fn empty_basis_is_fine() {
        let lu = LuFactors::empty();
        assert!(lu.solve(&[]).is_empty());
        assert!(lu.solve_transpose(&[]).is_empty());
        let store = CsrMatrix::from_triplets(0, 0, &[]);
        assert!(LuFactors::factorize(&store, &[]).is_ok());
    }
}
