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
//!
//! ## The basis kernel
//!
//! One [`Factorization`] lives as long as its solver and costs what it
//! touches.
//!
//! * **Flat layout.** `L`, `U` and the eta file are three [`CsrMatrix`]
//!   stores, one row per factor column or eta spike, reserved once (`L`
//!   and `U` from the constraint matrix's nonzero count, the eta file from
//!   its true bound `REFRESH_PIVOTS · m`) and refilled in place: a
//!   refactorization allocates nothing unless fill outgrows the
//!   reservation. FTRAN and BTRAN write into buffers the caller owns.
//! * **The worklist invariant.** Eliminating basis column `j` applies every
//!   earlier step whose pivot row holds a nonzero, in ascending step order.
//!   A step enters the [`StepQueue`] when its pivot row is first touched,
//!   by the scatter or by fill; its multipliers sit on rows pivoted later
//!   or not yet, so a step only ever queues *later* steps and popping the
//!   minimum visits exactly the steps a `0..j` scan would find nonzero, in
//!   the same order.
//! * **Bit identity.** Same floating-point operations on the same values
//!   in the same order as the `0..j` scans this replaced (kept as
//!   `tests::reference`); the ordering rules are on [`LuFactors`].
//! * **Cost model.** Factorization: `O(touched)` per column, plus one word
//!   per 64 steps of the touched span, instead of `O(j)`. FTRAN / BTRAN:
//!   one pass over `perm`, `nnz(L)`, `nnz(U)` and the eta file. Zero
//!   allocations per pivot.
//!
//! Measured with `gprofng` on the benchmark's `lp-families` workload, the
//! factorization fell from 7.06 of 18.02 CPU seconds to 1.59 of 11.53; the
//! full before/after table is in `docs/ARCHITECTURE.md`, § "The basis
//! kernel".

use crate::sparse::CsrMatrix;
use crate::tol::{MIN_COLUMN_SCALE, SINGULAR_TOL};

/// Eta-file length that triggers a refactorization. Chosen near the dense
/// solver's stall window: long enough to amortize the factorization, short
/// enough that FTRAN/BTRAN stay `O(nnz(LU))`-ish and drift stays small.
pub(crate) const REFRESH_PIVOTS: usize = 64;

/// The ordered worklist of one column's elimination: a bitset over steps
/// whose minimum is popped with `trailing_zeros`. `lo..=hi` is the window of
/// words that may be nonzero, so an empty queue costs nothing to poll and a
/// walk scans one word per 64 steps of the span it actually covers.
#[derive(Debug)]
struct StepQueue {
    words: Vec<u64>,
    lo: usize,
    hi: usize,
}

impl StepQueue {
    fn new(steps: usize) -> Self {
        Self {
            words: vec![0; steps.div_ceil(64)],
            lo: usize::MAX,
            hi: 0,
        }
    }

    #[inline]
    fn insert(&mut self, step: usize) {
        let word = step / 64;
        self.words[word] |= 1 << (step % 64);
        self.lo = self.lo.min(word);
        self.hi = self.hi.max(word);
    }

    /// Removes and returns the smallest queued step.
    #[inline]
    fn pop_min(&mut self) -> Option<usize> {
        while self.lo <= self.hi {
            let word = self.words[self.lo];
            if word != 0 {
                self.words[self.lo] = word & (word - 1);
                return Some(self.lo * 64 + word.trailing_zeros() as usize);
            }
            self.lo += 1;
        }
        (self.lo, self.hi) = (usize::MAX, 0);
        None
    }
}

/// Sparse LU factors of a basis matrix, `P·B = L·U` with implicit unit
/// diagonal on `L`. Row permutation only; columns are eliminated in basis
/// order, so elimination step `j` corresponds to basis position `j`.
///
/// One value serves every basis of one constraint matrix: [`Self::factorize`]
/// refills the factors in place. The results are bit-identical to the
/// `Vec`-of-`Vec`s kernel this replaced (`tests::reference`) because these
/// orders are kept:
///
/// * earlier steps are applied in **ascending step order**, each skipped
///   when its pivot row holds an exact zero;
/// * a `U` column lists its entries **ascending by step** — an entry is
///   final when its step is visited, since only earlier steps write to that
///   pivot row, so it is gathered there;
/// * an `L` column lists its entries **ascending by original row**, from the
///   sorted touched list;
/// * the pivot is the **first strict maximum** magnitude among unpivoted
///   rows in that sorted order;
/// * the triangular solves skip a step only where the old loops did (an
///   exact-zero multiplier of a whole column). Skipping a single `0.0 / d`
///   or `t -= u * 0.0` as well would be faster and wrong: either can flip
///   the sign of a zero.
#[derive(Debug)]
pub(crate) struct LuFactors {
    /// `perm[k]` = original row chosen as pivot at elimination step `k`.
    perm: Vec<usize>,
    /// Row `k`: the multipliers of step `k`, `(original_row,
    /// L[pinv[row], k])` for rows pivoted after step `k`.
    lower: CsrMatrix,
    /// Row `j`: the above-diagonal entries of column `j` of `U`,
    /// `(step, value)` with `step < j`.
    upper: CsrMatrix,
    /// Diagonal of `U`.
    diag: Vec<f64>,
    scratch: Elimination,
    /// Elimination steps visited by the last factorization.
    #[cfg(test)]
    visits: usize,
}

/// What [`LuFactors::factorize`] knows about the column it is eliminating.
#[derive(Debug)]
struct Elimination {
    /// Step at which each original row was pivoted (`usize::MAX` before).
    pinv: Vec<usize>,
    /// The column's values, dense over original rows; `seen` marks and
    /// `touched` lists the rows that hold one, so clearing is `O(touched)`.
    work: Vec<f64>,
    seen: Vec<bool>,
    touched: Vec<usize>,
    /// Earlier steps whose pivot row holds a value, not yet applied.
    queue: StepQueue,
}

impl Elimination {
    /// Marks row `r` as holding a value of the column being eliminated; if
    /// the row is already a pivot row, its step joins the worklist.
    #[inline]
    fn touch(&mut self, r: usize) {
        if !self.seen[r] {
            self.seen[r] = true;
            self.touched.push(r);
            if self.pinv[r] != usize::MAX {
                self.queue.insert(self.pinv[r]);
            }
        }
    }
}

/// Why a factorization attempt failed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Singular {
    /// Basis position whose column turned out dependent on its predecessors.
    pub position: usize,
}

impl LuFactors {
    /// Factors for `m × m` bases, with room for `entries` nonzeros in each
    /// of `L` and `U`. Holds nothing until the first [`Self::factorize`].
    fn new(m: usize, entries: usize) -> Self {
        Self {
            perm: Vec::with_capacity(m),
            lower: CsrMatrix::with_capacity(m, m, entries),
            upper: CsrMatrix::with_capacity(m, m, entries),
            diag: Vec::with_capacity(m),
            scratch: Elimination {
                pinv: vec![usize::MAX; m],
                work: vec![0.0; m],
                seen: vec![false; m],
                touched: Vec::with_capacity(m),
                queue: StepQueue::new(m),
            },
            #[cfg(test)]
            visits: 0,
        }
    }

    /// Factorizes the basis whose columns are `basis[j]` of the
    /// column-stored constraint matrix `cols` (each CSR row of `cols` is one
    /// LP column over `m` constraint rows). After an `Err` the factors are
    /// unusable until a later call succeeds.
    fn factorize(&mut self, cols: &CsrMatrix, basis: &[usize]) -> Result<(), Singular> {
        let el = &mut self.scratch;
        let m = el.pinv.len();
        debug_assert_eq!(basis.len(), m, "basis must be square");
        debug_assert_eq!(cols.ncols(), m, "one factorization serves one matrix");
        self.perm.clear();
        self.lower.clear();
        self.upper.clear();
        self.diag.clear();
        el.pinv.fill(usize::MAX);
        #[cfg(test)]
        {
            self.visits = 0;
        }

        for (j, &col) in basis.iter().enumerate() {
            // Scatter column j of the basis.
            for (r, v) in cols.iter_row(col) {
                el.work[r] = v;
                el.touch(r);
            }
            // Left-looking elimination over the worklist; the value a step
            // finds on its pivot row is final, so it is U's entry as well.
            while let Some(k) = el.queue.pop_min() {
                #[cfg(test)]
                {
                    self.visits += 1;
                }
                let xk = el.work[self.perm[k]];
                if xk == 0.0 {
                    continue;
                }
                self.upper.push(k, xk);
                for (r, l) in self.lower.iter_row(k) {
                    el.touch(r);
                    el.work[r] -= l * xk;
                }
            }
            self.upper.close_row();
            // Pick the partial pivot among unpivoted rows. Sorting the
            // touched list keeps ties (and therefore the whole
            // factorization) deterministic regardless of fill order.
            el.touched.sort_unstable();
            let mut col_max = 0.0f64;
            let mut pivot_row = usize::MAX;
            let mut pivot_mag = 0.0f64;
            for &r in &el.touched {
                let mag = el.work[r].abs();
                col_max = col_max.max(mag);
                if el.pinv[r] == usize::MAX && mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = r;
                }
            }
            let singular = pivot_row == usize::MAX
                || pivot_mag <= SINGULAR_TOL * col_max.max(MIN_COLUMN_SCALE);
            if !singular {
                let d = el.work[pivot_row];
                for &r in &el.touched {
                    if el.pinv[r] == usize::MAX && r != pivot_row && el.work[r] != 0.0 {
                        self.lower.push(r, el.work[r] / d);
                    }
                }
                self.lower.close_row();
                self.perm.push(pivot_row);
                el.pinv[pivot_row] = j;
                self.diag.push(d);
            }
            // Clear scratch.
            for &r in &el.touched {
                el.work[r] = 0.0;
                el.seen[r] = false;
            }
            el.touched.clear();
            if singular {
                return Err(Singular { position: j });
            }
        }
        Ok(())
    }

    /// Solves `B·x = b`. `work` holds `b` on entry, indexed by original
    /// constraint row, and is consumed; `x` receives the result, indexed by
    /// basis position.
    fn solve(&self, work: &mut [f64], x: &mut [f64]) {
        let n = self.perm.len();
        // Forward: y = L⁻¹·P·b, with y[k] left at work[perm[k]].
        for k in 0..n {
            let t = work[self.perm[k]];
            if t == 0.0 {
                continue;
            }
            for (r, l) in self.lower.iter_row(k) {
                work[r] -= l * t;
            }
        }
        // Backward: U·x = y, by columns.
        for j in (0..n).rev() {
            let xj = work[self.perm[j]] / self.diag[j];
            x[j] = xj;
            if xj == 0.0 {
                continue;
            }
            for (k, u) in self.upper.iter_row(j) {
                work[self.perm[k]] -= u * xj;
            }
        }
    }

    /// Solves `Bᵀ·y = c`. `c` is indexed by basis position and is consumed
    /// (it ends as `U⁻ᵀ·c`); `y` receives the result, indexed by original
    /// constraint row.
    fn solve_transpose(&self, c: &mut [f64], y: &mut [f64]) {
        let n = self.perm.len();
        // Uᵀ·w = c (forward over positions), in place: step j reads c[j]
        // once and the finished w[k], k < j.
        for j in 0..n {
            let mut t = c[j];
            for (k, u) in self.upper.iter_row(j) {
                t -= u * c[k];
            }
            c[j] = t / self.diag[j];
        }
        // Lᵀ·v = w (backward); v[k] is stored directly at its original row
        // slot y[perm[k]], so y = Pᵀ·v falls out of the loop. A multiplier
        // row `r` was pivoted at step pinv[r] > k, so its v value is already
        // final and sits at y[r]; every slot is written before it is read.
        for k in (0..n).rev() {
            let mut t = c[k];
            for (r, l) in self.lower.iter_row(k) {
                t -= l * y[r];
            }
            y[self.perm[k]] = t;
        }
    }
}

/// LU factors plus the eta file accumulated since the last refactorization.
/// Eta `e` records one product-form update: the basis column at `pos[e]`
/// was replaced by a column whose FTRAN image was `w` (so `B' = B·E` with
/// `E` the identity carrying `w` in column `pos[e]`); `pivot[e]` is
/// `w[pos[e]]` and spike row `e` lists `(position, w[position])` for the
/// nonzero off-pivot entries, ascending by position.
#[derive(Debug)]
pub(crate) struct Factorization {
    lu: LuFactors,
    pos: Vec<usize>,
    pivot: Vec<f64>,
    spikes: CsrMatrix,
}

impl Factorization {
    /// An empty factorization for the bases of `cols`, every array sized
    /// once here. [`Self::refactorize`] must succeed before the first solve.
    pub fn new(cols: &CsrMatrix) -> Self {
        let m = cols.ncols();
        Self {
            lu: LuFactors::new(m, cols.nnz()),
            pos: Vec::with_capacity(REFRESH_PIVOTS),
            pivot: Vec::with_capacity(REFRESH_PIVOTS),
            spikes: CsrMatrix::with_capacity(REFRESH_PIVOTS, m, REFRESH_PIVOTS * m),
        }
    }

    /// Factorizes `basis` from scratch, in place, and empties the eta file.
    pub fn refactorize(&mut self, cols: &CsrMatrix, basis: &[usize]) -> Result<(), Singular> {
        self.lu.factorize(cols, basis)?;
        self.pos.clear();
        self.pivot.clear();
        self.spikes.clear();
        Ok(())
    }

    /// Number of pivots applied since the last refactorization.
    #[inline]
    pub fn updates(&self) -> usize {
        self.pos.len()
    }

    /// True when the eta file is long enough that the caller should
    /// refactorize.
    #[inline]
    pub fn needs_refresh(&self) -> bool {
        self.updates() >= REFRESH_PIVOTS
    }

    /// `nnz(L) + nnz(U)` of the current factors, diagonals excluded.
    pub fn lu_nnz(&self) -> usize {
        self.lu.lower.nnz() + self.lu.upper.nnz()
    }

    /// FTRAN: solves `B·x = b` through the factors and the eta file. `rhs`
    /// holds `b` on entry, indexed by original row, and is consumed; `x`
    /// receives the result, indexed by basis position.
    pub fn ftran(&self, rhs: &mut [f64], x: &mut [f64]) {
        self.lu.solve(rhs, x);
        for e in 0..self.updates() {
            let pos = self.pos[e];
            let xp = x[pos] / self.pivot[e];
            if xp != 0.0 {
                for (i, w) in self.spikes.iter_row(e) {
                    x[i] -= w * xp;
                }
            }
            x[pos] = xp;
        }
    }

    /// BTRAN: solves `Bᵀ·y = c`. `c` is indexed by basis position and is
    /// consumed; `y` receives the result, indexed by original row.
    pub fn btran(&self, c: &mut [f64], y: &mut [f64]) {
        for e in (0..self.updates()).rev() {
            let pos = self.pos[e];
            let mut t = c[pos];
            for (i, w) in self.spikes.iter_row(e) {
                t -= w * c[i];
            }
            c[pos] = t / self.pivot[e];
        }
        self.lu.solve_transpose(c, y);
    }

    /// Records a pivot: the entering column's FTRAN image `w` replaces the
    /// basis column at position `pos`.
    pub fn update(&mut self, w: &[f64], pos: usize) {
        for (i, &v) in w.iter().enumerate() {
            if i != pos && v != 0.0 {
                self.spikes.push(i, v);
            }
        }
        self.spikes.close_row();
        self.pos.push(pos);
        self.pivot.push(w[pos]);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Where a buffer lives and how much it holds: equal before and after
    /// means it was not reallocated.
    pub(crate) fn footprint<T>(v: &Vec<T>) -> (usize, usize) {
        (v.as_ptr() as usize, v.capacity())
    }

    /// The footprint of every factor array, eta array and scratch buffer.
    pub(crate) fn factorization_footprint(fact: &Factorization) -> Vec<(usize, usize)> {
        let (lu, el) = (&fact.lu, &fact.lu.scratch);
        let mut all = vec![
            footprint(&lu.perm),
            footprint(&lu.diag),
            footprint(&el.pinv),
            footprint(&el.work),
            footprint(&el.seen),
            footprint(&el.touched),
            footprint(&el.queue.words),
            footprint(&fact.pos),
            footprint(&fact.pivot),
        ];
        for columns in [&lu.lower, &lu.upper, &fact.spikes] {
            all.extend(columns.buffers());
        }
        all
    }

    /// The kernel this file replaced, kept verbatim (visibility and the
    /// error's payload aside) as the oracle of the differential tests: two
    /// `0..j` scans per basis column, `Vec<Vec<(usize, f64)>>` factors, a
    /// fresh `Vec` per solve.
    mod reference {
        use crate::basis::Singular;
        use crate::sparse::CsrMatrix;
        use crate::tol::{MIN_COLUMN_SCALE, SINGULAR_TOL};

        /// Sparse LU factors of a basis matrix, `P·B = L·U` with implicit unit
        /// diagonal on `L`. Row permutation only; columns are eliminated in basis
        /// order, so elimination step `j` corresponds to basis position `j`.
        #[derive(Debug, Clone)]
        pub struct LuFactors {
            pub n: usize,
            /// `perm[k]` = original row chosen as pivot at elimination step `k`.
            pub perm: Vec<usize>,
            /// Multipliers of step `k`: `(original_row, L[pinv[row], k])` for rows
            /// pivoted after step `k`.
            pub lower: Vec<Vec<(usize, f64)>>,
            /// Above-diagonal entries of column `j` of `U`: `(step, value)` with
            /// `step < j`.
            pub upper: Vec<Vec<(usize, f64)>>,
            /// Diagonal of `U`.
            pub diag: Vec<f64>,
        }

        impl LuFactors {
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
                    if pivot_row == usize::MAX
                        || pivot_mag <= SINGULAR_TOL * col_max.max(MIN_COLUMN_SCALE)
                    {
                        return Err(Singular { position: j });
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
        pub struct Factorization {
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
    }

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

    /// A factorization of `basis`, which must be nonsingular.
    fn factorized(store: &CsrMatrix, basis: &[usize]) -> Factorization {
        let mut fact = Factorization::new(store);
        fact.refactorize(store, basis).unwrap();
        fact
    }

    fn ftran(fact: &Factorization, b: &[f64]) -> Vec<f64> {
        let (mut rhs, mut x) = (b.to_vec(), vec![f64::NAN; b.len()]);
        fact.ftran(&mut rhs, &mut x);
        x
    }

    fn btran(fact: &Factorization, c: &[f64]) -> Vec<f64> {
        let (mut c, mut y) = (c.to_vec(), vec![f64::NAN; c.len()]);
        fact.btran(&mut c, &mut y);
        y
    }

    /// The rows no elimination step pivoted on: after a failed
    /// factorization, the rows the columns before the dependent one left
    /// uncovered.
    fn unpivoted_rows(fact: &Factorization) -> Vec<usize> {
        let pinv = &fact.lu.scratch.pinv;
        (0..pinv.len()).filter(|&r| pinv[r] == usize::MAX).collect()
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
        let fact = factorized(&store, &basis);
        let b = vec![5.0, 7.0, -1.0];
        let x = ftran(&fact, &b);
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
        let y = btran(&fact, &c);
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
        let mut fact = Factorization::new(&store);
        let err = fact.refactorize(&store, &[0, 1, 2]).unwrap_err();
        assert_eq!(err, Singular { position: 2 });
        assert_eq!(unpivoted_rows(&fact), vec![2]);
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
        let mut fact = factorized(&store, &basis);

        for &(enter, pos) in &[(3usize, 1usize), (4, 2)] {
            // FTRAN the entering column, then record the replacement.
            let w = ftran(&fact, &cols[enter]);
            fact.update(&w, pos);
            basis[pos] = enter;

            // Both FTRAN and BTRAN must now agree with the dense basis.
            let b = vec![1.0, -1.0, 2.0];
            let x = ftran(&fact, &b);
            let back = dense_mul(&cols, &basis, &x);
            for r in 0..3 {
                assert!((back[r] - b[r]).abs() < 1e-10);
            }
            let c = vec![0.5, 1.5, -2.0];
            let y = btran(&fact, &c);
            for (j, &col) in basis.iter().enumerate() {
                let dot: f64 = (0..3).map(|r| y[r] * cols[col][r]).sum();
                assert!((dot - c[j]).abs() < 1e-10);
            }
        }
        assert_eq!(fact.updates(), 2);
        assert!(!fact.needs_refresh());
        // Refactorizing in place forgets the etas and solves the new basis.
        fact.refactorize(&store, &basis).unwrap();
        assert_eq!(fact.updates(), 0);
        let x = ftran(&fact, &[1.0, -1.0, 2.0]);
        let back = dense_mul(&cols, &basis, &x);
        assert!((0..3).all(|r| (back[r] - [1.0, -1.0, 2.0][r]).abs() < 1e-10));
    }

    #[test]
    fn empty_basis_is_fine() {
        let store = CsrMatrix::from_triplets(0, 0, &[]);
        let fact = factorized(&store, &[]);
        assert!(ftran(&fact, &[]).is_empty());
        assert!(btran(&fact, &[]).is_empty());
    }

    // ---- Differential against the reference kernel, bit for bit. ----

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn column_bits(cols: &CsrMatrix, k: usize) -> Vec<(usize, u64)> {
        cols.iter_row(k).map(|(i, v)| (i, v.to_bits())).collect()
    }

    fn pair_bits(col: &[(usize, f64)]) -> Vec<(usize, u64)> {
        col.iter().map(|&(i, v)| (i, v.to_bits())).collect()
    }

    /// `perm`, `diag` and every `L` / `U` entry, to the bit.
    fn same_factors(new: &LuFactors, old: &reference::LuFactors) -> Result<(), String> {
        if new.perm != old.perm {
            return Err(format!("perm {:?} vs {:?}", new.perm, old.perm));
        }
        if bits(&new.diag) != bits(&old.diag) {
            return Err(format!("diag {:?} vs {:?}", new.diag, old.diag));
        }
        for k in 0..old.n {
            if column_bits(&new.lower, k) != pair_bits(&old.lower[k]) {
                return Err(format!("L column {k}"));
            }
            if column_bits(&new.upper, k) != pair_bits(&old.upper[k]) {
                return Err(format!("U column {k}"));
            }
        }
        Ok(())
    }

    /// Draws from a strategy inside a test body.
    fn draw<S: Strategy>(rng: &mut TestRng, strategy: S) -> S::Value {
        strategy.generate(rng)
    }

    /// A matrix entry: mostly the ±1 and small halves of flow LPs, whose
    /// eliminations cancel to exact zeros, sometimes an arbitrary real.
    fn entry(rng: &mut TestRng) -> f64 {
        match draw(rng, 0usize..6) {
            0 | 1 => 1.0,
            2 => -1.0,
            3 => draw(rng, 1usize..5) as f64 * 0.5,
            _ => draw(rng, -3.0f64..3.0),
        }
    }

    /// A right-hand side with exact zeros, a negative zero and reals.
    fn rhs(rng: &mut TestRng, m: usize) -> Vec<f64> {
        (0..m)
            .map(|_| match draw(rng, 0usize..5) {
                0 | 1 => 0.0,
                2 => -0.0,
                3 => 1.0,
                _ => draw(rng, -4.0f64..4.0),
            })
            .collect()
    }

    /// A random `m`-row column store: `m` candidate basis columns of the
    /// given family, then the `m` unit columns (the repair columns).
    /// Family 0 is singleton-heavy (slacks plus a few two- and three-entry
    /// flow columns), 1 is dense-ish, 2 adds duplicated and dependent
    /// columns to a sparse base.
    fn random_store(rng: &mut TestRng, m: usize, family: usize) -> CsrMatrix {
        let mut columns: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        for j in 0..m {
            let entries = match family {
                0 if draw(rng, 0usize..10) < 7 => 1,
                0 => draw(rng, 2usize..4),
                1 => draw(rng, m / 3..m + 1).max(1),
                _ => draw(rng, 1usize..4),
            };
            let col = if family == 2 && j >= 2 && draw(rng, 0usize..4) == 0 {
                let a = columns[draw(rng, 0usize..j)].clone();
                if draw(rng, 0usize..2) == 0 {
                    a // duplicated
                } else {
                    let b = &columns[draw(rng, 0usize..j)];
                    a.iter().chain(b).copied().collect() // dependent: a + b
                }
            } else if entries == 1 && family == 0 {
                vec![(j, if draw(rng, 0usize..4) == 0 { -1.0 } else { 1.0 })]
            } else {
                (0..entries)
                    .map(|_| (draw(rng, 0usize..m), entry(rng)))
                    .collect()
            };
            columns.push(col);
        }
        let mut triplets = Vec::new();
        for (j, col) in columns.iter().enumerate() {
            triplets.extend(col.iter().map(|&(r, v)| (j, r, v)));
        }
        triplets.extend((0..m).map(|r| (m + r, r, 1.0)));
        CsrMatrix::from_triplets(2 * m, m, &triplets)
    }

    /// Factorizes `basis` with both kernels — replacing a dependent column
    /// by the unit column of an uncovered row until the basis is
    /// nonsingular, so the in-place kernel is also re-entered after an
    /// `Err` — and compares every factor; then FTRAN and BTRAN of random
    /// right-hand sides after 0, 1 and `REFRESH_PIVOTS − 1` eta updates.
    fn differential(
        rng: &mut TestRng,
        store: &CsrMatrix,
        fact: &mut Factorization,
        basis: &mut [usize],
    ) -> Result<(), String> {
        let m = basis.len();
        let old = loop {
            let new = fact.refactorize(store, basis);
            match (new, reference::LuFactors::factorize(store, basis)) {
                (Ok(()), Ok(old)) => break old,
                (Err(new), Err(old)) => {
                    if new != old {
                        return Err(format!("singular: {new:?} vs {old:?}"));
                    }
                    basis[new.position] = m + unpivoted_rows(fact)[0];
                }
                (new, old) => {
                    return Err(format!("{new:?} vs {:?}", old.map(|_| "factors")));
                }
            }
        };
        same_factors(&fact.lu, &old)?;
        let mut old = reference::Factorization::new(old);
        for updates in 0..REFRESH_PIVOTS {
            if matches!(updates, 0 | 1) || updates == REFRESH_PIVOTS - 1 {
                for _ in 0..3 {
                    let b = rhs(rng, m);
                    if bits(&ftran(fact, &b)) != bits(&old.ftran(&b)) {
                        return Err(format!("FTRAN after {updates} updates of {b:?}"));
                    }
                    if bits(&btran(fact, &b)) != bits(&old.btran(&b)) {
                        return Err(format!("BTRAN after {updates} updates of {b:?}"));
                    }
                }
            }
            // Replace the position where a random column's image is largest.
            let mut a = vec![0.0; m];
            for _ in 0..draw(rng, 1usize..4) {
                a[draw(rng, 0usize..m)] = entry(rng);
            }
            let w = ftran(fact, &a);
            if bits(&w) != bits(&old.ftran(&a)) {
                return Err(format!("entering column after {updates} updates"));
            }
            let pos = (0..m).fold(
                0,
                |best, i| if w[i].abs() > w[best].abs() { i } else { best },
            );
            if w[pos].abs() < 1e-6 {
                continue;
            }
            fact.update(&w, pos);
            old.update(&w, pos);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random sparse square systems of three families, each store
        /// factorized three times in place (the basis reshuffled and
        /// re-mixed with unit columns in between).
        #[test]
        fn kernel_equals_the_reference_bit_for_bit(
            seed in 0u64..u64::MAX,
            m in 1usize..48,
            family in 0usize..3,
        ) {
            let mut rng = TestRng::for_case("basis-kernel", seed);
            let store = random_store(&mut rng, m, family);
            let mut fact = Factorization::new(&store);
            let mut basis: Vec<usize> = (0..m).collect();
            for round in 0..3 {
                if let Err(msg) = differential(&mut rng, &store, &mut fact, &mut basis) {
                    prop_assert!(false, "m = {m}, family {family}, round {round}: {msg}");
                }
                for _ in 0..m / 2 {
                    let (i, j) = (draw(&mut rng, 0usize..m), draw(&mut rng, 0usize..m));
                    basis.swap(i, j);
                }
                let (i, j) = (draw(&mut rng, 0usize..m), draw(&mut rng, 0usize..m));
                if !basis.contains(&j) {
                    basis[i] = j; // a repaired-away column comes back
                }
            }
        }
    }

    /// The same comparison on bases captured from real solves (see the
    /// fixture's header for what they are).
    #[test]
    fn kernel_equals_the_reference_on_real_bases() {
        let fixture = include_str!("../tests/data/real_bases.txt");
        let mut lines = fixture.lines().filter(|l| !l.starts_with('#'));
        let mut seen = 0;
        while let Some(header) = lines.next() {
            let mut header = header.split_whitespace().skip(1);
            let (name, m) = (header.next().unwrap(), header.next().unwrap());
            let m: usize = m.parse().unwrap();
            let mut triplets: Vec<(usize, usize, f64)> = (0..m).map(|r| (m + r, r, 1.0)).collect();
            for j in 0..m {
                for pair in lines.next().unwrap().split_whitespace() {
                    let (r, v) = pair.split_once(':').unwrap();
                    triplets.push((j, r.parse().unwrap(), v.parse().unwrap()));
                }
            }
            let store = CsrMatrix::from_triplets(2 * m, m, &triplets);
            let mut rng = TestRng::for_case(name, 0);
            let mut basis: Vec<usize> = (0..m).collect();
            differential(
                &mut rng,
                &store,
                &mut Factorization::new(&store),
                &mut basis,
            )
            .unwrap_or_else(|msg| panic!("{name}: {msg}"));
            assert!(
                basis.iter().all(|&c| c < m),
                "{name}: a real basis is nonsingular"
            );
            seen += 1;
        }
        assert_eq!(seen, 6);
    }

    /// The cost pin: factorizing a basis of slack singletons plus a few flow
    /// columns visits `O(nnz)` elimination steps, where the `0..j` scans
    /// made `n² / 2 ≈ 8.4 M` index tests.
    #[test]
    fn factorization_visits_only_the_steps_it_touches() {
        const N: usize = 4096;
        const FLOWS: usize = 64;
        // Position j holds the slack of row j, except every 64th, which
        // holds a three-entry flow column: pivot row j, the previous flow
        // column's pivot row, and the row of the next slack. Eliminating it
        // visits the previous flow step and, through that step's multiplier
        // (fill), the slack step behind it: two visits, not j index tests
        // (the first flow column has no predecessor; the last one's "next
        // slack" wraps to row 0, one visit more).
        let stride = N / FLOWS;
        let mut triplets = Vec::new();
        for j in 0..N {
            triplets.push((j, j, 1.0));
            if j % stride == stride - 1 {
                triplets.push((j, j, 1.0)); // coalesces to 2.0
                triplets.push((j, (j + 1) % N, 1.0));
                if j >= stride {
                    triplets.push((j, j - stride, -1.0));
                }
            }
        }
        let store = CsrMatrix::from_triplets(N, N, &triplets);
        let basis: Vec<usize> = (0..N).collect();
        let fact = factorized(&store, &basis);
        let nnz = store.nnz();
        assert_eq!(nnz, N + 2 * FLOWS - 1);
        assert_eq!(fact.lu.visits, 2 * FLOWS - 1);
        assert!(fact.lu.visits <= 4 * nnz);
        same_factors(
            &fact.lu,
            &reference::LuFactors::factorize(&store, &basis).unwrap(),
        )
        .unwrap();
    }
}
