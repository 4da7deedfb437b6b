//! Every numerical tolerance the revised simplex reads, in one place; one
//! line per constant says what it guards.
//!
//! The dense test oracle (`simplex.rs`) reads these too where it shares a
//! mechanism, so the two make the same decisions on the same numbers there.
//! The four tolerances of its drift defences live in that file.

/// Numerical tolerance for pivot magnitudes, ratio tests and feasibility.
pub(crate) const EPS: f64 = 1e-9;
/// Dual-feasibility tolerance: a column enters the basis only when its
/// reduced cost is below −DUAL_TOL. Looser than [`EPS`] on purpose — after
/// a cost-row reprice the reduced costs are only clean to ~1e-8 on the
/// sweep grid's 500-row flow LPs, and an entering threshold tighter than
/// that sends the solver into hundreds of thousands of zero-progress pivots
/// chasing rounding noise. The objective error this tolerates is far below
/// every downstream consumer's tolerance.
pub(crate) const DUAL_TOL: f64 = 1e-7;
/// Residual tolerated at the end of phase one before declaring infeasible,
/// and the primal-feasibility guard on an installed basis. Slightly loose
/// so that the anti-degeneracy perturbation (see [`RHS_PERTURBATION`]) can
/// never flip a feasible flow LP to "infeasible".
pub(crate) const PHASE1_TOL: f64 = 1e-5;
/// Consecutive non-improving pivots before switching to Bland's rule.
pub(crate) const STALL_LIMIT: usize = 64;
/// Deterministic right-hand-side perturbation that breaks the massive
/// degeneracy of flow LPs (many zero-supply conservation rows). The
/// perturbation is far below the feasibility tolerance, so reported
/// solutions are unaffected, but it makes ties in the ratio test — the
/// cause of degenerate pivot stalls — vanishingly rare.
pub(crate) const RHS_PERTURBATION: f64 = 1e-7;
/// Smallest row entry accepted as the pivot that drives a basic artificial
/// out after phase one; below it the row counts as redundant.
pub(crate) const DRIVE_OUT_TOL: f64 = 1e-7;
/// Relative pivot threshold below which an LU elimination column is
/// declared dependent on its predecessors (the basis is singular there).
pub(crate) const SINGULAR_TOL: f64 = 1e-9;
/// Floor on the column magnitude [`SINGULAR_TOL`] is relative to, so an
/// all-zero column compares against a positive threshold.
pub(crate) const MIN_COLUMN_SCALE: f64 = 1e-30;
