//! Every numerical tolerance of both simplex backends, in one place.
//!
//! Where the revised solver and the dense oracle share a mechanism they
//! share its constant, so they make the same decisions on the same numbers
//! there; one line per constant says what it guards. The last group is the
//! dense oracle's alone.

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

// Dense oracle only. The tableau's cost row and entries are updated in
// place pivot after pivot, so rounding error accumulates there; these
// four bound what it can do. The revised solver recomputes reduced costs
// from a fresh BTRAN every pivot and its basic values from a fresh
// factorization every refresh, so it has no cost-row drift to defend
// against: on it the guard and the clamp never fired, no phase needed a
// second round, and dropping its snap changed no result.

/// A reduced cost above this (negative) threshold is treated as numerical
/// noise when its column admits no pivot: after thousands of dense
/// eliminations the incrementally-updated cost row drifts by ~1e-8, so a
/// column with reduced cost −2e-9 and entries ~1e-10 is a zero column, not
/// a certificate of unboundedness. Genuinely unbounded LPs enter with
/// decisively negative reduced costs (|rc| ≫ this).
pub(crate) const NOISE_RC_TOL: f64 = 1e-6;
/// Refresh rounds per phase: after a phase claims optimality its reduced
/// costs are recomputed from scratch against the current basis and the
/// phase re-runs if they still show a descent direction. Bounds the
/// optimize→verify loop that repairs drift.
pub(crate) const MAX_REFRESH_ROUNDS: usize = 4;
/// Minimum magnitude for a *preferred* pivot element in the ratio test;
/// entries in (EPS, PIVOT_TOL] are used only when no better pivot exists.
pub(crate) const PIVOT_TOL: f64 = 1e-7;
/// Entries this close to zero after an elimination step are snapped to an
/// exact zero (catastrophic-cancellation residue, ~1e3 × machine epsilon
/// below the decision tolerance EPS).
pub(crate) const SNAP_TOL: f64 = 1e-12;
