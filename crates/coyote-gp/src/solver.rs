//! First-order minimizers.
//!
//! The COYOTE splitting-ratio optimization needs to minimize a smooth
//! non-linear objective (the log-sum-exp-smoothed worst-case link
//! utilization as a function of log-splitting parameters). The paper uses
//! MOSEK's interior-point method; this reproduction uses a robust
//! first-order scheme — Adam with optional restarts — which reaches the same
//! optima on the problem sizes of the evaluation (verified against analytic
//! solutions and LP lower bounds in `coyote-core`).
//!
//! [`minimize_adam`] works over any [`Objective`] (a function returning
//! value + gradient).

/// A differentiable objective: returns the value at `x` and writes the
/// gradient into `grad` (which is zeroed by the caller).
pub trait Objective {
    /// Evaluates the objective and its gradient at `x`.
    fn eval(&self, x: &[f64], grad: &mut [f64]) -> f64;

    /// Dimension of the decision vector.
    fn dim(&self) -> usize;
}

impl<F> Objective for (usize, F)
where
    F: Fn(&[f64], &mut [f64]) -> f64,
{
    fn eval(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        (self.1)(x, grad)
    }
    fn dim(&self) -> usize {
        self.0
    }
}

/// Options for [`minimize_adam`].
#[derive(Debug, Clone)]
pub struct AdamOptions {
    /// Step size.
    pub learning_rate: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical floor inside the update.
    pub epsilon: f64,
    /// Maximum iterations.
    pub max_iters: usize,
    /// Stop when the infinity norm of the gradient falls below this value.
    pub gradient_tolerance: f64,
    /// Stop when the best objective has not improved by more than
    /// `value_tolerance` over the last `patience` iterations.
    pub value_tolerance: f64,
    /// See `value_tolerance`.
    pub patience: usize,
}

impl Default for AdamOptions {
    fn default() -> Self {
        Self {
            learning_rate: 0.05,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            max_iters: 2_000,
            gradient_tolerance: 1e-7,
            value_tolerance: 1e-9,
            patience: 200,
        }
    }
}

/// Result of an optimization run.
#[derive(Debug, Clone)]
pub struct OptResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at [`OptResult::x`].
    pub value: f64,
    /// Number of iterations performed.
    pub iterations: usize,
    /// True if a tolerance-based stopping rule fired (as opposed to running
    /// out of iterations).
    pub converged: bool,
}

/// Minimizes `objective` starting from `x0` with the Adam optimizer.
pub fn minimize_adam(objective: &dyn Objective, x0: &[f64], opts: &AdamOptions) -> OptResult {
    let n = objective.dim();
    assert_eq!(x0.len(), n, "x0 dimension mismatch");
    let mut x = x0.to_vec();
    let mut m = vec![0.0; n];
    let mut v = vec![0.0; n];
    let mut grad = vec![0.0; n];

    let mut best_x = x.clone();
    let mut best_val = f64::INFINITY;
    let mut since_improvement = 0usize;
    let mut converged = false;
    let mut iterations = 0usize;

    for t in 1..=opts.max_iters {
        iterations = t;
        grad.iter_mut().for_each(|g| *g = 0.0);
        let val = objective.eval(&x, &mut grad);
        if val < best_val - opts.value_tolerance {
            best_val = val;
            best_x.copy_from_slice(&x);
            since_improvement = 0;
        } else {
            if val < best_val {
                best_val = val;
                best_x.copy_from_slice(&x);
            }
            since_improvement += 1;
        }

        let gnorm = grad.iter().fold(0.0_f64, |a, &g| a.max(g.abs()));
        if gnorm < opts.gradient_tolerance {
            converged = true;
            break;
        }
        if since_improvement >= opts.patience {
            converged = true;
            break;
        }

        let b1t = 1.0 - opts.beta1.powi(t as i32);
        let b2t = 1.0 - opts.beta2.powi(t as i32);
        for i in 0..n {
            m[i] = opts.beta1 * m[i] + (1.0 - opts.beta1) * grad[i];
            v[i] = opts.beta2 * v[i] + (1.0 - opts.beta2) * grad[i] * grad[i];
            let mh = m[i] / b1t;
            let vh = v[i] / b2t;
            x[i] -= opts.learning_rate * mh / (vh.sqrt() + opts.epsilon);
        }
    }

    coyote_obs::counter("gp.adam.runs", 1);
    coyote_obs::counter("gp.adam.iterations", iterations as u64);

    OptResult {
        x: best_x,
        value: best_val,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimizes_a_quadratic() {
        // f(x) = (x0 - 3)^2 + 2 (x1 + 1)^2
        let obj = (2usize, |x: &[f64], g: &mut [f64]| -> f64 {
            g[0] += 2.0 * (x[0] - 3.0);
            g[1] += 4.0 * (x[1] + 1.0);
            (x[0] - 3.0).powi(2) + 2.0 * (x[1] + 1.0).powi(2)
        });
        let res = minimize_adam(
            &obj,
            &[0.0, 0.0],
            &AdamOptions {
                max_iters: 20_000,
                learning_rate: 0.05,
                ..Default::default()
            },
        );
        assert!(res.value < 1e-6, "value = {}", res.value);
        assert!((res.x[0] - 3.0).abs() < 1e-2);
        assert!((res.x[1] + 1.0).abs() < 1e-2);
    }

    #[test]
    fn adam_respects_iteration_limit() {
        let obj = (1usize, |x: &[f64], g: &mut [f64]| -> f64 {
            g[0] += 1.0; // constant slope: never converges
            x[0]
        });
        let res = minimize_adam(
            &obj,
            &[0.0],
            &AdamOptions {
                max_iters: 50,
                patience: 1_000,
                ..Default::default()
            },
        );
        assert_eq!(res.iterations, 50);
    }

    #[test]
    fn objective_trait_dim_mismatch_panics() {
        let obj = (2usize, |_x: &[f64], _g: &mut [f64]| 0.0);
        let result = std::panic::catch_unwind(|| {
            minimize_adam(&obj, &[0.0], &AdamOptions::default());
        });
        assert!(result.is_err());
    }
}
