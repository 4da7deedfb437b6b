//! Approximating unequal splits with ECMP multiplicities (Nemeth et al. \[18\]).
//!
//! ECMP divides traffic *equally* among next-hop FIB entries. To realize an
//! unequal split `(p_1, …, p_k)` a next hop can be installed several times
//! (through virtual adjacencies): with multiplicities `(m_1, …, m_k)` the
//! realized split is `m_i / Σ m_j`. The number of extra entries is bounded
//! by the operator (the paper evaluates 3, 5 and 10 virtual links per router
//! interface, Fig. 10), so the multiplicities must approximate the desired
//! fractions under a budget.

/// A larger total replaces the best one found only if it lowers the
/// maximum split error by more than this.
const ERROR_GAIN: f64 = 1e-12;

/// Approximates the desired `fractions` (non-negative, at least one
/// positive) by integer multiplicities whose total is at most
/// `max_total_entries` (and at least the number of strictly positive
/// fractions — every used next hop needs one real FIB entry).
///
/// Zero fractions get multiplicity zero. Every admissible total is
/// allocated with the largest-remainder method and the total with the
/// smallest maximum error is returned (the smallest such total on ties, so
/// the FIB never grows without an accuracy payoff).
pub fn approximate_split(fractions: &[f64], max_total_entries: usize) -> Vec<u32> {
    split_search(fractions, max_total_entries, None)
}

/// Quantizes the desired `fractions` to the *smallest* multiplicity
/// vocabulary whose realized split stays within `epsilon` of the desired
/// one: the budget search of [`approximate_split`] run for minimality
/// instead of accuracy.
///
/// Totals are searched in increasing order (from the number of positive
/// fractions up to `max_total_entries`) and the first total whose
/// largest-remainder apportionment has maximum error `<= epsilon` wins —
/// the compression pass's ratio-quantization leg. When no admissible total
/// meets the tolerance the result is [`approximate_split`]'s (minimal error
/// under the budget), so the quantized program is never *worse* than the
/// budgeted one.
pub fn quantize_split(fractions: &[f64], epsilon: f64, max_total_entries: usize) -> Vec<u32> {
    split_search(fractions, max_total_entries, Some(epsilon))
}

/// The budget search of both: every admissible total in increasing order,
/// each allocated with the largest-remainder method. The first total whose
/// maximum error is `<= good_enough` wins; failing that, the total with the
/// smallest maximum error (a larger total must beat it by more than
/// [`ERROR_GAIN`]). A lone positive fraction gets one entry without the
/// search: one entry is exact, so the search would return the same.
fn split_search(fractions: &[f64], max_total_entries: usize, good_enough: Option<f64>) -> Vec<u32> {
    let positive: Vec<usize> = fractions
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0.0)
        .map(|(i, _)| i)
        .collect();
    let mut result = vec![0u32; fractions.len()];
    match positive[..] {
        [] => return result,
        [only] => {
            result[only] = 1;
            return result;
        }
        _ => {}
    }
    let total: f64 = positive.iter().map(|&i| fractions[i]).sum();
    let shares: Vec<f64> = positive.iter().map(|&i| fractions[i] / total).collect();
    let budget = max_total_entries.max(positive.len());

    let mut best: Option<(f64, Vec<u32>)> = None;
    for entries in positive.len()..=budget {
        let assigned = largest_remainder(&shares, entries as u32);
        let err = shares
            .iter()
            .zip(&assigned)
            .map(|(&s, &m)| (s - m as f64 / entries as f64).abs())
            .fold(0.0, f64::max);
        if good_enough.is_some_and(|eps| err <= eps) {
            best = Some((err, assigned));
            break;
        }
        if best.as_ref().is_none_or(|(e, _)| err < *e - ERROR_GAIN) {
            best = Some((err, assigned));
        }
    }
    let (_, assigned) = best.expect("at least one admissible total");
    for (slot, &i) in positive.iter().enumerate() {
        result[i] = assigned[slot];
    }
    result
}

/// Largest-remainder apportionment of `entries` FIB slots over normalized
/// `shares`, with a minimum of one slot per share.
fn largest_remainder(shares: &[f64], entries: u32) -> Vec<u32> {
    let ideal: Vec<f64> = shares.iter().map(|&s| s * entries as f64).collect();
    let mut assigned: Vec<u32> = ideal.iter().map(|&x| (x.floor() as u32).max(1)).collect();
    let mut used: u32 = assigned.iter().sum();

    // The minimum-one rule can overshoot: reclaim from the largest
    // over-allocations first.
    while used > entries {
        let victim = assigned
            .iter()
            .enumerate()
            .filter(|(_, &m)| m > 1)
            .max_by(|a, b| {
                let over_a = *a.1 as f64 - ideal[a.0];
                let over_b = *b.1 as f64 - ideal[b.0];
                over_a
                    .partial_cmp(&over_b)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
            .expect("entries >= number of shares");
        assigned[victim] -= 1;
        used -= 1;
    }

    // Hand out the remaining slots by largest remainder (ties to the lowest
    // index for determinism).
    while used < entries {
        let winner = (0..shares.len())
            .max_by(|&a, &b| {
                let ra = ideal[a] - assigned[a] as f64;
                let rb = ideal[b] - assigned[b] as f64;
                ra.partial_cmp(&rb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.cmp(&a))
            })
            .expect("non-empty");
        assigned[winner] += 1;
        used += 1;
    }
    assigned
}

/// The split realized by a multiplicity vector.
pub fn realized_fractions(multiplicities: &[u32]) -> Vec<f64> {
    let total: u32 = multiplicities.iter().sum();
    if total == 0 {
        return vec![0.0; multiplicities.len()];
    }
    multiplicities
        .iter()
        .map(|&m| m as f64 / total as f64)
        .collect()
}

/// Maximum absolute error between the desired fractions (normalized) and the
/// split realized by the multiplicities.
pub fn max_split_error(fractions: &[f64], multiplicities: &[u32]) -> f64 {
    let total: f64 = fractions.iter().filter(|&&f| f > 0.0).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let realized = realized_fractions(multiplicities);
    fractions
        .iter()
        .zip(&realized)
        .map(|(&f, &r)| ((f / total).max(0.0) - r).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`approximate_split`] before its lone-next-hop shortcut: the budget
    /// search over every admissible total, kept as the shortcut's oracle.
    fn searched_split(fractions: &[f64], max_total_entries: usize) -> Vec<u32> {
        let positive: Vec<usize> = fractions
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0.0)
            .map(|(i, _)| i)
            .collect();
        let mut result = vec![0u32; fractions.len()];
        if positive.is_empty() {
            return result;
        }
        let total: f64 = positive.iter().map(|&i| fractions[i]).sum();
        let shares: Vec<f64> = positive.iter().map(|&i| fractions[i] / total).collect();
        let budget = max_total_entries.max(positive.len());

        let mut best: Option<(f64, Vec<u32>)> = None;
        for entries in positive.len()..=budget {
            let assigned = largest_remainder(&shares, entries as u32);
            let err = shares
                .iter()
                .zip(&assigned)
                .map(|(&s, &m)| (s - m as f64 / entries as f64).abs())
                .fold(0.0, f64::max);
            if best.as_ref().is_none_or(|(e, _)| err < *e - ERROR_GAIN) {
                best = Some((err, assigned));
            }
        }
        let (_, assigned) = best.expect("at least one admissible total");
        for (slot, &i) in positive.iter().enumerate() {
            result[i] = assigned[slot];
        }
        result
    }

    /// [`quantize_split`] before it shared [`approximate_split`]'s search:
    /// its own loop over the totals, then the budget search as a fallback.
    fn quantized_by_its_own_loop(fractions: &[f64], epsilon: f64, max_total: usize) -> Vec<u32> {
        let positive: Vec<usize> = fractions
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0.0)
            .map(|(i, _)| i)
            .collect();
        if positive.is_empty() {
            return vec![0u32; fractions.len()];
        }
        let total: f64 = positive.iter().map(|&i| fractions[i]).sum();
        let shares: Vec<f64> = positive.iter().map(|&i| fractions[i] / total).collect();
        let budget = max_total.max(positive.len());
        for entries in positive.len()..=budget {
            let assigned = largest_remainder(&shares, entries as u32);
            let err = shares
                .iter()
                .zip(&assigned)
                .map(|(&s, &m)| (s - m as f64 / entries as f64).abs())
                .fold(0.0, f64::max);
            if err <= epsilon {
                let mut result = vec![0u32; fractions.len()];
                for (slot, &i) in positive.iter().enumerate() {
                    result[i] = assigned[slot];
                }
                return result;
            }
        }
        searched_split(fractions, budget)
    }

    /// A fraction of kind `kind` drawn with `x ∈ [0, 1)`: zeros and
    /// negatives (never a next hop), tied thirds, plain values, subnormals,
    /// values near `f64::MAX`, infinity and NaN.
    fn fraction(kind: usize, x: f64) -> f64 {
        match kind {
            0 => 0.0,
            1 => -x,
            2 => (1.0 + (3.0 * x).floor()) / 3.0,
            3 => x,
            4 => x * 4.9e-322 + 5e-324,
            5 => f64::MAX * (0.5 + x / 2.0),
            6 => f64::INFINITY,
            _ => f64::NAN,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Every split, lone next hops included, equals the budget search.
        #[test]
        fn the_split_equals_the_budget_search(
            drawn in collection::vec((0usize..8, 0.0f64..1.0), 0..9),
            budget in 1usize..257,
        ) {
            let fractions: Vec<f64> = drawn.iter().map(|&(k, x)| fraction(k, x)).collect();
            prop_assert_eq!(
                approximate_split(&fractions, budget),
                searched_split(&fractions, budget),
                "fractions {:?}, budget {}", fractions, budget
            );
        }

        /// Quantizing equals the loop it ran before it shared the search,
        /// at tolerances that are met, unmet, negative and NaN.
        #[test]
        fn quantizing_equals_its_own_loop(
            drawn in collection::vec((0usize..8, 0.0f64..1.0), 0..9),
            tolerance in (0usize..4, 0.0f64..0.2),
            budget in 1usize..257,
        ) {
            let fractions: Vec<f64> = drawn.iter().map(|&(k, x)| fraction(k, x)).collect();
            let (kind, x) = tolerance;
            let epsilon = [x, 0.0, -x, f64::NAN][kind];
            prop_assert_eq!(
                quantize_split(&fractions, epsilon, budget),
                quantized_by_its_own_loop(&fractions, epsilon, budget),
                "fractions {:?}, epsilon {}, budget {}", fractions, epsilon, budget
            );
        }

        /// Exactly one positive fraction among zeros and negatives, of
        /// every magnitude: one entry for it, as the search finds.
        #[test]
        fn a_lone_next_hop_gets_one_entry(
            others in collection::vec((0usize..2, 0.0f64..1.0), 0..8),
            lone in (0usize..8, 3usize..7, 0.0f64..1.0),
            budget in 1usize..257,
        ) {
            let mut fractions: Vec<f64> = others.iter().map(|&(k, x)| fraction(k, x)).collect();
            let at = lone.0 % (fractions.len() + 1);
            fractions.insert(at, fraction(lone.1, lone.2).max(5e-324));
            let split = approximate_split(&fractions, budget);
            prop_assert_eq!(split.iter().sum::<u32>(), 1);
            prop_assert_eq!(split[at], 1);
            prop_assert_eq!(split, searched_split(&fractions, budget));
        }
    }

    #[test]
    fn exact_fractions_are_reproduced_when_the_budget_allows() {
        // 2/3 - 1/3 with 3 entries: multiplicities (2, 1).
        let m = approximate_split(&[2.0 / 3.0, 1.0 / 3.0], 3);
        assert_eq!(m, vec![2, 1]);
        assert!(max_split_error(&[2.0 / 3.0, 1.0 / 3.0], &m) < 1e-12);
    }

    #[test]
    fn every_used_next_hop_gets_at_least_one_entry() {
        let m = approximate_split(&[0.98, 0.01, 0.01], 3);
        assert!(m.iter().all(|&x| x >= 1));
        assert_eq!(m.iter().sum::<u32>(), 3);
        // Zero fractions stay at zero.
        let m = approximate_split(&[0.5, 0.0, 0.5], 4);
        assert_eq!(m[1], 0);
    }

    #[test]
    fn larger_budgets_never_increase_the_error() {
        let fractions = [0.618, 0.382];
        let mut last = f64::INFINITY;
        for budget in [2usize, 3, 5, 10, 50] {
            let m = approximate_split(&fractions, budget);
            let err = max_split_error(&fractions, &m);
            assert!(
                err <= last + 1e-9,
                "error went up at budget {budget}: {err} > {last}"
            );
            last = err;
        }
        // With 50 entries the golden split is almost exact.
        assert!(last < 0.02);
    }

    #[test]
    fn budget_below_the_number_of_next_hops_is_raised() {
        let m = approximate_split(&[0.25, 0.25, 0.25, 0.25], 2);
        assert_eq!(m.iter().sum::<u32>(), 4);
        assert_eq!(m, vec![1, 1, 1, 1]);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(approximate_split(&[], 5), Vec::<u32>::new());
        assert_eq!(approximate_split(&[0.0, 0.0], 5), vec![0, 0]);
        assert_eq!(realized_fractions(&[0, 0]), vec![0.0, 0.0]);
        assert_eq!(max_split_error(&[0.0], &[0]), 0.0);
    }

    #[test]
    fn quantize_finds_the_smallest_total_within_tolerance() {
        // 0.6/0.4 is exact at 5 entries but within 0.1 already at 2.
        assert_eq!(quantize_split(&[0.6, 0.4], 0.1, 64), vec![1, 1]);
        assert_eq!(quantize_split(&[0.6, 0.4], 0.0, 64), vec![3, 2]);
        // Equal splits need exactly one entry per next hop at any epsilon.
        assert_eq!(quantize_split(&[0.5, 0.5], 0.0, 64), vec![1, 1]);
        // Zero fractions stay at zero.
        assert_eq!(quantize_split(&[0.7, 0.0, 0.3], 0.05, 64), vec![2, 0, 1]);
        assert_eq!(quantize_split(&[0.0, 0.0], 0.05, 8), vec![0, 0]);
        assert_eq!(quantize_split(&[], 0.05, 8), Vec::<u32>::new());
    }

    #[test]
    fn quantize_never_exceeds_the_tolerance_when_the_budget_allows() {
        let fractions = [0.618, 0.382];
        for eps in [0.2, 0.1, 0.05, 0.02, 0.01] {
            let m = quantize_split(&fractions, eps, 256);
            assert!(
                max_split_error(&fractions, &m) <= eps + 1e-12,
                "eps {eps}: multiplicities {m:?}"
            );
        }
        // Tighter tolerances never shrink the vocabulary.
        let coarse: u32 = quantize_split(&fractions, 0.1, 256).iter().sum();
        let fine: u32 = quantize_split(&fractions, 0.01, 256).iter().sum();
        assert!(coarse <= fine);
    }

    #[test]
    fn quantize_falls_back_to_the_budgeted_approximation() {
        // epsilon 0 is unreachable for the golden ratio under a budget of 7:
        // the fallback must equal approximate_split's minimal-error answer.
        let fractions = [0.618, 0.382];
        assert_eq!(
            quantize_split(&fractions, 0.0, 7),
            approximate_split(&fractions, 7)
        );
    }

    #[test]
    fn realized_fractions_sum_to_one() {
        let m = approximate_split(&[0.7, 0.2, 0.1], 10);
        let r = realized_fractions(&m);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // The heaviest next hop keeps the most entries.
        assert!(m[0] > m[1] && m[1] >= m[2]);
    }

    #[test]
    fn uniform_fractions_do_not_waste_budget() {
        // An equal split is exact with one entry per next hop; a larger
        // budget must not inflate the FIB for zero accuracy gain.
        let fractions = [1.0 / 3.0; 3];
        let m = approximate_split(&fractions, 10);
        assert_eq!(m, vec![1, 1, 1]);
        assert_eq!(max_split_error(&fractions, &m), 0.0);
    }
}
