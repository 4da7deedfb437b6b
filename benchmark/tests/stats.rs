//! The order-statistics helpers every reported percentile goes through.

use coyote_benchmark::stats::{geomean, median, median_or_zero, percentile};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
    assert_eq!(median_or_zero(&[]), 0.0);
    assert_eq!(median_or_zero(&[2.0, 4.0]), 3.0);
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
    // rank = ceil(0.95 * 200) = 190: ten samples beyond.
    assert_eq!(percentile(&v, 95.0), Some(190.0));
    assert_eq!(percentile(&v, 50.0), Some(100.0));
    // The failures-slice catalogue: 205 cells, rank 195, ten beyond.
    let v: Vec<f64> = (1..=205).map(f64::from).collect();
    assert_eq!(percentile(&v, 95.0), Some(195.0));
}

#[test]
fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
    // rank = ceil(0.95 * 199) = 190: only nine samples beyond.
    let v: Vec<f64> = (1..=199).map(f64::from).collect();
    assert_eq!(percentile(&v, 95.0), None);
    // A p99 needs a thousand samples.
    let v: Vec<f64> = (1..=999).map(f64::from).collect();
    assert_eq!(percentile(&v, 99.0), None);
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&v, 99.0), Some(990.0));
    // Even a median: 19 samples leave nine beyond rank 10.
    let v: Vec<f64> = (1..=19).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), None);
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn geomean_of_ratios() {
    assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
    assert_eq!(geomean(&[]), None);
}
