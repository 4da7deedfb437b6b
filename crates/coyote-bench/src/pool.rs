//! The scoped worker pool and its ordered `par_map`.
//!
//! Sweep, conformance and failure cells are independent and CPU-bound, so
//! the engines need one primitive: an ordered parallel map over a slice on
//! scoped standard-library threads (no `rayon`). Each call spawns workers
//! that pull item indices from a shared atomic counter and stash
//! `(index, output)` pairs, sorted by index once the scope joins. Outputs
//! come back in input order, identical to the serial map for a pure
//! function, and a worker's panic is re-raised on the caller's thread once
//! all workers have drained.
//!
//! ```
//! use coyote_bench::pool::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! assert_eq!(pool.par_map(&[1, 2, 3], |&x| x * x), vec![1, 4, 9]);
//! // Abort on error: the first error in input order is returned.
//! let parsed: Result<Vec<i32>, _> = pool.try_par_map(&["1", "x", "3"], |s| s.parse::<i32>());
//! assert!(parsed.is_err());
//! // Keep going: `par_map` over a fallible function keeps every outcome.
//! let outcomes = pool.par_map(&["1", "x", "3"], |s| s.parse::<i32>());
//! assert_eq!(outcomes.iter().filter(|r| r.is_ok()).count(), 2);
//! ```

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The machine's available parallelism, or 1 if it cannot be determined.
fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A scoped worker pool with a fixed thread budget: configuration, not
/// state. See [the module docs](self) for the guarantees it makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// Creates a pool that uses up to `threads` workers per call.
    ///
    /// `threads = 0` means "auto": one worker per available core.
    /// `threads = 1` is the serial path (no threads are spawned at all).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: if threads == 0 {
                available_threads()
            } else {
                threads
            },
        }
    }

    /// The worker budget of this pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` in parallel, returning outputs in input order.
    ///
    /// Every item is evaluated exactly once, so mapping a fallible `f`
    /// keeps every per-item `Result`: a failure grid with a few partitioned
    /// cells still completes the healthy ones.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.run(items, f, |_| false)
    }

    /// Maps a fallible `f` over `items` in parallel, short-circuiting on
    /// failure: workers stop claiming items once one has failed (items in
    /// flight still finish), and the error at the earliest input index is
    /// returned. That is deterministic: indices are claimed in increasing
    /// order, so when an error at index `j` is seen every index below `j`
    /// has been claimed and will finish, as in a serial loop.
    pub fn try_par_map<T, U, E, F>(&self, items: &[T], f: F) -> Result<Vec<U>, E>
    where
        T: Sync,
        U: Send,
        E: Send,
        F: Fn(&T) -> Result<U, E> + Sync,
    {
        self.run(items, f, Result::is_err).into_iter().collect()
    }

    /// The one worker loop behind both maps. Workers stop claiming items
    /// once an output satisfies `stops`; the claimed indices are always a
    /// prefix of `items`, and its outputs come back in input order.
    fn run<T, U, F, S>(&self, items: &[T], f: F, stops: S) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
        S: Fn(&U) -> bool + Sync,
    {
        let workers = self.threads.min(items.len());
        coyote_obs::counter("runtime.pool.calls", 1);
        let profiling = coyote_obs::enabled();
        let next = AtomicUsize::new(0);
        let stopped = AtomicBool::new(false);
        // Claims and evaluates items until they run out or one stops the
        // batch; returns the (index, output) pairs and the time spent inside
        // `f` (measured only while profiling).
        let work = || {
            let mut local = Vec::new();
            let mut busy = Duration::ZERO;
            while !stopped.load(Ordering::Relaxed) {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let t0 = profiling.then(Instant::now);
                let output = f(&items[i]);
                if let Some(t0) = t0 {
                    busy += t0.elapsed();
                }
                if stops(&output) {
                    stopped.store(true, Ordering::Relaxed);
                }
                local.push((i, output));
            }
            (local, busy)
        };

        if workers <= 1 {
            // The whole batch, as the workers' claims sum to on a run that
            // does not stop: `runtime.pool.items` is equal across thread
            // counts. A stopped run aborts the experiment.
            coyote_obs::counter("runtime.pool.items", items.len() as u64);
            return work().0.into_iter().map(|(_, u)| u).collect();
        }

        let collected: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(items.len()));
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let _worker_span = coyote_obs::span("runtime.pool.worker");
                        let worker_start = Instant::now();
                        let (mut local, busy) = work();
                        if profiling {
                            coyote_obs::counter("runtime.pool.items", local.len() as u64);
                            coyote_obs::observe_duration("runtime.pool.worker_busy", busy);
                            coyote_obs::observe_duration(
                                "runtime.pool.worker_idle",
                                worker_start.elapsed().saturating_sub(busy),
                            );
                        }
                        // One lock per worker, not per item.
                        collected
                            .lock()
                            .expect("no worker panics while holding the lock")
                            .append(&mut local);
                    })
                })
                .collect();
            // Join every worker before re-raising, so a panic cannot leave
            // stragglers running; re-raise the original payload (scope's own
            // propagation would replace it with a generic message).
            let mut panic_payload = None;
            for handle in handles {
                if let Err(payload) = handle.join() {
                    panic_payload.get_or_insert(payload);
                }
            }
            if let Some(payload) = panic_payload {
                std::panic::resume_unwind(payload);
            }
        });

        let mut pairs = collected
            .into_inner()
            .expect("no worker panics while holding the lock");
        pairs.sort_by_key(|&(i, _)| i);
        debug_assert!(pairs.iter().enumerate().all(|(k, &(i, _))| k == i));
        pairs.into_iter().map(|(_, u)| u).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        // Make late items finish first so completion order != input order.
        let items: Vec<u64> = (0..64).collect();
        let out = WorkerPool::new(8).par_map(&items, |&x| {
            std::thread::sleep(Duration::from_micros(200 * (64 - x)));
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u32> = Vec::new();
        let out: Vec<u32> = WorkerPool::new(4).par_map(&items, |&x| x + 1);
        assert!(out.is_empty());
        let out: Result<Vec<u32>, ()> = WorkerPool::new(4).try_par_map(&items, |&x| Ok(x));
        assert_eq!(out, Ok(Vec::new()));
    }

    #[test]
    fn single_item_runs_serially() {
        let out = WorkerPool::new(16).par_map(&[41], |&x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn visits_every_item_exactly_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..1000).collect();
        let out = WorkerPool::new(7).par_map(&items, |&x| {
            hits.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
        assert_eq!(out, items);
    }

    #[test]
    fn matches_the_serial_path_bit_for_bit() {
        let items: Vec<f64> = (1..200).map(|i| i as f64 * 0.37).collect();
        let f = |x: &f64| (x.sqrt() + x.sin()) / (1.0 + x.abs());
        let serial: Vec<f64> = items.iter().map(f).collect();
        let parallel = WorkerPool::new(6).par_map(&items, f);
        // Exact bit equality, not approximate: the parallel map runs the
        // same code on the same inputs, only on different threads.
        assert_eq!(serial, parallel);
    }

    #[test]
    #[should_panic(expected = "boom at 7")]
    fn propagates_worker_panics() {
        let items: Vec<usize> = (0..32).collect();
        WorkerPool::new(4).par_map(&items, |&x| {
            if x == 7 {
                panic!("boom at {x}");
            }
            x
        });
    }

    #[test]
    fn zero_threads_means_auto() {
        assert_eq!(WorkerPool::new(0).threads(), available_threads());
        assert!(WorkerPool::new(0).threads() >= 1);
        assert_eq!(WorkerPool::new(1).threads(), 1);
    }

    #[test]
    fn try_par_map_returns_earliest_error_in_input_order() {
        let items: Vec<i32> = (0..50).collect();
        let res: Result<Vec<i32>, String> = WorkerPool::new(8).try_par_map(&items, |&x| {
            if x % 10 == 9 {
                Err(format!("bad {x}"))
            } else {
                Ok(x)
            }
        });
        assert_eq!(res.unwrap_err(), "bad 9");
    }

    #[test]
    fn try_par_map_stops_claiming_work_after_a_failure() {
        let evaluated = AtomicUsize::new(0);
        let items: Vec<usize> = (0..100).collect();
        let res: Result<Vec<usize>, &str> = WorkerPool::new(4).try_par_map(&items, |&x| {
            evaluated.fetch_add(1, Ordering::Relaxed);
            if x == 0 {
                return Err("fails immediately");
            }
            std::thread::sleep(Duration::from_millis(20));
            Ok(x)
        });
        assert_eq!(res.unwrap_err(), "fails immediately");
        // Item 0 fails before most of the slow items are claimed; without
        // cancellation all 100 items would run. Items already in flight
        // when the failure lands still finish, hence the loose bound.
        assert!(
            evaluated.load(Ordering::Relaxed) < 50,
            "evaluated {} items after an immediate failure",
            evaluated.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn serial_try_par_map_stops_at_the_first_error() {
        let evaluated = AtomicUsize::new(0);
        let items: Vec<usize> = (0..10).collect();
        let res: Result<Vec<usize>, usize> = WorkerPool::new(1).try_par_map(&items, |&x| {
            evaluated.fetch_add(1, Ordering::Relaxed);
            if x == 3 {
                Err(x)
            } else {
                Ok(x)
            }
        });
        assert_eq!(res, Err(3));
        assert_eq!(evaluated.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn try_par_map_success_preserves_order() {
        let items: Vec<i32> = (0..20).collect();
        let res: Result<Vec<i32>, ()> = WorkerPool::new(4).try_par_map(&items, |&x| Ok(x * 3));
        assert_eq!(
            res.unwrap(),
            items.iter().map(|x| x * 3).collect::<Vec<_>>()
        );
    }

    #[test]
    fn par_map_keeps_mixed_outcomes_in_input_order() {
        let items: Vec<i32> = (0..50).collect();
        let out: Vec<Result<i32, String>> = WorkerPool::new(8).par_map(&items, |&x| {
            // Slow down early items so completion order differs from
            // input order.
            std::thread::sleep(Duration::from_micros(100 * (50 - x) as u64));
            if x % 10 == 9 {
                Err(format!("bad {x}"))
            } else {
                Ok(x * 2)
            }
        });
        assert_eq!(out.len(), items.len());
        for (i, result) in out.iter().enumerate() {
            if i % 10 == 9 {
                assert_eq!(result.as_ref().unwrap_err(), &format!("bad {i}"));
            } else {
                assert_eq!(result.as_ref().unwrap(), &((i as i32) * 2));
            }
        }
    }

    #[test]
    fn par_map_evaluates_every_item_despite_early_failures() {
        // The defining contrast with `try_par_map`: an error at index 0
        // must not stop later items from being claimed and evaluated.
        let evaluated = AtomicUsize::new(0);
        let items: Vec<usize> = (0..200).collect();
        let out: Vec<Result<usize, &str>> = WorkerPool::new(4).par_map(&items, |&x| {
            evaluated.fetch_add(1, Ordering::Relaxed);
            if x % 3 == 0 {
                Err("every third item fails")
            } else {
                Ok(x)
            }
        });
        assert_eq!(evaluated.load(Ordering::Relaxed), 200);
        assert_eq!(out.iter().filter(|r| r.is_err()).count(), 67);
        assert_eq!(out.iter().filter(|r| r.is_ok()).count(), 133);
    }

    #[test]
    fn fallible_par_map_matches_the_serial_path_bit_for_bit() {
        let items: Vec<f64> = (1..150).map(|i| i as f64 * 0.61).collect();
        let f = |x: &f64| -> Result<f64, String> {
            if *x > 60.0 {
                Err(format!("overflow {x}"))
            } else {
                Ok((x.sqrt() + x.cos()) / (1.0 + x.abs()))
            }
        };
        let serial = WorkerPool::new(1).par_map(&items, f);
        let parallel = WorkerPool::new(6).par_map(&items, f);
        assert_eq!(serial, parallel);
    }
}
