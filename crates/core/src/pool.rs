//! The one worker pool. Every parallel sweep of the workspace runs here:
//! the engine's per-gate fan-out and the corpus runner's rows alike. Both
//! rest on the same independence (each gate's local STG is relaxed on its
//! own; corpus rows are separate circuits), so both share one set of
//! rules:
//!
//! - `jobs` is resolved in one place, [`worker_count`]: `0` = one worker
//!   per available CPU, never more workers than items, and one worker
//!   means the calling thread;
//! - results come back in index order, whichever worker ran which item;
//! - the error of the lowest-indexed failing item wins;
//! - in the calling thread the sweep stops at the first error, so a
//!   failing gate does not relax the gates after it.

use std::convert::Infallible;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of workers a sweep over `items` items runs on when `jobs`
/// are requested: `0` asks for one per available CPU, and the count is
/// clamped to `1..=items` (at least the calling thread).
pub fn worker_count(jobs: usize, items: usize) -> usize {
    let requested = if jobs == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        jobs
    };
    requested.min(items).max(1)
}

/// Applies `f` to every item over [`worker_count`]`(jobs, items.len())`
/// workers and returns the results in index order.
///
/// With one worker the sweep runs in the calling thread and stops at the
/// first error. With more, scoped workers claim indices from a shared
/// cursor and every item runs. Either way the error returned is that of
/// the lowest-indexed failing item. A panic in `f` is resumed in the
/// calling thread once every worker has stopped.
///
/// # Errors
///
/// The lowest-indexed error `f` returns.
pub fn try_par_map<T: Sync, R: Send, E: Send>(
    items: &[T],
    jobs: usize,
    f: impl Fn(&T) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E> {
    let workers = worker_count(jobs, items.len());
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<R, E>>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return mine;
                        };
                        mine.push((i, f(item)));
                    }
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(mine) => {
                    for (i, result) in mine {
                        slots[i] = Some(result);
                    }
                }
                Err(payload) => resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed"))
        .collect()
}

/// [`try_par_map`] for an `f` that cannot fail: every item runs.
pub fn par_map<T: Sync, R: Send>(items: &[T], jobs: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let Ok(results) = try_par_map(items, jobs, |item| Ok::<R, Infallible>(f(item)));
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_resolves_jobs_in_one_place() {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(worker_count(0, usize::MAX), cpus);
        assert_eq!(worker_count(0, 1), 1);
        assert_eq!(worker_count(8, 3), 3);
        assert_eq!(worker_count(2, 100), 2);
        assert_eq!(worker_count(1, 100), 1);
        // An empty sweep still names the calling thread.
        assert_eq!(worker_count(4, 0), 1);
    }

    #[test]
    fn results_come_back_in_index_order() {
        // More items than workers, so every worker claims several.
        let items: Vec<usize> = (0..50).collect();
        for jobs in [0, 1, 2, 8] {
            let squares = par_map(&items, jobs, |&i| i * i);
            assert_eq!(
                squares,
                items.iter().map(|&i| i * i).collect::<Vec<_>>(),
                "jobs {jobs}"
            );
        }
        assert!(par_map(&[] as &[usize], 4, |&i| i).is_empty());
    }

    #[test]
    fn the_lowest_indexed_error_wins() {
        let items: Vec<usize> = (0..40).collect();
        for jobs in [0, 1, 2, 8] {
            let result = try_par_map(&items, jobs, |&i| if i % 7 == 5 { Err(i) } else { Ok(i) });
            assert_eq!(result, Err(5), "jobs {jobs}");
        }
    }

    #[test]
    fn one_worker_stops_at_the_first_error() {
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..20).collect();
        let result = try_par_map(&items, 1, |&i| {
            calls.fetch_add(1, Ordering::Relaxed);
            if i == 3 || i == 9 {
                Err(i)
            } else {
                Ok(i)
            }
        });
        assert_eq!(result, Err(3));
        assert_eq!(calls.load(Ordering::Relaxed), 4, "items 0..=3 and no more");
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let items: Vec<usize> = (0..10).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(&items, 2, |&i| {
                assert!(i != 6, "item six");
                i
            })
        });
        let payload = caught.expect_err("the panic propagates");
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned());
        assert_eq!(message.as_deref(), Some("item six"));
    }
}
