//! The one worker pool, [`par_map`]. Its one caller is the corpus runner
//! (`si_suite::run_corpus`), which shards separate circuits over it; an
//! engine run relaxes its gates in the calling thread. Its rules:
//!
//! - `jobs` is resolved in one place, `worker_count`: `0` = one worker
//!   per available CPU, never more workers than items, and one worker
//!   means the calling thread;
//! - results come back in index order, whichever worker ran which item;
//! - a panic in an item reaches the caller once every worker has stopped.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of workers a sweep over `items` items runs on when `jobs`
/// are requested: `0` asks for one per available CPU, and the count is
/// clamped to `1..=items` (at least the calling thread).
fn worker_count(jobs: usize, items: usize) -> usize {
    let requested = if jobs == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        jobs
    };
    requested.min(items).max(1)
}

/// Applies `f` to every item over `worker_count(jobs, items.len())`
/// workers and returns the results in index order.
///
/// With one worker the sweep runs in the calling thread. With more,
/// scoped workers claim indices from a shared cursor. A panic in `f` is
/// resumed in the calling thread once every worker has stopped.
pub fn par_map<T: Sync, R: Send>(items: &[T], jobs: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = worker_count(jobs, items.len());
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
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
