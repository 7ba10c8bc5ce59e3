//! A minimal scoped worker pool for fanning simulation jobs across cores.
//!
//! The experiment drivers produce large batches of *independent* jobs —
//! one `(workload, segment, configuration)` triple each — and every job is
//! a pure function of its inputs ([`crate::simulate`] never mutates shared
//! state). That makes the batch embarrassingly parallel: [`par_map`] runs a
//! job list on `jobs` worker threads and returns the results **in
//! submission order**, so aggregation downstream is bit-identical to a
//! serial run regardless of thread count or scheduling.
//!
//! The pool is built on [`std::thread::scope`] only — no external runtime —
//! because the repository must build without a crates registry. Workers
//! pull job indices from a shared atomic counter (work stealing degenerates
//! to a single fetch-add per job, which is plenty for jobs that each take
//! milliseconds) and write results into dedicated slots.
//!
//! The default worker count comes from [`job_count`]: the `REPLAY_JOBS`
//! environment variable when set (a malformed value is an error),
//! otherwise [`std::thread::available_parallelism`]. A value of `1`
//! bypasses the pool entirely and runs on the calling thread — the legacy
//! serial path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The number of worker threads the machine supports
/// ([`std::thread::available_parallelism`], falling back to 1).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// True when the machine cannot actually run `jobs` workers concurrently:
/// fewer available cores than requested jobs means any measured "speedup"
/// is time-slicing overhead, not parallelism. Benchmarks must check this
/// and mark their output degraded instead of publishing the number as a
/// scaling measurement.
pub fn degraded(jobs: usize) -> bool {
    available_jobs() < jobs
}

/// The worker count the experiment drivers use by default: the
/// `REPLAY_JOBS` environment variable when set, otherwise
/// [`available_jobs`]. A set value that is not a positive integer is an
/// error, not a silent fallback, so a typo cannot change the worker count
/// unnoticed.
pub fn job_count() -> Result<usize, String> {
    let Some(v) = std::env::var_os("REPLAY_JOBS") else {
        return Ok(available_jobs());
    };
    v.to_str()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("bad REPLAY_JOBS value {v:?} (want a positive integer)"))
}

/// Applies `f` to every item on a scoped pool of `jobs` worker threads and
/// returns the outputs in input order.
///
/// With `jobs <= 1` (or fewer than two items) no threads are spawned and
/// the map runs serially on the calling thread. Results are collected
/// positionally, so the output is independent of scheduling: for a pure
/// `f`, `par_map(n, items, f)` equals `items.iter().map(f).collect()` for
/// every `n`.
///
/// # Panics
///
/// Propagates a panic from `f` after all workers have stopped.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len());
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("every job ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 64] {
            assert_eq!(par_map(jobs, &items, |x| x * x), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        assert_eq!(par_map(8, &[] as &[u32], |x| *x), Vec::<u32>::new());
        assert_eq!(par_map(8, &[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        assert_eq!(par_map(32, &[1u32, 2, 3], |x| x * 10), vec![10, 20, 30]);
    }

    #[test]
    fn all_jobs_run_exactly_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(7, &items, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            *i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
        assert_eq!(out, items);
    }
}
