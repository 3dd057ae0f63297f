//! Scoped fan-out for the engine's parallel phases.
//!
//! The two chunked phases — ingest staging (`engine/batch.rs`) and audit
//! verify (`engine/audit.rs`) — go through [`fan_out`]; the state commit
//! hands [`run`] the jobs of its trie merges. Both run on
//! `std::thread::scope`: the calling thread and `width − 1` threads
//! spawned for the call pull jobs from one shared queue, so jobs may
//! borrow from the caller's frame (`&Engine` fields, segment slices,
//! per-chunk output slots) and nothing outlives the call. The gates in
//! front of each phase keep dispatches few and large. A 10-second
//! `audit_cycle` pass makes 255 (125 staging and 5 verify fan-outs, 125
//! commit merges), `state_sync` 18 commit merges, and `ingest_mix` and
//! `node_cluster` none, so a thread spawned per call (about 25 µs on a
//! 2-vCPU host) costs nothing measurable.

use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};
use std::thread;

/// The host's available parallelism, read once per process: the read
/// goes through cgroup files and costs tens of microseconds, and the
/// gates ask for it a few hundred times per audit cycle.
pub(crate) fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Runs every job exactly once on up to `width` threads — the caller's
/// and `width − 1` scoped ones, fewer when there are fewer jobs — and
/// returns once all have run. A panicking job stops no other job: the
/// first panic's own payload resumes on the caller after every job has
/// settled (a panicking scoped thread would replace it with "a scoped
/// thread panicked").
pub(crate) fn run<J: FnOnce() + Send>(width: usize, jobs: Vec<J>) {
    let helpers = width.min(jobs.len()).saturating_sub(1);
    let queue = Mutex::new(jobs.into_iter());
    let drain = || {
        let mut panic = None;
        loop {
            // The guard drops at the end of the `let`, before the job runs.
            let Some(job) = queue.lock().unwrap().next() else {
                return panic;
            };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(job)) {
                panic.get_or_insert(payload);
            }
        }
    };
    let panic = thread::scope(|s| {
        let handles: Vec<_> = (0..helpers).map(|_| s.spawn(drain)).collect();
        let mut panic = drain();
        for handle in handles {
            panic = panic.or(handle.join().unwrap_or_else(Some));
        }
        panic
    });
    if let Some(payload) = panic {
        panic::resume_unwind(payload);
    }
}

/// Runs `job` over `items` and returns its outputs in item order — the
/// one fan-out every chunked parallel phase of the engine goes through.
///
/// With a `width` of two or more and at least two items, `items` is cut
/// into one contiguous chunk per worker (fewer when there are fewer
/// items) and the chunks [`run`] in parallel; otherwise `job` runs once,
/// inline, over all of them. Each chunk's outputs are concatenated in
/// chunk order, so when no output depends on which chunk its item landed
/// in, the result is the same either way. A panicking job resumes on the
/// caller.
pub(crate) fn fan_out<T: Send, R: Send>(
    width: usize,
    items: Vec<T>,
    job: impl Fn(Vec<T>) -> Vec<R> + Sync,
) -> Vec<R> {
    let chunks = width.min(items.len());
    if chunks < 2 {
        return job(items);
    }
    let (base, extra) = (items.len() / chunks, items.len() % chunks);
    let mut items = items.into_iter();
    let mut outs: Vec<Vec<R>> = Vec::new();
    outs.resize_with(chunks, Vec::new);
    let job = &job;
    let jobs = outs
        .iter_mut()
        .enumerate()
        .map(|(c, out)| {
            let chunk: Vec<T> = items.by_ref().take(base + usize::from(c < extra)).collect();
            move || *out = job(chunk)
        })
        .collect();
    run(chunks, jobs);
    outs.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fan_out_keeps_item_order_on_both_paths() {
        for width in [2, 3, 4] {
            for n in [0, 1, 2, width, width + 1, 1_000] {
                let items: Vec<usize> = (0..n).collect();
                let calls = AtomicUsize::new(0);
                let seen = AtomicUsize::new(0);
                let job = |chunk: Vec<usize>| {
                    assert!(n == 0 || !chunk.is_empty(), "an empty chunk");
                    calls.fetch_add(1, Ordering::Relaxed);
                    seen.fetch_add(chunk.len(), Ordering::Relaxed);
                    chunk.into_iter().map(|i| i * 3 + 1).collect::<Vec<_>>()
                };
                let inline = fan_out(1, items.clone(), job);
                assert_eq!(calls.swap(0, Ordering::Relaxed), 1, "n = {n}");
                let parallel = fan_out(width, items.clone(), job);
                // One chunk per worker, none empty; one inline call below two.
                let chunks = if n >= 2 { width.min(n) } else { 1 };
                assert_eq!(calls.load(Ordering::Relaxed), chunks, "{width} x {n}");
                assert_eq!(seen.load(Ordering::Relaxed), 2 * n, "{width} x {n}");
                let expected: Vec<usize> = items.iter().map(|i| i * 3 + 1).collect();
                assert_eq!(inline, expected, "n = {n}");
                assert_eq!(parallel, expected, "{width} x {n}");
            }
        }
    }

    /// Whichever chunk panics, on the caller's thread or a spawned one,
    /// the caller gets that chunk's own payload, every other chunk has
    /// run exactly once, and the next fan-out works.
    #[test]
    fn fan_out_job_panic_propagates_to_caller() {
        // Ten items on four workers: chunks start at 0, 3, 6 and 8.
        for bad in 0..10u32 {
            let starts = Mutex::new(Vec::new());
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                fan_out(4, (0..10).collect(), |chunk: Vec<u32>| {
                    starts.lock().unwrap().push(chunk[0]);
                    assert!(!chunk.contains(&bad), "boom in chunk {}", chunk[0]);
                    chunk
                })
            }));
            let payload = caught.expect_err("a chunk's panic must resume on the caller");
            let first = [0, 3, 6, 8].into_iter().rev().find(|&s| s <= bad);
            let expected = format!("boom in chunk {}", first.unwrap());
            assert_eq!(payload.downcast_ref::<String>(), Some(&expected));
            let mut starts = starts.into_inner().unwrap();
            starts.sort_unstable();
            assert_eq!(starts, [0, 3, 6, 8], "bad = {bad}");
        }
        let again = fan_out(2, vec![1, 2, 3], |chunk: Vec<u32>| chunk);
        assert_eq!(again, vec![1, 2, 3]);
    }
}
