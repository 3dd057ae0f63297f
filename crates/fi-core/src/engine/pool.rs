//! A persistent scoped worker pool for the engine's parallel phases.
//!
//! Before this module, every parallel phase — batch-ingest staging
//! (`engine/batch.rs`) and the audit verify fan-out (`engine/audit.rs`) —
//! spawned fresh OS threads with `std::thread::scope` per call. At
//! 100k-file scale that is a thread spawn per block batch per worker, pure
//! overhead on the hot path. [`WorkerPool`] spawns its workers **once**
//! (lazily, on the first parallel phase an engine runs) and parks them on
//! a condvar between submissions; a phase submits a batch of borrowed
//! closures and blocks on a [`Ticket`] until the pool has run them all.
//! The chunked phases — ingest staging, audit verify and plan, the
//! deferred `cntdown` flush — all go through [`fan_out`]; the state
//! commit submits the jobs of its trie merges.
//!
//! # Scoped-job safety
//!
//! Jobs may borrow from the submitting stack frame (`&Engine` fields,
//! segment slices, per-job output slots) even though the workers are
//! long-lived threads. Soundness rests on the ticket: [`WorkerPool::submit`]
//! erases the job lifetime, and the returned [`Ticket`] **blocks until
//! every job has finished — on `wait` or on drop, panics included** — so
//! no job can outlive the frame it borrows from. The one obligation on
//! callers is not to leak the ticket (`std::mem::forget`); the API is
//! crate-internal precisely so that invariant stays reviewable at every
//! call site.
//!
//! A panicking job does not poison the pool: the panic is caught on the
//! worker, carried on the ticket, and resumed on the submitting thread
//! once all of the batch's jobs have settled — the same observable
//! behaviour as a panicking `std::thread::scope` child.
//!
//! The pool is shared, not duplicated, across [`Engine`](super::Engine)
//! clones (replay bases, snapshots under test, bench reference engines):
//! cloning an engine clones an `Arc` handle, so a process never holds more
//! worker threads than one engine would. The pool holds no consensus
//! state — snapshots and replays ignore it entirely.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{self, JoinHandle};

/// A submitted job: the lifetime-erased closure plus the completion ticket
/// it reports to.
type Job = (Box<dyn FnOnce() + Send>, Arc<TicketState>);

/// A batch of scoped jobs as accepted by [`WorkerPool::submit`].
pub(crate) type JobBatch<'scope> = Vec<Box<dyn FnOnce() + Send + 'scope>>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
}

/// Completion state for one submitted batch.
struct TicketState {
    /// Jobs not yet finished; the submitter blocks while this is non-zero.
    remaining: Mutex<usize>,
    done: Condvar,
    /// First captured job panic, resumed on the submitting thread.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl TicketState {
    fn job_finished(&self, panic_payload: Option<Box<dyn std::any::Any + Send>>) {
        if let Some(payload) = panic_payload {
            let mut slot = self.panic.lock().unwrap();
            slot.get_or_insert(payload);
        }
        let mut remaining = self.remaining.lock().unwrap();
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }
}

/// A persistent pool of parked worker threads executing scoped job
/// batches. See the module docs for the lifetime-safety argument.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawns `workers` (at least one) parked worker threads.
    pub(crate) fn spawn(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("fi-engine-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn engine pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            workers,
        }
    }

    /// The number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueues a batch of scoped jobs and returns the ticket that gates
    /// their borrows: the caller's frame cannot be left (return **or**
    /// unwind) before the ticket has blocked on completion.
    pub(crate) fn submit<'scope>(&self, jobs: JobBatch<'scope>) -> Ticket<'scope> {
        let state = Arc::new(TicketState {
            remaining: Mutex::new(jobs.len()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        if !jobs.is_empty() {
            let mut pool_state = self.shared.state.lock().unwrap();
            for job in jobs {
                // SAFETY: the 'scope lifetime is erased, but the job cannot
                // outlive 'scope: `Ticket` blocks until the job has run —
                // in `wait`, or in `Drop` on unwind — and `Ticket<'scope>`
                // itself cannot outlive the borrows it guards.
                let job: Box<dyn FnOnce() + Send + 'static> =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, _>(job) };
                pool_state.queue.push_back((job, Arc::clone(&state)));
            }
            drop(pool_state);
            self.shared.work_ready.notify_all();
        }
        Ticket {
            state,
            _scope: PhantomData,
        }
    }

    /// Submits a batch and blocks until every job has run, resuming the
    /// first job panic (if any) on this thread.
    pub(crate) fn run(&self, jobs: JobBatch<'_>) {
        self.submit(jobs).wait();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let (job, ticket) = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.work_ready.wait(state).unwrap();
            }
        };
        let panic_payload = panic::catch_unwind(AssertUnwindSafe(job)).err();
        ticket.job_finished(panic_payload);
    }
}

/// Completion latch for one submitted batch. Blocks on [`Ticket::wait`]
/// or on drop until every job of the batch has run; dropping (not
/// leaking) the ticket before the borrowed data goes out of scope is what
/// makes the pool's lifetime erasure sound.
pub(crate) struct Ticket<'scope> {
    state: Arc<TicketState>,
    /// Invariant over `'scope`: the ticket must not be coerced to a
    /// shorter guard than the borrows its jobs hold.
    _scope: PhantomData<&'scope mut &'scope ()>,
}

impl Ticket<'_> {
    /// Blocks until every job of the batch has run, then resumes the
    /// first job panic (if any) on this thread.
    pub(crate) fn wait(self) {
        // Drop does the blocking and the panic propagation.
        drop(self);
    }

    fn block_until_done(&self) {
        let mut remaining = self.state.remaining.lock().unwrap();
        while *remaining > 0 {
            remaining = self.state.done.wait(remaining).unwrap();
        }
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        self.block_until_done();
        if let Some(payload) = self.state.panic.lock().unwrap().take() {
            if !thread::panicking() {
                panic::resume_unwind(payload);
            }
        }
    }
}

/// Runs `job` over `items` and returns its outputs in item order — the
/// one fan-out every chunked parallel phase of the engine goes through.
///
/// With a pool and at least two items, `items` is cut into one contiguous
/// chunk per worker (fewer when there are fewer items) and the chunks run
/// as one batch; otherwise `job` runs once, inline, over all of them.
/// Each chunk's outputs are concatenated in chunk order, so when no
/// output depends on which chunk its item landed in, the result is the
/// same either way. A panicking job resumes on the caller.
pub(crate) fn fan_out<T: Send, R: Send>(
    pool: Option<&WorkerPool>,
    items: Vec<T>,
    job: impl Fn(Vec<T>) -> Vec<R> + Sync,
) -> Vec<R> {
    let chunks = pool.map_or(1, |p| p.workers().min(items.len()));
    let Some(pool) = pool.filter(|_| chunks >= 2) else {
        return job(items);
    };
    let (base, extra) = (items.len() / chunks, items.len() % chunks);
    let mut items = items.into_iter();
    let mut outs: Vec<Vec<R>> = Vec::new();
    outs.resize_with(chunks, Vec::new);
    let job = &job;
    let jobs: JobBatch<'_> = outs
        .iter_mut()
        .enumerate()
        .map(|(c, out)| {
            let chunk: Vec<T> = items.by_ref().take(base + usize::from(c < extra)).collect();
            Box::new(move || *out = job(chunk)) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.run(jobs);
    outs.into_iter().flatten().collect()
}

/// The engine's lazily spawned, clone-shared pool handle.
///
/// [`Engine`](super::Engine) derives `Clone`, and engines are cloned
/// freely (replay bases, bench references); the handle makes that cheap
/// and thread-bounded: the pool spawns on the first parallel phase, and
/// clones share the already-spawned pool through an `Arc`.
pub(crate) struct PoolHandle {
    slot: OnceLock<Arc<WorkerPool>>,
    /// The host's available parallelism, read once: the read goes through
    /// cgroup files and costs tens of microseconds, and the pool gates ask
    /// for it a few hundred times per audit cycle.
    pub(crate) cores: usize,
}

impl PoolHandle {
    pub(crate) fn new() -> Self {
        PoolHandle {
            slot: OnceLock::new(),
            cores: thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    }

    /// The shared pool, spawning `workers` threads on first use.
    pub(crate) fn get(&self, workers: usize) -> Arc<WorkerPool> {
        Arc::clone(
            self.slot
                .get_or_init(|| Arc::new(WorkerPool::spawn(workers))),
        )
    }
}

impl Clone for PoolHandle {
    fn clone(&self) -> Self {
        let slot = OnceLock::new();
        if let Some(pool) = self.slot.get() {
            let _ = slot.set(Arc::clone(pool));
        }
        PoolHandle {
            slot,
            cores: self.cores,
        }
    }
}

impl std::fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolHandle")
            .field("spawned", &self.slot.get().is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_scoped_jobs_to_completion() {
        let pool = WorkerPool::spawn(4);
        let counter = AtomicUsize::new(0);
        let jobs: JobBatch<'_> = (0..100)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn jobs_write_into_disjoint_borrowed_slots() {
        let pool = WorkerPool::spawn(3);
        let mut out = vec![0usize; 32];
        let jobs: JobBatch<'_> = out
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                Box::new(move || {
                    *slot = i * i;
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(jobs);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn pool_survives_sequential_batches() {
        let pool = WorkerPool::spawn(2);
        for round in 0..50 {
            let sum = AtomicUsize::new(0);
            let sum_ref = &sum;
            let jobs: JobBatch<'_> = (0..8)
                .map(|i| {
                    Box::new(move || {
                        sum_ref.fetch_add(i, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run(jobs);
            assert_eq!(sum.load(Ordering::Relaxed), 28, "round {round}");
        }
    }

    #[test]
    fn job_panic_propagates_to_submitter() {
        let pool = WorkerPool::spawn(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![
                Box::new(|| panic!("boom in job")) as Box<dyn FnOnce() + Send>
            ]);
        }));
        assert!(caught.is_err(), "job panic must resume on the submitter");
        // The pool is still usable after a panicking batch.
        let ok = AtomicUsize::new(0);
        pool.run(vec![Box::new(|| {
            ok.store(1, Ordering::Relaxed);
        }) as Box<dyn FnOnce() + Send + '_>]);
        assert_eq!(ok.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::spawn(1);
        pool.run(Vec::new());
    }

    #[test]
    fn fan_out_keeps_item_order_on_both_paths() {
        let workers = 4;
        let pool = WorkerPool::spawn(workers);
        for n in [0, 1, 2, workers, workers + 1, 1_000] {
            let items: Vec<usize> = (0..n).collect();
            let calls = AtomicUsize::new(0);
            let seen = AtomicUsize::new(0);
            let job = |chunk: Vec<usize>| {
                assert!(n == 0 || !chunk.is_empty(), "an empty chunk");
                calls.fetch_add(1, Ordering::Relaxed);
                seen.fetch_add(chunk.len(), Ordering::Relaxed);
                chunk.into_iter().map(|i| i * 3 + 1).collect::<Vec<_>>()
            };
            let inline = fan_out(None, items.clone(), job);
            assert_eq!(calls.swap(0, Ordering::Relaxed), 1, "n = {n}");
            let parallel = fan_out(Some(&pool), items.clone(), job);
            // One chunk per worker, none empty; one inline call below two.
            let chunks = if n >= 2 { workers.min(n) } else { 1 };
            assert_eq!(calls.load(Ordering::Relaxed), chunks, "n = {n}");
            assert_eq!(seen.load(Ordering::Relaxed), 2 * n, "n = {n}");
            let expected: Vec<usize> = items.iter().map(|i| i * 3 + 1).collect();
            assert_eq!(inline, expected, "n = {n}");
            assert_eq!(parallel, expected, "n = {n}");
        }
    }

    #[test]
    fn fan_out_job_panic_propagates_to_caller() {
        let pool = WorkerPool::spawn(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            fan_out(Some(&pool), (0..10).collect(), |chunk: Vec<u32>| {
                assert!(!chunk.contains(&7), "boom in chunk");
                chunk
            })
        }));
        assert!(caught.is_err(), "a chunk's panic must resume on the caller");
        let again = fan_out(Some(&pool), vec![1, 2, 3], |chunk: Vec<u32>| chunk);
        assert_eq!(again, vec![1, 2, 3]);
    }

    #[test]
    fn handle_clones_share_one_pool() {
        let handle = PoolHandle::new();
        let a = handle.get(2);
        let cloned = handle.clone();
        let b = cloned.get(8); // size argument ignored: pool already spawned
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(b.workers(), 2);
    }
}
