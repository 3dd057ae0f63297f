//! The pending list: consensus-scheduled future tasks.
//!
//! Paper Fig. 1: `pendingList: {time → [task, task, ...]}` — *"When a new
//! time point t is reached, the tasks in the pending list whose timestamp is
//! t will be automatically executed by the network"*. Tasks are generated
//! only through network consensus and must have a prepaid gas bound
//! (§III-B.4); the gas side lives in [`crate::gas`], the scheduling side
//! here.
//!
//! Two interchangeable implementations share the contract (pop in
//! `(time, insertion)` order, inclusive deadlines):
//!
//! * [`PendingList`] — the original `BTreeMap<Time, Vec<T>>`, one tree key
//!   per distinct timestamp. Simple, but at protocol scale every file
//!   carries its own `Auto_CheckProof` timestamp, so scheduling and popping
//!   churn a tree with one node per live file.
//! * [`TaskWheel`] — an epoch-bucketed wheel: timestamps are grouped into
//!   fixed-width buckets (one per consensus block interval), scheduling is
//!   an O(1) push into the bucket's `Vec`, and advancing time drains whole
//!   per-block buckets instead of rebalancing a global tree.
//!
//! [`Scheduler`] wraps both behind one API so the engine can switch at
//! runtime (and benchmarks can measure them like-for-like).
//!
//! Generic over the task type so `fi-core` can schedule its `Auto_*`
//! variants and tests can schedule plain markers.

use std::collections::{BTreeMap, VecDeque};

/// Discrete consensus time (block timestamp units).
pub type Time = u64;

/// Stable-sorts a drained bucket by timestamp and appends it to `due` —
/// the shared tail of every pop path that drains a *mixed-timestamp*
/// bucket (the wheel's full-bucket and partial-bucket cases). The sort is
/// stable and buckets hold insertion order, so the contract both
/// pending-list implementations promise — `(time, insertion)` order —
/// falls out here. [`PendingList::pop_due`] doesn't need it: a BTreeMap
/// drain is already time-ordered, and re-sorting the benchmark baseline
/// would pad the wheel's measured advantage.
fn append_due<T>(due: &mut Vec<(Time, T)>, mut bucket: Vec<(Time, T)>) {
    bucket.sort_by_key(|(t, _)| *t);
    due.append(&mut bucket);
}

/// A time-ordered task queue with stable FIFO order within a timestamp.
///
/// # Example
///
/// ```
/// use fi_chain::PendingList;
/// let mut pl = PendingList::new();
/// pl.schedule(10, "check-proof");
/// pl.schedule(5, "check-alloc");
/// pl.schedule(10, "refresh");
/// assert_eq!(pl.pop_due(9), vec![(5, "check-alloc")]);
/// assert_eq!(pl.pop_due(10), vec![(10, "check-proof"), (10, "refresh")]);
/// assert!(pl.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct PendingList<T> {
    queue: BTreeMap<Time, Vec<T>>,
    len: usize,
}

impl<T> Default for PendingList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PendingList<T> {
    /// Creates an empty pending list.
    pub fn new() -> Self {
        PendingList {
            queue: BTreeMap::new(),
            len: 0,
        }
    }

    /// Schedules `task` for execution at `time`.
    pub fn schedule(&mut self, time: Time, task: T) {
        self.queue.entry(time).or_default().push(task);
        self.len += 1;
    }

    /// Removes and returns every task due at or before `now`, in
    /// `(time, insertion)` order.
    pub fn pop_due(&mut self, now: Time) -> Vec<(Time, T)> {
        // split_off keeps keys > now in the original map. The drain walks
        // keys in ascending time order, so the output is `(time,
        // insertion)`-ordered by construction — no `append_due` sort here.
        let mut later = self.queue.split_off(&(now + 1));
        std::mem::swap(&mut self.queue, &mut later);
        let due: Vec<(Time, T)> = later
            .into_iter()
            .flat_map(|(time, tasks)| tasks.into_iter().map(move |task| (time, task)))
            .collect();
        self.len -= due.len();
        due
    }

    /// Earliest scheduled time, if any.
    pub fn next_time(&self) -> Option<Time> {
        self.queue.keys().next().copied()
    }

    /// Number of scheduled tasks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no tasks are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over `(time, task)` without removing.
    pub fn iter(&self) -> impl Iterator<Item = (Time, &T)> {
        self.queue
            .iter()
            .flat_map(|(t, tasks)| tasks.iter().map(move |task| (*t, task)))
    }
}

/// An epoch-bucketed timing wheel.
///
/// Timestamps are grouped into buckets of `granularity` ticks (epoch `e`
/// covers `[e·g, (e+1)·g)`). Scheduling pushes into the target bucket's
/// `Vec`; popping drains whole buckets front-to-back, stable-sorting each
/// by timestamp so the observable order — `(time, insertion)` — is
/// identical to [`PendingList`]'s (see the equivalence tests).
///
/// Tasks scheduled for a time before the wheel's current base are clamped
/// into the head bucket; they still pop first because the per-bucket sort
/// is by true timestamp.
///
/// # Example
///
/// ```
/// use fi_chain::tasks::TaskWheel;
/// let mut wheel = TaskWheel::new(10);
/// wheel.schedule(25, "check-proof");
/// wheel.schedule(7, "check-alloc");
/// assert_eq!(wheel.pop_due(9), vec![(7, "check-alloc")]);
/// assert_eq!(wheel.pop_due(30), vec![(25, "check-proof")]);
/// assert!(wheel.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct TaskWheel<T> {
    granularity: Time,
    /// Epoch index of `buckets[0]`.
    base_epoch: u64,
    /// Ring of per-epoch buckets starting at `base_epoch`.
    buckets: VecDeque<Vec<(Time, T)>>,
    len: usize,
}

impl<T> TaskWheel<T> {
    /// Creates an empty wheel with the given bucket width (typically the
    /// consensus block interval).
    ///
    /// # Panics
    ///
    /// Panics if `granularity == 0`.
    pub fn new(granularity: Time) -> Self {
        assert!(granularity > 0, "wheel granularity must be positive");
        TaskWheel {
            granularity,
            base_epoch: 0,
            buckets: VecDeque::new(),
            len: 0,
        }
    }

    /// The bucket width in ticks.
    pub fn granularity(&self) -> Time {
        self.granularity
    }

    #[inline]
    fn epoch_of(&self, time: Time) -> u64 {
        time / self.granularity
    }

    /// Schedules `task` for execution at `time` — O(1) amortized.
    pub fn schedule(&mut self, time: Time, task: T) {
        // Past-epoch times are clamped into the head bucket; the per-bucket
        // timestamp sort still pops them before everything later.
        let epoch = self.epoch_of(time).max(self.base_epoch);
        let idx = (epoch - self.base_epoch) as usize;
        while self.buckets.len() <= idx {
            self.buckets.push_back(Vec::new());
        }
        self.buckets[idx].push((time, task));
        self.len += 1;
    }

    /// Removes and returns every task due at or before `now`, in
    /// `(time, insertion)` order. Whole buckets strictly before `now`'s
    /// epoch are drained without inspection; only the bucket containing
    /// `now` is filtered element-wise.
    pub fn pop_due(&mut self, now: Time) -> Vec<(Time, T)> {
        let now_epoch = self.epoch_of(now);
        let mut due: Vec<(Time, T)> = Vec::new();
        // Fully-due buckets: every timestamp in epoch e is < (e+1)·g ≤ now.
        while self.base_epoch < now_epoch {
            let Some(bucket) = self.buckets.pop_front() else {
                self.base_epoch = now_epoch;
                break;
            };
            self.base_epoch += 1;
            self.len -= bucket.len();
            append_due(&mut due, bucket);
        }
        // Partial bucket: `now` falls inside it — or before it entirely, in
        // which case only clamped stale tasks (true time ≤ now) can be due,
        // and clamping guarantees those live in the head bucket too.
        if self.base_epoch >= now_epoch {
            if let Some(head) = self.buckets.front_mut() {
                if head.iter().any(|(t, _)| *t <= now) {
                    let mut keep = Vec::with_capacity(head.len());
                    let mut taken = Vec::new();
                    for (t, task) in head.drain(..) {
                        if t <= now {
                            taken.push((t, task));
                        } else {
                            keep.push((t, task));
                        }
                    }
                    *head = keep;
                    self.len -= taken.len();
                    append_due(&mut due, taken);
                }
            }
        }
        due
    }

    /// Earliest scheduled time, if any — O(occupied bucket span).
    pub fn next_time(&self) -> Option<Time> {
        self.buckets
            .iter()
            .find(|b| !b.is_empty())
            .and_then(|b| b.iter().map(|(t, _)| *t).min())
    }

    /// Number of scheduled tasks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no tasks are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over `(time, task)` without removing, in bucket order (not
    /// globally time-sorted — use [`TaskWheel::pop_due`] for ordered
    /// consumption).
    pub fn iter(&self) -> impl Iterator<Item = (Time, &T)> {
        self.buckets
            .iter()
            .flat_map(|b| b.iter().map(|(t, task)| (*t, task)))
    }
}

/// Which pending-list implementation an engine should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Epoch-bucketed [`TaskWheel`] (default; scales with live files).
    #[default]
    Wheel,
    /// The original [`PendingList`] `BTreeMap` (kept for like-for-like
    /// benchmarking and differential tests).
    BTree,
}

/// A pending list behind a runtime-selectable implementation.
///
/// Both variants obey the same contract — inclusive deadlines, pops in
/// `(time, insertion)` order — so consensus execution is identical
/// whichever is selected.
#[derive(Debug, Clone)]
pub enum Scheduler<T> {
    /// Epoch-bucketed wheel.
    Wheel(TaskWheel<T>),
    /// `BTreeMap` pending list.
    BTree(PendingList<T>),
}

impl<T> Scheduler<T> {
    /// Creates a scheduler of the given kind; `granularity` is the wheel
    /// bucket width (ignored by the BTree variant).
    pub fn new(kind: SchedulerKind, granularity: Time) -> Self {
        match kind {
            SchedulerKind::Wheel => Scheduler::Wheel(TaskWheel::new(granularity)),
            SchedulerKind::BTree => Scheduler::BTree(PendingList::new()),
        }
    }

    /// Schedules `task` at `time`.
    pub fn schedule(&mut self, time: Time, task: T) {
        match self {
            Scheduler::Wheel(w) => w.schedule(time, task),
            Scheduler::BTree(p) => p.schedule(time, task),
        }
    }

    /// Removes and returns every task due at or before `now`, in
    /// `(time, insertion)` order.
    pub fn pop_due(&mut self, now: Time) -> Vec<(Time, T)> {
        match self {
            Scheduler::Wheel(w) => w.pop_due(now),
            Scheduler::BTree(p) => p.pop_due(now),
        }
    }

    /// Earliest scheduled time, if any.
    pub fn next_time(&self) -> Option<Time> {
        match self {
            Scheduler::Wheel(w) => w.next_time(),
            Scheduler::BTree(p) => p.next_time(),
        }
    }

    /// Number of scheduled tasks.
    pub fn len(&self) -> usize {
        match self {
            Scheduler::Wheel(w) => w.len(),
            Scheduler::BTree(p) => p.len(),
        }
    }

    /// `true` when no tasks are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(time, task)` without removing, in the underlying
    /// implementation's storage order (not globally time-sorted for the
    /// wheel) — callers needing a canonical order sort the collected
    /// pairs. Used by engine snapshots to enumerate pending tasks.
    pub fn iter(&self) -> impl Iterator<Item = (Time, &T)> {
        let (wheel, list) = match self {
            Scheduler::Wheel(w) => (Some(w.iter()), None),
            Scheduler::BTree(p) => (None, Some(p.iter())),
        };
        wheel
            .into_iter()
            .flatten()
            .chain(list.into_iter().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_timestamp() {
        let mut pl = PendingList::new();
        for i in 0..5 {
            pl.schedule(7, i);
        }
        let due: Vec<i32> = pl.pop_due(7).into_iter().map(|(_, t)| t).collect();
        assert_eq!(due, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pop_due_is_inclusive_and_ordered() {
        let mut pl = PendingList::new();
        pl.schedule(30, "c");
        pl.schedule(10, "a");
        pl.schedule(20, "b");
        let due = pl.pop_due(20);
        assert_eq!(due, vec![(10, "a"), (20, "b")]);
        assert_eq!(pl.len(), 1);
        assert_eq!(pl.next_time(), Some(30));
    }

    #[test]
    fn pop_before_everything_returns_empty() {
        let mut pl = PendingList::new();
        pl.schedule(10, ());
        assert!(pl.pop_due(9).is_empty());
        assert_eq!(pl.len(), 1);
    }

    #[test]
    fn time_zero_tasks() {
        let mut pl = PendingList::new();
        pl.schedule(0, "genesis");
        assert_eq!(pl.pop_due(0), vec![(0, "genesis")]);
    }

    #[test]
    fn iter_does_not_consume() {
        let mut pl = PendingList::new();
        pl.schedule(1, "x");
        pl.schedule(2, "y");
        let seen: Vec<_> = pl.iter().map(|(t, s)| (t, *s)).collect();
        assert_eq!(seen, vec![(1, "x"), (2, "y")]);
        assert_eq!(pl.len(), 2);
    }

    #[test]
    fn property_pop_due_ordered_and_conserving() {
        // Seeded randomized cases (DetRng — no registry deps available).
        for seed in 0..128u64 {
            let mut rng = fi_crypto::DetRng::from_seed_label(seed, "tasks-prop");
            let schedule: Vec<(u64, u32)> = (0..rng.below(80))
                .map(|_| (rng.below(100), rng.below(1000) as u32))
                .collect();
            let mut checkpoints: Vec<u64> = (0..1 + rng.below(9)).map(|_| rng.below(120)).collect();
            let mut pl = PendingList::new();
            for &(t, task) in &schedule {
                pl.schedule(t, task);
            }
            checkpoints.sort_unstable();
            let mut popped = Vec::new();
            for &cp in &checkpoints {
                for (t, task) in pl.pop_due(cp) {
                    assert!(t <= cp, "seed {seed}: late pop");
                    popped.push((t, task));
                }
            }
            // Time-ordered overall.
            for pair in popped.windows(2) {
                assert!(pair[0].0 <= pair[1].0, "seed {seed}");
            }
            // Conservation: popped + remaining = scheduled.
            assert_eq!(popped.len() + pl.len(), schedule.len(), "seed {seed}");
            // Everything still queued is after the last checkpoint.
            let last = *checkpoints.last().unwrap();
            for (t, _) in pl.iter() {
                assert!(t > last, "seed {seed}");
            }
        }
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut pl = PendingList::new();
        pl.schedule(10, 1);
        assert_eq!(pl.pop_due(10), vec![(10, 1)]);
        // Re-arming at a later time after popping (the CheckProof cycle).
        pl.schedule(20, 2);
        pl.schedule(15, 3);
        assert_eq!(pl.pop_due(25), vec![(15, 3), (20, 2)]);
        assert!(pl.is_empty());
    }

    // ------------------------------------------------------------------
    // TaskWheel
    // ------------------------------------------------------------------

    #[test]
    fn wheel_orders_within_and_across_buckets() {
        let mut w = TaskWheel::new(10);
        w.schedule(25, "late");
        w.schedule(3, "early");
        w.schedule(25, "late2");
        w.schedule(11, "mid");
        assert_eq!(w.next_time(), Some(3));
        assert_eq!(
            w.pop_due(30),
            vec![(3, "early"), (11, "mid"), (25, "late"), (25, "late2")]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_partial_bucket_is_filtered_exactly() {
        let mut w = TaskWheel::new(10);
        w.schedule(24, "due");
        w.schedule(26, "not-yet");
        w.schedule(21, "due-too");
        assert_eq!(w.pop_due(24), vec![(21, "due-too"), (24, "due")]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_time(), Some(26));
        assert_eq!(w.pop_due(26), vec![(26, "not-yet")]);
    }

    #[test]
    fn wheel_clamps_past_times_but_pops_them_first() {
        let mut w = TaskWheel::new(10);
        w.schedule(55, "future");
        assert!(w.pop_due(30).is_empty()); // base advances to epoch 3
        w.schedule(5, "stale"); // before the base: clamped into head bucket
        w.schedule(57, "future2");
        assert_eq!(
            w.pop_due(60),
            vec![(5, "stale"), (55, "future"), (57, "future2")]
        );
    }

    /// Regression: a clamped stale task must be poppable at its own (past)
    /// timestamp, even though `now` then lies in an epoch before the
    /// wheel's base — otherwise `pop_due(next_time())` (the engine's
    /// advance loop) would spin forever on it.
    #[test]
    fn wheel_pops_stale_tasks_at_their_own_past_time() {
        let mut w = TaskWheel::new(10);
        w.schedule(55, "future");
        assert!(w.pop_due(30).is_empty()); // base epoch is now 3
        w.schedule(5, "stale");
        assert_eq!(w.next_time(), Some(5));
        assert_eq!(w.pop_due(5), vec![(5, "stale")]); // now-epoch 0 < base
        assert_eq!(w.next_time(), Some(55));
        assert_eq!(w.pop_due(55), vec![(55, "future")]);
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_iter_does_not_consume() {
        let mut w = TaskWheel::new(10);
        w.schedule(1, "x");
        w.schedule(2, "y");
        assert_eq!(w.iter().count(), 2);
        assert_eq!(w.len(), 2);
        assert_eq!(w.granularity(), 10);
    }

    /// The satellite equivalence property: driven by the same randomized
    /// interleaving of schedules and pops, the wheel and the BTreeMap list
    /// fire exactly the same tasks at the same times in the same order.
    #[test]
    fn wheel_matches_pending_list_under_random_interleaving() {
        for seed in 0..96u64 {
            let mut rng = fi_crypto::DetRng::from_seed_label(seed, "wheel-equiv");
            let granularity = 1 + rng.below(16);
            let mut wheel = TaskWheel::new(granularity);
            let mut list = PendingList::new();
            let mut clock = 0u64;
            let mut next_task = 0u32;
            for _ in 0..200 {
                if rng.below(3) < 2 {
                    // Schedule: mostly future, occasionally stale.
                    let t = if rng.below(10) == 0 {
                        clock.saturating_sub(rng.below(20))
                    } else {
                        clock + rng.below(120)
                    };
                    wheel.schedule(t, next_task);
                    list.schedule(t, next_task);
                    next_task += 1;
                } else {
                    // Mostly advance; occasionally probe at a past deadline
                    // (stale clamped tasks must surface identically too).
                    let probe = if rng.below(5) == 0 {
                        clock.saturating_sub(rng.below(25))
                    } else {
                        clock += rng.below(40);
                        clock
                    };
                    assert_eq!(
                        wheel.pop_due(probe),
                        list.pop_due(probe),
                        "seed {seed} at probe {probe}"
                    );
                    assert_eq!(wheel.len(), list.len(), "seed {seed}");
                    assert_eq!(wheel.next_time(), list.next_time(), "seed {seed}");
                }
            }
            // Drain the remainder: still identical.
            assert_eq!(wheel.pop_due(u64::MAX / 2), list.pop_due(u64::MAX / 2));
            assert!(wheel.is_empty() && list.is_empty());
        }
    }

    #[test]
    fn scheduler_wrapper_dispatches_both_kinds() {
        for kind in [SchedulerKind::Wheel, SchedulerKind::BTree] {
            let mut s: Scheduler<&str> = Scheduler::new(kind, 10);
            assert!(s.is_empty());
            s.schedule(12, "a");
            s.schedule(5, "b");
            assert_eq!(s.len(), 2);
            assert_eq!(s.next_time(), Some(5));
            assert_eq!(s.pop_due(20), vec![(5, "b"), (12, "a")]);
            assert!(s.is_empty());
        }
        assert_eq!(SchedulerKind::default(), SchedulerKind::Wheel);
    }
}
