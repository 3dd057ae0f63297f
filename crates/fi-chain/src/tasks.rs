//! The pending list: consensus-scheduled future tasks.
//!
//! Paper Fig. 1: `pendingList: {time → [task, task, ...]}` — *"When a new
//! time point t is reached, the tasks in the pending list whose timestamp is
//! t will be automatically executed by the network"*. Tasks are generated
//! only through network consensus and must have a prepaid gas bound
//! (§III-B.4); the gas side lives in [`crate::gas`], the scheduling side
//! here.
//!
//! [`Scheduler`] is that list: a sparse map from epoch (a fixed-width span
//! of ticks) to the tasks due in it. Only occupied epochs hold a bucket, so
//! memory follows the task count, never the time span the tasks cover.
//!
//! Generic over the task type so `fi-core` can schedule its `Auto_*`
//! variants and tests can schedule plain markers.

use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Discrete consensus time (block timestamp units).
pub type Time = u64;

/// The bucket width a [`Scheduler`] uses. Both widths pop the same tasks
/// in the same order; the kind only sets how many tasks share a bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// One bucket per consensus block interval (default).
    #[default]
    Wheel,
    /// One bucket per tick: one key per distinct timestamp.
    BTree,
}

/// The pending list: pops tasks in `(time, insertion)` order, with
/// inclusive deadlines.
///
/// Tasks live in a `BTreeMap` from epoch (`time / width`) to a bucket
/// that holds them in insertion order. Popping drains every bucket before
/// `now`'s epoch whole, takes the due tasks out of the bucket that holds
/// `now`, and stable-sorts what it took by time. No bucket is ever kept
/// empty.
///
/// # Example
///
/// ```
/// use fi_chain::{Scheduler, SchedulerKind};
/// let mut pl = Scheduler::new(SchedulerKind::Wheel, 10);
/// pl.schedule(25, "check-proof");
/// pl.schedule(7, "check-alloc");
/// pl.schedule(25, "refresh");
/// assert_eq!(pl.next_time(), Some(7));
/// assert_eq!(pl.pop_due(9), vec![(7, "check-alloc")]);
/// assert_eq!(pl.pop_due(30), vec![(25, "check-proof"), (25, "refresh")]);
/// assert!(pl.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler<T> {
    width: Time,
    buckets: BTreeMap<u64, Vec<(Time, T)>>,
    len: usize,
}

impl<T> Scheduler<T> {
    /// An empty pending list. [`SchedulerKind::Wheel`] buckets by
    /// `granularity` ticks (the block interval), [`SchedulerKind::BTree`]
    /// by single ticks.
    ///
    /// # Panics
    ///
    /// Panics if the kind is `Wheel` and `granularity == 0`.
    pub fn new(kind: SchedulerKind, granularity: Time) -> Self {
        let width = match kind {
            SchedulerKind::Wheel => granularity,
            SchedulerKind::BTree => 1,
        };
        assert!(width > 0, "bucket width must be positive");
        Scheduler {
            width,
            buckets: BTreeMap::new(),
            len: 0,
        }
    }

    /// Schedules `task` for execution at `time`.
    pub fn schedule(&mut self, time: Time, task: T) {
        let epoch = time / self.width;
        // Re-arming a task one cycle out lands in the latest bucket.
        match self.buckets.last_entry() {
            Some(mut last) if *last.key() == epoch => last.get_mut().push((time, task)),
            _ => self.buckets.entry(epoch).or_default().push((time, task)),
        }
        self.len += 1;
    }

    /// Removes and returns every task due at or before `now`, in
    /// `(time, insertion)` order.
    pub fn pop_due(&mut self, now: Time) -> Vec<(Time, T)> {
        let now_epoch = now / self.width;
        let mut due = Vec::new();
        while let Some(mut first) = self.buckets.first_entry() {
            let epoch = *first.key();
            let mut bucket = match epoch.cmp(&now_epoch) {
                Ordering::Less => first.remove(),
                Ordering::Equal => {
                    let taken = first.get_mut().extract_if(.., |(t, _)| *t <= now).collect();
                    if first.get().is_empty() {
                        first.remove();
                    }
                    taken
                }
                Ordering::Greater => break,
            };
            bucket.sort_by_key(|(t, _)| *t);
            self.len -= bucket.len();
            due.append(&mut bucket);
            if epoch == now_epoch {
                break;
            }
        }
        due
    }

    /// Earliest scheduled time, if any.
    pub fn next_time(&self) -> Option<Time> {
        let (_, first) = self.buckets.first_key_value()?;
        first.iter().map(|(t, _)| *t).min()
    }

    /// Number of scheduled tasks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no tasks are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over `(time, task)` without removing, in epoch order and
    /// insertion order within an epoch — not globally time-sorted, so
    /// callers needing a canonical order sort the collected pairs. Engine
    /// snapshots enumerate pending tasks this way.
    pub fn iter(&self) -> impl Iterator<Item = (Time, &T)> {
        self.buckets
            .values()
            .flat_map(|b| b.iter().map(|(t, task)| (*t, task)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The test oracle: one `BTreeMap` key per distinct timestamp. A
    /// BTreeMap drain is already time-ordered, so it needs no sort.
    #[derive(Debug, Default)]
    struct PendingList<T> {
        queue: BTreeMap<Time, Vec<T>>,
        len: usize,
    }

    impl<T> PendingList<T> {
        fn schedule(&mut self, time: Time, task: T) {
            self.queue.entry(time).or_default().push(task);
            self.len += 1;
        }

        fn pop_due(&mut self, now: Time) -> Vec<(Time, T)> {
            let later = match now.checked_add(1) {
                Some(after) => self.queue.split_off(&after),
                None => BTreeMap::new(),
            };
            let due: Vec<(Time, T)> = std::mem::replace(&mut self.queue, later)
                .into_iter()
                .flat_map(|(time, tasks)| tasks.into_iter().map(move |task| (time, task)))
                .collect();
            self.len -= due.len();
            due
        }

        fn next_time(&self) -> Option<Time> {
            self.queue.keys().next().copied()
        }
    }

    const KINDS: [SchedulerKind; 2] = [SchedulerKind::Wheel, SchedulerKind::BTree];

    fn wheel<T>() -> Scheduler<T> {
        Scheduler::new(SchedulerKind::Wheel, 10)
    }

    #[test]
    fn fifo_within_timestamp() {
        for kind in KINDS {
            let mut pl = Scheduler::new(kind, 10);
            for i in 0..5 {
                pl.schedule(7, i);
            }
            let due: Vec<i32> = pl.pop_due(7).into_iter().map(|(_, t)| t).collect();
            assert_eq!(due, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn pop_due_is_inclusive_and_ordered() {
        for kind in KINDS {
            let mut pl = Scheduler::new(kind, 10);
            pl.schedule(30, "c");
            pl.schedule(10, "a");
            pl.schedule(20, "b");
            assert_eq!(pl.pop_due(20), vec![(10, "a"), (20, "b")]);
            assert_eq!(pl.len(), 1);
            assert_eq!(pl.next_time(), Some(30));
        }
    }

    #[test]
    fn pop_before_everything_returns_empty() {
        for kind in KINDS {
            let mut pl = Scheduler::new(kind, 10);
            pl.schedule(10, ());
            assert!(pl.pop_due(9).is_empty());
            assert_eq!(pl.len(), 1);
        }
    }

    #[test]
    fn time_zero_tasks() {
        for kind in KINDS {
            let mut pl = Scheduler::new(kind, 10);
            pl.schedule(0, "genesis");
            assert_eq!(pl.pop_due(0), vec![(0, "genesis")]);
        }
    }

    #[test]
    fn iter_does_not_consume() {
        for kind in KINDS {
            let mut pl = Scheduler::new(kind, 10);
            pl.schedule(1, "x");
            pl.schedule(2, "y");
            let seen: Vec<_> = pl.iter().map(|(t, s)| (t, *s)).collect();
            assert_eq!(seen, vec![(1, "x"), (2, "y")]);
            assert_eq!(pl.len(), 2);
        }
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
            let mut pl = Scheduler::new(SchedulerKind::Wheel, 1 + rng.below(16));
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
        let mut pl = wheel();
        pl.schedule(10, 1);
        assert_eq!(pl.pop_due(10), vec![(10, 1)]);
        // Re-arming at a later time after popping (the CheckProof cycle).
        pl.schedule(20, 2);
        pl.schedule(15, 3);
        assert_eq!(pl.pop_due(25), vec![(15, 3), (20, 2)]);
        assert!(pl.is_empty());
    }

    #[test]
    fn wheel_orders_within_and_across_buckets() {
        let mut w = wheel();
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
        let mut w = wheel();
        w.schedule(24, "due");
        w.schedule(26, "not-yet");
        w.schedule(21, "due-too");
        assert_eq!(w.pop_due(24), vec![(21, "due-too"), (24, "due")]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_time(), Some(26));
        assert_eq!(w.pop_due(26), vec![(26, "not-yet")]);
        assert!(w.buckets.is_empty(), "no empty bucket is kept");
    }

    /// A task scheduled before the last popped time goes into its own
    /// (earlier) bucket and still pops before everything later.
    #[test]
    fn wheel_clamps_past_times_but_pops_them_first() {
        let mut w = wheel();
        w.schedule(55, "future");
        assert!(w.pop_due(30).is_empty());
        w.schedule(5, "stale");
        w.schedule(57, "future2");
        assert_eq!(
            w.pop_due(60),
            vec![(5, "stale"), (55, "future"), (57, "future2")]
        );
    }

    /// Regression: a stale task must be poppable at its own (past)
    /// timestamp — otherwise `pop_due(next_time())` (the engine's advance
    /// loop) would spin forever on it.
    #[test]
    fn wheel_pops_stale_tasks_at_their_own_past_time() {
        let mut w = wheel();
        w.schedule(55, "future");
        assert!(w.pop_due(30).is_empty());
        w.schedule(5, "stale");
        assert_eq!(w.next_time(), Some(5));
        assert_eq!(w.pop_due(5), vec![(5, "stale")]);
        assert_eq!(w.next_time(), Some(55));
        assert_eq!(w.pop_due(55), vec![(55, "future")]);
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_iter_does_not_consume() {
        let mut w = wheel();
        w.schedule(1, "x");
        w.schedule(2, "y");
        assert_eq!(w.iter().count(), 2);
        assert_eq!(w.len(), 2);
    }

    /// A task 10^7 intervals out and one at `Time::MAX` each take one
    /// bucket, pop at their own time, and `pop_due(Time::MAX)` drains
    /// everything without overflowing.
    #[test]
    fn far_future_tasks_take_one_bucket_each() {
        let far = 10_000_000 * 10 + 3;
        let mut w = wheel();
        w.schedule(far, "far");
        w.schedule(Time::MAX, "last");
        w.schedule(Time::MAX, "last2");
        assert_eq!(w.buckets.len(), 2);
        assert_eq!(w.next_time(), Some(far));
        assert!(w.pop_due(far - 1).is_empty());
        assert_eq!(w.pop_due(far), vec![(far, "far")]);
        assert!(w.pop_due(Time::MAX - 1).is_empty());
        assert_eq!(w.buckets.len(), 1);
        assert_eq!(
            w.pop_due(Time::MAX),
            vec![(Time::MAX, "last"), (Time::MAX, "last2")]
        );
        assert!(w.is_empty() && w.buckets.is_empty());
        assert!(w.pop_due(Time::MAX).is_empty());
    }

    /// Driven by the same randomized interleaving of schedules and pops —
    /// stale times, far-future times and times near `Time::MAX` among
    /// them — the pending list at both bucket widths and the BTreeMap
    /// oracle fire exactly the same tasks at the same times in the same
    /// order, and the list never keeps an empty bucket.
    #[test]
    fn wheel_matches_pending_list_under_random_interleaving() {
        for seed in 0..96u64 {
            let mut rng = fi_crypto::DetRng::from_seed_label(seed, "wheel-equiv");
            let granularity = 1 + rng.below(16);
            let mut lists = KINDS.map(|kind| Scheduler::new(kind, granularity));
            let mut oracle = PendingList::default();
            let mut clock = 0u64;
            let mut next_task = 0u32;
            let check = |lists: &mut [Scheduler<u32>; 2], oracle: &mut PendingList<u32>, probe| {
                let expected = oracle.pop_due(probe);
                for list in lists.iter_mut() {
                    assert_eq!(
                        list.pop_due(probe),
                        expected,
                        "seed {seed} at probe {probe}"
                    );
                    assert_eq!(list.len(), oracle.len, "seed {seed}");
                    assert_eq!(list.next_time(), oracle.next_time(), "seed {seed}");
                    assert!(list.buckets.values().all(|b| !b.is_empty()), "seed {seed}");
                }
            };
            for _ in 0..200 {
                if rng.below(3) < 2 {
                    // Schedule: mostly near future, sometimes stale, far
                    // out or at the end of the time range.
                    let t = match rng.below(20) {
                        0 | 1 => clock.saturating_sub(rng.below(20)),
                        2 => clock + rng.below(1 << 40),
                        3 => Time::MAX - rng.below(2 * granularity),
                        _ => clock + rng.below(120),
                    };
                    for list in lists.iter_mut() {
                        list.schedule(t, next_task);
                    }
                    oracle.schedule(t, next_task);
                    next_task += 1;
                } else {
                    // Mostly advance; occasionally probe at a past deadline
                    // or at the end of the time range.
                    let probe = match rng.below(10) {
                        0 | 1 => clock.saturating_sub(rng.below(25)),
                        2 => Time::MAX - rng.below(2 * granularity),
                        _ => {
                            clock += rng.below(40);
                            clock
                        }
                    };
                    check(&mut lists, &mut oracle, probe);
                }
            }
            // Drain the remainder: still identical.
            check(&mut lists, &mut oracle, Time::MAX);
            assert!(lists.iter().all(|l| l.is_empty() && l.buckets.is_empty()));
        }
    }

    #[test]
    fn scheduler_wrapper_dispatches_both_kinds() {
        for kind in KINDS {
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
