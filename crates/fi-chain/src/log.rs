//! A persistent append-only log: history that is shared, never copied.
//!
//! The engine's applied-op records are immutable once written, and a
//! verifying node clones its engine several times per block (scratch
//! verifier, sibling-reorg cache). [`SharedLog`] makes that clone cost
//! independent of how long the op log is: full chunks of
//! [`CHUNK`] items sit behind `Arc` in a newest-first linked list that
//! clones share by pointer, and only the open tail (fewer than [`CHUNK`]
//! items) is copied. Appending to one clone never disturbs another —
//! clone-then-diverge is the whole point.

use std::fmt;
use std::iter::Flatten;
use std::ops::Index;
use std::sync::Arc;

/// Items per shared chunk — also the bound on what a clone copies.
pub const CHUNK: usize = 64;

struct Chunk<T> {
    /// Exactly [`CHUNK`] items, oldest first.
    items: Vec<T>,
    prev: Option<Arc<Chunk<T>>>,
}

impl<T> Drop for Chunk<T> {
    /// Unlinks the chunks only this one keeps alive in a loop, so
    /// dropping the last owner of a long log cannot overflow the stack.
    fn drop(&mut self) {
        let mut prev = self.prev.take();
        while let Some(chunk) = prev {
            match Arc::try_unwrap(chunk) {
                Ok(mut sole) => prev = sole.prev.take(),
                Err(_) => break,
            }
        }
    }
}

/// An append-only sequence whose clones share everything but the open
/// tail. See the module docs.
///
/// # Example
///
/// ```
/// use fi_chain::log::SharedLog;
///
/// let mut a: SharedLog<u32> = (0..200).collect();
/// let mut b = a.clone(); // copies at most one chunk, shares the rest
/// a.push(1_000);
/// b.push(2_000);
/// assert_eq!(a.len(), 201);
/// assert_eq!(a.last(), Some(&1_000));
/// assert_eq!(b.last(), Some(&2_000));
/// assert!(a.iter().take(200).eq(b.iter().take(200)));
/// ```
pub struct SharedLog<T> {
    /// Full chunks, newest first.
    sealed: Option<Arc<Chunk<T>>>,
    /// Items held by `sealed` (a multiple of [`CHUNK`]).
    sealed_len: usize,
    tail: Vec<T>,
}

/// Oldest-first iterator over a [`SharedLog`].
pub type Iter<'a, T> = Flatten<std::vec::IntoIter<&'a [T]>>;

impl<T> SharedLog<T> {
    /// An empty log.
    pub fn new() -> Self {
        SharedLog {
            sealed: None,
            sealed_len: 0,
            tail: Vec::new(),
        }
    }

    /// Items in the log.
    pub fn len(&self) -> usize {
        self.sealed_len + self.tail.len()
    }

    /// `true` when nothing was appended (or everything was cleared).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `item`; a tail that reaches [`CHUNK`] items is sealed
    /// behind an `Arc` and shared by every later clone.
    pub fn push(&mut self, item: T) {
        if self.tail.capacity() < CHUNK {
            // A fresh or cloned tail: sized once for the chunk it becomes.
            self.tail.reserve_exact(CHUNK - self.tail.len());
        }
        self.tail.push(item);
        if self.tail.len() == CHUNK {
            let items = std::mem::take(&mut self.tail);
            self.sealed = Some(Arc::new(Chunk {
                items,
                prev: self.sealed.take(),
            }));
            self.sealed_len += CHUNK;
        }
    }

    /// The newest item.
    pub fn last(&self) -> Option<&T> {
        self.tail
            .last()
            .or_else(|| self.sealed.as_ref().and_then(|chunk| chunk.items.last()))
    }

    /// The item at `index` (0 = oldest). Walks back from the newest
    /// chunk: O(1) near the end, O(len / [`CHUNK`]) at the start.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.sealed_len {
            return self.tail.get(index - self.sealed_len);
        }
        let newest = self.sealed_len / CHUNK - 1;
        let mut chunk = self.sealed.as_ref()?;
        for _ in index / CHUNK..newest {
            chunk = chunk.prev.as_ref()?;
        }
        chunk.items.get(index % CHUNK)
    }

    /// Every item, oldest first.
    pub fn iter(&self) -> Iter<'_, T> {
        self.iter_from(0)
    }

    /// The items from `start` on, oldest first — reading the last `n`
    /// items costs O(n), not O(len).
    pub fn iter_from(&self, start: usize) -> Iter<'_, T> {
        let mut slices: Vec<&[T]> = Vec::new();
        if start < self.len() {
            slices.push(&self.tail[start.saturating_sub(self.sealed_len)..]);
            let mut chunk_start = self.sealed_len;
            let mut chunk = self.sealed.as_ref();
            while let Some(c) = chunk {
                if chunk_start <= start {
                    break;
                }
                chunk_start -= CHUNK;
                slices.push(&c.items[start.saturating_sub(chunk_start)..]);
                chunk = c.prev.as_ref();
            }
            slices.reverse();
        }
        slices.into_iter().flatten()
    }

    /// Forgets every item (shared chunks live on in other clones).
    pub fn clear(&mut self) {
        self.sealed = None;
        self.sealed_len = 0;
        self.tail.clear();
    }

    /// The items copied into a `Vec`, oldest first.
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter().cloned());
        out
    }
}

impl<T> Default for SharedLog<T> {
    fn default() -> Self {
        SharedLog::new()
    }
}

impl<T: Clone> Clone for SharedLog<T> {
    /// Shares every sealed chunk; copies only the open tail (fewer than
    /// [`CHUNK`] items), whatever the log's length.
    fn clone(&self) -> Self {
        SharedLog {
            sealed: self.sealed.clone(),
            sealed_len: self.sealed_len,
            tail: self.tail.clone(),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for SharedLog<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for SharedLog<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T> Index<usize> for SharedLog<T> {
    type Output = T;

    /// # Panics
    ///
    /// Panics when `index >= len`.
    fn index(&self, index: usize) -> &T {
        self.get(index).expect("index within the log")
    }
}

impl<'a, T> IntoIterator for &'a SharedLog<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

impl<T> FromIterator<T> for SharedLog<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut log = SharedLog::new();
        for item in items {
            log.push(item);
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_last_len_and_order_across_chunk_boundaries() {
        let mut log = SharedLog::new();
        assert!(log.is_empty());
        assert_eq!(log.last(), None);
        assert_eq!(log.iter().count(), 0);
        for n in [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK, 3 * CHUNK + 7] {
            while log.len() < n {
                log.push(log.len());
            }
            assert_eq!(log.len(), n);
            assert_eq!(log.last(), Some(&(n - 1)));
            assert!(log.iter().copied().eq(0..n), "oldest first at {n}");
            assert_eq!(log.to_vec(), (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn get_index_and_iter_from_agree_with_a_vec() {
        let n = 4 * CHUNK + 5;
        let log: SharedLog<usize> = (0..n).collect();
        for i in 0..n {
            assert_eq!(log.get(i), Some(&i));
            assert_eq!(log[i], i);
        }
        assert_eq!(log.get(n), None);
        for start in [
            0,
            1,
            CHUNK - 1,
            CHUNK,
            2 * CHUNK + 3,
            n - 6,
            n - 1,
            n,
            n + 9,
        ] {
            assert!(
                log.iter_from(start).copied().eq(start.min(n)..n),
                "suffix from {start}"
            );
        }
        // A log that ends exactly on a chunk boundary has an empty tail.
        let exact: SharedLog<usize> = (0..2 * CHUNK).collect();
        assert!(exact.iter_from(CHUNK + 1).copied().eq(CHUNK + 1..2 * CHUNK));
        assert_eq!(exact.last(), Some(&(2 * CHUNK - 1)));
    }

    #[test]
    fn clones_share_sealed_chunks_and_diverge_independently() {
        let n = 3 * CHUNK + 10;
        let mut a: SharedLog<Arc<usize>> = (0..n).map(Arc::new).collect();
        let mut b = a.clone();
        // Shared, not copied: every element is the same allocation.
        assert!(a.iter().zip(&b).all(|(x, y)| Arc::ptr_eq(x, y)));
        let sealed = a.sealed.as_ref().expect("full chunks");
        assert!(Arc::ptr_eq(sealed, b.sealed.as_ref().expect("shared")));
        // Appending on either side — across a chunk seal — leaves the
        // other's history untouched.
        for i in 0..CHUNK {
            a.push(Arc::new(1_000 + i));
        }
        b.push(Arc::new(2_000));
        assert_eq!(a.len(), n + CHUNK);
        assert_eq!(b.len(), n + 1);
        assert!(a.iter().take(n).map(|x| **x).eq(0..n));
        assert!(b.iter().take(n).map(|x| **x).eq(0..n));
        assert_eq!(**a.last().unwrap(), 1_000 + CHUNK - 1);
        assert_eq!(**b.last().unwrap(), 2_000);
        assert_ne!(a, b);
        assert_eq!(b, b.clone());
    }

    #[test]
    fn clear_forgets_items_but_not_other_clones() {
        let mut a: SharedLog<u32> = (0..200).collect();
        let b = a.clone();
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.last(), None);
        a.push(7);
        assert_eq!(a.to_vec(), vec![7]);
        assert_eq!(b.len(), 200);
        assert!(b.iter().copied().eq(0..200));
    }

    #[test]
    fn dropping_a_long_log_does_not_recurse() {
        // 50k chunks: a recursive drop of the chunk list would need a
        // stack frame per chunk and overflow the thread's 64 KiB stack.
        std::thread::Builder::new()
            .stack_size(64 * 1024)
            .spawn(|| {
                let mut log = SharedLog::new();
                for i in 0..50_000 * CHUNK as u64 {
                    log.push(i as u8);
                }
                let keep = log.clone();
                drop(log);
                assert_eq!(keep.len(), 50_000 * CHUNK);
                drop(keep);
            })
            .expect("spawn")
            .join()
            .expect("no stack overflow");
    }
}
