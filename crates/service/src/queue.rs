//! A bounded, blocking **work-unit-weighted deficit-round-robin**
//! queue over `Mutex` + `Condvar`.
//!
//! The strict-priority heap this file used to hold had one documented
//! flaw: a flooding tenant at any priority level starves every lower
//! level indefinitely. The queue is now fair by construction. Each
//! tenant owns a *lane* — a sub-queue ordered `(priority desc, seq
//! asc)`, so priorities still order a tenant's **own** work — and the
//! lanes are served by deficit round robin (DRR, Shreedhar &
//! Varghese) *charged in the same `CostEstimate` work units the
//! admission path already computes*:
//!
//! * every backlogged lane holds a **deficit counter**; a lane at the
//!   front of the rotation is served while its deficit covers the head
//!   job's work, then rotates to the back;
//! * arriving at the front grants the lane `weight × quantum` fresh
//!   deficit, where `quantum` is the running maximum work unit seen —
//!   large enough that every granted visit serves at least one job, so
//!   a pop completes within one rotation (no livelock, `O(lanes)`
//!   worst case);
//! * a lane that goes **empty resets its deficit**: idle tenants lend
//!   their share to the backlogged ones instead of banking it — the
//!   queue is *work-conserving* (a lone backlogged lane receives the
//!   entire service rate);
//! * **aging** bounds worst-case wait: a lane head that has been
//!   queued longer than the configured age limit is served next,
//!   out of rotation (its lane's deficit is still charged, saturating
//!   at zero), so no admitted job waits forever behind heavier-
//!   weighted neighbours — the wait for a tenant's next-in-line job is
//!   bounded by `age_limit` plus one in-flight solve.
//!
//! Long-run service share of a continuously backlogged lane is
//! `weight / Σ weights` over the backlogged lanes, with per-round
//! burstiness bounded by `weight × quantum + max job work` (the
//! classic DRR fairness bound in work units).
//!
//! Everything else is unchanged from the strict-priority predecessor:
//! a hard capacity on the producer side (a full queue *refuses* with a
//! typed reason instead of blocking), close-then-drain shutdown
//! semantics, and poison-recovering lock acquisition.
//!
//! # Poison recovery
//!
//! Every lock acquisition recovers from poisoning instead of
//! propagating it. The critical sections below only touch heap/deque
//! operations and field assignments, none of which leave the structure
//! torn if a caller's panic unwinds *outside* the section — and the
//! fault-isolation contract of the service (workers catch backend
//! panics but must keep serving) means a single panicking request must
//! never wedge the queue for every other tenant.
//!
//! # Locking
//!
//! One mutex guards *all* lanes. Per-lane locks would buy nothing (a
//! pop inspects the rotation, which spans lanes) and would create a
//! lock-order surface — the `lock_lanes.rs` fixture in `sws-lint`
//! pins exactly the AB/BA deadlock shape that design would invite.

use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Why a push was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The queue is at capacity.
    Full,
    /// The queue was closed ([`JobQueue::close`]).
    Closed,
    /// The lane index is not one the queue was built with.
    NoSuchLane,
}

/// One queued item. Within a lane, entries pop by `(priority desc,
/// seq asc)` — higher priorities first, FIFO within a priority level.
struct Entry<T> {
    priority: u8,
    seq: u64,
    /// The job's pre-dispatch work estimate in shared work units
    /// (≥ 1); what the lane's deficit is charged on pop.
    work: u64,
    /// When the entry was pushed — the aging clock.
    enqueued: Instant,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: higher priority wins; within a
        // priority, the *lower* sequence number (earlier submission)
        // must surface first, hence the reversed comparison.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

/// One tenant's sub-queue plus its DRR state.
struct Lane<T> {
    /// DRR weight (≥ 1): long-run service share is proportional.
    weight: u64,
    /// Work units this lane may still spend this rotation.
    deficit: u64,
    /// Whether the lane has already received its deficit grant for the
    /// current front-of-rotation visit.
    granted: bool,
    heap: BinaryHeap<Entry<T>>,
}

impl<T> Lane<T> {
    /// Resets the DRR state after the lane goes empty: an idle lane
    /// lends its share instead of banking it.
    fn reset(&mut self) {
        self.deficit = 0;
        self.granted = false;
    }
}

/// A point-in-time view of one lane, for the stats plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneGauge {
    /// Queued entries in the lane.
    pub(crate) depth: usize,
    /// The lane's current deficit counter, in work units.
    pub(crate) deficit: u64,
    /// How long the lane's next-in-line entry has been queued.
    pub(crate) head_wait: Option<Duration>,
}

struct Inner<T> {
    lanes: Vec<Lane<T>>,
    /// Indices of the non-empty lanes, in rotation order (front is
    /// served next).
    rotation: VecDeque<usize>,
    /// Total queued entries across lanes.
    len: usize,
    closed: bool,
    next_seq: u64,
    /// Running maximum work unit seen; the per-visit deficit grant is
    /// `weight × quantum`, which guarantees every granted visit can
    /// serve its head.
    quantum: u64,
}

/// The bounded blocking DRR queue. See the module docs.
pub(crate) struct JobQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
    /// Entries queued at least this long are served out of rotation.
    /// `None` disables aging.
    age_limit: Option<Duration>,
}

impl<T> JobQueue<T> {
    /// An open queue holding at most `capacity` items across one lane
    /// per entry of `weights` (clamped to ≥ 1), with the given aging
    /// bound.
    pub(crate) fn new(capacity: usize, weights: &[u32], age_limit: Option<Duration>) -> Self {
        JobQueue {
            inner: Mutex::new(Inner {
                lanes: weights
                    .iter()
                    .map(|&w| Lane {
                        weight: u64::from(w.max(1)),
                        deficit: 0,
                        granted: false,
                        heap: BinaryHeap::new(),
                    })
                    .collect(),
                rotation: VecDeque::new(),
                len: 0,
                closed: false,
                next_seq: 0,
                quantum: 1,
            }),
            not_empty: Condvar::new(),
            capacity,
            age_limit,
        }
    }

    /// A single-lane queue (weight 1, no aging) — DRR over one lane is
    /// plain `(priority desc, seq asc)` order, the shape single-tenant
    /// tests use.
    #[cfg(test)]
    pub(crate) fn single_lane(capacity: usize) -> Self {
        Self::new(capacity, &[1], None)
    }

    /// The queue's capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Locks the queue state, recovering from poisoning (see the module
    /// docs: the critical sections never leave the structure torn).
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current number of queued items across all lanes.
    pub(crate) fn depth(&self) -> usize {
        self.lock().len
    }

    /// Current number of queued items in one lane (0 for an unknown
    /// lane index).
    pub(crate) fn lane_depth(&self, lane: usize) -> usize {
        self.lock().lanes.get(lane).map_or(0, |l| l.heap.len())
    }

    /// Point-in-time gauges for every lane, in lane order.
    pub(crate) fn gauges(&self) -> Vec<LaneGauge> {
        let now = Instant::now();
        self.lock()
            .lanes
            .iter()
            .map(|lane| LaneGauge {
                depth: lane.heap.len(),
                deficit: lane.deficit,
                head_wait: lane
                    .heap
                    .peek()
                    .map(|e| now.saturating_duration_since(e.enqueued)),
            })
            .collect()
    }

    /// Enqueues `item` on `lane` at `priority`, charging `work` work
    /// units (clamped to ≥ 1) when it is eventually popped. Never
    /// blocks: a full or closed queue returns the item to the caller
    /// with the typed reason.
    pub(crate) fn push(
        &self,
        lane: usize,
        priority: u8,
        work: u64,
        item: T,
    ) -> Result<(), (T, PushError)> {
        let mut inner = self.lock();
        if inner.closed {
            return Err((item, PushError::Closed));
        }
        if inner.len >= self.capacity {
            return Err((item, PushError::Full));
        }
        if lane >= inner.lanes.len() {
            return Err((item, PushError::NoSuchLane));
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let work = work.max(1);
        inner.quantum = inner.quantum.max(work);
        inner.len += 1;
        let newly_active = inner.lanes.get(lane).is_some_and(|l| l.heap.is_empty());
        if let Some(l) = inner.lanes.get_mut(lane) {
            l.heap.push(Entry {
                priority,
                seq,
                work,
                enqueued: Instant::now(),
                item,
            });
        }
        if newly_active {
            inner.rotation.push_back(lane);
        }
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pops the head entry of `lane`, maintaining `len`, the rotation
    /// and the lane's DRR state. `charge` is subtracted from the
    /// lane's deficit (saturating — an aged pop may borrow beyond the
    /// deficit; the debt is forgiven rather than tracked negative,
    /// a bounded fairness giveaway documented in the module docs).
    fn pop_from(inner: &mut Inner<T>, lane_idx: usize) -> Option<T> {
        let lane = inner.lanes.get_mut(lane_idx)?;
        let entry = lane.heap.pop()?;
        inner.len -= 1;
        if lane.heap.is_empty() {
            lane.reset();
            inner.rotation.retain(|&i| i != lane_idx);
        } else {
            lane.deficit = lane.deficit.saturating_sub(entry.work);
        }
        Some(entry.item)
    }

    /// The scheduling core: picks the next entry under aging + DRR.
    /// Returns `None` only when the queue is empty. Must be called
    /// with the lock held.
    fn take_next(inner: &mut Inner<T>, age_limit: Option<Duration>) -> Option<T> {
        if inner.len == 0 {
            return None;
        }

        // Aging first: serve the oldest over-age lane head, out of
        // rotation, so no tenant's next-in-line job waits beyond the
        // bound however the weights are skewed.
        if let Some(limit) = age_limit {
            let now = Instant::now();
            let aged = inner
                .lanes
                .iter()
                .enumerate()
                .filter_map(|(idx, lane)| {
                    lane.heap.peek().and_then(|e| {
                        (now.saturating_duration_since(e.enqueued) >= limit)
                            .then_some((e.enqueued, e.seq, idx))
                    })
                })
                .min();
            if let Some((_, _, idx)) = aged {
                return Self::pop_from(inner, idx);
            }
        }

        // Deficit round robin over the backlogged lanes. Each iteration
        // either serves (and returns) or rotates a lane that has spent
        // its grant; a granted visit always covers the head (the grant
        // is `weight × quantum ≥ quantum ≥` any queued work), so the
        // loop completes within one rotation.
        let mut spins = inner.rotation.len() + 1;
        while spins > 0 {
            spins -= 1;
            let &idx = inner.rotation.front()?;
            let Some(lane) = inner.lanes.get_mut(idx) else {
                inner.rotation.pop_front();
                continue;
            };
            let Some(head) = lane.heap.peek() else {
                // A lane in the rotation is non-empty by invariant;
                // recover anyway rather than spin.
                inner.rotation.pop_front();
                continue;
            };
            let head_work = head.work;
            if !lane.granted {
                lane.granted = true;
                lane.deficit = lane
                    .deficit
                    .saturating_add(lane.weight.saturating_mul(inner.quantum));
            }
            if lane.deficit >= head_work {
                return Self::pop_from(inner, idx);
            }
            // Grant spent: yield the rest of the round.
            lane.granted = false;
            inner.rotation.pop_front();
            inner.rotation.push_back(idx);
        }
        None
    }

    /// Dequeues the next item under the fairness discipline, blocking
    /// while the queue is empty and open. Returns `None` only once the
    /// queue is closed **and** fully drained.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = Self::take_next(&mut inner, self.age_limit) {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Dequeues without blocking: `None` when the queue is currently
    /// empty (used by the shutdown path to drain leftovers when the
    /// service runs without workers).
    pub(crate) fn try_pop(&self) -> Option<T> {
        Self::take_next(&mut self.lock(), self.age_limit)
    }

    /// Removes and returns every queued item matching `pred`,
    /// preserving each lane's `(priority desc, seq asc)` order among
    /// the survivors (their original sequence numbers are kept). Used
    /// to purge jobs that are already cancelled or past their deadline,
    /// so dead work can never hold capacity against live submissions.
    pub(crate) fn drain_matching(&self, mut pred: impl FnMut(&T) -> bool) -> Vec<T> {
        let mut inner = self.lock();
        let mut removed = Vec::new();
        for lane in inner.lanes.iter_mut() {
            if lane.heap.is_empty() {
                continue;
            }
            let entries = std::mem::take(&mut lane.heap).into_vec();
            for entry in entries {
                if pred(&entry.item) {
                    removed.push(entry.item);
                } else {
                    lane.heap.push(entry);
                }
            }
            if lane.heap.is_empty() {
                lane.reset();
            }
        }
        inner.len -= removed.len();
        let Inner {
            lanes, rotation, ..
        } = &mut *inner;
        rotation.retain(|&i| lanes.get(i).is_some_and(|l| !l.heap.is_empty()));
        removed
    }

    /// Closes the queue: pushes start failing with
    /// [`PushError::Closed`]; pops drain the remaining items and then
    /// return `None`. Idempotent.
    pub(crate) fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn orders_by_priority_then_fifo_within_a_lane() {
        let q: JobQueue<&'static str> = JobQueue::single_lane(8);
        q.push(0, 1, 1, "low-a").unwrap();
        q.push(0, 5, 1, "high-a").unwrap();
        q.push(0, 1, 1, "low-b").unwrap();
        q.push(0, 5, 1, "high-b").unwrap();
        q.close();
        assert_eq!(q.pop(), Some("high-a"));
        assert_eq!(q.pop(), Some("high-b"));
        assert_eq!(q.pop(), Some("low-a"));
        assert_eq!(q.pop(), Some("low-b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn full_closed_and_unknown_lane_pushes_return_the_item() {
        let q: JobQueue<u32> = JobQueue::new(2, &[1, 1], None);
        q.push(0, 0, 1, 1).unwrap();
        q.push(1, 0, 1, 2).unwrap();
        let (item, reason) = q.push(0, 0, 1, 3).unwrap_err();
        assert_eq!((item, reason), (3, PushError::Full));
        let q2: JobQueue<u32> = JobQueue::new(8, &[1], None);
        let (item, reason) = q2.push(7, 0, 1, 9).unwrap_err();
        assert_eq!((item, reason), (9, PushError::NoSuchLane));
        q.close();
        let (item, reason) = q.push(0, 0, 1, 4).unwrap_err();
        assert_eq!((item, reason), (4, PushError::Closed));
        // The queued items remain drainable after close.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_weight_lanes_alternate_under_equal_work() {
        // Two backlogged lanes, equal weights, equal work: DRR serves
        // one job per lane per rotation — strict alternation, however
        // many jobs either lane has queued ahead.
        let q: JobQueue<(usize, u32)> = JobQueue::new(64, &[1, 1], None);
        for i in 0..6u32 {
            q.push(0, 0, 10, (0, i)).unwrap();
        }
        for i in 0..6u32 {
            q.push(1, 0, 10, (1, i)).unwrap();
        }
        q.close();
        let mut order = Vec::new();
        while let Some((lane, i)) = q.pop() {
            order.push((lane, i));
        }
        let lanes: Vec<usize> = order.iter().map(|&(l, _)| l).collect();
        assert_eq!(lanes, vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]);
        // FIFO within each lane.
        for lane in 0..2 {
            let seq: Vec<u32> = order
                .iter()
                .filter(|&&(l, _)| l == lane)
                .map(|&(_, i)| i)
                .collect();
            assert_eq!(seq, vec![0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn weights_set_the_service_ratio() {
        // Weight 1 vs weight 3, equal work everywhere: each rotation
        // serves 1 job from lane 0 and 3 from lane 1.
        let q: JobQueue<(usize, u32)> = JobQueue::new(64, &[1, 3], None);
        for i in 0..4u32 {
            q.push(0, 0, 10, (0, i)).unwrap();
        }
        for i in 0..12u32 {
            q.push(1, 0, 10, (1, i)).unwrap();
        }
        q.close();
        let mut lanes = Vec::new();
        while let Some((lane, _)) = q.pop() {
            lanes.push(lane);
        }
        assert_eq!(lanes, vec![0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1]);
    }

    #[test]
    fn work_units_not_job_counts_are_what_is_shared() {
        // Lane 0's jobs are 5× heavier than lane 1's. Equal weights:
        // per rotation lane 0 serves ~1 heavy job (50 units) while
        // lane 1 serves ~5 light ones (10 units each) — equal *work*,
        // not equal job counts.
        let q: JobQueue<(usize, u32)> = JobQueue::new(64, &[1, 1], None);
        for i in 0..3u32 {
            q.push(0, 0, 50, (0, i)).unwrap();
        }
        for i in 0..15u32 {
            q.push(1, 0, 10, (1, i)).unwrap();
        }
        q.close();
        let mut served_work = [0u64; 2];
        let mut max_gap = 0u64;
        while let Some((lane, _)) = q.pop() {
            served_work[lane] += if lane == 0 { 50 } else { 10 };
            if served_work[0] > 0 && served_work[1] > 0 {
                max_gap = max_gap.max(served_work[0].abs_diff(served_work[1]));
            }
        }
        assert_eq!(served_work, [150, 150]);
        // The running work totals never diverge beyond the DRR bound
        // (one grant + one max job = quantum + 50 = 100).
        assert!(max_gap <= 100, "work imbalance peaked at {max_gap}");
    }

    #[test]
    fn an_idle_lane_lends_its_share_and_cannot_bank_it() {
        let q: JobQueue<(usize, u32)> = JobQueue::new(64, &[1, 1], None);
        // Lane 1 alone: receives the entire service rate
        // (work-conserving), with lane 0 idle throughout.
        for i in 0..5u32 {
            q.push(1, 0, 10, (1, i)).unwrap();
        }
        for i in 0..5u32 {
            assert_eq!(q.try_pop(), Some((1, i)));
        }
        // Lane 1 went empty above, so its deficit reset; when both
        // lanes now arrive backlogged, service is an even split — the
        // busy period bought lane 1 no credit and cost lane 0 none.
        for i in 10..14u32 {
            q.push(0, 0, 10, (0, i)).unwrap();
            q.push(1, 0, 10, (1, i)).unwrap();
        }
        q.close();
        let mut lanes = Vec::new();
        while let Some((lane, _)) = q.pop() {
            lanes.push(lane);
        }
        assert_eq!(lanes, vec![0, 1, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn aging_serves_over_age_heads_in_global_fifo_order() {
        // Age limit zero: every head is instantly over-age, so pops
        // follow global enqueue order regardless of the 1:7 weights.
        let q: JobQueue<(usize, u32)> = JobQueue::new(64, &[1, 7], Some(Duration::ZERO));
        q.push(0, 0, 10, (0, 0)).unwrap();
        q.push(1, 0, 10, (1, 0)).unwrap();
        q.push(0, 0, 10, (0, 1)).unwrap();
        q.push(1, 0, 10, (1, 1)).unwrap();
        q.close();
        assert_eq!(q.pop(), Some((0, 0)));
        assert_eq!(q.pop(), Some((1, 0)));
        assert_eq!(q.pop(), Some((0, 1)));
        assert_eq!(q.pop(), Some((1, 1)));
    }

    #[test]
    fn far_future_age_limit_never_preempts_the_rotation() {
        let q: JobQueue<(usize, u32)> = JobQueue::new(64, &[1, 1], Some(Duration::from_secs(3600)));
        for i in 0..3u32 {
            q.push(0, 0, 10, (0, i)).unwrap();
            q.push(1, 0, 10, (1, i)).unwrap();
        }
        q.close();
        let mut lanes = Vec::new();
        while let Some((lane, _)) = q.pop() {
            lanes.push(lane);
        }
        assert_eq!(lanes, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn gauges_report_depth_deficit_and_head_wait() {
        let q: JobQueue<u32> = JobQueue::new(8, &[1, 1], None);
        q.push(0, 0, 10, 1).unwrap();
        q.push(0, 0, 10, 2).unwrap();
        let gauges = q.gauges();
        assert_eq!(gauges.len(), 2);
        assert_eq!(gauges[0].depth, 2);
        assert_eq!(gauges[1].depth, 0);
        assert!(gauges[0].head_wait.is_some());
        assert_eq!(gauges[1].head_wait, None);
        assert_eq!(q.lane_depth(0), 2);
        assert_eq!(q.lane_depth(1), 0);
        assert_eq!(q.lane_depth(9), 0);
        // After one pop the lane carries leftover deficit (grant 10,
        // spent 10 → 0 here since grant == work).
        assert_eq!(q.try_pop(), Some(1));
        let gauges = q.gauges();
        assert_eq!(gauges[0].depth, 1);
        q.close();
    }

    #[test]
    fn drain_matching_removes_matches_and_preserves_lane_order() {
        let q: JobQueue<u32> = JobQueue::new(8, &[1, 1], None);
        q.push(0, 1, 1, 10).unwrap();
        q.push(0, 5, 1, 20).unwrap();
        q.push(1, 1, 1, 11).unwrap();
        q.push(1, 5, 1, 21).unwrap();
        let removed = q.drain_matching(|&v| v % 10 == 1);
        assert_eq!(removed.len(), 2);
        assert!(removed.contains(&11) && removed.contains(&21));
        assert_eq!(q.depth(), 2);
        // Survivors keep (priority desc, seq asc) within their lane.
        q.close();
        let mut left = Vec::new();
        while let Some(v) = q.pop() {
            left.push(v);
        }
        left.sort_unstable();
        assert_eq!(left, vec![10, 20]);
    }

    #[test]
    fn draining_a_lane_empty_removes_it_from_the_rotation() {
        let q: JobQueue<u32> = JobQueue::new(8, &[1, 1], None);
        q.push(0, 0, 1, 1).unwrap();
        q.push(1, 0, 1, 2).unwrap();
        let removed = q.drain_matching(|&v| v == 1);
        assert_eq!(removed, vec![1]);
        // Lane 0 is gone from the rotation: pops serve lane 1 then
        // report empty instead of spinning on a stale index.
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None);
        q.push(0, 0, 1, 3).unwrap();
        assert_eq!(q.try_pop(), Some(3));
        q.close();
    }

    #[test]
    fn a_panic_inside_the_lock_does_not_wedge_the_queue() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // The marker keeps this intentional panic out of the test logs
        // (CI asserts the service suites emit zero unexpected panics).
        crate::faults::silence_injected_panics();
        let q: JobQueue<u32> = JobQueue::single_lane(4);
        q.push(0, 0, 1, 1).unwrap();
        // `drain_matching` runs the caller predicate while holding the
        // lock; a panicking predicate poisons the mutex. Every later
        // acquisition must recover instead of propagating.
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            q.drain_matching(|_| {
                panic!(
                    "{} predicate exploded",
                    crate::faults::INJECTED_PANIC_MARKER
                )
            });
        }));
        assert!(unwound.is_err());
        assert!(q.inner.is_poisoned());
        q.push(0, 0, 1, 2).unwrap();
        assert!(q.depth() >= 1);
        q.close();
        let mut drained = Vec::new();
        while let Some(v) = q.pop() {
            drained.push(v);
        }
        assert!(drained.contains(&2));
    }

    /// The naive reference: per-lane lists popped by
    /// `(priority desc, seq asc)`.
    type Model = Vec<Vec<(u8, u64, u64)>>;

    fn model_head(model: &[(u8, u64, u64)]) -> Option<usize> {
        model
            .iter()
            .enumerate()
            .max_by_key(|(_, &(p, s, _))| (p, std::cmp::Reverse(s)))
            .map(|(i, _)| i)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Model check against a naive per-lane reference: every pop
        /// returns the head of *some* lane (FIFO-within-tenant and
        /// priority order are exact per lane), `drain_matching`
        /// removes exactly the matching set, depth tracks the model,
        /// and capacity holds across arbitrary interleavings.
        #[test]
        fn queue_matches_a_per_lane_reference_model(
            ops in proptest::collection::vec((0u32..=45, 0usize..3, 1u64..20), 1..80)
        ) {
            const CAP: usize = 10;
            const LANES: usize = 3;
            let q: JobQueue<u64> = JobQueue::new(CAP, &[1, 2, 5], None);
            let mut model: Model = vec![Vec::new(); LANES];
            let mut next_val = 0u64;
            let mut next_seq = 0u64;
            for (op, lane, work) in ops {
                match op {
                    // Push to `lane` at priority op % 4.
                    0..=29 => {
                        let pri = (op % 4) as u8;
                        let val = next_val;
                        next_val += 1;
                        let res = q.push(lane, pri, work, val);
                        let total: usize = model.iter().map(Vec::len).sum();
                        if total >= CAP {
                            prop_assert!(matches!(res, Err((_, PushError::Full))));
                        } else {
                            prop_assert!(res.is_ok());
                            model[lane].push((pri, next_seq, val));
                            next_seq += 1;
                        }
                    }
                    // Pop: the DRR pick must be some lane's exact head.
                    30..=39 => {
                        match q.try_pop() {
                            Some(got) => {
                                let lane = model
                                    .iter()
                                    .position(|m| {
                                        model_head(m).is_some_and(|i| m[i].2 == got)
                                    });
                                prop_assert!(
                                    lane.is_some(),
                                    "popped {got} is not any lane's head"
                                );
                                let lane = lane.unwrap();
                                let head = model_head(&model[lane]).unwrap();
                                model[lane].remove(head);
                            }
                            None => {
                                prop_assert!(model.iter().all(Vec::is_empty));
                            }
                        }
                    }
                    // Purge even values (stand-in for cancelled jobs).
                    _ => {
                        let removed = q.drain_matching(|v| v % 2 == 0);
                        let expect: usize = model
                            .iter()
                            .flatten()
                            .filter(|&&(_, _, v)| v % 2 == 0)
                            .count();
                        for m in model.iter_mut() {
                            m.retain(|&(_, _, v)| v % 2 != 0);
                        }
                        prop_assert_eq!(removed.len(), expect);
                        prop_assert!(removed.iter().all(|v| v % 2 == 0));
                    }
                }
                let total: usize = model.iter().map(Vec::len).sum();
                prop_assert!(q.depth() <= CAP);
                prop_assert_eq!(q.depth(), total);
                for (idx, m) in model.iter().enumerate() {
                    prop_assert_eq!(q.lane_depth(idx), m.len());
                }
            }
            // Drain: every remaining pop is still some lane's head, and
            // the queue empties exactly when the model does.
            q.close();
            while let Some(got) = q.pop() {
                let lane = model
                    .iter()
                    .position(|m| model_head(m).is_some_and(|i| m[i].2 == got))
                    .expect("queue had an item the model does not");
                let head = model_head(&model[lane]).unwrap();
                model[lane].remove(head);
            }
            prop_assert!(model.iter().all(Vec::is_empty));
        }

        /// Fairness: with every lane continuously backlogged (no pops
        /// until all pushes land), a full drain serves cumulative work
        /// per lane within the DRR bound of the weight-proportional
        /// share, at every prefix of the drain.
        #[test]
        fn backlogged_lanes_share_service_by_weight(
            works in proptest::collection::vec(1u64..=16, 24..48),
        ) {
            let weights = [1u32, 3];
            let q: JobQueue<(usize, u64)> = JobQueue::new(256, &weights, None);
            let mut totals = [0u64; 2];
            for (i, &w) in works.iter().enumerate() {
                let lane = i % 2;
                q.push(lane, 0, w, (lane, w)).unwrap();
                totals[lane] += w;
            }
            q.close();
            // While both lanes are backlogged, the served-work ratio
            // tracks the weight ratio within one grant + one max job.
            let quantum = 16u64; // running max possible work
            let bound = |weight: u64| weight * quantum + 16;
            let mut served = [0u64; 2];
            while let Some((lane, w)) = q.pop() {
                served[lane] += w;
                let done = served[0] == totals[0] || served[1] == totals[1];
                if !done {
                    // served0 / served1 ≈ 1 / 3 within the bound:
                    // |3·served0 − served1| ≤ 3·bound(1) + bound(3).
                    let gap = (3 * served[0]).abs_diff(served[1]);
                    prop_assert!(
                        gap <= 3 * bound(1) + bound(3),
                        "weight share violated: served {served:?}, gap {gap}"
                    );
                }
            }
            prop_assert_eq!(served, totals);
        }
    }

    #[test]
    fn blocking_pop_wakes_on_push_and_on_close() {
        use std::sync::Arc;
        let q: Arc<JobQueue<u32>> = Arc::new(JobQueue::single_lane(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        q.push(0, 0, 1, 7).unwrap();
        q.push(0, 0, 1, 8).unwrap();
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, vec![7, 8]);
    }
}
