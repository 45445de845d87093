//! Event-driven list-scheduling kernel.
//!
//! Every list scheduler in this repository — Graham scheduling of
//! independent tasks, DAG list scheduling, and the paper's RLS∆
//! (Algorithm 2) — shares one selection rule: among the *ready* tasks,
//! repeatedly schedule the one that can start the soonest on the least
//! loaded *admissible* processor, breaking approximate start-time ties by
//! a priority rank. The naive implementations rescan every unscheduled
//! task and every processor each round, which costs `O(n²·m)`; this
//! module computes the same schedules event-drivenly.
//!
//! An *uncontested* round — the best-ranked runnable task is admissible
//! on the least loaded processor and no pending task could start as
//! early — costs `O(log m)` for the placement plus `O(log n)` per
//! successor it releases: `O((n + E)·log n + n·log m)` over a run. A
//! *contested* round also pops, and pushes back, every pending tie group
//! whose ready time is (approximately) at or below the best start key:
//! `O(g·log n)` for `g` such groups. A tie group is the set of tasks one
//! placement released at bit-identical ready times (a fork's children),
//! so `g` counts release events, not tasks: keyed per task, a fork of
//! `k` children would cost `O(k·log n)` in each of the up to `m`
//! contested rounds that run while processors idle below its ready
//! time. Measured at n ≈ 250 and 1 000 on m = 8 (docs/PERFORMANCE.md):
//! contested rounds are 0.24–0.47 per task on fork-join, 0.04–0.35 on
//! Gaussian elimination and at most 0.12 on layered DAGs, and each of
//! the seven generator families pops at most 1.02 pending entries per
//! placed task. When the admissibility predicate rejects the least
//! loaded processor (RLS∆ while a memory-saturated processor sits at the
//! load minimum) the round also re-probes the rejected runnable prefix,
//! degrading towards the naive cost in the worst case.
//!
//! The machinery:
//!
//! * a **ready-task structure** fed by predecessor-completion events
//!   (tasks enter when their last predecessor is scheduled) split into a
//!   rank-slot *runnable* bitmap (ready time ≤ current minimum load, so
//!   the earliest start is the minimum load itself and only the
//!   quantized priority slot orders the task — one bit per task in a
//!   three-level hierarchical bitmap) and a ready-time keyed 4-ary
//!   *pending* heap of tie groups ([`EngineState`] describes how a
//!   round walks them);
//! * an **indexed 4-ary min-heap over processor loads** ([`ProcHeap`]) whose
//!   ordered traversal ([`ProcHeap::probe`]) finds the least loaded
//!   processor satisfying a pluggable **admissibility predicate**
//!   ([`Admission`]) — plain Graham ([`Unrestricted`]) and RLS∆'s
//!   `memsize[q] + s_i ≤ ∆·LB` filter ([`MemoryCapAdmission`]) are the
//!   same kernel with different predicates;
//! * **incremental Lemma-4 bookkeeping**: the processors skipped by the
//!   winning probe are exactly the "marked" processors of the paper's
//!   analysis, so marking costs `O(#skipped)` instead of a per-candidate
//!   `O(m)` sweep;
//! * **checkpoint/replay** ([`CheckpointedRun`]): a run records each
//!   round's placement and rejection threshold, plus stride-boundary
//!   snapshots of the part of the resumable [`EngineState`] a replay
//!   cannot rebuild from the run's own output — the processor heap, the
//!   ready structures and the pending tie-group links, `O(m + pending +
//!   n/64)` words; placements come from the run's schedule and the
//!   readiness of the unplaced tasks is re-derived from it — so a run at
//!   a larger cap, or on an instance changed by an arrival or a cost
//!   re-estimate, replays only from the first round the change can
//!   affect (and shares the previous run's output in `O(1)` when none
//!   is) — the one warm-start engine behind the incremental Pareto
//!   sweeps of `sws_core::pareto_sweep` and the replan sessions of
//!   `sws_core::replan`.
//!
//! # Memory story (allocation-free steady state)
//!
//! Since the allocation rework the kernel is split along the memory
//! axis too:
//!
//! * the **instance** is borrowed as a flat [`sws_dag::CsrDag`] — CSR
//!   adjacency with `u32` indices in both directions plus
//!   structure-of-arrays `f64` cost vectors — built **once per
//!   instance** and shared by every run over it (the nested-`Vec`
//!   [`sws_dag::TaskGraph`] stays the build/mutate API and converts via
//!   `TaskGraph::csr()`);
//! * every **per-run buffer** (the ready heaps, the processor-load
//!   heap, the completion/ready/placement arrays, the per-round scratch
//!   and the probe frontier) lives in a reusable [`KernelWorkspace`]
//!   whose initialization clears without freeing, so repeated runs
//!   through one workspace — a ∆-sweep chain, a batch of instances —
//!   allocate nothing in steady state beyond the returned
//!   [`KernelOutcome`] itself.
//!
//! [`event_driven_schedule_csr`] is the workspace-reuse entry point;
//! [`event_driven_schedule`] remains the one-shot convenience wrapper
//! (it builds the CSR form and a fresh workspace per call). Both produce
//! bit-identical schedules — `tests/differential_kernel.rs` enforces
//! this across every generator family × priority order × m, and a
//! proptest interleaves instances of different sizes through one
//! workspace to prove reuse cannot leak state between runs.
//!
//! Tie-breaking uses the same shared comparator
//! ([`sws_model::numeric::better_candidate`]) as the retained naive
//! oracles (the dev-only `sws_oracle` crate), so kernel and naive
//! paths select identical tasks wherever the comparator's tolerance-based
//! tie relation is transitive — which the differential test-suite checks
//! schedule-for-schedule across every generator family. The one
//! intentional difference is that the kernel marks processors only for
//! the *selected* candidate's probe (the paper's semantics), while the
//! naive oracle conservatively marks while evaluating every candidate;
//! the kernel's marked set is therefore a subset of the oracle's and
//! still satisfies the Lemma 4 bound.

use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;

use sws_dag::{CsrDag, DagInstance};
use sws_model::cancel::CancelProbe;
use sws_model::error::ModelError;
use sws_model::numeric::{approx_le, at_least, better_candidate, exceeds, finite_ge, strictly_lt};
use sws_model::schedule::TimedSchedule;

use crate::priority::PriorityRank;

/// Heap key for a non-negative finite time value: the IEEE-754 bit
/// pattern, whose unsigned integer order coincides with the numeric
/// order on non-negative floats (`+ 0.0` normalizes a possible `-0.0`).
/// Every time the kernel keys a heap on — ready times, start times,
/// loads — is a sum/max of validated non-negative task data, so the
/// integer comparison is exact *and* cheaper than `f64` ordering in the
/// sift paths.
#[inline]
fn time_key(t: f64) -> u64 {
    debug_assert!(finite_ge(t, 0.0), "time keys are non-negative finite");
    (t + 0.0).to_bits()
}

/// Packs a `(rank, task)` pair into one `u64` whose integer order is the
/// lexicographic pair order — one comparison per heap sift level instead
/// of two.
#[inline]
fn rank_task(rank: u32, task: u32) -> u64 {
    ((rank as u64) << 32) | task as u64
}

/// Task index of a [`rank_task`] pack.
#[inline]
fn task_of(pack: u64) -> u32 {
    pack as u32
}

/// Indexed **4-ary** min-heap over processor loads, ordered by
/// `(load, processor index)` so ties resolve towards the lowest index —
/// the same tie-break as the naive `argmin` scans.
///
/// Loads only ever increase (a placement raises one processor's load to
/// the placed task's completion time), so the heap needs only
/// `sift_down`. The layout is structure-of-arrays: one contiguous `key`
/// stripe of packed `(load bits << 32) | processor` integers (loads are
/// non-negative, so the bit pattern orders like the value — see
/// `time_key` — and the pack makes every sift comparison a *single*
/// integer compare with the index tie-break built in), plus the `pos`
/// index and the `f64` `load` array serving only by-processor lookups.
/// The 4-ary fanout puts all children of a node in one 64-byte stripe
/// (4 × 16-byte keys), and the min-of-children is a branchless select
/// tournament on the integer keys, so the once-per-round `set_load`
/// sift touches `log₄ m` predictable cache lines instead of `log₂ m`
/// scattered ones.
#[derive(Debug)]
pub struct ProcHeap {
    /// `key[pos]` = `(load bits << 32) | processor id`, min-heap ordered
    /// with 4-ary fanout (children of `i` are `4i+1 ..= 4i+4`).
    key: Vec<u128>,
    /// `pos[q]` = position of processor `q` in `key`.
    pos: Vec<u32>,
    /// Current load of each processor (kept in sync with the packed
    /// keys; serves the by-processor `load()` lookups).
    load: Vec<f64>,
}

/// Packs `(load, processor)` into one integer whose unsigned order is
/// the lexicographic pair order.
#[inline]
fn proc_key(load: f64, q: u32) -> u128 {
    ((time_key(load) as u128) << 32) | q as u128
}

/// Processor id of a [`proc_key`] pack.
#[inline]
fn proc_of_key(k: u128) -> usize {
    k as u32 as usize
}

impl Clone for ProcHeap {
    fn clone(&self) -> Self {
        ProcHeap {
            key: self.key.clone(),
            pos: self.pos.clone(),
            load: self.load.clone(),
        }
    }

    /// Buffer-reusing clone: checkpoint restores go through this so a
    /// resume does not re-allocate the heap arrays.
    fn clone_from(&mut self, source: &Self) {
        self.key.clone_from(&source.key);
        self.pos.clone_from(&source.pos);
        self.load.clone_from(&source.load);
    }
}

impl ProcHeap {
    /// A heap of `m` processors, all with zero load.
    pub fn new(m: usize) -> Self {
        let mut h = ProcHeap {
            key: Vec::new(),
            pos: Vec::new(),
            load: Vec::new(),
        };
        h.reset(m);
        h
    }

    /// An empty heap (no processors); [`ProcHeap::reset`] gives it a
    /// size. Used by workspaces that are constructed before the first
    /// instance is known.
    pub(crate) fn empty() -> Self {
        ProcHeap {
            key: Vec::new(),
            pos: Vec::new(),
            load: Vec::new(),
        }
    }

    /// Re-initializes to `m` processors of zero load, reusing the
    /// existing buffers (no allocation when the capacity suffices).
    pub fn reset(&mut self, m: usize) {
        assert!(m >= 1, "need at least one processor");
        assert!(m <= u32::MAX as usize, "processor ids fit in u32");
        self.key.clear();
        self.key.extend((0..m).map(|q| q as u128));
        self.pos.clear();
        self.pos.extend(0..m as u32);
        self.load.clear();
        self.load.resize(m, 0.0);
    }

    /// Number of processors.
    #[inline]
    pub fn m(&self) -> usize {
        self.load.len()
    }

    /// The least loaded processor (lowest index among ties).
    #[inline]
    pub fn min(&self) -> usize {
        proc_of_key(self.key[0])
    }

    /// The minimum load itself (the load of [`ProcHeap::min`]).
    #[inline]
    pub fn min_load(&self) -> f64 {
        f64::from_bits((self.key[0] >> 32) as u64)
    }

    /// Load of processor `q`.
    #[inline]
    pub fn load(&self, q: usize) -> f64 {
        self.load[q]
    }

    /// All loads, indexed by processor.
    #[inline]
    pub fn loads(&self) -> &[f64] {
        &self.load
    }

    // sws-lint: hot-path
    /// Raises the load of processor `q` (placements never lower a load).
    pub fn set_load(&mut self, q: usize, new_load: f64) {
        debug_assert!(
            new_load >= self.load[q],
            "loads are monotone non-decreasing"
        );
        self.load[q] = new_load;
        let at = self.pos[q] as usize;
        self.key[at] = proc_key(new_load, q as u32);
        self.sift_down(at);
    }

    /// Position of the smallest child of the (full, 4-child) node whose
    /// first child sits at `first`: a branchless select tournament — two
    /// leaf minima, then their minimum — with no data-dependent branch
    /// for the integer comparator to mispredict.
    #[inline]
    fn min_child4(&self, first: usize) -> usize {
        let a = if self.key[first + 1] < self.key[first] {
            first + 1
        } else {
            first
        };
        let b = if self.key[first + 3] < self.key[first + 2] {
            first + 3
        } else {
            first + 2
        };
        if self.key[b] < self.key[a] {
            b
        } else {
            a
        }
    }

    fn sift_down(&mut self, mut at: usize) {
        loop {
            let first = 4 * at + 1;
            if first >= self.key.len() {
                return;
            }
            // Full nodes (the common case on every non-last level) take
            // the branchless tournament; the at-most-one ragged node at
            // the end falls back to a short scan.
            let best = if first + 4 <= self.key.len() {
                self.min_child4(first)
            } else {
                let mut b = first;
                for c in first + 1..self.key.len() {
                    if self.key[c] < self.key[b] {
                        b = c;
                    }
                }
                b
            };
            if self.key[at] <= self.key[best] {
                return;
            }
            self.key.swap(at, best);
            self.pos[proc_of_key(self.key[at])] = at as u32;
            self.pos[proc_of_key(self.key[best])] = best as u32;
            at = best;
        }
    }
    // sws-lint: end-hot-path

    /// Visits processors in increasing `(load, index)` order until `admit`
    /// accepts one; returns the accepted processor together with the
    /// processors skipped on the way (all rejected, all with a key no
    /// larger than the accepted one). `None` when every processor is
    /// rejected. Allocating convenience wrapper over
    /// [`ProcHeap::probe_with`].
    pub fn probe<F: FnMut(usize) -> bool>(&self, admit: F) -> Option<(usize, Vec<usize>)> {
        let mut frontier = Vec::new();
        let mut skipped = Vec::new();
        self.probe_with(admit, &mut frontier, &mut skipped)
            .map(|q| (q, skipped))
    }

    // sws-lint: hot-path
    /// Allocation-free probe: the traversal frontier lives in `frontier`
    /// (cleared on entry) and skipped processors are **appended** to
    /// `skipped` (the caller records the starting length), so the hot
    /// loop reuses two workspace buffers instead of allocating two
    /// vectors per probe.
    ///
    /// The traversal expands the heap lazily, so accepting the first
    /// probe — the overwhelmingly common case — costs `O(1)`. The visit
    /// order depends only on the key order, not the heap shape, so the
    /// 4-ary layout reports the same skipped sets as the old binary one.
    pub fn probe_with<F: FnMut(usize) -> bool>(
        &self,
        mut admit: F,
        frontier: &mut Vec<usize>,
        skipped: &mut Vec<usize>,
    ) -> Option<usize> {
        // Frontier of heap positions whose parents were all visited; the
        // next processor in sorted order is always the frontier minimum.
        // Linear scans are fine: the frontier holds ≤ 4·skips + 1 entries
        // and skips are zero in the unrestricted use and rare in the
        // RLS∆ use (a skip needs a memory-saturated processor below the
        // chosen one's load; unlike marking, skips can recur across
        // rounds, but each costs only the probe that discovers it).
        frontier.clear();
        frontier.push(0);
        while !frontier.is_empty() {
            let mut best = 0;
            for fi in 1..frontier.len() {
                if self.key[frontier[fi]] < self.key[frontier[best]] {
                    best = fi;
                }
            }
            let pos = frontier.swap_remove(best);
            let q = proc_of_key(self.key[pos]);
            if admit(q) {
                return Some(q);
            }
            skipped.push(q);
            let first = 4 * pos + 1;
            for child in first..(first + 4).min(self.key.len()) {
                frontier.push(child);
            }
        }
        None
    }
    // sws-lint: end-hot-path
}

/// Packs a pending-heap entry: ready time above, `(rank, task)` pack
/// below, so unsigned `u128` order is the lexicographic
/// `(ready, rank, task)` order — the exact pop order of the old
/// `BinaryHeap<Reverse<(u64, u64)>>`, in a single compare per sift
/// level.
#[inline]
fn pend_key(ready: f64, pack: u64) -> u128 {
    ((time_key(ready) as u128) << 64) | pack as u128
}

/// Ready time of a [`pend_key`] entry.
#[inline]
fn pend_ready(k: u128) -> f64 {
    f64::from_bits((k >> 64) as u64)
}

/// `(rank, task)` pack of a [`pend_key`] entry.
#[inline]
fn pend_pack(k: u128) -> u64 {
    k as u64
}

/// 4-ary implicit min-heap of [`pend_key`] entries — the *pending* side
/// of the ready structure (tasks whose ready time still exceeds the
/// minimum load). Entries are unique (the pack carries the task id), so
/// the pop sequence is determined by the key order alone; the 4-ary
/// layout buys half the levels, one integer compare per level, and all
/// four children of a node in two adjacent cache lines.
///
/// # Tie groups
///
/// One entry stands for a **tie group**: the tasks one placement
/// released with bit-identical ready times (a fork's children), linked
/// in `(rank, task)` order through [`PredState::next`]. The entry is
/// the head's key; since every member shares the head's ready time, the
/// heap orders groups exactly as it would order their members, and a
/// fork of `k` children costs one entry instead of `k`.
#[derive(Debug, Default)]
struct PendingHeap {
    heap: Vec<u128>,
    /// Pops since the last [`PendingHeap::clear`] (the kernel's
    /// pending-traffic count, read by the unit tests).
    pops: u64,
}

impl Clone for PendingHeap {
    fn clone(&self) -> Self {
        PendingHeap {
            heap: self.heap.clone(),
            pops: self.pops,
        }
    }

    /// Buffer-reusing clone for checkpoint restores.
    fn clone_from(&mut self, source: &Self) {
        self.heap.clone_from(&source.heap);
        self.pops = source.pops;
    }
}

impl PendingHeap {
    fn clear(&mut self) {
        self.heap.clear();
        self.pops = 0;
    }

    fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    // sws-lint: hot-path
    #[inline]
    fn peek(&self) -> Option<u128> {
        self.heap.first().copied()
    }

    fn push(&mut self, k: u128) {
        self.heap.push(k);
        // Sift up, hole-style: the new key is moved once, parents slide
        // down past it.
        let mut at = self.heap.len() - 1;
        while at > 0 {
            let parent = (at - 1) / 4;
            if self.heap[parent] <= k {
                break;
            }
            self.heap[at] = self.heap[parent];
            at = parent;
        }
        self.heap[at] = k;
    }

    fn pop(&mut self) -> Option<u128> {
        let top = self.heap.first().copied()?;
        self.pops += 1;
        let last = self.heap.pop().expect("non-empty: peeked above");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some(top)
    }

    fn sift_down(&mut self, mut at: usize) {
        loop {
            let first = 4 * at + 1;
            if first >= self.heap.len() {
                return;
            }
            let best = if first + 4 <= self.heap.len() {
                // Branchless select tournament over the full 4-child
                // stripe (see [`ProcHeap::min_child4`]).
                let a = if self.heap[first + 1] < self.heap[first] {
                    first + 1
                } else {
                    first
                };
                let b = if self.heap[first + 3] < self.heap[first + 2] {
                    first + 3
                } else {
                    first + 2
                };
                if self.heap[b] < self.heap[a] {
                    b
                } else {
                    a
                }
            } else {
                let mut b = first;
                for c in first + 1..self.heap.len() {
                    if self.heap[c] < self.heap[b] {
                        b = c;
                    }
                }
                b
            };
            if self.heap[at] <= self.heap[best] {
                return;
            }
            self.heap.swap(at, best);
            at = best;
        }
    }
    // sws-lint: end-hot-path
}

/// Hierarchical bitmap over priority *slots* — the *runnable* side of
/// the ready structure, and the payoff of quantizing the ready-queue
/// keys all the way down: once a task's key is its dense rank in the
/// canonical `(rank, task)` order, the "heap" holding runnable tasks
/// collapses to one bit per slot. Three `u64` levels (each summarizing
/// 64 words of the one below) give `O(1)` insert, remove and find-min —
/// a handful of L1 lines for `n = 10⁴` (≈1.3 KB) where the old binary
/// heap sifted 8-byte packs across `log₂ n ≈ 13` scattered lines.
#[derive(Debug, Default)]
struct RankBitmap {
    /// Bit `s` of `l0[s / 64]` = slot `s` present.
    l0: Vec<u64>,
    /// Bit `w` of `l1[w / 64]` = word `l0[w]` non-zero.
    l1: Vec<u64>,
    /// Bit `w` of `l2[w / 64]` = word `l1[w]` non-zero.
    l2: Vec<u64>,
}

impl Clone for RankBitmap {
    fn clone(&self) -> Self {
        RankBitmap {
            l0: self.l0.clone(),
            l1: self.l1.clone(),
            l2: self.l2.clone(),
        }
    }

    /// Buffer-reusing clone for checkpoint restores.
    fn clone_from(&mut self, source: &Self) {
        self.l0.clone_from(&source.l0);
        self.l1.clone_from(&source.l1);
        self.l2.clone_from(&source.l2);
    }
}

/// Words needed to hold `n` bits.
#[inline]
fn bitmap_words(n: usize) -> usize {
    n.div_ceil(64)
}

impl RankBitmap {
    /// Clears and re-sizes for slots `0..n`, reusing the buffers.
    fn reset(&mut self, n: usize) {
        let w0 = bitmap_words(n);
        let w1 = bitmap_words(w0);
        let w2 = bitmap_words(w1);
        self.l0.clear();
        self.l0.resize(w0, 0);
        self.l1.clear();
        self.l1.resize(w1, 0);
        self.l2.clear();
        self.l2.resize(w2, 0);
    }

    fn reserve(&mut self, n: usize) {
        self.l0.reserve(bitmap_words(n));
    }

    /// Extends the slot space to `0..n` **without clearing**: appended
    /// words are zero, so every present bit and all three summary
    /// levels stay valid verbatim. Used when a replay adapts a restored
    /// state to an instance that grew by an arrival.
    fn grow(&mut self, n: usize) {
        let w0 = bitmap_words(n);
        let w1 = bitmap_words(w0);
        let w2 = bitmap_words(w1);
        if self.l0.len() < w0 {
            self.l0.resize(w0, 0);
        }
        if self.l1.len() < w1 {
            self.l1.resize(w1, 0);
        }
        if self.l2.len() < w2 {
            self.l2.resize(w2, 0);
        }
    }

    // sws-lint: hot-path
    /// Marks slot `s` present. Unconditional ORs on all three levels —
    /// no branches, three L1 lines.
    #[inline]
    fn insert(&mut self, s: u32) {
        let s = s as usize;
        let w0 = s >> 6;
        let w1 = w0 >> 6;
        self.l0[w0] |= 1 << (s & 63);
        self.l1[w1] |= 1 << (w0 & 63);
        self.l2[w1 >> 6] |= 1 << (w1 & 63);
    }

    /// Clears slot `s`; summary bits clear only when a word empties.
    #[inline]
    fn remove(&mut self, s: u32) {
        let s = s as usize;
        let w0 = s >> 6;
        self.l0[w0] &= !(1 << (s & 63));
        if self.l0[w0] == 0 {
            let w1 = w0 >> 6;
            self.l1[w1] &= !(1 << (w0 & 63));
            if self.l1[w1] == 0 {
                self.l2[w1 >> 6] &= !(1 << (w1 & 63));
            }
        }
    }

    /// The smallest present slot: first set bit, found by descending the
    /// summary levels (the top level is a single word up to
    /// `n = 64³ = 262 144`; larger instances scan it linearly).
    #[inline]
    fn min(&self) -> Option<u32> {
        let w2i = self.l2.iter().position(|&w| w != 0)?;
        let w1i = (w2i << 6) | self.l2[w2i].trailing_zeros() as usize;
        let w0i = (w1i << 6) | self.l1[w1i].trailing_zeros() as usize;
        Some(((w0i << 6) | self.l0[w0i].trailing_zeros() as usize) as u32)
    }

    /// Pops the smallest present slot.
    #[inline]
    fn pop_min(&mut self) -> Option<u32> {
        let s = self.min()?;
        self.remove(s);
        Some(s)
    }
    // sws-lint: end-hot-path
}

/// Pluggable admissibility predicate deciding which processors may
/// receive a task.
pub trait Admission {
    /// May a task with storage requirement `s` be placed on processor `q`?
    fn admits(&self, q: usize, s: f64) -> bool;

    /// Records the placement of a task with storage requirement `s` on
    /// processor `q`.
    fn commit(&mut self, q: usize, s: f64);

    /// The error reported when no processor admits a task with storage
    /// requirement `s`.
    fn rejection_error(&self, s: f64) -> ModelError {
        ModelError::MemoryExceeded {
            proc: 0,
            used: s,
            capacity: f64::INFINITY,
        }
    }
}

/// Plain Graham list scheduling: every processor is always admissible.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unrestricted;

impl Admission for Unrestricted {
    #[inline]
    fn admits(&self, _q: usize, _s: f64) -> bool {
        true
    }

    #[inline]
    fn commit(&mut self, _q: usize, _s: f64) {}
}

/// RLS∆'s restriction: processor `q` admits a task of storage `s` iff
/// `memsize[q] + s ≤ cap` (with the shared tolerance), where
/// `cap = ∆·LB`.
#[derive(Debug, Clone)]
pub struct MemoryCapAdmission {
    memsize: Vec<f64>,
    cap: f64,
}

impl MemoryCapAdmission {
    /// A fresh restriction over `m` processors with memory cap `cap`.
    pub fn new(m: usize, cap: f64) -> Self {
        MemoryCapAdmission {
            memsize: vec![0.0; m],
            cap,
        }
    }

    /// Re-initializes for a new run over `m` processors with cap `cap`,
    /// reusing the committed-memory buffer (no allocation when the
    /// capacity suffices) — the per-run reset of the batch and sweep
    /// serving paths.
    pub fn reset(&mut self, m: usize, cap: f64) {
        self.memsize.clear();
        self.memsize.resize(m, 0.0);
        self.cap = cap;
    }

    /// Per-processor memory committed so far.
    pub fn memsize(&self) -> &[f64] {
        &self.memsize
    }

    /// The enforced cap `∆·LB`.
    pub fn cap(&self) -> f64 {
        self.cap
    }
}

impl Admission for MemoryCapAdmission {
    #[inline]
    fn admits(&self, q: usize, s: f64) -> bool {
        approx_le(self.memsize[q] + s, self.cap)
    }

    #[inline]
    fn commit(&mut self, q: usize, s: f64) {
        self.memsize[q] += s;
    }

    /// Names the fullest processor (lowest index on ties): the one
    /// whose usage with the task, `used`, comes closest to the cap.
    fn rejection_error(&self, s: f64) -> ModelError {
        let proc = (1..self.memsize.len()).fold(0, |best, q| {
            if exceeds(self.memsize[q], self.memsize[best]) {
                q
            } else {
                best
            }
        });
        ModelError::MemoryExceeded {
            proc,
            used: self.memsize[proc] + s,
            capacity: self.cap,
        }
    }
}

/// The kernel's output: the schedule plus the Lemma-4 "marked processor"
/// bookkeeping (processors skipped by a winning probe while strictly less
/// loaded than the chosen processor).
#[derive(Debug, Clone)]
pub struct KernelOutcome {
    /// The produced schedule `(π, σ)`.
    pub schedule: TimedSchedule,
    /// Which processors were marked during the run.
    pub marked: Vec<bool>,
}

/// One selection candidate of the current round. Skipped processors are
/// recorded as a range into the round's shared `ProbeScratch::skipped`
/// buffer rather than a per-candidate vector.
#[derive(Debug, Clone)]
struct Candidate {
    /// Earliest start `max(ready time, load of chosen processor)`.
    key: f64,
    /// Tie-break rank.
    rank: u32,
    /// Task index.
    task: u32,
    /// Chosen processor.
    proc: u32,
    /// Processors skipped by the probe (inadmissible, no more loaded),
    /// as a range into the round's shared skipped buffer.
    skipped: Range<u32>,
    /// The tie-group member just ahead of this task, [`NO_TASK`] for a
    /// group head or a runnable task.
    prev: u32,
}

/// Selection buffers of a *contested* round (more than one candidate in
/// play): the popped ready entries that may need restoring and the
/// candidate list the comparator folds over.
#[derive(Debug, Default)]
struct SelectScratch {
    /// Runnable tasks popped this round, `(slot, task)`.
    popped_runnable: Vec<(u32, u32)>,
    /// Pending group heads popped this round (their full keys, so losing
    /// groups are re-pushed bit-exactly).
    popped_pending: Vec<u128>,
    /// Selection candidates of the round.
    cands: Vec<Candidate>,
}

/// Probe buffers, touched only when an *inadmissible* processor sits at
/// the load minimum (the memory-capped paths' rare case).
#[derive(Debug, Default)]
struct ProbeScratch {
    /// Probe traversal frontier ([`ProcHeap::probe_with`]).
    frontier: Vec<usize>,
    /// Processors skipped by this round's probes, shared across
    /// candidates (each candidate holds a range).
    skipped: Vec<usize>,
}

/// Per-round scratch of the scheduling loop: logically dead between
/// rounds, excluded from checkpoint snapshots, and owned by the
/// [`KernelWorkspace`] so its allocations are reused across rounds *and*
/// across runs.
///
/// The layout is split along the round-shape axis: the uncontested fast
/// path (one admissible top candidate, no competition — the
/// overwhelmingly common round) touches only the two leading staging
/// buffer headers, one cache line; the contested-round selection buffers
/// and, behind those, the probe buffers only reachable through an
/// inadmissible load minimum, sit in separate structs so the fast path
/// never pulls their lines.
#[derive(Debug, Default)]
struct StepScratch {
    /// Batched-frontier staging of [`EngineState::place`]: tasks whose
    /// last predecessor the current placement was.
    newly_ready: Vec<u32>,
    /// The pending-bound part of `newly_ready`, as [`pend_key`]s sorted
    /// into tie groups.
    newly_pending: Vec<u128>,
    /// Contested rounds only.
    sel: SelectScratch,
    /// Contested rounds with inadmissible load minima only.
    probe: ProbeScratch,
}

impl StepScratch {
    fn clear(&mut self) {
        self.newly_ready.clear();
        self.newly_pending.clear();
        self.sel.popped_runnable.clear();
        self.sel.popped_pending.clear();
        self.sel.cands.clear();
        self.probe.frontier.clear();
        self.probe.skipped.clear();
    }
}

/// Per-task readiness bookkeeping, fused so a successor update touches
/// one cache line instead of two parallel arrays. The tie-group link
/// fills the four bytes that would otherwise pad the struct to 16, so
/// carrying it costs no memory in the state or its snapshots.
#[derive(Debug, Clone, Copy, Default)]
struct PredState {
    /// Maximum completion time over scheduled predecessors, maintained
    /// incrementally as predecessors are placed.
    ready: f64,
    /// Predecessors not yet scheduled.
    remaining: u32,
    /// The next member of this task's pending tie group (see
    /// [`PendingHeap`]), [`NO_TASK`] at the group's tail. Meaningful only
    /// while the task is pending.
    next: u32,
}

/// The "no task" link of a tie group (task ids are `< n < u32::MAX`).
const NO_TASK: u32 = u32::MAX;

/// Resumable mid-run state of the event-driven scheduler: the ready
/// structures, the indexed processor-load heap, the incremental Lemma-4
/// marked-processor bookkeeping, and the partial schedule built so far.
///
/// The scheduling loop is fully deterministic given a state and an
/// admissibility predicate, so a state restored from a stride-boundary
/// checkpoint and replayed with the same verdicts reproduces the
/// original run bit for bit — the property the checkpoint/replay
/// machinery ([`CheckpointedRun`]) is built on. A checkpoint stores
/// only the part of the state a replay cannot rebuild (see
/// [`CheckpointedRun`]'s snapshot docs), so the state itself is not
/// `Clone`. The readiness entry of a task is frozen once the task is
/// placed and never read again: after a restore, the entries of placed
/// tasks are dead and may hold whatever the workspace last ran.
///
/// Task and rank indices are stored as `u32` (the CSR layer guarantees
/// `n < u32::MAX`), which halves the ready structures' memory traffic.
///
/// # Slots
///
/// The runnable structure is a `RankBitmap` indexed by **slot**: the
/// task's position in the canonical ascending `(rank, task)` order —
/// exactly the pop order of the `rank_task`-packed heap it replaces.
/// When the priority rank is a permutation of `0..n` (every built-in
/// constructor), `slot == rank` and the slot tables are a copy and a
/// scatter; degenerate ranks (duplicates, `u32::MAX` sentinels) fall
/// back to sorting the packs once per run. Either way the bitmap pops
/// tasks in the identical sequence, so schedules are bit-identical.
///
/// # Tie groups
///
/// The pending side holds one heap entry per tie group (see the
/// private `PendingHeap`); the group links live in `preds`, and a
/// snapshot stores the entries of the pending members to carry them.
/// A contested round walks each group it pops only up to the first
/// member admissible on the least loaded processor: every member
/// behind that one starts at
/// the same key with a worse `(rank, task)`, so — by the argument that
/// lets the runnable scan stop at its first such task, and wherever the
/// tolerant tie relation is transitive (see the module docs) — it
/// cannot win the round. Uncapped rounds therefore see group heads
/// only. A winning
/// head hands the heap entry to the next member, a winning later member
/// is unlinked and its head re-pushed, and a group whose ready time
/// reaches the minimum load moves to the runnable bitmap in one pass.
#[derive(Debug)]
pub struct EngineState {
    procs: ProcHeap,
    marked: Vec<bool>,
    /// Readiness of every task (incremental predecessor bookkeeping) and
    /// the pending tie-group links.
    preds: Vec<PredState>,
    proc_of: Vec<u32>,
    start: Vec<f64>,
    /// Tie groups of ready tasks whose ready time exceeds the current
    /// minimum load, keyed by the head's packed `(ready, rank, task)`
    /// [`pend_key`].
    pending: PendingHeap,
    /// Ready tasks whose ready time is (approximately) at or below the
    /// minimum load — their earliest start is the minimum load itself, so
    /// only the `(rank, task)` order ranks them: one bit per slot.
    runnable: RankBitmap,
    /// `slot_of_task[i]` = position of task `i` in the canonical
    /// `(rank, task)` order (run-constant after `init`).
    slot_of_task: Vec<u32>,
    /// Inverse of `slot_of_task` (run-constant after `init`).
    task_of_slot: Vec<u32>,
    /// Number of placements made so far.
    round: usize,
}

/// Sets `v`'s length to `n` without zeroing a reused prefix: every
/// element is overwritten before it is read (placement arrays are
/// written when their task is placed, and read only after all `n`
/// rounds), so carrying stale values from the previous run is safe and
/// saves the O(n) clear on every warm re-init.
fn resize_for_overwrite<T: Copy>(v: &mut Vec<T>, n: usize, fill: T) {
    if v.len() >= n {
        v.truncate(n);
    } else {
        v.resize(n, fill);
    }
}

impl EngineState {
    /// A state with no buffers; [`EngineState::init`] sizes it for an
    /// instance.
    fn empty() -> Self {
        EngineState {
            procs: ProcHeap::empty(),
            marked: Vec::new(),
            preds: Vec::new(),
            proc_of: Vec::new(),
            start: Vec::new(),
            pending: PendingHeap::default(),
            runnable: RankBitmap::default(),
            slot_of_task: Vec::new(),
            task_of_slot: Vec::new(),
            round: 0,
        }
    }

    /// Builds the slot tables of the `n = rank.len()` tasks `rank`
    /// covers (see the [`EngineState`] slot docs): `slot_of_task` is the
    /// rank itself when the rank is a permutation of `0..n`, detected in
    /// one scatter pass; otherwise the `(rank, task)` packs are sorted
    /// once.
    fn build_slots(&mut self, rank: &[u32]) {
        let n = rank.len();
        resize_for_overwrite(&mut self.slot_of_task, n, 0);
        resize_for_overwrite(&mut self.task_of_slot, n, 0);
        // Scatter the inverse, using u32::MAX as the "slot still free"
        // marker (task ids are < n < u32::MAX, so the marker is safe).
        self.task_of_slot.iter_mut().for_each(|t| *t = u32::MAX);
        let mut is_permutation = true;
        for (i, &r) in rank.iter().enumerate() {
            if (r as usize) < n && self.task_of_slot[r as usize] == u32::MAX {
                self.task_of_slot[r as usize] = i as u32;
            } else {
                is_permutation = false;
                break;
            }
        }
        if is_permutation {
            self.slot_of_task.copy_from_slice(rank);
            return;
        }
        // Degenerate rank (duplicates or out-of-range sentinels): sort
        // the packs to materialize the canonical order. Cold per-run
        // cost on a path no built-in priority constructor takes.
        let mut packs: Vec<u64> = (0..n).map(|i| rank_task(rank[i], i as u32)).collect();
        packs.sort_unstable();
        for (slot, &pk) in packs.iter().enumerate() {
            self.task_of_slot[slot] = task_of(pk);
            self.slot_of_task[task_of(pk) as usize] = slot as u32;
        }
    }

    /// Re-initializes for a run over `csr` on `m` processors, reusing
    /// every buffer: no placements yet, all source tasks ready at 0.
    /// The pending heap is reserved to `n` up front, so the cold first
    /// run grows its buffers exactly once and behaves like the reuse
    /// path afterwards.
    fn init(&mut self, csr: &CsrDag, m: usize, rank: &PriorityRank) {
        let n = csr.n();
        assert_eq!(rank.len(), n, "priority rank must cover every task");
        self.procs.reset(m);
        self.marked.clear();
        self.marked.resize(m, false);
        self.preds.clear();
        self.preds.extend((0..n).map(|i| PredState {
            ready: 0.0,
            remaining: csr.in_degree(i) as u32,
            next: NO_TASK,
        }));
        resize_for_overwrite(&mut self.proc_of, n, 0);
        resize_for_overwrite(&mut self.start, n, 0.0);
        self.pending.clear();
        self.pending.reserve(n);
        self.build_slots(rank);
        self.runnable.reset(n);
        // Source tasks are ready at 0 = the initial minimum load, so the
        // first round's migration would move every one of them to the
        // runnable structure; set their bits directly (equivalent, no
        // pending round trip).
        for (i, ps) in self.preds.iter().enumerate() {
            if ps.remaining == 0 {
                self.runnable.insert(self.slot_of_task[i]);
            }
        }
        self.round = 0;
    }

    // sws-lint: hot-path
    /// Executes one placement round, reporting the winning task and its
    /// start key (the replay machinery records them per round; plain
    /// runs discard them). Precondition: `rounds_done() < n`.
    fn step<A: Admission>(
        &mut self,
        csr: &CsrDag,
        rank: &PriorityRank,
        admission: &mut A,
        scratch: &mut StepScratch,
    ) -> Result<(u32, f64), ModelError> {
        let q1 = self.procs.min();
        let l1 = self.procs.min_load();

        // Migration: the minimum load only grows, so once a ready time is
        // (approximately) at or below it the task is runnable forever —
        // and with it the task's whole tie group.
        while let Some(k) = self.pending.peek() {
            if !approx_le(pend_ready(k), l1) {
                break;
            }
            self.pending.pop();
            let mut t = task_of(pend_pack(k));
            while t != NO_TASK {
                self.runnable.insert(self.slot_of_task[t as usize]);
                t = self.preds[t as usize].next;
            }
        }

        // Fast check for the dominant round shape: the best-ranked
        // runnable task is admissible on the least loaded processor and
        // no pending task's ready time reaches its start key, so the
        // full scan below would produce exactly this single candidate
        // (and the winning probe skips no processors). Equivalent by
        // construction — the runnable scan would break at this task,
        // and the pending scan's entry condition is the one tested here.
        // When a pending task *does* compete, the admissible top is
        // handed to the general path as its first candidate (the scan
        // below would stop there anyway).
        let mut admissible_top: Option<(u32, u32, f64)> = None;
        if let Some(slot) = self.runnable.min() {
            let i = self.task_of_slot[slot as usize];
            let s_i = csr.s(i as usize);
            if admission.admits(q1, s_i) {
                let key = self.preds[i as usize].ready.max(l1);
                // When the key is the minimum load itself, the migration
                // loop above already established that no pending ready
                // time reaches it (tolerantly) — skip the re-check.
                let contested = match self.pending.peek() {
                    Some(k) => key > l1 && approx_le(pend_ready(k), key),
                    None => false,
                };
                if !contested {
                    self.runnable.remove(slot);
                    self.place(csr, rank, admission, i as usize, q1, key, scratch);
                    return Ok((i, key));
                }
                admissible_top = Some((slot, i, key));
            }
        }

        scratch.sel.cands.clear();
        scratch.sel.popped_runnable.clear();
        scratch.sel.popped_pending.clear();
        scratch.probe.skipped.clear();

        // Runnable scan: in slot (= rank, task) order, stop at the first
        // task admissible on the least loaded processor — no later-slot
        // runnable task can beat it (its key is minimal and its rank
        // smaller or index-tied). Earlier-slot tasks rejected on q1 stay
        // candidates with their own probe.
        if let Some((slot, i, key)) = admissible_top {
            // The scan would pop exactly this task and break.
            self.runnable.remove(slot);
            scratch.sel.popped_runnable.push((slot, i));
            scratch.sel.cands.push(Candidate {
                key,
                rank: rank[i as usize],
                task: i,
                proc: q1 as u32,
                skipped: 0..0,
                prev: NO_TASK,
            });
        } else {
            while let Some(slot) = self.runnable.pop_min() {
                let i = self.task_of_slot[slot as usize];
                scratch.sel.popped_runnable.push((slot, i));
                let s_i = csr.s(i as usize);
                if admission.admits(q1, s_i) {
                    scratch.sel.cands.push(Candidate {
                        key: self.preds[i as usize].ready.max(l1),
                        rank: rank[i as usize],
                        task: i,
                        proc: q1 as u32,
                        skipped: 0..0,
                        prev: NO_TASK,
                    });
                    break;
                }
                let sk_start = scratch.probe.skipped.len() as u32;
                match self.procs.probe_with(
                    |q| admission.admits(q, s_i),
                    &mut scratch.probe.frontier,
                    &mut scratch.probe.skipped,
                ) {
                    Some(j) => scratch.sel.cands.push(Candidate {
                        key: self.preds[i as usize].ready.max(self.procs.load(j)),
                        rank: rank[i as usize],
                        task: i,
                        proc: j as u32,
                        skipped: sk_start..scratch.probe.skipped.len() as u32,
                        prev: NO_TASK,
                    }),
                    None => return Err(admission.rejection_error(s_i)),
                }
            }
        }

        // Pending scan: a pending task can only win while its ready time
        // is approximately at or below the best candidate key (its start
        // is at least its ready time). Each popped group is walked in
        // `(rank, task)` order up to its first member admissible on q1,
        // the last member that can win (see the EngineState docs).
        let mut best_key = scratch
            .sel
            .cands
            .iter()
            .map(|c| c.key)
            .fold(f64::INFINITY, f64::min);
        while let Some(k) = self.pending.peek() {
            let ready = pend_ready(k);
            if !approx_le(ready, best_key) {
                break;
            }
            self.pending.pop();
            scratch.sel.popped_pending.push(k);
            let (mut prev, mut i) = (NO_TASK, task_of(pend_pack(k)));
            while i != NO_TASK {
                let s_i = csr.s(i as usize);
                // The probe visits the least loaded processor first, so
                // an accept on q1 — the overwhelmingly common case —
                // needs no frontier machinery at all.
                if admission.admits(q1, s_i) {
                    let key = ready.max(l1);
                    best_key = best_key.min(key);
                    scratch.sel.cands.push(Candidate {
                        key,
                        rank: rank[i as usize],
                        task: i,
                        proc: q1 as u32,
                        skipped: 0..0,
                        prev,
                    });
                    break;
                }
                let sk_start = scratch.probe.skipped.len() as u32;
                match self.procs.probe_with(
                    |q| admission.admits(q, s_i),
                    &mut scratch.probe.frontier,
                    &mut scratch.probe.skipped,
                ) {
                    Some(j) => {
                        let key = ready.max(self.procs.load(j));
                        best_key = best_key.min(key);
                        scratch.sel.cands.push(Candidate {
                            key,
                            rank: rank[i as usize],
                            task: i,
                            proc: j as u32,
                            skipped: sk_start..scratch.probe.skipped.len() as u32,
                            prev,
                        });
                    }
                    None => return Err(admission.rejection_error(s_i)),
                }
                prev = i;
                i = self.preds[i as usize].next;
            }
        }

        // Selection: fold with the shared comparator in task-index order,
        // mirroring the naive oracle's scan. A single candidate — the
        // common case — wins outright.
        assert!(
            !scratch.sel.cands.is_empty(),
            "an acyclic graph always has a ready task while tasks remain"
        );
        let winner = if scratch.sel.cands.len() == 1 {
            scratch.sel.cands.pop().expect("len checked above")
        } else {
            scratch.sel.cands.sort_unstable_by_key(|c| c.task);
            let mut w = 0;
            for ci in 1..scratch.sel.cands.len() {
                if better_candidate(
                    scratch.sel.cands[ci].key,
                    scratch.sel.cands[ci].rank as usize,
                    scratch.sel.cands[w].key,
                    scratch.sel.cands[w].rank as usize,
                ) {
                    w = ci;
                }
            }
            scratch.sel.cands.swap_remove(w)
        };

        // Restore the candidates that lost.
        for pi in 0..scratch.sel.popped_runnable.len() {
            let (slot, i) = scratch.sel.popped_runnable[pi];
            if i != winner.task {
                self.runnable.insert(slot);
            }
        }
        for pi in 0..scratch.sel.popped_pending.len() {
            let k = scratch.sel.popped_pending[pi];
            if task_of(pend_pack(k)) != winner.task {
                self.pending.push(k);
                continue;
            }
            // The head won: the next member, if any, heads the group.
            let next = self.preds[winner.task as usize].next;
            if next != NO_TASK {
                let pack = rank_task(rank[next as usize], next);
                self.pending.push(pend_key(pend_ready(k), pack));
            }
        }
        if winner.prev != NO_TASK {
            // A later member won: unlink it (its head was re-pushed).
            self.preds[winner.prev as usize].next = self.preds[winner.task as usize].next;
        }

        // Lemma-4 bookkeeping: the winning probe skipped exactly the
        // processors that were less loaded than the chosen one but
        // inadmissible ("marked" in the paper's analysis). Skipped
        // processors with a load equal to the chosen one are not marked,
        // matching the naive oracle's strict comparison.
        let i = winner.task as usize;
        let j = winner.proc as usize;
        let chosen_load = self.procs.load(j);
        for &q in &scratch.probe.skipped[winner.skipped.start as usize..winner.skipped.end as usize]
        {
            if self.procs.load(q) < chosen_load {
                self.marked[q] = true;
            }
        }

        let key = winner.key;
        self.place(csr, rank, admission, i, j, key, scratch);
        Ok((i as u32, key))
    }

    /// Places task `i` on processor `j` starting at `key` and fires its
    /// completion event (shared tail of the fast and general selection
    /// paths).
    ///
    /// The completion event is a **batched frontier update**: one
    /// sequential pass over the CSR successor slice performs the
    /// readiness decrements and stages the tasks whose last predecessor
    /// this was in `scratch.newly_ready`; the ready-structure insertions
    /// then run as a single bulk pass. Splitting the passes keeps the
    /// decrement loop a pure array walk (no heap/bitmap lines
    /// interleaved into its stride) and lets the pushes batch against
    /// one post-placement `min_load` read.
    #[allow(clippy::too_many_arguments)]
    fn place<A: Admission>(
        &mut self,
        csr: &CsrDag,
        rank: &PriorityRank,
        admission: &mut A,
        i: usize,
        j: usize,
        key: f64,
        scratch: &mut StepScratch,
    ) {
        self.proc_of[i] = j as u32;
        self.start[i] = key;
        let completion = key + csr.p(i);
        self.procs.set_load(j, completion);
        admission.commit(j, csr.s(i));

        scratch.newly_ready.clear();
        for &v in csr.succs(i) {
            let v = v as usize;
            let ps = &mut self.preds[v];
            // Branchless max: completion and ready are non-negative and
            // never NaN, so `f64::max` matches the conditional update.
            ps.ready = ps.ready.max(completion);
            ps.remaining -= 1;
            if ps.remaining == 0 {
                scratch.newly_ready.push(v as u32);
            }
        }

        // Bulk insertion pass. A successor whose ready time is already
        // (approximately) at or below the current minimum load goes
        // straight to the runnable bitmap: the minimum load never
        // decreases and `approx_le` is monotone in its second argument,
        // so the next round's migration would move it there anyway —
        // skipping the pending round trip halves the structure traffic
        // on wide ready fronts.
        let l_min = self.procs.min_load();
        scratch.newly_pending.clear();
        for ni in 0..scratch.newly_ready.len() {
            let v = scratch.newly_ready[ni] as usize;
            let ready = self.preds[v].ready;
            if approx_le(ready, l_min) {
                self.runnable.insert(self.slot_of_task[v]);
            } else {
                scratch
                    .newly_pending
                    .push(pend_key(ready, rank_task(rank[v], v as u32)));
            }
        }
        // The rest enter the pending heap as tie groups: sorted by key,
        // each run of bit-identical ready times is linked in
        // `(rank, task)` order and pushed as its head.
        scratch.newly_pending.sort_unstable();
        for group in scratch.newly_pending.chunk_by(|a, b| a >> 64 == b >> 64) {
            for pair in group.windows(2) {
                self.preds[task_of(pend_pack(pair[0])) as usize].next = task_of(pend_pack(pair[1]));
            }
            let tail = group[group.len() - 1];
            self.preds[task_of(pend_pack(tail)) as usize].next = NO_TASK;
            self.pending.push(group[0]);
        }

        self.round += 1;
    }
    // sws-lint: end-hot-path

    /// Copies a completed state (every round executed) into the kernel's
    /// outcome. Borrows instead of consuming so the state's buffers stay
    /// in the workspace for the next run. Each copy writes straight into
    /// the schedule's shared buffer (one allocation, no intermediate
    /// `Vec`). The schedule's invariants hold by construction
    /// (processors come from the heap, starts from non-negative keys),
    /// so the unchecked constructor skips the re-validation passes.
    fn finish(&self, m: usize) -> Result<KernelOutcome, ModelError> {
        let proc_of: Arc<[usize]> = self.proc_of.iter().map(|&q| q as usize).collect();
        let schedule = TimedSchedule::new_unchecked(proc_of, &self.start[..], m);
        Ok(KernelOutcome {
            schedule,
            marked: self.marked.clone(),
        })
    }
}

/// Reusable per-run buffers of the scheduling kernel: the resumable
/// [`EngineState`], the per-round scratch, and the snapshot staging slot
/// of [`CheckpointedRun`]s. Construct once (per
/// thread / per rayon worker), thread `&mut` through any number of runs
/// — each run re-initializes the buffers without freeing them, so
/// steady-state scheduling performs no heap allocation beyond the
/// returned [`KernelOutcome`].
///
/// Reuse is **stateless across runs by construction**: every buffer is
/// fully re-initialized from the instance at the start of a run
/// (`EngineState::init`), which the differential suite and a
/// dedicated interleaving proptest verify bit-for-bit.
#[derive(Debug)]
pub struct KernelWorkspace {
    state: EngineState,
    scratch: StepScratch,
    /// The current stride's boundary snapshot of a checkpointed run,
    /// persisted only if that stride records a rejection (see
    /// [`CheckpointedRun`]); reused across strides and runs otherwise.
    staged: Checkpoint,
    probe: CancelProbe,
}

impl Default for KernelWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        KernelWorkspace {
            state: EngineState::empty(),
            scratch: StepScratch::default(),
            staged: Checkpoint::empty(),
            probe: CancelProbe::never(),
        }
    }

    /// Arms a cooperative cancellation/deadline probe: runs through this
    /// workspace poll it every [`PROBE_STRIDE`] rounds and stop with
    /// `ModelError::Interrupted` once it trips. The workspace stays
    /// reusable after an interrupted run.
    pub fn set_probe(&mut self, probe: CancelProbe) {
        self.probe = probe;
    }

    /// Disarms the probe (the default).
    pub fn clear_probe(&mut self) {
        self.probe = CancelProbe::never();
    }

    /// The currently armed probe (never-tripping by default). Backends
    /// that run outside the kernel loop (PTAS, exact enumeration) read
    /// it here so one workspace carries the signal to every backend.
    pub fn probe(&self) -> &CancelProbe {
        &self.probe
    }

    /// A workspace pre-sized for instances of up to `n` tasks on up to
    /// `m` processors, so even the first run allocates up front instead
    /// of growing mid-run.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut ws = Self::new();
        ws.state.marked.reserve(m);
        ws.state.preds.reserve(n);
        ws.state.proc_of.reserve(n);
        ws.state.start.reserve(n);
        ws.state.pending.reserve(n);
        ws.state.runnable.reserve(n);
        ws.state.slot_of_task.reserve(n);
        ws.state.task_of_slot.reserve(n);
        ws.state.procs.key.reserve(m);
        ws.state.procs.pos.reserve(m);
        ws.state.procs.load.reserve(m);
        ws
    }
}

/// Event-driven list scheduling of a precedence-constrained instance.
///
/// `rank` gives the tie-break rank of every task (lower = preferred);
/// `admission` decides which processors may receive each task. With
/// [`Unrestricted`] this computes Graham DAG list scheduling; with
/// [`MemoryCapAdmission`] it computes the paper's RLS∆.
///
/// One-shot convenience wrapper: builds the CSR mirror and a fresh
/// workspace per call. Throughput callers (sweeps, batches) should
/// build the [`CsrDag`] once per instance and reuse a
/// [`KernelWorkspace`] through [`event_driven_schedule_csr`].
pub fn event_driven_schedule<A: Admission>(
    inst: &DagInstance,
    rank: &PriorityRank,
    admission: &mut A,
) -> Result<KernelOutcome, ModelError> {
    let csr = inst.csr();
    let mut ws = KernelWorkspace::with_capacity(inst.n(), inst.m());
    event_driven_schedule_csr(&csr, inst.m(), rank, admission, &mut ws)
}

/// [`event_driven_schedule`] over the flat CSR instance form with an
/// explicit reusable workspace — the allocation-free serving path.
/// Produces bit-identical output to the wrapper.
pub fn event_driven_schedule_csr<A: Admission>(
    csr: &CsrDag,
    m: usize,
    rank: &PriorityRank,
    admission: &mut A,
    ws: &mut KernelWorkspace,
) -> Result<KernelOutcome, ModelError> {
    let n = csr.n();
    ws.state.init(csr, m, rank);
    ws.scratch.clear();
    while ws.state.round < n {
        if ws.state.round.is_multiple_of(PROBE_STRIDE) {
            ws.probe.poll()?;
        }
        ws.state.step(csr, rank, admission, &mut ws.scratch)?;
    }
    ws.state.finish(m)
}

/// Rounds between cancellation-probe polls: cancellation latency is
/// bounded by this many rounds, while an unarmed poll every 64 rounds
/// stays far below the cost of a single scheduling round.
pub const PROBE_STRIDE: usize = 64;

/// [`MemoryCapAdmission`] wrapper that additionally records, per round,
/// the smallest inadmissible `memsize[q] + s` value probed. Interior
/// mutability because [`Admission::admits`] takes `&self` (heap probes
/// borrow the predicate immutably).
/// At cap `+∞` it admits everything and records nothing (see
/// [`CheckpointedRun`]).
#[derive(Debug)]
struct RecordingCapAdmission {
    inner: MemoryCapAdmission,
    round_reject_min: Cell<f64>,
}

impl RecordingCapAdmission {
    fn new(memsize: Vec<f64>, cap: f64) -> Self {
        RecordingCapAdmission {
            inner: MemoryCapAdmission { memsize, cap },
            round_reject_min: Cell::new(f64::INFINITY),
        }
    }

    /// The smallest value rejected since the last call (∞ when none),
    /// resetting the recorder for the next round.
    fn take_round_min(&self) -> f64 {
        self.round_reject_min.replace(f64::INFINITY)
    }
}

impl Admission for RecordingCapAdmission {
    #[inline]
    fn admits(&self, q: usize, s: f64) -> bool {
        // Delegate the verdict so it can never drift from the predicate
        // the plain (cold) runs use — the warm/cold bit-identity contract
        // depends on the two computing exactly the same answer.
        if self.inner.admits(q, s) {
            true
        } else {
            let v = self.inner.memsize[q] + s;
            if v < self.round_reject_min.get() {
                self.round_reject_min.set(v);
            }
            false
        }
    }

    #[inline]
    fn commit(&mut self, q: usize, s: f64) {
        self.inner.commit(q, s);
    }

    fn rejection_error(&self, s: f64) -> ModelError {
        self.inner.rejection_error(s)
    }
}

/// Interval between state snapshots of a [`CheckpointedRun`]: bounded
/// below so tiny instances don't snapshot every round, and proportional
/// to `n` so a run never stores more than ~33 snapshots.
fn checkpoint_stride(n: usize) -> usize {
    (n / 32).max(32)
}

/// One stride-boundary snapshot of a checkpointed run, taken *before*
/// round `round`: the part of the [`EngineState`] a replay cannot
/// rebuild (the processor heap, the marked processors, both ready
/// structures and the readiness entries of the pending tie-group
/// members, whose links record release order) plus the per-processor
/// memory committed so far: `O(m + pending + n/64)` words. It holds no
/// placement, no slot table and no other readiness entry:
/// [`CheckpointedRun`]'s restore rebuilds them (see its snapshot docs).
#[derive(Debug)]
struct Checkpoint {
    round: usize,
    /// Tasks in the instance when the snapshot was taken.
    n: usize,
    procs: ProcHeap,
    marked: Vec<bool>,
    /// `(task, entry)` of every pending tie-group member, group by group.
    members: Vec<(u32, PredState)>,
    pending: PendingHeap,
    runnable: RankBitmap,
    memsize: Vec<f64>,
}

impl Checkpoint {
    /// A snapshot with no buffers: the workspace's staging slot before
    /// its first use, and after a staged snapshot moves out to persist.
    fn empty() -> Self {
        Checkpoint {
            round: 0,
            n: 0,
            procs: ProcHeap::empty(),
            marked: Vec::new(),
            members: Vec::new(),
            pending: PendingHeap::default(),
            runnable: RankBitmap::default(),
            memsize: Vec::new(),
        }
    }

    /// Snapshots `state` before its next round, with the committed
    /// `memsize`, into this snapshot's buffers (reusing their
    /// allocations).
    fn stage(&mut self, state: &EngineState, memsize: &[f64]) {
        self.round = state.round;
        self.n = state.preds.len();
        self.procs.clone_from(&state.procs);
        self.marked.clone_from(&state.marked);
        self.members.clear();
        for &k in &state.pending.heap {
            let mut t = task_of(pend_pack(k));
            while t != NO_TASK {
                let entry = state.preds[t as usize];
                self.members.push((t, entry));
                t = entry.next;
            }
        }
        self.pending.clone_from(&state.pending);
        self.runnable.clone_from(&state.runnable);
        self.memsize.clear();
        self.memsize.extend_from_slice(memsize);
    }

    /// Restores the stored parts into `state`, reusing its buffers: the
    /// placements of the snapshot's `n` tasks come from `schedule` (the
    /// output of a run that keeps or inherits this boundary), the slot
    /// tables are rebuilt over the first `n` entries of `rank`, and the
    /// readiness entries are sized for `n` tasks but left as they are:
    /// the caller re-derives those of the unplaced tasks and writes the
    /// stored `members` back over them. The [`CheckpointedRun`] snapshot
    /// docs give the invariant that makes all of it equal to what a full
    /// snapshot would have stored.
    fn restore(&self, state: &mut EngineState, schedule: &TimedSchedule, rank: &[u32]) {
        let n = self.n;
        state.procs.clone_from(&self.procs);
        state.marked.clone_from(&self.marked);
        resize_for_overwrite(&mut state.preds, n, PredState::default());
        state.pending.clone_from(&self.pending);
        state.runnable.clone_from(&self.runnable);
        state.proc_of.clear();
        state
            .proc_of
            .extend((0..n).map(|i| schedule.proc_of(i) as u32));
        state.start.clear();
        state.start.extend((0..n).map(|i| schedule.start(i)));
        state.build_slots(&rank[..n]);
        state.round = self.round;
    }
}

/// The smallest finite rejection threshold of a run, `∞` when no round
/// rejected a finite value. It is one of the thresholds itself.
fn reject_floor(reject_min: &[f64]) -> f64 {
    reject_min
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .fold(f64::INFINITY, f64::min)
}

/// The first round whose recorded threshold turns admissible under
/// `cap`: where a resume at `cap` diverges (`None` when no round does).
fn first_divergence(reject_min: &[f64], cap: f64) -> Option<usize> {
    reject_min
        .iter()
        // The ∞ sentinel means "no rejection that round"; it must not
        // hit the tolerant comparison (whose slack is infinite there).
        .position(|&v| v.is_finite() && approx_le(v, cap))
}

/// Whether a resume at `cap` diverges in any round, decided from the
/// run's [`reject_floor`] alone. Same answer as a
/// [`first_divergence`] scan: `approx_le` is monotone in its first
/// argument over non-negative operands, so some finite threshold is
/// admitted under `cap` exactly when the smallest one is.
fn diverges(floor: f64, cap: f64) -> bool {
    floor.is_finite() && approx_le(floor, cap)
}

/// Direction of a re-estimated storage requirement relative to the
/// value the previous run was computed under. The kernel only sees the
/// *mutated* CSR, so the engine layer (which reads the old value before
/// applying the delta) must tell it the direction — it decides how far
/// back a capped session has to replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostShift {
    /// Numerically unchanged (a `-0.0 ↔ 0.0` rewrite counts: admission
    /// arithmetic cannot distinguish the two zeros).
    Unchanged,
    /// Strictly smaller than before: admission verdicts can only flip
    /// from rejected to admitted.
    Lowered,
    /// Strictly larger than before: admission verdicts can only flip
    /// from admitted to rejected.
    Raised,
}

/// One change to the inputs of a [`CheckpointedRun`], replayed by
/// [`CheckpointedRun::replan`]. Instance deltas describe a mutation the
/// caller has already applied through [`CheckpointedRun::csr_mut`].
/// Completions are absent by design: they mutate neither the instance
/// nor the schedule, so the engine layer answers them from the cached
/// run without entering the kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplanDelta {
    /// The memory cap becomes this value.
    Cap(f64),
    /// Task `n - 1` of the (mutated) instance is a new arrival.
    Arrival,
    /// An existing task's costs were re-estimated.
    Recost {
        /// The re-estimated task.
        task: u32,
        /// Whether the processing time changed.
        p_changed: bool,
        /// How the storage requirement moved.
        s_shift: CostShift,
    },
}

/// Which stride boundaries a [`CheckpointedRun`] keeps. The entry point
/// that starts a chain fixes it, and every later run of the chain
/// inherits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SnapshotPolicy {
    /// ∆-sweep chains: keep a boundary only when its stride rejects.
    RejectingStrides,
    /// Replan sessions: keep every boundary.
    EveryStride,
}

/// A completed kernel run that can be **warm-started across a change of
/// its inputs**: a larger memory cap (the ∆-sweeps of
/// `sws_core::pareto_sweep`), or a task arrival or cost re-estimate
/// applied in place to its instance (the replan sessions of
/// `sws_core::replan`). Either way the produced schedule is
/// **bit-identical** to a cold run on the changed inputs, which
/// `tests/differential_sweep.rs` and `tests/differential_replan.rs`
/// enforce. An open (uncapped) session is the cap `+∞` case:
/// `TaskSet::new` and `CsrDelta::validate` keep every cost finite and
/// non-negative, so `memsize[q] + s ≤ +∞` always holds, and that cap
/// admits exactly what [`Unrestricted`] admits and rejects nothing.
///
/// # Records and first affected rounds
///
/// Every round `r` records the task it placed, that task's start key
/// (`winner_key[r]`), the minimum processor load when the round began
/// (`min_load[r]`), and the smallest inadmissible `memsize[q] + s` it
/// probed (`reject_min[r]`, ∞ when it rejected nothing). The run also
/// caches the smallest finite threshold (`reject_floor`). From these the
/// first round a delta can affect follows without re-running anything;
/// `r₀` is the affected task's *ready round* (the round after its last
/// predecessor placed — before it, the task is never probed) and `pᵢ`
/// its placement round:
///
/// | Delta | First affected round |
/// |---|---|
/// | cap `c' ≥ c` | first `r` whose finite `reject_min[r]` is admitted under `c'` |
/// | arrival, cap `+∞` | first `t ≥ r₀` with `max(ρ, min_load[t])` strictly below `winner_key[t]` (`ρ` = its ready time) |
/// | arrival, finite cap | `r₀` |
/// | re-estimate, `p` changed | `pᵢ` |
/// | re-estimate, `s` raised, finite cap | `r₀` |
/// | re-estimate, `s` lowered, finite cap | first finite `reject_min` in `r₀..pᵢ`, else `pᵢ` |
///
/// A cap delta diverges only where a rejection flips, because
/// [`sws_model::numeric::approx_le`] is monotone in both arguments over
/// non-negative operands: accepted probes stay accepted, rejected ones
/// flip only where the round's smallest rejected value does, and whether
/// any round flips is one comparison against `reject_floor`: the `O(1)`
/// test [`CheckpointedRun::shares_at`], which `replan` and the ∆-sweep
/// engines both call. An arrival ranked last changes an uncapped round
/// only by *winning* it with a strictly earlier start (losers leave no
/// trace: marking is winner-only); under a finite cap its probe can
/// reject in any round that scans it. A storage change is invisible under cap `+∞`. The
/// re-estimate rounds never pass `pᵢ`, so no restored snapshot carries
/// the task's old costs (under cap `+∞` a kept snapshot's committed
/// memory may predate a storage re-estimate, which no verdict reads).
/// A delta that affects no round — a cap the floor does not reach, an
/// uncapped storage re-estimate, an unchanged cost — shares this run's
/// outcome, records and snapshots: `O(1)`, nothing copied.
///
/// # Snapshots
///
/// Each stride boundary (every `checkpoint_stride(n)` rounds) is staged
/// in one reused workspace buffer, and the entry point fixes which
/// boundaries are kept. [`CheckpointedRun::cold`] (∆-sweep chains)
/// keeps a boundary only when its stride records a rejection, since a
/// cap delta can only diverge in such a stride; a chain whose cap never
/// binds keeps none. [`CheckpointedRun::session`] keeps every boundary,
/// since instance deltas can first affect any round. Restore-point
/// invariant: a cap delta diverging in round `d` restores the boundary
/// `⌊d/stride⌋·stride` (kept under both policies, since round `d`
/// rejected) and replays `n − ⌊d/stride⌋·stride` rounds. A replay
/// restores the latest kept boundary at or before the first affected
/// round, splices in every task the snapshot predates, and re-records
/// from there.
///
/// A snapshot stores only what a replay cannot rebuild: the round, the
/// task count, the processor heap, the marked processors, the committed
/// memory, the pending heap, the runnable bitmap, and the readiness
/// entry (ready time, outstanding predecessors, tie-group link) of each
/// pending tie-group member, whose link records release order —
/// `O(m + pending + n/64)` words, independent of how many tasks the
/// boundary has placed. A restore rebuilds the rest of the
/// [`EngineState`]. It copies the placements (processor and start time)
/// of the tasks the snapshot covers from the run's own schedule, it
/// rebuilds the slot tables over the snapshot's tasks with the slot
/// builder a cold run uses, and it re-derives the ready time and the
/// outstanding-predecessor count of every task the boundary leaves
/// unplaced (`records.placed[round..]`) from its predecessors'
/// placements in that schedule, through the helper the splice of
/// arrivals uses, before the splice extends all three. That costs
/// `O(edges of the replayed suffix)`, never more than the replay that
/// follows. The readiness entries of placed tasks are not restored:
/// they are dead, whatever the workspace last held there.
///
/// The rebuild rests on one invariant: **every run that keeps or
/// inherits a boundary placed the tasks of the boundary's prefix exactly
/// as the run that took it.** The run that takes a boundary placed them
/// itself; a replay inherits only the boundaries before the one it
/// restores, and its rounds before that point are the recorded ones,
/// bit for bit. (Tasks the prefix did not place carry stale placements
/// until the replay places them, as a cold run's reused buffers do.)
/// The slot tables match the stored ones because a rank the records
/// accept agrees with the recorded rank on every task the snapshot
/// covers, and each later arrival sorts after all of them. The
/// re-derived readiness is bit-exact for three reasons: a placed task's
/// entry is frozen at placement and never read again; the ready time is
/// a max, so the order of its terms and their rounding do not matter;
/// and the restore points above keep every task re-estimated since a
/// snapshot unplaced at it, so each completion it reads carries the
/// processing time it was placed with.
///
/// # Fallback
///
/// A replan runs cold, under the run's own snapshot policy, in exactly
/// one case: the records cannot serve it. That is a rank other than the
/// recorded one (an arrival may only extend it, ranking itself last),
/// a cap that shrank or is NaN (the monotonicity above needs `c' ≥ c`),
/// or no kept boundary at or before the first affected round (an
/// arrival on a sweep chain whose early strides never rejected). The
/// cold run is the same bit-identical answer at full price.
///
/// The records, the snapshots, the outcome, the priority rank and the
/// CSR instance are `Arc`-shared between the runs of a chain, so an
/// instance is flattened once per chain and a session mutates it in
/// place.
#[derive(Debug, Clone)]
pub struct CheckpointedRun {
    csr: Arc<CsrDag>,
    m: usize,
    rank: Arc<PriorityRank>,
    /// The enforced memory cap (`+∞` for an open session).
    cap: f64,
    policy: SnapshotPolicy,
    records: Arc<Records>,
    /// [`reject_floor`] of `records.reject_min`.
    reject_floor: f64,
    /// The kept stride-boundary snapshots (ascending rounds).
    checkpoints: Arc<Vec<Arc<Checkpoint>>>,
    outcome: Arc<KernelOutcome>,
    /// Rounds actually executed to produce this run (`n` for a cold run,
    /// `0` when a delta affected no round).
    replayed: usize,
}

impl CheckpointedRun {
    /// A from-scratch ∆-sweep run with memory cap `cap`, recording what
    /// a later warm resume needs. One-shot wrapper over
    /// [`CheckpointedRun::cold_in`] (fresh CSR mirror and workspace).
    pub fn cold(inst: &DagInstance, rank: Arc<PriorityRank>, cap: f64) -> Result<Self, ModelError> {
        let mut ws = KernelWorkspace::with_capacity(inst.n(), inst.m());
        Self::cold_in(Arc::new(inst.csr()), inst.m(), rank, cap, &mut ws)
    }

    /// [`CheckpointedRun::cold`] over a shared CSR instance on `m`
    /// processors with a reusable workspace — the sweep-engine path,
    /// where one chain runs many caps over one instance.
    pub fn cold_in(
        csr: Arc<CsrDag>,
        m: usize,
        rank: Arc<PriorityRank>,
        cap: f64,
        ws: &mut KernelWorkspace,
    ) -> Result<Self, ModelError> {
        Self::start(csr, m, rank, cap, SnapshotPolicy::RejectingStrides, ws)
    }

    /// A from-scratch replan-session run over `csr` on `m` processors
    /// under the session's `cap` (`+∞` for an open session), keeping
    /// every stride boundary for the instance deltas that follow.
    pub fn session(
        csr: Arc<CsrDag>,
        m: usize,
        rank: Arc<PriorityRank>,
        cap: f64,
        ws: &mut KernelWorkspace,
    ) -> Result<Self, ModelError> {
        Self::start(csr, m, rank, cap, SnapshotPolicy::EveryStride, ws)
    }

    fn start(
        csr: Arc<CsrDag>,
        m: usize,
        rank: Arc<PriorityRank>,
        cap: f64,
        policy: SnapshotPolicy,
        ws: &mut KernelWorkspace,
    ) -> Result<Self, ModelError> {
        ws.state.init(&csr, m, &rank);
        let admission = RecordingCapAdmission::new(vec![0.0; m], cap);
        let records = Records::default().prefix(0, csr.n());
        Self::drive(csr, rank, policy, admission, records, Vec::new(), ws)
    }

    /// Warm-starts a run at `new_cap`, reusing the longest prefix whose
    /// admissibility verdicts are unchanged. One-shot wrapper over
    /// [`CheckpointedRun::resume_in`] (fresh workspace).
    pub fn resume(&self, new_cap: f64) -> Result<Self, ModelError> {
        self.resume_in(new_cap, &mut KernelWorkspace::new())
    }

    /// [`CheckpointedRun::resume`] with an explicit reusable workspace:
    /// the [`ReplanDelta::Cap`] replan. When no round diverges the result
    /// *is* this run's schedule (shared, not copied).
    pub fn resume_in(&self, new_cap: f64, ws: &mut KernelWorkspace) -> Result<Self, ModelError> {
        self.replan(&self.rank, ReplanDelta::Cap(new_cap), ws)
    }

    /// Warm-starts against the changed inputs, replaying only from the
    /// first round `delta` can affect (see the type docs). An instance
    /// delta must already be applied through
    /// [`CheckpointedRun::csr_mut`], and `rank` is the priority rank of
    /// the changed instance. Bit-identical to a cold run of the changed
    /// inputs.
    pub fn replan(
        &self,
        rank: &Arc<PriorityRank>,
        delta: ReplanDelta,
        ws: &mut KernelWorkspace,
    ) -> Result<Self, ModelError> {
        let (n, n_old) = (self.csr.n(), self.records.placed.len());
        let cap = match delta {
            ReplanDelta::Cap(cap) => cap,
            _ => self.cap,
        };
        // Rank guard: the records only describe runs under the recorded
        // rank, extended for an arrival by ranking it last — the one
        // extension under which every recorded slot keeps its meaning.
        let same_rank = match delta {
            ReplanDelta::Arrival => self.rank_extends(rank, n),
            _ => self.rank_matches(rank),
        };
        let restore = if same_rank && at_least(cap, self.cap) {
            let first = match delta {
                ReplanDelta::Cap(_) if self.shares_at(cap) => None,
                ReplanDelta::Cap(_) => first_divergence(&self.records.reject_min, cap),
                ReplanDelta::Arrival => {
                    assert_eq!(n, n_old + 1, "arrival replan against an un-mutated CSR");
                    Some(self.arrival_round())
                }
                ReplanDelta::Recost {
                    task,
                    p_changed,
                    s_shift,
                } => {
                    assert_eq!(n, n_old, "recost replan changed the task count");
                    self.recost_round(task as usize, p_changed, s_shift)
                }
            };
            let Some(first) = first else {
                return Ok(CheckpointedRun {
                    cap,
                    replayed: 0,
                    ..self.clone()
                });
            };
            self.checkpoints.iter().rposition(|c| c.round <= first)
        } else {
            None
        };
        match restore {
            Some(ci) => self.resume_from(ci, rank, cap, ws),
            // The fallback (see the type docs).
            None => {
                let (csr, rank) = (Arc::clone(&self.csr), Arc::clone(rank));
                Self::start(csr, self.m, rank, cap, self.policy, ws)
            }
        }
    }

    /// First round an arrival (task `n − 1`) can affect.
    fn arrival_round(&self) -> usize {
        let n_old = self.records.placed.len();
        let (rho, r0) = self.ready_info(n_old);
        if self.cap.is_finite() {
            return r0;
        }
        let (min_load, winner_key) = (&self.records.min_load, &self.records.winner_key);
        let beaten = min_load[r0..]
            .iter()
            .zip(&winner_key[r0..])
            .position(|(&load, &key)| strictly_lt(rho.max(load), key));
        beaten.map_or(n_old, |k| r0 + k)
    }

    /// First round a re-estimate of task `i` can affect (`None` when it
    /// cannot change the schedule).
    fn recost_round(&self, i: usize, p_changed: bool, s_shift: CostShift) -> Option<usize> {
        let placed_at = self.records.place_round[i] as usize;
        let s_first = match s_shift {
            _ if !self.cap.is_finite() => None,
            CostShift::Unchanged => None,
            // Rejected→admitted flips need a rejection to flip.
            CostShift::Lowered => {
                let r0 = self.ready_info(i).1;
                let thresholds = &self.records.reject_min[r0..placed_at];
                let rejecting = thresholds.iter().position(|v| v.is_finite());
                Some(rejecting.map_or(placed_at, |k| r0 + k))
            }
            CostShift::Raised => Some(self.ready_info(i).1),
        };
        p_changed
            .then_some(placed_at)
            .into_iter()
            .chain(s_first)
            .min()
    }

    /// Ready time `ρ` (max predecessor completion) and ready round `r₀`
    /// (first round the task is visible to scans) of `task` under this
    /// run's schedule.
    fn ready_info(&self, task: usize) -> (f64, usize) {
        let mut rho = 0.0f64;
        let mut r0 = 0usize;
        for &u in self.csr.preds(task) {
            let u = u as usize;
            rho = rho.max(self.outcome.schedule.start(u) + self.csr.p(u));
            r0 = r0.max(self.records.place_round[u] as usize + 1);
        }
        (rho, r0)
    }

    /// Whether `rank` is exactly the recorded rank.
    fn rank_matches(&self, rank: &Arc<PriorityRank>) -> bool {
        Arc::ptr_eq(rank, &self.rank) || rank[..] == self.rank[..]
    }

    /// Whether `rank` extends the recorded rank by ranking the arrival
    /// last: no recorded rank exceeds the arrival's, so its
    /// `(rank, task)` pack sorts after every recorded one.
    fn rank_extends(&self, rank: &PriorityRank, n: usize) -> bool {
        rank.len() == n
            && rank[..n - 1] == self.rank[..]
            && self.rank.iter().max().is_none_or(|&top| top <= rank[n - 1])
    }

    /// Restores kept snapshot `ci` and replays to completion against the
    /// (possibly mutated) instance.
    fn resume_from(
        &self,
        ci: usize,
        rank: &Arc<PriorityRank>,
        cap: f64,
        ws: &mut KernelWorkspace,
    ) -> Result<Self, ModelError> {
        self.restore(ci, rank, ws);
        let ck = &self.checkpoints[ci];
        let admission = RecordingCapAdmission::new(ck.memsize.clone(), cap);
        // The replay re-records from the restored round (re-staging its
        // boundary), so keep only what precedes it: identical by
        // construction.
        let records = self.records.prefix(ck.round, self.csr.n());
        let checkpoints = self.checkpoints[..ci].to_vec();
        let (csr, rank) = (Arc::clone(&self.csr), Arc::clone(rank));
        Self::drive(csr, rank, self.policy, admission, records, checkpoints, ws)
    }

    /// Rebuilds in the workspace the state a replay from kept snapshot
    /// `ci` starts from: the snapshot restored, the readiness of every
    /// task it leaves unplaced re-derived (`records.placed[round..]`,
    /// the links of the pending members written back over it), then
    /// every task it predates spliced in.
    fn restore(&self, ci: usize, rank: &PriorityRank, ws: &mut KernelWorkspace) {
        let ck = &self.checkpoints[ci];
        ck.restore(&mut ws.state, &self.outcome.schedule, rank);
        for &t in &self.records.placed[ck.round..] {
            let t = t as usize;
            // Later tasks are the splice's.
            if t < ck.n {
                ws.state.preds[t] = self.readiness(t, ck.round);
            }
        }
        for &(t, entry) in &ck.members {
            ws.state.preds[t as usize] = entry;
        }
        self.adapt_new_tasks(rank, ck.round, ws);
    }

    /// The readiness entry of `task` before round `at` of any run that
    /// placed its first `at` rounds as this one did: the latest
    /// completion, in this run's schedule, of the predecessors this run
    /// placed before round `at`, and the count of the others. Exactly
    /// the entry the run held there, for a task it had not yet placed:
    /// the ready time is a max, so neither the order of the terms nor
    /// their rounding matters, and no predecessor placed before `at` has
    /// been re-estimated since (see the snapshot docs). A missing
    /// predecessor (an arrival not yet recorded) counts as outstanding.
    fn readiness(&self, task: usize, at: usize) -> PredState {
        let (csr, place_round) = (&self.csr, &self.records.place_round);
        let mut ready = 0.0f64;
        let mut remaining = 0u32;
        for &u in csr.preds(task) {
            let u = u as usize;
            if u < place_round.len() && (place_round[u] as usize) < at {
                ready = ready.max(self.outcome.schedule.start(u) + csr.p(u));
            } else {
                remaining += 1;
            }
        }
        PredState {
            ready,
            remaining,
            next: NO_TASK,
        }
    }

    /// Splices every task the restored snapshot predates into the
    /// state. A snapshot taken before round `at` can be older than
    /// several arrivals — earlier replans keep the snapshots before
    /// their restore point, and those snapshots keep their pre-arrival
    /// task count — so all of `ck.n .. csr.n()` is (re-)spliced, in
    /// index order.
    ///
    /// Each spliced task's readiness comes from
    /// [`CheckpointedRun::readiness`], the derivation a restore runs for
    /// the snapshot's own unplaced tasks: predecessors the restored
    /// prefix already placed contribute their completions to its ready
    /// time; the rest will find it on their successor lists during the
    /// replay (the CSR is mutated in place) and decrement it like any
    /// other frontier task. A kept snapshot always predates the splice
    /// point of every task it is missing (`ck.round < place_round[t]`,
    /// because each arrival's replay restored at or before its ready
    /// round), so a missing predecessor is never read for its start time
    /// — it is counted as outstanding instead. A task ready at restore
    /// time enters the ready structures exactly where a from-scratch
    /// run's migration would put it: runnable iff its ready time is
    /// (approximately) at or below the minimum load, pending otherwise,
    /// as a singleton tie group. (A from-scratch run may group it with
    /// siblings of the same ready time; ranked last, it trails them, and
    /// either way the rounds select the same winners.)
    ///
    /// Every spliced task takes the next slot (`t`): the rank guard of
    /// arrival replans sorts each arrival's pack after all earlier ones,
    /// so the restored slot tables extend without renumbering.
    fn adapt_new_tasks(&self, rank: &PriorityRank, at: usize, ws: &mut KernelWorkspace) {
        let n = self.csr.n();
        let state = &mut ws.state;
        if state.preds.len() >= n {
            return;
        }
        state.runnable.grow(n);
        // `rank[t]` is read once at the tail of a mostly-stateful body;
        // an enumerate over `rank` would obscure the splice semantics.
        #[allow(clippy::needless_range_loop)]
        for t in state.preds.len()..n {
            let entry = self.readiness(t, at);
            state.preds.push(entry);
            state.proc_of.push(0);
            state.start.push(0.0);
            state.slot_of_task.push(t as u32);
            state.task_of_slot.push(t as u32);
            if entry.remaining == 0 {
                if approx_le(entry.ready, state.procs.min_load()) {
                    state.runnable.insert(t as u32);
                } else {
                    // A singleton tie group.
                    state
                        .pending
                        .push(pend_key(entry.ready, rank_task(rank[t], t as u32)));
                }
            }
        }
    }

    /// The one drive loop: runs the workspace's state to completion,
    /// staging every [`checkpoint_stride`] boundary and keeping it as
    /// `policy` says, and extending the records (which must already
    /// cover the rounds before `state.round`).
    fn drive(
        csr: Arc<CsrDag>,
        rank: Arc<PriorityRank>,
        policy: SnapshotPolicy,
        mut admission: RecordingCapAdmission,
        mut records: Records,
        mut checkpoints: Vec<Arc<Checkpoint>>,
        ws: &mut KernelWorkspace,
    ) -> Result<Self, ModelError> {
        let n = csr.n();
        let stride = checkpoint_stride(n);
        let first = ws.state.round;
        debug_assert_eq!(records.placed.len(), first);
        ws.scratch.clear();
        // `ws.staged` holds the current stride's boundary, not yet kept.
        let mut staged = false;
        while ws.state.round < n {
            if ws.state.round.is_multiple_of(PROBE_STRIDE) {
                ws.probe.poll()?;
            }
            if ws.state.round.is_multiple_of(stride) {
                ws.staged.stage(&ws.state, &admission.inner.memsize);
                staged = true;
            }
            records.min_load.push(ws.state.procs.min_load());
            let (task, key) = ws
                .state
                .step(&csr, &rank, &mut admission, &mut ws.scratch)?;
            let threshold = admission.take_round_min();
            records.placed.push(task);
            records.winner_key.push(key);
            records.reject_min.push(threshold);
            if staged && (policy == SnapshotPolicy::EveryStride || threshold.is_finite()) {
                let boundary = std::mem::replace(&mut ws.staged, Checkpoint::empty());
                checkpoints.push(Arc::new(boundary));
                staged = false;
            }
        }
        let (m, cap) = (ws.state.procs.m(), admission.inner.cap);
        let outcome = ws.state.finish(m)?;
        // The rounds before `first` placed what the records say already.
        for (r, &t) in records.placed.iter().enumerate().skip(first) {
            records.place_round[t as usize] = r as u32;
        }
        Ok(CheckpointedRun {
            csr,
            m,
            rank,
            cap,
            policy,
            // Cap `+∞` rejects nothing: skip the scan.
            reject_floor: if cap.is_finite() {
                reject_floor(&records.reject_min)
            } else {
                f64::INFINITY
            },
            records: Arc::new(records),
            checkpoints: Arc::new(checkpoints),
            outcome: Arc::new(outcome),
            replayed: n - first,
        })
    }

    /// The shared CSR instance.
    #[inline]
    pub fn csr(&self) -> &Arc<CsrDag> {
        &self.csr
    }

    /// The instance, for applying a delta in place before the
    /// [`CheckpointedRun::replan`] that names it; until then the records
    /// describe the previous instance. Copies the instance only when
    /// another run still shares it (a session keeps one run, so it never
    /// does).
    pub fn csr_mut(&mut self) -> &mut CsrDag {
        Arc::make_mut(&mut self.csr)
    }

    /// The memory cap this run enforced (`+∞` for an open session).
    #[inline]
    pub fn cap(&self) -> f64 {
        self.cap
    }

    /// Whether this run is also the run at `cap`: `cap` is at or above
    /// the run's own cap and below its smallest recorded rejection, so
    /// every round keeps its verdict and its placement. `O(1)`, one
    /// comparison against the cached floor. A [`ReplanDelta::Cap`]
    /// replan at such a cap shares this run's outcome; an engine that
    /// walks a ∆ grid can keep this run for every point it answers.
    #[inline]
    pub fn shares_at(&self, cap: f64) -> bool {
        at_least(cap, self.cap) && !diverges(self.reject_floor, cap)
    }

    /// The priority rank the run was recorded under.
    #[inline]
    pub fn rank(&self) -> &Arc<PriorityRank> {
        &self.rank
    }

    /// The produced schedule and Lemma-4 bookkeeping.
    #[inline]
    pub fn outcome(&self) -> &KernelOutcome {
        &self.outcome
    }

    /// Rounds actually executed to produce this run: `n` for a cold run,
    /// `0` when a delta affected no round, and the length of the
    /// replayed suffix otherwise. Sweep telemetry and the session
    /// engine's incremental-work costing read this.
    #[inline]
    pub fn replayed_rounds(&self) -> usize {
        self.replayed
    }
}

/// The per-round records of a [`CheckpointedRun`] (see its docs).
#[derive(Debug, Default)]
struct Records {
    /// `placed[r]`: the task round `r` placed.
    placed: Vec<u32>,
    /// `winner_key[r]`: start key of round `r`'s winner.
    winner_key: Vec<f64>,
    /// `min_load[r]`: minimum processor load when round `r` began.
    min_load: Vec<f64>,
    /// `reject_min[r]`: smallest inadmissible `memsize[q] + s` probed in
    /// round `r` (∞ when it rejected nothing).
    reject_min: Vec<f64>,
    /// `place_round[i]`: the round that placed task `i` (inverse of
    /// `placed`; each drive rewrites the entries of the rounds it runs).
    place_round: Vec<u32>,
}

impl Records {
    /// The records of the rounds before `round`, with room for `n`
    /// rounds so the drive loop never reallocates them, and this run's
    /// `place_round` grown to `n` tasks: the entries of the tasks placed
    /// before `round` are already right, and the drive rewrites the
    /// others.
    fn prefix(&self, round: usize, n: usize) -> Records {
        fn head<T: Copy>(v: &[T], round: usize, n: usize) -> Vec<T> {
            let mut head = Vec::with_capacity(n);
            head.extend_from_slice(&v[..round]);
            head
        }
        let mut place_round = Vec::with_capacity(n);
        place_round.extend_from_slice(&self.place_round);
        place_round.resize(n, 0);
        Records {
            placed: head(&self.placed, round, n),
            winner_key: head(&self.winner_key, round, n),
            min_load: head(&self.min_load, round, n),
            reject_min: head(&self.reject_min, round, n),
            place_round,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::{hlf_priority, index_priority};
    use sws_dag::prelude::*;
    use sws_model::validate::{validate_timed, validate_timed_preds};

    #[test]
    fn proc_heap_orders_by_load_then_index() {
        let mut h = ProcHeap::new(4);
        assert_eq!(h.min(), 0);
        h.set_load(0, 3.0);
        assert_eq!(h.min(), 1);
        h.set_load(1, 3.0);
        h.set_load(2, 1.0);
        assert_eq!(h.min(), 3);
        h.set_load(3, 2.0);
        assert_eq!(h.min(), 2);
        h.set_load(2, 3.0);
        // All at 3.0 except q3 at 2.0.
        assert_eq!(h.min(), 3);
        h.set_load(3, 3.0);
        // Full tie: lowest index wins.
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn proc_heap_reset_restores_the_initial_ordering() {
        let mut h = ProcHeap::new(3);
        h.set_load(0, 5.0);
        h.set_load(1, 2.0);
        h.reset(3);
        assert_eq!(h.min(), 0);
        assert!(h.loads().iter().all(|&l| l == 0.0));
        // Resizing down and up through reset works too.
        h.reset(1);
        assert_eq!(h.m(), 1);
        h.reset(5);
        assert_eq!(h.m(), 5);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn probe_skips_inadmissible_processors_in_load_order() {
        let mut h = ProcHeap::new(4);
        h.set_load(0, 1.0);
        h.set_load(1, 2.0);
        h.set_load(2, 3.0);
        h.set_load(3, 4.0);
        let (q, skipped) = h.probe(|q| q >= 2).unwrap();
        assert_eq!(q, 2);
        assert_eq!(skipped, vec![0, 1]);
        assert!(h.probe(|_| false).is_none());
        let (q, skipped) = h.probe(|_| true).unwrap();
        assert_eq!(q, 0);
        assert!(skipped.is_empty());
    }

    #[test]
    fn probe_with_appends_to_the_shared_skipped_buffer() {
        let mut h = ProcHeap::new(4);
        h.set_load(0, 1.0);
        h.set_load(1, 2.0);
        h.set_load(2, 3.0);
        h.set_load(3, 4.0);
        let mut frontier = Vec::new();
        let mut skipped = vec![99usize]; // pre-existing content must survive
        let q = h
            .probe_with(|q| q >= 2, &mut frontier, &mut skipped)
            .unwrap();
        assert_eq!(q, 2);
        assert_eq!(skipped, vec![99, 0, 1]);
    }

    #[test]
    fn kernel_schedules_a_chain_sequentially() {
        let inst = DagInstance::new(chain(5), 3).unwrap();
        let out = event_driven_schedule(&inst, &index_priority(5), &mut Unrestricted).unwrap();
        assert!((out.schedule.cmax(inst.tasks()) - 5.0).abs() < 1e-9);
        assert!(out.marked.iter().all(|&b| !b));
    }

    #[test]
    fn kernel_respects_precedence_on_structured_graphs() {
        for g in [
            gaussian_elimination(5),
            fft_butterfly(3),
            diamond_grid(4, 4),
        ] {
            let inst = DagInstance::new(g, 3).unwrap();
            let rank = hlf_priority(inst.graph());
            let out = event_driven_schedule(&inst, &rank, &mut Unrestricted).unwrap();
            validate_timed(
                inst.tasks(),
                inst.m(),
                &out.schedule,
                inst.graph().all_preds(),
                None,
            )
            .unwrap();
            // The CSR predecessor view validates the same schedule
            // without materializing nested lists.
            validate_timed_preds(
                inst.tasks(),
                inst.m(),
                &out.schedule,
                inst.csr().pred_lists(),
                None,
            )
            .unwrap();
        }
    }

    #[test]
    fn csr_entry_point_matches_the_wrapper_bit_for_bit() {
        for g in [gaussian_elimination(6), diamond_grid(5, 5)] {
            let inst = DagInstance::new(g, 3).unwrap();
            let rank = hlf_priority(inst.graph());
            let via_wrapper = event_driven_schedule(&inst, &rank, &mut Unrestricted).unwrap();
            let csr = inst.csr();
            let mut ws = KernelWorkspace::new();
            let via_csr =
                event_driven_schedule_csr(&csr, inst.m(), &rank, &mut Unrestricted, &mut ws)
                    .unwrap();
            assert_eq!(via_wrapper.schedule, via_csr.schedule);
            assert_eq!(via_wrapper.marked, via_csr.marked);
        }
    }

    #[test]
    fn workspace_reuse_across_different_instances_is_stateless() {
        // Run a big instance, then a small one, then the big one again
        // through one workspace: results must equal fresh-workspace runs.
        let big = DagInstance::new(gaussian_elimination(7), 5).unwrap();
        let small = DagInstance::new(chain(3), 2).unwrap();
        let mut ws = KernelWorkspace::new();
        let runs = [&big, &small, &big, &small];
        for inst in runs {
            let rank = index_priority(inst.n());
            let csr = inst.csr();
            let reused =
                event_driven_schedule_csr(&csr, inst.m(), &rank, &mut Unrestricted, &mut ws)
                    .unwrap();
            let fresh = event_driven_schedule(inst, &rank, &mut Unrestricted).unwrap();
            assert_eq!(reused.schedule, fresh.schedule);
            assert_eq!(reused.marked, fresh.marked);
        }
    }

    #[test]
    fn memory_cap_admission_enforces_the_cap() {
        let mut adm = MemoryCapAdmission::new(2, 3.0);
        assert!(adm.admits(0, 3.0));
        adm.commit(0, 2.0);
        assert!(!adm.admits(0, 1.5));
        assert!(adm.admits(1, 1.5));
        match adm.rejection_error(5.0) {
            ModelError::MemoryExceeded { capacity, .. } => assert_eq!(capacity, 3.0),
            other => panic!("unexpected error {other:?}"),
        }
        // A rejection names the fullest processor, not processor 0: on
        // independent tasks with s = 1, 3 and 5 under cap 5.5, the last
        // task fits nowhere, and processor 1 (holding 3) would use 8.
        let tasks = sws_model::task::TaskSet::from_ps(&[1.0, 1.0, 1.0], &[1.0, 3.0, 5.0]).unwrap();
        let csr = CsrDag::edge_free(&tasks);
        let mut tight = MemoryCapAdmission::new(2, 5.5);
        let mut ws = KernelWorkspace::new();
        let err = event_driven_schedule_csr(&csr, 2, &index_priority(3), &mut tight, &mut ws)
            .unwrap_err();
        assert_eq!(tight.memsize(), &[1.0, 3.0]);
        assert_eq!(
            err,
            ModelError::MemoryExceeded {
                proc: 1,
                used: 8.0,
                capacity: 5.5
            }
        );
        // Reset restores a pristine predicate (possibly resized).
        adm.reset(3, 7.0);
        assert_eq!(adm.memsize(), &[0.0, 0.0, 0.0]);
        assert_eq!(adm.cap(), 7.0);
        assert!(adm.admits(0, 7.0));
    }

    /// Pending-heap pops per placed task stay near one on every
    /// generator family, capped (∆ = 3) and uncapped: a fork's children
    /// tie on their ready time and cost one pop per placement as a tie
    /// group, not one per child for every idle processor.
    #[test]
    fn pending_pops_per_task_stay_near_one_on_every_family() {
        use sws_workloads::{dagsets, TaskDistribution};
        let (m, mut ws) = (8, KernelWorkspace::new());
        for family in dagsets::DagFamily::all() {
            for n in [250, 1_000] {
                let inst = dagsets::dag_workload(
                    family,
                    n,
                    m,
                    TaskDistribution::Uncorrelated,
                    &mut sws_workloads::seeded_rng(n as u64),
                );
                let (csr, rank) = (inst.csr(), index_priority(inst.n()));
                let mut capped = MemoryCapAdmission::new(m, 3.0 * inst.mmax_lower_bound());
                event_driven_schedule_csr(&csr, m, &rank, &mut capped, &mut ws).unwrap();
                let capped_pops = ws.state.pending.pops;
                event_driven_schedule_csr(&csr, m, &rank, &mut Unrestricted, &mut ws).unwrap();
                let uncapped_pops = ws.state.pending.pops;
                for (what, pops) in [("∆ = 3", capped_pops), ("uncapped", uncapped_pops)] {
                    let per_task = pops as f64 / inst.n() as f64;
                    assert!(
                        per_task <= 1.5,
                        "{} n = {}, {what}: {per_task:.2} pending pops per task",
                        family.label(),
                        inst.n()
                    );
                }
            }
        }
    }

    /// A capped round walks a tie group past a head that the least
    /// loaded processor rejects. Tasks 3 and 4 wait on task 1 alone, so
    /// they form one group at its completion time 3, headed by task 3.
    /// In round 3 the head fits only on processor 2, busy until 10,
    /// while task 4 fits on the least loaded processor 0 and starts at
    /// 3, so the member behind the head wins. Task 5, released by task
    /// 4 and ranked above the head, then takes processor 2 first, and
    /// the head starts at 11, not 10.
    #[test]
    fn a_tie_group_member_behind_a_rejected_head_can_win() {
        let tasks = sws_model::task::TaskSet::from_ps(
            &[1.0, 3.0, 10.0, 1.0, 1.0, 1.0],
            &[4.0, 4.0, 0.0, 2.0, 1.0, 2.0],
        )
        .unwrap();
        let graph = sws_dag::TaskGraph::from_edges(tasks, &[(1, 3), (1, 4), (4, 5)]).unwrap();
        let csr = CsrDag::from_graph(&graph);
        let rank = vec![0, 1, 2, 4, 5, 3];
        let mut admission = MemoryCapAdmission::new(3, 5.0);
        let mut ws = KernelWorkspace::new();
        let out = event_driven_schedule_csr(&csr, 3, &rank, &mut admission, &mut ws).unwrap();
        let placed: Vec<(usize, f64)> = (0..6)
            .map(|i| (out.schedule.proc_of(i), out.schedule.start(i)))
            .collect();
        assert_eq!(
            placed,
            [(0, 0.0), (1, 0.0), (2, 0.0), (2, 11.0), (0, 3.0), (2, 10.0)]
        );
        assert_eq!(out.marked, [true, true, false]);
    }

    #[test]
    fn kernel_with_cap_never_exceeds_it() {
        let g = fork_join(2, 6).with_costs(|i| sws_model::task::Task {
            p: 1.0 + (i % 3) as f64,
            s: 1.0 + (i % 4) as f64,
        });
        let inst = DagInstance::new(g, 3).unwrap();
        let total_s: f64 = (0..inst.n()).map(|i| inst.tasks().get(i).s).sum();
        let cap = 2.25 * (total_s / 3.0).max(4.0);
        let mut adm = MemoryCapAdmission::new(3, cap);
        let out = event_driven_schedule(&inst, &index_priority(inst.n()), &mut adm).unwrap();
        let mem = out.schedule.memory(inst.tasks());
        assert!(mem.iter().all(|&x| x <= cap + 1e-9));
    }

    #[test]
    fn empty_instance_yields_empty_schedule() {
        let tasks = sws_model::task::TaskSet::from_ps(&[], &[]).unwrap();
        let inst = DagInstance::new(sws_dag::TaskGraph::new(tasks), 2).unwrap();
        let out = event_driven_schedule(&inst, &index_priority(0), &mut Unrestricted).unwrap();
        assert_eq!(out.schedule.n(), 0);
    }

    fn capped_instance() -> (DagInstance, f64) {
        let g = fork_join(3, 9).with_costs(|i| sws_model::task::Task {
            p: 1.0 + (i % 5) as f64,
            s: 1.0 + (i % 3) as f64,
        });
        let inst = DagInstance::new(g, 4).unwrap();
        let total_s: f64 = (0..inst.n()).map(|i| inst.tasks().get(i).s).sum();
        let lb = (total_s / 4.0).max(3.0);
        (inst, lb)
    }

    #[test]
    fn checkpointed_cold_run_matches_the_plain_kernel() {
        let (inst, lb) = capped_instance();
        let rank = Arc::new(index_priority(inst.n()));
        for &delta in &[2.25, 3.0, 8.0] {
            let cap = delta * lb;
            let run = CheckpointedRun::cold(&inst, Arc::clone(&rank), cap).unwrap();
            let mut adm = MemoryCapAdmission::new(inst.m(), cap);
            let direct = event_driven_schedule(&inst, &rank, &mut adm).unwrap();
            assert_eq!(run.outcome().schedule, direct.schedule, "∆={delta}");
            assert_eq!(run.outcome().marked, direct.marked);
            assert_eq!(run.replayed_rounds(), inst.n());
        }
    }

    #[test]
    fn resume_at_a_larger_cap_is_bit_identical_to_a_cold_run() {
        let (inst, lb) = capped_instance();
        let rank = Arc::new(index_priority(inst.n()));
        let mut chain = CheckpointedRun::cold(&inst, Arc::clone(&rank), 2.25 * lb).unwrap();
        for &delta in &[2.5, 2.75, 3.5, 6.0, 100.0] {
            let cap = delta * lb;
            chain = chain.resume(cap).unwrap();
            let cold = CheckpointedRun::cold(&inst, Arc::clone(&rank), cap).unwrap();
            assert_eq!(
                chain.outcome().schedule,
                cold.outcome().schedule,
                "∆={delta}"
            );
            assert_eq!(chain.outcome().marked, cold.outcome().marked, "∆={delta}");
            assert!(chain.replayed_rounds() <= inst.n());
        }
    }

    #[test]
    fn resume_through_a_shared_workspace_matches_fresh_workspaces() {
        let (inst, lb) = capped_instance();
        let rank = Arc::new(index_priority(inst.n()));
        let csr = Arc::new(inst.csr());
        let mut ws = KernelWorkspace::new();
        let mut chain = CheckpointedRun::cold_in(
            Arc::clone(&csr),
            inst.m(),
            Arc::clone(&rank),
            2.25 * lb,
            &mut ws,
        )
        .unwrap();
        for &delta in &[2.5, 3.5, 6.0] {
            let cap = delta * lb;
            chain = chain.resume_in(cap, &mut ws).unwrap();
            let cold = CheckpointedRun::cold(&inst, Arc::clone(&rank), cap).unwrap();
            assert_eq!(
                chain.outcome().schedule,
                cold.outcome().schedule,
                "∆={delta}"
            );
            assert_eq!(chain.outcome().marked, cold.outcome().marked, "∆={delta}");
        }
    }

    #[test]
    fn resume_without_divergence_replays_nothing() {
        let (inst, lb) = capped_instance();
        let rank = Arc::new(index_priority(inst.n()));
        // A huge cap never rejects, so any still-larger cap diverges
        // nowhere and the resume reuses the previous outcome wholesale.
        let run = CheckpointedRun::cold(&inst, rank, 1e6 * lb).unwrap();
        let next = run.resume(2e6 * lb).unwrap();
        assert_eq!(next.replayed_rounds(), 0);
        assert_eq!(next.outcome().schedule, run.outcome().schedule);
    }

    #[test]
    fn resume_at_a_smaller_cap_falls_back_to_a_cold_run() {
        let (inst, lb) = capped_instance();
        let rank = Arc::new(index_priority(inst.n()));
        let run = CheckpointedRun::cold(&inst, Arc::clone(&rank), 4.0 * lb).unwrap();
        let back = run.resume(2.25 * lb).unwrap();
        let cold = CheckpointedRun::cold(&inst, rank, 2.25 * lb).unwrap();
        assert_eq!(back.outcome().schedule, cold.outcome().schedule);
        assert_eq!(back.replayed_rounds(), inst.n());
    }

    /// A NaN cap is not `≥` the recorded cap, so the resume runs cold
    /// and fails exactly like a cold run at NaN (every probe rejects).
    #[test]
    fn resume_at_a_nan_cap_fails_like_a_cold_run() {
        let (inst, lb) = capped_instance();
        let rank = Arc::new(index_priority(inst.n()));
        let run = CheckpointedRun::cold(&inst, Arc::clone(&rank), 4.0 * lb).unwrap();
        let warm = run.resume(f64::NAN).unwrap_err();
        let cold = CheckpointedRun::cold(&inst, rank, f64::NAN).unwrap_err();
        assert!(
            matches!(warm, ModelError::MemoryExceeded { .. }),
            "{warm:?}"
        );
        assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
    }

    /// Asserts two schedules agree bit for bit (start times by pattern).
    fn assert_same_bits(a: &TimedSchedule, b: &TimedSchedule, what: &str) {
        assert_eq!(a.n(), b.n(), "{what}");
        for i in 0..a.n() {
            assert_eq!(a.proc_of(i), b.proc_of(i), "{what}: task {i}");
            assert_eq!(
                a.start(i).to_bits(),
                b.start(i).to_bits(),
                "{what}: task {i}"
            );
        }
    }

    /// An instance whose memory cap binds at `1.01·LB` in the last
    /// three strides of the run (and stops binding near `1.2·LB`).
    fn binding_instance() -> DagInstance {
        use sws_workloads::{dagsets, TaskDistribution};
        dagsets::dag_workload(
            dagsets::DagFamily::LayeredRandom,
            400,
            8,
            TaskDistribution::Uncorrelated,
            &mut sws_workloads::seeded_rng(7),
        )
    }

    #[test]
    fn zero_replay_resumes_share_the_schedule_and_diverging_ones_do_not() {
        let inst = binding_instance();
        let lb = inst.mmax_lower_bound();
        let rank = Arc::new(index_priority(inst.n()));
        // Never binds: no snapshot is kept, and the resume is the same
        // outcome, not a copy of it.
        let loose = CheckpointedRun::cold(&inst, Arc::clone(&rank), 4.0 * lb).unwrap();
        assert!(loose.checkpoints.is_empty());
        let same = loose.resume(8.0 * lb).unwrap();
        assert_eq!(same.replayed_rounds(), 0);
        assert!(same
            .outcome()
            .schedule
            .shares_storage(&loose.outcome().schedule));
        assert!(Arc::ptr_eq(&same.checkpoints, &loose.checkpoints));

        // Binds: a resume at the smallest rejected value diverges and
        // builds fresh buffers, bit-identical to a cold run.
        let tight = CheckpointedRun::cold(&inst, Arc::clone(&rank), 1.01 * lb).unwrap();
        let cap = tight.reject_floor;
        assert!(cap.is_finite(), "the tight cap must bind");
        let next = tight.resume(cap).unwrap();
        assert!(next.replayed_rounds() > 0);
        assert!(!next
            .outcome()
            .schedule
            .shares_storage(&tight.outcome().schedule));
        let cold = CheckpointedRun::cold(&inst, rank, cap).unwrap();
        assert_same_bits(
            &next.outcome().schedule,
            &cold.outcome().schedule,
            "diverging resume",
        );
        assert_eq!(next.outcome().marked, cold.outcome().marked);
    }

    /// Restore-point invariant of the staged snapshots: along a chain
    /// whose cap binds in several strides, every diverging resume
    /// restores the boundary of its divergence round's stride, exactly
    /// as if every stride had kept its snapshot.
    #[test]
    fn diverging_resumes_restore_the_stride_boundary_of_the_divergence() {
        let inst = binding_instance();
        let n = inst.n();
        let stride = checkpoint_stride(n);
        let lb = inst.mmax_lower_bound();
        let rank = Arc::new(index_priority(n));
        let csr = Arc::new(inst.csr());
        let mut ws = KernelWorkspace::new();
        let mut run = CheckpointedRun::cold_in(
            Arc::clone(&csr),
            inst.m(),
            Arc::clone(&rank),
            1.01 * lb,
            &mut ws,
        )
        .unwrap();
        // Walk the binding regime: each next cap is the previous run's
        // smallest rejected value, the smallest cap that diverges.
        let mut boundaries = Vec::new();
        while run.reject_floor.is_finite() {
            let cap = run.reject_floor;
            let d = first_divergence(&run.records.reject_min, cap).unwrap();
            let boundary = d / stride * stride;
            assert!(
                run.checkpoints.iter().any(|c| c.round == boundary),
                "d = {d}: boundary {boundary} not kept"
            );
            let next = run.resume_in(cap, &mut ws).unwrap();
            assert_eq!(next.replayed_rounds(), n - boundary, "d = {d}");
            let cold = CheckpointedRun::cold(&inst, Arc::clone(&rank), cap).unwrap();
            assert_same_bits(&next.outcome().schedule, &cold.outcome().schedule, "chain");
            assert_eq!(next.checkpoints.len(), cold.checkpoints.len());
            boundaries.push(boundary);
            run = next;
        }
        boundaries.dedup();
        assert!(
            boundaries.len() >= 2 && boundaries[0] > 0,
            "restored boundaries {boundaries:?}: the chain must bind across strides"
        );
        // Once the cap stops binding, no stride keeps its snapshot.
        assert!(run.checkpoints.is_empty());
    }

    // Inputs for the cached-threshold property: caps in every regime
    // (relative slack, absolute slack, zero, ∞, NaN) and thresholds that
    // straddle each cap's tolerance boundary by one ulp.
    fn threshold_cap(kind: u32, u: f64) -> f64 {
        match kind {
            0 => f64::INFINITY,
            1 => f64::NAN,
            2 => 0.0,
            3 => u * 1e-10,
            _ => u * 1e6,
        }
    }

    fn threshold_value(kind: u32, u: f64, cap: f64) -> f64 {
        use sws_model::numeric::{ABS_TOL, REL_TOL};
        let c = if cap.is_finite() { cap } else { 1.0 };
        let edge =
            [c, c * (1.0 + REL_TOL), c / (1.0 - REL_TOL), c + ABS_TOL][(u * 4.0) as usize % 4];
        match kind {
            0 => f64::INFINITY,
            1 => 0.0,
            2 => -0.0,
            3 => edge.next_down(),
            4 => edge,
            5 => edge.next_up(),
            6 => u * 2.0 * c,
            _ => u * 1e7,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The resume's "does any round diverge" test against the cached
        /// floor gives the same answer as the linear scan it replaced.
        #[test]
        fn cached_threshold_test_equals_the_linear_scan(
            (cap_kind, cap_u) in (0u32..6, 0.0f64..1.0),
            draws in proptest::collection::vec((0u32..8, 0.0f64..1.0), 0..24),
        ) {
            let cap = threshold_cap(cap_kind, cap_u);
            let values: Vec<f64> = draws
                .iter()
                .map(|&(k, u)| threshold_value(k, u, cap))
                .collect();
            let floor = reject_floor(&values);
            proptest::prop_assert_eq!(
                diverges(floor, cap),
                first_divergence(&values, cap).is_some(),
                "cap {:?}, values {:?}",
                cap,
                values
            );
        }
    }

    // --- Instance deltas: arrivals and re-estimates -------------------

    /// Tiny deterministic generator for the replan streams (the heavier
    /// proptest differential suite lives in the workspace-level tests).
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound.max(1)
        }

        fn cost(&mut self) -> f64 {
            1.0 + (self.below(1000) as f64) / 16.0
        }
    }

    fn replan_base() -> CsrDag {
        use sws_workloads::{dagsets, TaskDistribution};
        let inst = dagsets::dag_workload(
            dagsets::DagFamily::LayeredRandom,
            120,
            4,
            TaskDistribution::Uncorrelated,
            &mut sws_workloads::seeded_rng(0x5EED),
        );
        inst.csr()
    }

    /// A cold session-policy run over `csr` under `cap` (`None` = open,
    /// the kernel's cap `+∞`), ranked by task index.
    fn open_session(
        csr: CsrDag,
        m: usize,
        cap: Option<f64>,
        ws: &mut KernelWorkspace,
    ) -> Result<CheckpointedRun, ModelError> {
        let rank = Arc::new(index_priority(csr.n()));
        let cap = cap.unwrap_or(f64::INFINITY);
        CheckpointedRun::session(Arc::new(csr), m, rank, cap, ws)
    }

    /// A plain kernel run of `csr` under `cap` (`+∞` through
    /// [`Unrestricted`]), ranked by task index.
    fn plain_run(csr: &CsrDag, m: usize, cap: f64) -> Result<KernelOutcome, ModelError> {
        let (mut ws, rank) = (KernelWorkspace::new(), index_priority(csr.n()));
        if cap.is_finite() {
            let mut admission = MemoryCapAdmission::new(m, cap);
            event_driven_schedule_csr(csr, m, &rank, &mut admission, &mut ws)
        } else {
            event_driven_schedule_csr(csr, m, &rank, &mut Unrestricted, &mut ws)
        }
    }

    /// Asserts a replanned run is bit-identical to a plain kernel run of
    /// its (mutated) instance (start times compared by bit pattern).
    fn assert_matches_cold(warm: &CheckpointedRun, what: &str) {
        let csr = warm.csr();
        let cold = plain_run(csr, warm.m, warm.cap()).unwrap();
        assert_eq!(warm.outcome().schedule, cold.schedule, "{what}");
        assert_eq!(warm.outcome().marked, cold.marked, "{what}");
        for i in 0..csr.n() {
            assert_eq!(
                warm.outcome().schedule.start(i).to_bits(),
                cold.schedule.start(i).to_bits(),
                "{what}: start of task {i}"
            );
        }
    }

    #[test]
    fn replan_arrival_stream_is_bit_identical_to_cold() {
        let m = 4;
        let mut ws = KernelWorkspace::new();
        let mut run = open_session(replan_base(), m, None, &mut ws).unwrap();
        let mut rng = XorShift(0x9E3779B97F4A7C15);
        let mut warm_hits = 0usize;
        for _ in 0..40 {
            let n = run.csr().n();
            let mut preds = Vec::new();
            for _ in 0..rng.below(4) {
                let u = rng.below(n as u64) as u32;
                if !preds.contains(&u) {
                    preds.push(u);
                }
            }
            run.csr_mut()
                .apply_delta(&sws_dag::CsrDelta::AddTask {
                    preds,
                    p: rng.cost(),
                    s: rng.cost(),
                })
                .unwrap();
            let rank = Arc::new(index_priority(n + 1));
            run = run.replan(&rank, ReplanDelta::Arrival, &mut ws).unwrap();
            assert_matches_cold(&run, "arrival");
            if run.replayed_rounds() < n + 1 {
                warm_hits += 1;
            }
        }
        assert!(
            warm_hits > 0,
            "arrival replans never warm-started over 40 events"
        );
    }

    #[test]
    fn replan_recost_p_replays_from_the_placement_round() {
        let m = 4;
        let mut ws = KernelWorkspace::new();
        let mut run = open_session(replan_base(), m, None, &mut ws).unwrap();
        let rank = Arc::clone(run.rank());
        let mut rng = XorShift(0xA5A5A5A5DEADBEEF);
        for _ in 0..25 {
            let i = rng.below(run.csr().n() as u64) as u32;
            run.csr_mut()
                .apply_delta(&sws_dag::CsrDelta::Recost {
                    task: i,
                    p: Some(rng.cost()),
                    s: None,
                })
                .unwrap();
            run = run
                .replan(
                    &rank,
                    ReplanDelta::Recost {
                        task: i,
                        p_changed: true,
                        s_shift: CostShift::Unchanged,
                    },
                    &mut ws,
                )
                .unwrap();
            assert_matches_cold(&run, "recost-p");
            assert!(
                run.replayed_rounds() <= run.csr().n(),
                "replay longer than the instance"
            );
        }
    }

    #[test]
    fn uncapped_storage_recost_replays_nothing() {
        let m = 4;
        let mut ws = KernelWorkspace::new();
        let mut run = open_session(replan_base(), m, None, &mut ws).unwrap();
        let rank = Arc::clone(run.rank());
        run.csr_mut()
            .apply_delta(&sws_dag::CsrDelta::Recost {
                task: 17,
                p: None,
                s: Some(123.456),
            })
            .unwrap();
        let next = run
            .replan(
                &rank,
                ReplanDelta::Recost {
                    task: 17,
                    p_changed: false,
                    s_shift: CostShift::Raised,
                },
                &mut ws,
            )
            .unwrap();
        assert_eq!(next.replayed_rounds(), 0);
        // O(1): the no-op shares the records, snapshots and schedule.
        assert!(Arc::ptr_eq(&next.records, &run.records));
        assert!(Arc::ptr_eq(&next.checkpoints, &run.checkpoints));
        assert!(next
            .outcome()
            .schedule
            .shares_storage(&run.outcome().schedule));
        assert_matches_cold(&next, "uncapped recost-s");
    }

    #[test]
    fn capped_replan_stream_is_bit_identical_to_cold() {
        let base = replan_base();
        let m = 4;
        let total_s: f64 = (0..base.n()).map(|i| base.s(i)).sum();
        let cap = 2.25 * (total_s / m as f64);
        let mut ws = KernelWorkspace::new();
        let mut run = open_session(base, m, Some(cap), &mut ws).unwrap();
        let mut rng = XorShift(0xC0FFEE0DDF00D);
        for ev in 0..40 {
            let n = run.csr().n() as u64;
            let (delta, kdelta) = match rng.below(3) {
                0 => {
                    let mut preds = Vec::new();
                    for _ in 0..rng.below(3) {
                        let u = rng.below(n) as u32;
                        if !preds.contains(&u) {
                            preds.push(u);
                        }
                    }
                    (
                        sws_dag::CsrDelta::AddTask {
                            preds,
                            p: rng.cost(),
                            s: rng.cost(),
                        },
                        ReplanDelta::Arrival,
                    )
                }
                1 => {
                    let i = rng.below(n) as u32;
                    (
                        sws_dag::CsrDelta::Recost {
                            task: i,
                            p: Some(rng.cost()),
                            s: None,
                        },
                        ReplanDelta::Recost {
                            task: i,
                            p_changed: true,
                            s_shift: CostShift::Unchanged,
                        },
                    )
                }
                _ => {
                    let i = rng.below(n) as u32;
                    let old = run.csr().s(i as usize);
                    let new = old * if rng.below(2) == 0 { 0.75 } else { 1.25 };
                    let shift = if new < old {
                        CostShift::Lowered
                    } else {
                        CostShift::Raised
                    };
                    (
                        sws_dag::CsrDelta::Recost {
                            task: i,
                            p: None,
                            s: Some(new),
                        },
                        ReplanDelta::Recost {
                            task: i,
                            p_changed: false,
                            s_shift: shift,
                        },
                    )
                }
            };
            run.csr_mut().apply_delta(&delta).unwrap();
            let rank = Arc::new(index_priority(run.csr().n()));
            match run.replan(&rank, kdelta, &mut ws) {
                Ok(next) => {
                    assert_matches_cold(&next, &format!("capped event {ev}"));
                    run = next;
                }
                Err(_) => {
                    // The mutated instance became infeasible at this cap:
                    // the from-scratch oracle must refuse it too.
                    assert!(
                        plain_run(run.csr(), m, cap).is_err(),
                        "warm run errored where a cold run succeeds (event {ev})"
                    );
                    return;
                }
            }
        }
    }

    #[test]
    fn replan_with_a_mismatched_rank_falls_back_to_cold() {
        let m = 4;
        let mut ws = KernelWorkspace::new();
        let mut run = open_session(replan_base(), m, None, &mut ws).unwrap();
        run.csr_mut()
            .apply_delta(&sws_dag::CsrDelta::Recost {
                task: 3,
                p: Some(50.0),
                s: None,
            })
            .unwrap();
        // A rank the run was not recorded under: reversed indices.
        let n = run.csr().n();
        let reversed: Arc<PriorityRank> = Arc::new((0..n).map(|i| (n - 1 - i) as u32).collect());
        let next = run
            .replan(
                &reversed,
                ReplanDelta::Recost {
                    task: 3,
                    p_changed: true,
                    s_shift: CostShift::Unchanged,
                },
                &mut ws,
            )
            .unwrap();
        assert_eq!(next.replayed_rounds(), n, "mismatched rank must run cold");
        let mut cold_ws = KernelWorkspace::new();
        let csr = Arc::clone(run.csr());
        let cold = CheckpointedRun::session(csr, m, reversed, f64::INFINITY, &mut cold_ws).unwrap();
        assert_eq!(next.outcome().schedule, cold.outcome().schedule);
    }

    /// The rank guard admits an arrival only when its `(rank, task)`
    /// pack sorts after every recorded one. Under a degenerate recorded
    /// rank (all equal, above the arrival's index) an arrival ranked
    /// `n − 1` sorts *first*, wins the round-0 tie and must run cold.
    #[test]
    fn an_arrival_ranked_below_the_recorded_ranks_runs_cold() {
        let m = 4;
        let base = replan_base();
        let n = base.n();
        let flat = Arc::new(vec![u32::MAX - 1; n]);
        let mut ws = KernelWorkspace::new();
        let csr = Arc::new(base);
        let mut run = CheckpointedRun::session(csr, m, flat, f64::INFINITY, &mut ws).unwrap();
        let arrival = sws_dag::CsrDelta::AddTask {
            preds: vec![],
            p: 1.0,
            s: 1.0,
        };
        run.csr_mut().apply_delta(&arrival).unwrap();
        for (last, warm) in [(n as u32, false), (u32::MAX, true)] {
            let mut rank = vec![u32::MAX - 1; n];
            rank.push(last);
            let rank = Arc::new(rank);
            let next = run.replan(&rank, ReplanDelta::Arrival, &mut ws).unwrap();
            assert_eq!(next.replayed_rounds() < n + 1, warm, "arrival rank {last}");
            let mut cold_ws = KernelWorkspace::new();
            let cold =
                event_driven_schedule_csr(run.csr(), m, &rank, &mut Unrestricted, &mut cold_ws)
                    .unwrap();
            assert_same_bits(&next.outcome().schedule, &cold.schedule, "degenerate rank");
        }
    }

    // --- The two snapshot policies of the one recorded run -----------

    /// Every record of a run, floats by bit pattern.
    fn record_bits(r: &Records) -> [Vec<u64>; 5] {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        let wide = |v: &[u32]| v.iter().map(|&x| x as u64).collect();
        [
            wide(&r.placed),
            bits(&r.winner_key),
            bits(&r.min_load),
            bits(&r.reject_min),
            wide(&r.place_round),
        ]
    }

    fn kept_rounds(run: &CheckpointedRun) -> Vec<usize> {
        run.checkpoints.iter().map(|c| c.round).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// A sweep-policy and a session-policy cold run agree on the
        /// outcome and every record; they differ only in which stride
        /// boundaries they keep: the sweep policy exactly those of the
        /// strides with a finite threshold, the session policy all.
        #[test]
        fn snapshot_policies_differ_only_in_the_kept_boundaries(
            family in 0usize..7,
            n in 40usize..400,
            m in 2usize..9,
            seed in 0u64..1_000,
            (tight, u) in (0usize..6, 0.0f64..1.0),
        ) {
            use sws_workloads::{dagsets, TaskDistribution};
            let family = dagsets::DagFamily::all()[family];
            let inst = dagsets::dag_workload(
                family,
                n,
                m,
                TaskDistribution::Uncorrelated,
                &mut sws_workloads::seeded_rng(seed),
            );
            let (n, m) = (inst.n(), inst.m());
            // Mostly caps just above the lower bound, where they bind in
            // late strides (and sometimes fail), plus looser ones.
            let factor = if tight < 4 { 1.0 + 0.005 * tight as f64 } else { 1.0 + u };
            let cap = factor * inst.mmax_lower_bound();
            let rank = Arc::new(index_priority(n));
            let csr = Arc::new(inst.csr());
            let mut ws = KernelWorkspace::new();
            let sweep = CheckpointedRun::cold_in(Arc::clone(&csr), m, Arc::clone(&rank), cap, &mut ws);
            let session = CheckpointedRun::session(csr, m, rank, cap, &mut ws);
            let (sweep, session) = match (sweep, session) {
                (Ok(a), Ok(b)) => (a, b),
                (a, b) => {
                    proptest::prop_assert_eq!(format!("{:?}", a.err()), format!("{:?}", b.err()));
                    return;
                }
            };
            assert_same_bits(&sweep.outcome().schedule, &session.outcome().schedule, "policies");
            proptest::prop_assert_eq!(&sweep.outcome().marked, &session.outcome().marked);
            proptest::prop_assert_eq!(record_bits(&sweep.records), record_bits(&session.records));
            proptest::prop_assert_eq!(sweep.reject_floor.to_bits(), session.reject_floor.to_bits());
            let stride = checkpoint_stride(n);
            let boundaries: Vec<usize> = (0..n).step_by(stride).collect();
            let rejecting: Vec<usize> = boundaries
                .iter()
                .copied()
                .filter(|&b| {
                    let end = (b + stride).min(n);
                    sweep.records.reject_min[b..end].iter().any(|v| v.is_finite())
                })
                .collect();
            proptest::prop_assert_eq!(kept_rounds(&sweep), rejecting);
            proptest::prop_assert_eq!(kept_rounds(&session), boundaries);
        }
    }

    /// The ready tasks of `state`, sorted: every member of a pending tie
    /// group and every runnable task. A set, so neither the heap layout
    /// nor the group links enter a comparison.
    fn ready_set(state: &EngineState) -> Vec<u32> {
        let mut ready = Vec::new();
        for &k in &state.pending.heap {
            let mut t = task_of(pend_pack(k));
            while t != NO_TASK {
                ready.push(t);
                t = state.preds[t as usize].next;
            }
        }
        for (w, &word) in state.runnable.l0.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                ready.push(state.task_of_slot[w * 64 + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        ready.sort_unstable();
        ready
    }

    /// Asserts the restore invariant at every kept boundary of `run`: the
    /// placements and slot tables a restore rebuilds (and the processor
    /// loads and marks it copies) equal those of a plain cold run of the
    /// run's instance and rank stepped to the boundary's round, and so do
    /// the ready time (by bit pattern) and outstanding-predecessor count
    /// of every task the boundary leaves unplaced and the set of ready
    /// tasks. The placements compared are those of the tasks the cold run
    /// placed so far, start times by bit pattern. Each boundary is
    /// restored through a fresh workspace and through one that last ran
    /// a larger instance, whose stale readiness entries the placed tasks
    /// keep; that restore then replays to the run's own outcome, so no
    /// stale entry is read. Returns the boundaries checked.
    fn assert_restores_match_cold(run: &CheckpointedRun, what: &str) -> usize {
        use sws_workloads::{dagsets, TaskDistribution};
        let (csr, rank, m) = (run.csr(), run.rank(), run.m);
        let (n, cap) = (csr.n(), run.cap());
        let other = dagsets::dag_workload(
            dagsets::DagFamily::ForkJoin,
            n + 40,
            m + 1,
            TaskDistribution::Bimodal,
            &mut sws_workloads::seeded_rng(0xBAD),
        );
        let (other_csr, other_rank) = (other.csr(), index_priority(other.n()));
        for ci in 0..run.checkpoints.len() {
            let ck = &run.checkpoints[ci];
            let mut cold = KernelWorkspace::new();
            cold.state.init(csr, m, rank);
            let mut admission = MemoryCapAdmission::new(m, cap);
            let mut placed = vec![false; n];
            while cold.state.round < ck.round {
                let (task, _) = cold
                    .state
                    .step(csr, rank, &mut admission, &mut cold.scratch)
                    .unwrap();
                placed[task as usize] = true;
            }
            let cold = &cold.state;
            let mut stale = KernelWorkspace::new();
            let other = &mut Unrestricted;
            event_driven_schedule_csr(&other_csr, m + 1, &other_rank, other, &mut stale).unwrap();
            for (mut ws, label) in [(KernelWorkspace::new(), "fresh"), (stale, "stale")] {
                run.restore(ci, rank, &mut ws);
                let warm = &ws.state;
                let ctx = format!("{what}: boundary {} ({label} workspace)", ck.round);
                assert_eq!(warm.round, cold.round, "{ctx}");
                for (t, &placed) in placed.iter().enumerate() {
                    if placed {
                        assert_eq!(warm.proc_of[t], cold.proc_of[t], "{ctx}: task {t}");
                        assert_eq!(
                            warm.start[t].to_bits(),
                            cold.start[t].to_bits(),
                            "{ctx}: task {t}"
                        );
                    } else {
                        let (w, c) = (warm.preds[t], cold.preds[t]);
                        assert_eq!(w.ready.to_bits(), c.ready.to_bits(), "{ctx}: task {t}");
                        assert_eq!(w.remaining, c.remaining, "{ctx}: task {t}");
                    }
                }
                assert_eq!(ready_set(warm), ready_set(cold), "{ctx}");
                assert_eq!(warm.slot_of_task, cold.slot_of_task, "{ctx}");
                assert_eq!(warm.task_of_slot, cold.task_of_slot, "{ctx}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(warm.procs.loads()), bits(cold.procs.loads()), "{ctx}");
                assert_eq!(warm.marked, cold.marked, "{ctx}");
                if label == "stale" {
                    let mut admission = MemoryCapAdmission {
                        memsize: ck.memsize.clone(),
                        cap,
                    };
                    let KernelWorkspace { state, scratch, .. } = &mut ws;
                    while state.round < n {
                        state.step(csr, rank, &mut admission, scratch).unwrap();
                    }
                    let replayed = state.finish(m).unwrap();
                    assert_same_bits(&replayed.schedule, &run.outcome().schedule, &ctx);
                }
            }
        }
        run.checkpoints.len()
    }

    /// A snapshot's size does not grow with the tasks its boundary has
    /// placed: on a chain only the next task is ever ready, so every kept
    /// boundary of a 10 000-task session stores at most one pending
    /// member and one pending entry, and a restore still matches a cold
    /// run stepped to it.
    #[test]
    fn chain_snapshots_store_at_most_one_member() {
        let inst = DagInstance::new(chain(10_000), 4).unwrap();
        let (n, m) = (inst.n(), inst.m());
        let rank = Arc::new(index_priority(n));
        let mut ws = KernelWorkspace::new();
        let run = CheckpointedRun::session(Arc::new(inst.csr()), m, rank, f64::INFINITY, &mut ws)
            .unwrap();
        assert_eq!(run.checkpoints.len(), n.div_ceil(checkpoint_stride(n)));
        for ck in run.checkpoints.iter() {
            assert!(ck.members.len() <= 1, "boundary {}", ck.round);
            assert!(ck.pending.heap.len() <= 1, "boundary {}", ck.round);
            assert_eq!(ck.procs.m(), m);
            assert_eq!(ck.runnable.l0.len(), n.div_ceil(64));
        }
        let last = run.checkpoints.len() - 1;
        let mut warm = KernelWorkspace::new();
        run.restore(last, run.rank(), &mut warm);
        assert_eq!(
            ready_set(&warm.state),
            vec![run.records.placed[run.checkpoints[last].round]]
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The restore invariant (see [`assert_restores_match_cold`]) on
        /// the two kinds of run that keep boundaries: a session after a
        /// few arrivals and processing-time re-estimates, whose older
        /// boundaries predate some of the arrivals, and each run along a
        /// ∆-sweep chain whose cap binds.
        #[test]
        fn restored_boundaries_match_a_cold_run_stepped_to_them(
            family in 0usize..7,
            n in 40usize..300,
            m in 2usize..9,
            seed in 0u64..1_000,
            events in 1usize..7,
        ) {
            use sws_workloads::{dagsets, TaskDistribution};
            let family = dagsets::DagFamily::all()[family];
            let inst = dagsets::dag_workload(
                family,
                n,
                m,
                TaskDistribution::Uncorrelated,
                &mut sws_workloads::seeded_rng(seed),
            );
            let m = inst.m();
            let mut ws = KernelWorkspace::new();
            // A rank that is not the identity, so the slot tables are too.
            let csr = Arc::new(inst.csr());
            let rank = Arc::new(crate::priority::lpt_priority_csr(&csr));

            // Session side: arrivals (each ranked last) and re-estimates,
            // then every boundary.
            let (csr_0, rank_0) = (Arc::clone(&csr), Arc::clone(&rank));
            let mut run =
                CheckpointedRun::session(csr_0, m, rank_0, f64::INFINITY, &mut ws).unwrap();
            let mut rng = XorShift(0x9E3779B97F4A7C15 ^ seed);
            for _ in 0..events {
                let n_now = run.csr().n();
                let (delta, kdelta) = if rng.below(2) == 0 {
                    let preds = match rng.below(3) {
                        0 => vec![],
                        1 => vec![rng.below(n_now as u64) as u32],
                        _ => vec![(n_now - 1) as u32],
                    };
                    let (p, s) = (rng.cost(), rng.cost());
                    (sws_dag::CsrDelta::AddTask { preds, p, s }, ReplanDelta::Arrival)
                } else {
                    let task = rng.below(n_now as u64) as u32;
                    let p = Some(rng.cost());
                    let delta = sws_dag::CsrDelta::Recost { task, p, s: None };
                    let kdelta = ReplanDelta::Recost {
                        task,
                        p_changed: true,
                        s_shift: CostShift::Unchanged,
                    };
                    (delta, kdelta)
                };
                run.csr_mut().apply_delta(&delta).unwrap();
                let mut rank = run.rank().to_vec();
                if kdelta == ReplanDelta::Arrival {
                    rank.push(n_now as u32);
                }
                run = run.replan(&Arc::new(rank), kdelta, &mut ws).unwrap();
            }
            let kept = assert_restores_match_cold(&run, "session");
            let n = run.csr().n();
            proptest::prop_assert_eq!(kept, n.div_ceil(checkpoint_stride(n)));

            // Sweep side: a chain from just above the lower bound, resumed
            // at each run's smallest rejected value while the cap binds.
            let cap = 1.01 * inst.mmax_lower_bound();
            let Ok(mut chain) = CheckpointedRun::cold_in(csr, m, rank, cap, &mut ws) else {
                return;
            };
            assert_restores_match_cold(&chain, "sweep");
            for _ in 0..3 {
                if !chain.reject_floor.is_finite() {
                    break;
                }
                // A larger cap can still fail (list schedules are not
                // monotone in it); the chain ends there.
                let Ok(next) = chain.resume_in(chain.reject_floor, &mut ws) else {
                    break;
                };
                chain = next;
                assert_restores_match_cold(&chain, "sweep chain");
            }
        }
    }

    /// The single fallback from both sides: an arrival on a sweep-policy
    /// run replays warm only when a rejecting stride kept a boundary at
    /// or before its ready round, and runs cold otherwise; a cap delta
    /// on a session-policy run restores the same boundary a sweep chain
    /// would, and a shrinking cap runs cold. Every result is
    /// bit-identical to a plain kernel run of the changed inputs.
    #[test]
    fn arrivals_on_sweep_runs_and_caps_on_session_runs_match_cold() {
        let inst = binding_instance();
        let (n, m) = (inst.n(), inst.m());
        let lb = inst.mmax_lower_bound();
        let stride = checkpoint_stride(n);
        let mut ws = KernelWorkspace::new();

        // Sweep side: a binding chain keeps only late boundaries, so a
        // source arrival (ready round 0) falls back to a cold run, and an
        // arrival behind the last task replays warm.
        let (mut cold_hits, mut warm_hits) = (0, 0);
        for (cap, preds) in [
            (1.01 * lb, vec![]),
            (1.01 * lb, vec![(n - 1) as u32]),
            (4.0 * lb, vec![(n - 1) as u32]),
        ] {
            let rank = Arc::new(index_priority(n));
            let mut run = CheckpointedRun::cold(&inst, rank, cap).unwrap();
            let kept = kept_rounds(&run);
            run.csr_mut()
                .apply_delta(&sws_dag::CsrDelta::AddTask {
                    preds,
                    p: 3.0,
                    s: 1.0,
                })
                .unwrap();
            let next = run
                .replan(
                    &Arc::new(index_priority(n + 1)),
                    ReplanDelta::Arrival,
                    &mut ws,
                )
                .unwrap();
            assert_matches_cold(&next, &format!("arrival at cap {cap}"));
            let r0 = run.ready_info(n).1;
            match kept.iter().rposition(|&b| b <= r0) {
                Some(ci) => {
                    assert_eq!(next.replayed_rounds(), n + 1 - kept[ci]);
                    warm_hits += 1;
                }
                None => {
                    assert_eq!(next.replayed_rounds(), n + 1, "no kept boundary: cold");
                    cold_hits += 1;
                }
            }
        }
        assert!(
            cold_hits > 0 && warm_hits > 0,
            "{cold_hits} cold, {warm_hits} warm"
        );

        // Session side: cap deltas restore the divergence's boundary.
        let csr = Arc::new(inst.csr());
        let rank = Arc::new(index_priority(n));
        let mut run =
            CheckpointedRun::session(Arc::clone(&csr), m, Arc::clone(&rank), 1.01 * lb, &mut ws)
                .unwrap();
        let mut resumed = 0;
        while run.reject_floor.is_finite() {
            let cap = run.reject_floor;
            let d = first_divergence(&run.records.reject_min, cap).unwrap();
            let next = run.replan(&rank, ReplanDelta::Cap(cap), &mut ws).unwrap();
            assert_eq!(next.replayed_rounds(), n - d / stride * stride, "d = {d}");
            assert_matches_cold(&next, &format!("session cap {cap}"));
            assert_eq!(
                kept_rounds(&next),
                (0..n).step_by(stride).collect::<Vec<_>>()
            );
            run = next;
            resumed += 1;
        }
        assert!(resumed >= 2, "the session chain must bind across resumes");
        let open = run
            .replan(&rank, ReplanDelta::Cap(f64::INFINITY), &mut ws)
            .unwrap();
        assert_eq!(open.replayed_rounds(), 0, "a cap that binds nowhere shares");
        assert!(Arc::ptr_eq(&open.records, &run.records));
        let shrunk = open
            .replan(&rank, ReplanDelta::Cap(2.0 * lb), &mut ws)
            .unwrap();
        assert_eq!(shrunk.replayed_rounds(), n, "a smaller cap runs cold");
        assert_matches_cold(&shrunk, "shrunk session cap");
    }
}
