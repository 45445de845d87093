//! # sws-listsched
//!
//! Classical single-objective schedulers used as building blocks and
//! baselines by the reproduction of *Scheduling with Storage Constraints*:
//!
//! * [`graham`] — Graham list scheduling for independent tasks
//!   (the `2 − 1/m`-approximation of `P ∥ Cmax` recalled in Section 3.1),
//!   generic over the minimized weight so the same code schedules for
//!   `Cmax` (weight `p_i`) or `Mmax` (weight `s_i`);
//! * [`lpt`] — Longest Processing Time first (`4/3 − 1/(3m)`);
//! * [`spt`] — Shortest Processing Time first, optimal for `P ∥ ΣC_i`
//!   (used by the Section 5.2 tri-objective extension);
//! * [`multifit`] — the MULTIFIT coordination of FFD bin packing and
//!   binary search, a stronger `Cmax` heuristic used as an extra baseline;
//! * [`dag_list`] — Graham list scheduling under precedence constraints
//!   (the algorithm RLS∆ restricts);
//! * [`priority`] — priority orders for the DAG list scheduler
//!   (bottom level / HLF, SPT, LPT, topological);
//! * [`kernel`] — the **event-driven scheduling kernel** every list
//!   scheduler (including RLS∆ in `sws-core`) runs on: heap-based ready
//!   queues fed by completion events, an indexed min-heap over processor
//!   loads with a pluggable admissibility predicate, and incremental
//!   Lemma-4 marking — `O((n + E)·log n + n·log m)` plus `O(log n)` per
//!   pending tie group a contested round pops (when admission
//!   rejections are rare; see `kernel`'s module docs for both costs)
//!   instead of the naive `O(n²·m)`.
//!
//! The original quadratic implementations, which the kernel must match
//! schedule for schedule, live in the dev-only `sws_oracle` crate.

#![forbid(unsafe_code)]

pub mod dag_list;
pub mod graham;
pub mod kernel;
pub mod lpt;
pub mod multifit;
pub mod priority;
pub mod spt;

pub use dag_list::{dag_list_schedule, dag_list_schedule_csr};
pub use graham::{graham_cmax, graham_mmax, list_schedule, list_schedule_with};
pub use kernel::{
    event_driven_schedule, event_driven_schedule_csr, Admission, CheckpointedRun, CostShift,
    KernelOutcome, KernelWorkspace, MemoryCapAdmission, ProcHeap, ReplanDelta, Unrestricted,
    PROBE_STRIDE,
};
pub use lpt::{lpt_cmax, lpt_mmax};
pub use multifit::multifit_cmax;
pub use spt::{spt_order, spt_schedule};
