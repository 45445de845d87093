//! # sws-oracle
//!
//! The reference implementations the differential suites compare the
//! event-driven kernel (`sws_listsched::kernel`) against, schedule for
//! schedule:
//!
//! * [`list_schedule`] and [`dag_list_schedule`] — the original
//!   `O(n·m)` and `O(n²·m)` Graham list-scheduling scans;
//! * [`rls`] — the original `O(n²·m)` scan of RLS∆ (Algorithm 2);
//! * [`spt_priority`], [`lpt_priority`], [`largest_storage_priority`]
//!   and [`GraphRank`] — the priority ranks built with `f64`
//!   comparators over the nested `TaskGraph`, which the bit-sorted CSR
//!   ranks of `sws_listsched::priority` must reproduce.
//!
//! The scans are kept as they were written; only their float
//! tolerances route through the shared [`sws_model::numeric`] helpers,
//! as the kernel's do.
//!
//! The crate is dev-only: it is never published, only
//! `[dev-dependencies]` name it, and CI fails when a normal dependency
//! edge of the workspace reaches it.

#![forbid(unsafe_code)]

mod naive;
mod priority;
mod rls;

pub use naive::{dag_list_schedule, list_schedule};
pub use priority::{largest_storage_priority, lpt_priority, spt_priority, GraphRank};
pub use rls::rls;
