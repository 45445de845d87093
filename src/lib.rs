//! # sws — Scheduling with Storage Constraints
//!
//! Umbrella crate of the reproduction of *Scheduling with Storage
//! Constraints* (Saule, Dutot, Mounié — IPDPS 2008). It re-exports every
//! workspace crate under one roof and hosts the repository-level
//! integration tests (`tests/`) and runnable examples (`examples/`).
//!
//! Crate map:
//!
//! * [`model`] — tasks, instances, schedules, objectives, bounds;
//! * [`dag`] — task graphs, generators, topological utilities;
//! * [`listsched`] — classical list schedulers **and the event-driven
//!   scheduling kernel** shared by every list-scheduling algorithm;
//! * [`exact`] — exhaustive/branch-and-bound baselines;
//! * [`ptas`] — the dual-approximation PTAS used by Corollary 1;
//! * [`simulator`] — discrete-event replay and validation;
//! * [`workloads`] — random and structured instance generators;
//! * [`core`] — the paper's algorithms (SBO∆, RLS∆, tri-objective,
//!   constrained procedure, ∆-sweeps);
//! * [`mod@bench`] — experiment and figure-regeneration harness.

#![forbid(unsafe_code)]

pub use sws_bench as bench;
pub use sws_core as core;
pub use sws_dag as dag;
pub use sws_exact as exact;
pub use sws_listsched as listsched;
pub use sws_model as model;
pub use sws_ptas as ptas;
pub use sws_simulator as simulator;
pub use sws_workloads as workloads;
