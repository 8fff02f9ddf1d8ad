//! # satn-bench
//!
//! The experiment harness reproducing every figure and table of the paper's
//! evaluation (Section 6), plus the theory-validation experiments
//! (Lemma 8, Theorems 7 and 11, the Move-To-Front lower bound and Table 1).
//!
//! * Run everything: `cargo run -p satn-bench --release --bin experiments`
//! * Run one experiment: `cargo run -p satn-bench --release --bin experiments -- q2`
//! * Criterion micro-benchmarks: `cargo bench -p satn-bench`
//!
//! The library part exposes the building blocks so that integration tests and
//! the examples can reuse them:
//!
//! * [`ExperimentConfig`] — sizes, repetitions and seeds (`--quick`,
//!   default/standard, `--paper` presets),
//! * [`measure_algorithms`] — run a set of algorithms on a workload with
//!   repetitions and averaged per-request costs; each cell executes as a
//!   `satn-sim` scenario on the engine's batched serving path,
//! * [`experiments`] — one function per figure/table, each returning a
//!   [`FigureResult`] that renders as text or CSV.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod config;
pub mod experiments;
pub mod extensions;
mod measure;
mod report;

pub use config::ExperimentConfig;
pub use measure::{cost_of, measure_algorithms, measure_once, AlgorithmCost};
pub use report::{fmt, FigureResult, TextTable};
