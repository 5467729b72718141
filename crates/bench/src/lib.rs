//! Figure harnesses: every table and figure of the SketchML paper's
//! evaluation (§4 and Appendix B), and one per extension.
//!
//! One binary per figure lives in `src/bin/` (see DESIGN.md §3 for the
//! index); this library holds the shared plumbing: compressor registry,
//! dataset scaling, paper-shaped table printing, and the one JSON shape
//! ([`ExperimentOutput`]) every bin writes under `target/experiments/`.
//! Speeds are not recorded here: that is `benchmark/` + `BENCHMARK.json`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod harness;
pub mod output;

pub use harness::{all_compressors, competitor_compressors, scaled, Method};
pub use output::{print_table, write_json, ExperimentOutput};
