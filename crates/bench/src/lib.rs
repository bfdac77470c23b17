//! # kwt-bench
//!
//! Experiment drivers that regenerate every table and figure of the
//! paper's evaluation. The `paper` binary is the entry point:
//!
//! ```text
//! cargo run -p kwt-bench --release --bin paper -- all
//! cargo run -p kwt-bench --release --bin paper -- table9
//! cargo run -p kwt-bench --release --bin paper -- table4 --full
//! ```
//!
//! Trained models are cached under `results/` so repeated invocations do
//! not retrain. `--full` enables the expensive parts (training the 611 k
//! parameter KWT-1); the default "quick" mode trains only KWT-Tiny
//! (~10 s) and reports KWT-1 accuracy as not measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
pub mod cascadebench;
pub mod enginebench;
pub mod experiments;
pub mod faultsweep;
pub mod gscbench;
pub mod servebench;
mod timing;
pub mod tune;

pub use experiments::ExpContext;
