//! The repository benchmark: throughput of the REACT simulator on three
//! workloads, measured end to end through the public `react-core` API,
//! plus a traced mode that splits each cell's wall time by layer.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fine-burst --seed 0 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

pub mod bench;
pub mod stats;
pub mod timing;
pub mod workloads;
