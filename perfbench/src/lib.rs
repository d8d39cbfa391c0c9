//! End-to-end verification benchmark: the seeded corpus and workload
//! plans, and the span arithmetic of the traced replay. The runner is
//! `perfbench/run.py`; `src/main.rs` is its in-process helper.

pub mod corpus;
pub mod plan;
pub mod spans;
