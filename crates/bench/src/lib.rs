#![warn(missing_docs)]

//! Measures the simulator itself: throughput on a fixed mix
//! ([`baseline`]) and the cost of epoch commitments ([`commit`]), both
//! gated against `BENCH_simcore.json` by the `chats-bench` binary. The
//! paper's tables and figures are rendered by `chats-run run <id>` (see
//! `chats_runner::figures`).

pub mod baseline;
pub mod commit;
