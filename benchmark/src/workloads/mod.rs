//! The three workloads. Each exposes `run(&mut Ctx) -> Outcome`.

pub mod block_solve;
pub mod sd_steps;
pub mod serve;
