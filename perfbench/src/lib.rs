//! The simulator benchmark: four workloads timed end to end, and a traced
//! run that attributes host time and work to each layer. See README.md.

pub mod run;
pub mod sched;
pub mod spans;
pub mod stats;
pub mod workloads;
