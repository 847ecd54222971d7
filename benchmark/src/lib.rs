//! The repo's benchmark: four workloads over the paper's section-6
//! schema, measured from outside the engine. See `README.md`.

pub mod client;
pub mod epilogue;
pub mod json;
pub mod ledger;
pub mod measure;
pub mod ops;
pub mod probes;
pub mod report;
pub mod run;
pub mod spec;
pub mod trace;
pub mod witness;
pub mod world;
