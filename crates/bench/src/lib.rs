//! The reproduction harness: the paper's claims as one table ([`claims`],
//! rendered by the `study` binary) and the report helpers the layer
//! benchmarks share.

pub mod claims;
pub mod report;

pub use report::write_report;
