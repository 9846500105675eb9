//! Whole-flow benchmark for the DCO-3D workspace.
//!
//! One run measures one workload: it generates the workload's design from
//! the seed it is given, runs complete flows through the same public calls
//! `dco3d flow` makes (`train_predictor_resilient`, then
//! `FlowRunner::run_resilient`) at 1 and 2 threads for a fixed time, checks
//! every output against the first, and reports end-to-end metrics. A traced
//! run additionally replays one job stage by stage under `dco_obs` spans
//! and reports per-layer metrics from the spans and counters the program
//! records. See `flowbench/README.md` for the metric catalogue.

pub mod job;
pub mod measure;
pub mod probe;
pub mod report;
pub mod stats;
pub mod traced;
pub mod workload;

/// Why a benchmark run could not produce its metrics.
#[derive(Debug)]
pub enum BenchError {
    /// Design generation failed.
    Netlist(dco_netlist::NetlistError),
    /// A flow returned a typed error.
    Flow(dco_flow::FlowError),
    /// A flow finished on best-so-far (degraded) results.
    Degraded(String),
    /// The resilience layer had to act (for example, retry a panicked
    /// stage) for a flow to finish.
    Recovered(String),
    /// An output failed a check.
    Check(String),
    /// A command-line or workload-name error.
    Usage(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Netlist(e) => write!(f, "design generation failed: {e}"),
            Self::Flow(e) => write!(f, "flow failed: {e}"),
            Self::Degraded(what) => write!(f, "flow degraded: {what}"),
            Self::Recovered(what) => write!(f, "flow needed recovery: {what}"),
            Self::Check(what) => write!(f, "output check failed: {what}"),
            Self::Usage(what) => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<dco_netlist::NetlistError> for BenchError {
    fn from(e: dco_netlist::NetlistError) -> Self {
        Self::Netlist(e)
    }
}

impl From<dco_flow::FlowError> for BenchError {
    fn from(e: dco_flow::FlowError) -> Self {
        Self::Flow(e)
    }
}
