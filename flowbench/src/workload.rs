//! The benchmark's workloads: a design profile and scale, a flow, and the
//! flow configuration each job runs with.

use dco_flow::{FlowConfig, FlowKind};
use dco_netlist::generate::{DesignProfile, GeneratorConfig};
use dco_netlist::Design;

use crate::BenchError;

/// The flow seed every job uses (the `dco3d` CLI default). The workload
/// seed only chooses the generated design; the program never sees it.
pub const FLOW_SEED: u64 = 1;

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Design profile the generator scales down.
    pub profile: DesignProfile,
    /// Generator scale (fraction of the profile's cell count).
    pub scale: f64,
    /// The flow each job runs.
    pub kind: FlowKind,
    /// Flow configuration for each job.
    pub cfg: FlowConfig,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "dco3d-flow",
            profile: DesignProfile::Aes,
            scale: 0.03,
            kind: FlowKind::Dco3d,
            cfg: FlowConfig::default(),
        },
        Workload {
            name: "bo-flow",
            profile: DesignProfile::Ldpc,
            scale: 0.1,
            kind: FlowKind::Pin3dBo,
            cfg: FlowConfig::default(),
        },
    ]
}

/// The workload called `name`.
///
/// # Errors
/// [`BenchError::Usage`] for an unknown name.
pub fn by_name(name: &str) -> Result<Workload, BenchError> {
    all().into_iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = all().iter().map(|w| w.name).collect();
        BenchError::Usage(format!(
            "unknown workload `{name}` (one of: {})",
            names.join(", ")
        ))
    })
}

impl Workload {
    /// Whether each job trains its own predictor, as plain
    /// `dco3d flow --kind dco3d` does.
    pub fn trains_per_job(&self) -> bool {
        self.kind == FlowKind::Dco3d
    }

    /// A miniature of the workload with the same flow and stages, small
    /// enough for the benchmark's own tests in an unoptimised build.
    #[must_use]
    pub fn tiny(mut self) -> Self {
        self.scale = 0.01;
        self.cfg.train_layouts = 2;
        self.cfg.train_epochs = 1;
        self.cfg.dco.max_iter = 2;
        self.cfg.bo.iterations = self.cfg.bo.iterations.min(3);
        self.cfg.bo.initial_samples = self.cfg.bo.initial_samples.min(2);
        self
    }

    /// Generate the workload's design from the workload seed.
    ///
    /// # Errors
    /// Propagates generator errors.
    pub fn design(&self, seed: u64) -> Result<Design, BenchError> {
        Ok(GeneratorConfig::for_profile(self.profile)
            .with_scale(self.scale)
            .generate(seed)?)
    }
}
