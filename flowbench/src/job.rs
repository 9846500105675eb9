//! One set-up and one job, through the public calls `dco3d flow` makes,
//! plus the output signature every job is checked against.

use std::time::Instant;

use dco_flow::{
    train_predictor_resilient, FlowConfig, FlowOutcome, FlowRunner, Predictor, ResilienceOptions,
    ResilienceReport,
};
use dco_netlist::{Design, Placement3};

use crate::workload::{Workload, FLOW_SEED};
use crate::BenchError;

/// The outputs a job must reproduce bit for bit: a checksum of the final
/// placement and the four Table-III quality numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Signature {
    /// FNV-1a checksum over the final x, y and tier of every cell.
    pub placement: u64,
    /// Placement-stage routing overflow (Table III, tracks).
    pub overflow: f64,
    /// End-of-flow setup TNS after the ECO pass (ps, ≤ 0).
    pub tns_ps: f64,
    /// End-of-flow total power (mW).
    pub power_mw: f64,
    /// Routed plus clock-tree wirelength (µm).
    pub wirelength_um: f64,
}

/// Checksum of a placement's coordinates and tiers.
pub fn placement_checksum(p: &Placement3) -> u64 {
    let tiers: Vec<f64> = p.tiers().iter().map(|t| t.as_z()).collect();
    let c = dco_parallel::checksum_combine(
        dco_parallel::checksum_f64(p.xs()),
        dco_parallel::checksum_f64(p.ys()),
    );
    dco_parallel::checksum_combine(c, dco_parallel::checksum_f64(&tiers))
}

impl Signature {
    /// The signature of a finished flow.
    pub fn of(outcome: &FlowOutcome) -> Self {
        Self {
            placement: placement_checksum(&outcome.placement),
            overflow: outcome.placement_stage.overflow,
            tns_ps: outcome.signoff.tns_ps,
            power_mw: outcome.signoff.total_power_mw,
            wirelength_um: outcome.signoff.wirelength_um,
        }
    }

    /// Check that the quality numbers are finite and in range: overflow
    /// and TNS may be 0 (a clean route, timing met), power and wirelength
    /// may not.
    ///
    /// # Errors
    /// [`BenchError::Check`] naming the first bad value.
    pub fn validate(&self) -> Result<(), BenchError> {
        let checks = [
            ("overflow", self.overflow, self.overflow >= 0.0),
            ("tns_ps", self.tns_ps, self.tns_ps <= 0.0),
            ("power_mw", self.power_mw, self.power_mw > 0.0),
            (
                "wirelength_um",
                self.wirelength_um,
                self.wirelength_um > 0.0,
            ),
        ];
        for (name, value, ok) in checks {
            if !value.is_finite() || !ok {
                return Err(BenchError::Check(format!(
                    "{name} = {value} is out of range"
                )));
            }
        }
        Ok(())
    }

    /// Check bitwise equality with a reference signature.
    ///
    /// # Errors
    /// [`BenchError::Check`] naming every field that differs.
    pub fn check_against(&self, reference: &Self) -> Result<(), BenchError> {
        let mut diffs = Vec::new();
        if self.placement != reference.placement {
            diffs.push(format!(
                "placement checksum {:016x} != {:016x}",
                self.placement, reference.placement
            ));
        }
        let fields = [
            ("overflow", self.overflow, reference.overflow),
            ("tns_ps", self.tns_ps, reference.tns_ps),
            ("power_mw", self.power_mw, reference.power_mw),
            ("wirelength_um", self.wirelength_um, reference.wirelength_um),
        ];
        for (name, got, want) in fields {
            if got.to_bits() != want.to_bits() {
                diffs.push(format!("{name} {got} != {want}"));
            }
        }
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(BenchError::Check(diffs.join("; ")))
        }
    }
}

/// What set-up made: the workload's design.
#[derive(Debug)]
pub struct Setup {
    /// The generated design.
    pub design: Design,
    /// Wall time of the set-up (s).
    pub secs: f64,
}

/// The resilience options `dco3d flow` uses without `--resume`/`--inject`.
pub fn flow_options() -> ResilienceOptions {
    ResilienceOptions::resilient()
}

/// Check a resilience report: a job fails when a result is degraded or
/// when the resilience layer had to act at all (a panic retried, a
/// rollback, a non-converged route), so that an intermittent failure
/// shows as a failed job rather than as a slow one.
///
/// # Errors
/// [`BenchError::Degraded`] or [`BenchError::Recovered`] naming `what`.
pub fn check_report(what: &str, report: &ResilienceReport) -> Result<(), BenchError> {
    if report.degraded {
        return Err(BenchError::Degraded(what.into()));
    }
    if report.recovered() {
        let events: Vec<String> = report.events.iter().map(ToString::to_string).collect();
        return Err(BenchError::Recovered(format!(
            "{what}: {}",
            events.join("; ")
        )));
    }
    Ok(())
}

/// Train a predictor as `dco3d flow` does.
///
/// # Errors
/// A typed flow error, or a training run that degraded or recovered.
pub fn train(design: &Design, cfg: &FlowConfig) -> Result<Predictor, BenchError> {
    let (p, report) = train_predictor_resilient(design, cfg, FLOW_SEED, &flow_options())?;
    check_report("predictor training", &report)?;
    Ok(p)
}

/// Set up a workload: generate its design from the workload seed.
///
/// # Errors
/// Generator errors.
pub fn setup(w: &Workload, seed: u64) -> Result<Setup, BenchError> {
    let t0 = Instant::now();
    let design = w.design(seed)?;
    Ok(Setup {
        design,
        secs: t0.elapsed().as_secs_f64(),
    })
}

/// One untraced job: train the predictor if the workload trains per job,
/// then run the workload's flow. Returns the wall time (s) and the
/// outcome's signature.
///
/// # Errors
/// A typed flow error, or a resilience report that degraded or recovered.
pub fn run_job(w: &Workload, s: &Setup) -> Result<(f64, Signature), BenchError> {
    let opts = flow_options();
    let t0 = Instant::now();
    let predictor = w
        .trains_per_job()
        .then(|| train(&s.design, &w.cfg))
        .transpose()?;
    let runner = FlowRunner::new(&s.design, w.cfg.clone());
    let resilient = runner.run_resilient(w.kind, FLOW_SEED, predictor.as_ref(), &opts)?;
    let secs = t0.elapsed().as_secs_f64();
    check_report(&format!("{} flow", w.kind.slug()), &resilient.report)?;
    let sig = Signature::of(&resilient.outcome);
    sig.validate()?;
    Ok((secs, sig))
}
