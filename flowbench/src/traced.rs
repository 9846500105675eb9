//! The traced run: one job replayed stage by stage through the
//! `FlowRunner::stage_*` library calls under the benchmark's own spans,
//! with the program's spans and counters switched on, plus direct calls
//! into the dataset builder and the UNet.

use std::time::Instant;

use dco_flow::stages::DcoStage;
use dco_flow::{build_dataset, FlowError, FlowKind, FlowRunner, Predictor};
use dco_obs::report::{collect, parse_report, ObsArtifact};
use dco_obs::Metric;
use dco_parallel::PoolStats;
use dco_tensor::arena::ArenaStats;

use crate::job::{placement_checksum, train, Setup, Signature};
use crate::stats::median;
use crate::workload::{Workload, FLOW_SEED};
use crate::BenchError;

/// The benchmark's spans around each piece of a job, with the per-layer
/// metric each one's wall time is reported as.
pub const JOB_SPANS: [(&str, &str); 7] = [
    ("bench.train", "flow.train_s"),
    ("bench.stage.place", "flow.stage.place_s"),
    ("bench.stage.dco", "flow.stage.dco_s"),
    ("bench.stage.tier_assign", "flow.stage.tier_assign_s"),
    ("bench.stage.cts", "flow.stage.cts_s"),
    ("bench.stage.route", "flow.stage.route_s"),
    ("bench.stage.sta", "flow.stage.sta_s"),
];

/// Repetitions of the direct `SiameseUNet::predict` call (median taken).
pub const PREDICT_REPS: usize = 5;

/// Spans and counters collected while tracing something.
#[derive(Debug)]
pub struct Trace {
    /// Wall time of the traced work (s).
    pub wall_s: f64,
    /// The parsed `dco_obs` artifact.
    pub artifact: ObsArtifact,
    /// Pool telemetry over the traced work.
    pub pool: PoolStats,
    /// The calling thread's tensor-arena counters over the traced work.
    pub arena: ArenaStats,
}

impl Trace {
    /// Wall times (s) of every span called `name`.
    pub fn span_secs(&self, name: &str) -> Vec<f64> {
        self.artifact
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.wall_ns as f64 * 1e-9)
            .collect()
    }

    /// Total wall time (s) of the spans called `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.span_secs(name).iter().sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.span_secs(name).len() as u64
    }

    /// Value of counter `name` (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.artifact
            .metrics
            .iter()
            .find_map(|(n, m)| match m {
                Metric::Counter(v) if n == name => Some(*v),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Share of the traced wall time that the [`JOB_SPANS`] cover.
    pub fn job_span_coverage(&self) -> f64 {
        let covered: f64 = JOB_SPANS
            .iter()
            .map(|(span, _)| self.total_secs(span))
            .sum();
        covered / self.wall_s
    }

    /// `1 − Σ worker busy / (threads × wall)`: the share of the pool's
    /// worker time spent idle or outside pool tasks.
    pub fn pool_idle_frac(&self, threads: usize) -> f64 {
        let busy: u64 = self.pool.busy_ns.iter().sum();
        1.0 - busy as f64 * 1e-9 / (threads as f64 * self.wall_s)
    }
}

/// Run `work` with spans, counters and pool statistics on, from a clean
/// slate, and return its result with what was recorded.
///
/// # Errors
/// [`BenchError::Check`] when the artifact does not parse.
pub fn traced<R>(work: impl FnOnce() -> R) -> Result<(R, Trace), BenchError> {
    dco_obs::reset();
    dco_parallel::reset_pool_stats();
    dco_tensor::arena::reset_scratch();
    dco_obs::set_enabled(true);
    dco_parallel::set_stats_enabled(true);
    let t0 = Instant::now();
    let out = work();
    let wall_s = t0.elapsed().as_secs_f64();
    dco_obs::set_enabled(false);
    dco_parallel::set_stats_enabled(false);
    let pool = dco_parallel::pool_stats();
    let arena = dco_tensor::arena::scratch_stats();
    let artifact = parse_report(&collect()).map_err(BenchError::Check);
    dco_obs::reset();
    let trace = Trace {
        wall_s,
        artifact: artifact?,
        pool,
        arena,
    };
    Ok((out, trace))
}

/// One job replayed stage by stage, as `FlowRunner::run_resilient` runs
/// it, each call under a [`JOB_SPANS`] span. Returns the outcome's
/// signature and the predictor the job trained (if it trains one).
///
/// # Errors
/// A training run that degraded or recovered; a DCO stage that degraded
/// or rolled back; a degraded route stage.
pub fn staged_job(w: &Workload, s: &Setup) -> Result<(Signature, Option<Predictor>), BenchError> {
    let trained = if w.trains_per_job() {
        let _span = dco_obs::span!("bench.train");
        Some(train(&s.design, &w.cfg)?)
    } else {
        None
    };
    let runner = FlowRunner::new(&s.design, w.cfg.clone());
    let place = {
        let _span = dco_obs::span!("bench.stage.place");
        runner.stage_place(w.kind, FLOW_SEED)
    };
    let dco = if w.kind == FlowKind::Dco3d {
        let predictor = trained
            .as_ref()
            .ok_or(BenchError::Flow(FlowError::MissingPredictor))?;
        let _span = dco_obs::span!("bench.stage.dco");
        let dco = runner.stage_dco(predictor, &place, FLOW_SEED, None);
        check_dco(&dco)?;
        Some(dco)
    } else {
        None
    };
    let spread = dco.as_ref().map_or(&place.placement, |d| &d.placement);
    let tier = {
        let _span = dco_obs::span!("bench.stage.tier_assign");
        runner.stage_tier_assign(spread, &place.params)
    };
    let cts = {
        let _span = dco_obs::span!("bench.stage.cts");
        runner.stage_cts(&tier.placement)
    };
    let route = {
        let _span = dco_obs::span!("bench.stage.route");
        runner.stage_route(&tier.placement, false)
    };
    // The rule `run_resilient` applies: a stalled rip-up-and-reroute with
    // overflow left is a degraded route.
    if !route.converged && route.initial_overflow - route.overflow_total <= 0.0 {
        return Err(BenchError::Degraded("route stage".into()));
    }
    let sta = {
        let _span = dco_obs::span!("bench.stage.sta");
        runner.stage_sta(&tier.placement, &cts, &route)
    };
    let sig = Signature {
        placement: placement_checksum(&tier.placement),
        overflow: route.stage.overflow,
        tns_ps: sta.signoff.tns_ps,
        power_mw: sta.signoff.total_power_mw,
        wirelength_um: sta.signoff.wirelength_um,
    };
    sig.validate()?;
    Ok((sig, trained))
}

/// For a flow that neither trains a predictor nor runs DCO (the
/// baselines), train a predictor with the workload's configuration and run
/// the DCO stage from the Pin3D placement, as direct calls outside the
/// job, so the unet and dco layers are measured on this design too.
/// Returns the predictor.
///
/// # Errors
/// A training run or DCO stage that degraded, recovered or rolled back.
pub fn direct_dco(w: &Workload, s: &Setup) -> Result<Predictor, BenchError> {
    let predictor = {
        let _span = dco_obs::span!("bench.train");
        train(&s.design, &w.cfg)?
    };
    let runner = FlowRunner::new(&s.design, w.cfg.clone());
    let place = runner.stage_place(FlowKind::Pin3d, FLOW_SEED);
    let _span = dco_obs::span!("bench.stage.dco");
    check_dco(&runner.stage_dco(&predictor, &place, FLOW_SEED, None))?;
    Ok(predictor)
}

/// The check [`crate::job::check_report`] makes on a whole flow, applied
/// to a DCO stage called directly.
fn check_dco(dco: &DcoStage) -> Result<(), BenchError> {
    if dco.degraded {
        return Err(BenchError::Degraded("dco stage".into()));
    }
    if dco.divergence_events > 0 {
        return Err(BenchError::Recovered(format!(
            "dco stage rolled back {} non-finite update(s)",
            dco.divergence_events
        )));
    }
    Ok(())
}

/// Timings of direct calls into the dataset builder and the UNet.
#[derive(Debug, Clone, Copy)]
pub struct LayerCalls {
    /// One `build_dataset` call with the predictor's training budget (s).
    pub dataset_s: f64,
    /// Median of [`PREDICT_REPS`] `SiameseUNet::predict` calls on the
    /// workload's features (s).
    pub predict_s: f64,
}

/// Call the dataset builder and the UNet directly on the workload's
/// design, with the budget and shape `predictor` was trained with.
pub fn layer_calls(w: &Workload, s: &Setup, predictor: &Predictor) -> LayerCalls {
    let cfg = &w.cfg;
    let t0 = Instant::now();
    let dataset = {
        let _span = dco_obs::span!("bench.dataset");
        build_dataset(
            &s.design,
            cfg.train_layouts,
            cfg.map_size,
            &cfg.stage_router,
            FLOW_SEED,
        )
    };
    let dataset_s = t0.elapsed().as_secs_f64();
    let predict_s = match dataset.first() {
        Some(sample) => {
            let norm = &predictor.normalization;
            let f0 = norm.features_tensor(&sample.features[0]);
            let f1 = norm.features_tensor(&sample.features[1]);
            let times: Vec<f64> = (0..PREDICT_REPS)
                .map(|_| {
                    let _span = dco_obs::span!("bench.predict");
                    let t = Instant::now();
                    std::hint::black_box(predictor.unet.predict(&f0, &f1));
                    t.elapsed().as_secs_f64()
                })
                .collect();
            median(&times).unwrap_or(0.0)
        }
        None => 0.0,
    };
    LayerCalls {
        dataset_s,
        predict_s,
    }
}
