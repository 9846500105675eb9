//! `flowbench` — run one workload of the whole-flow benchmark.
//!
//! ```text
//! flowbench --workload <dco3d-flow|bo-flow> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Prints a metric table, then, as the last line of standard output, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Exits 0
//! when every output check passed, 1 when one failed (after printing the
//! result), 2 on a usage or set-up error (without a result).

use std::process::ExitCode;

use dco_flow::{FlowError, FlowKind};
use dco_flowbench::measure::{
    measure, set_up, stolen_secs, JobSample, Measurement, SetUps, ALLOC_REF_MS, HOST_THREADS,
    PROBE_REF_MS,
};
use dco_flowbench::probe::Probe;
use dco_flowbench::report::{Values, END_TO_END, PER_LAYER, QOR};
use dco_flowbench::stats::median;
use dco_flowbench::traced::{direct_dco, layer_calls, staged_job, traced, JOB_SPANS};
use dco_flowbench::workload::{self, Workload};
use dco_flowbench::BenchError;

/// A run whose median memory-probe reading is more than this factor away
/// from [`PROBE_REF_MS`] gets a warning: its normalised job times rest on
/// a host phase far from the one the reference was taken in.
const PROBE_BAND: f64 = 2.0;
/// Least share of the traced job's wall time the stage spans must cover.
const MIN_SPAN_COVERAGE: f64 = 0.9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, BenchError> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| BenchError::Usage(format!("{flag} needs a value")))?;
        let bad = |what: &str| BenchError::Usage(format!("{flag}: {what} `{value}`"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number of seconds"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            _ => return Err(BenchError::Usage(format!("unknown flag {flag}"))),
        }
    }
    if args.workload.is_empty() {
        return Err(BenchError::Usage("--workload is required".into()));
    }
    Ok(args)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("flowbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<bool, BenchError> {
    let mut w = workload::by_name(&args.workload)?;
    if args.tiny {
        w = w.tiny();
    }
    // The probe's buffer is allocated and touched before anything of the
    // program's, so the program's allocations cannot decide where it
    // lands.
    let mut probe = Probe::default();
    let ups = set_up(&w, args.seed)?;
    let m = measure(&w, &ups.setup, args.seconds, &mut probe);
    for f in &m.failures {
        eprintln!("flowbench: FAILED {f}");
    }
    for s in &m.samples {
        eprintln!(
            "flowbench: job threads={} secs={:.4} stolen_s={:.2} probe_ms={:.4} normalised_s={:.4} peak_rss_mib={:.3}",
            s.threads,
            s.secs,
            s.stolen_s,
            s.probe_ms,
            s.normalised_secs(),
            s.peak_rss_bytes.map_or(f64::NAN, |b| b as f64 / f64::from(1u32 << 20)),
        );
    }
    let probe_ms = m.probe_ms().unwrap_or(f64::NAN);
    if !(PROBE_REF_MS / PROBE_BAND..=PROBE_REF_MS * PROBE_BAND).contains(&probe_ms) {
        eprintln!(
            "flowbench: WARNING memory probe median {probe_ms:.3} ms is outside \
             [{:.2}, {:.2}] ms; normalised job times of this run are suspect",
            PROBE_REF_MS / PROBE_BAND,
            PROBE_REF_MS * PROBE_BAND
        );
    }
    let mut values = Values::default();
    let mut correct = m.failed == 0;
    end_to_end(&mut values, &m, &ups);

    let catalogue: &[_] = if args.trace {
        correct &= per_layer(&mut values, &w, &ups, &m, &mut probe)?;
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let missing = values.missing(catalogue);
    if !missing.is_empty() {
        eprintln!("flowbench: no value for {}", missing.join(", "));
        correct = false;
    }
    println!(
        "flowbench {} seed {} on {} hardware threads: {} jobs, {} failed ({} at 1 thread, {} at {HOST_THREADS}); {} set-ups",
        w.name,
        args.seed,
        dco_parallel::hardware_parallelism(),
        m.attempted,
        m.failed,
        m.secs(1).len(),
        m.secs(HOST_THREADS).len(),
        ups.secs.len(),
    );
    println!(
        "raw medians: job_s {:.6} s, job_1t_s {:.6} s, setup_s {:.6} s; memory probe {probe_ms:.4} ms (reference {PROBE_REF_MS} ms), allocation probe {:.4} ms (reference {ALLOC_REF_MS} ms)",
        m.median_secs(HOST_THREADS).unwrap_or(f64::NAN),
        m.median_secs(1).unwrap_or(f64::NAN),
        median(&ups.secs).unwrap_or(f64::NAN),
        median(&ups.alloc_probes).unwrap_or(f64::NAN),
    );
    print!("{}", values.table(&END_TO_END));
    if args.trace {
        print!("{}", values.table(&PER_LAYER));
    } else {
        print!("{}", values.table(&QOR));
    }
    println!(
        "{}",
        values.json_line(catalogue, correct, m.attempted, m.failed)
    );
    Ok(correct)
}

fn end_to_end(values: &mut Values, m: &Measurement, ups: &SetUps) {
    let e2e = &END_TO_END;
    if let Some(v) = m.median_normalised_secs(HOST_THREADS) {
        values.set(e2e, "job_s", v);
    }
    if let Some(v) = m.median_normalised_secs(1) {
        values.set(e2e, "job_1t_s", v);
    }
    if let Some(v) = median(&ups.normalised) {
        values.set(e2e, "setup_s", v);
    }
    if let Some(bytes) = m.peak_rss_bytes() {
        values.set(e2e, "peak_rss_mib", bytes as f64 / f64::from(1u32 << 20));
    }
    if let Some(sig) = &m.reference {
        values.set(&QOR, "qor.overflow", sig.overflow);
        values.set(&QOR, "qor.tns_ps", -sig.tns_ps);
        values.set(&QOR, "qor.power_mw", sig.power_mw);
        values.set(&QOR, "qor.wirelength_um", sig.wirelength_um);
    }
}

/// Run the traced job and the direct layer calls, and fill in the
/// per-layer metrics. Returns whether the traced job's checks passed.
fn per_layer(
    values: &mut Values,
    w: &Workload,
    ups: &SetUps,
    m: &Measurement,
    probe: &mut Probe,
) -> Result<bool, BenchError> {
    let pl = &PER_LAYER;
    let setup = &ups.setup;
    dco_parallel::set_threads(HOST_THREADS);
    let before = probe.run();
    let stolen_before = stolen_secs();
    let (result, job) = traced(|| staged_job(w, setup))?;
    let stolen = stolen_secs().zip(stolen_before).map_or(0.0, |(a, b)| a - b);
    let traced_norm_s = JobSample {
        threads: HOST_THREADS,
        secs: job.wall_s,
        stolen_s: stolen,
        probe_ms: (before + probe.run()) / 2.0,
        peak_rss_bytes: None,
    }
    .normalised_secs();
    let mut ok = true;
    let trained = match result {
        Ok((sig, trained)) => {
            if let Some(reference) = &m.reference {
                if let Err(e) = sig.check_against(reference) {
                    eprintln!("flowbench: FAILED traced job: {e}");
                    ok = false;
                }
            }
            trained
        }
        Err(e) => {
            eprintln!("flowbench: FAILED traced job: {e}");
            return Ok(false);
        }
    };
    let coverage = job.job_span_coverage();
    if coverage < MIN_SPAN_COVERAGE {
        eprintln!("flowbench: FAILED stage spans cover {coverage:.3} of the traced job (< {MIN_SPAN_COVERAGE})");
        ok = false;
    }
    // The baselines neither train nor run DCO in the job: measure those
    // layers by direct calls on the same design.
    let direct = if w.kind == FlowKind::Dco3d {
        None
    } else {
        let (predictor, trace) = traced(|| direct_dco(w, setup))?;
        Some((predictor?, trace))
    };
    let Some(predictor) = trained.as_ref().or(direct.as_ref().map(|(p, _)| p)) else {
        return Err(BenchError::Flow(FlowError::MissingPredictor));
    };
    let (layers, _) = traced(|| layer_calls(w, setup, predictor))?;

    // Where the predictor was trained and DCO ran: in the job, or in the
    // direct calls.
    let unet_dco = direct.as_ref().map_or(&job, |(_, t)| t);
    for (span, metric) in JOB_SPANS {
        values.set(pl, metric, job.total_secs(span));
    }
    values.set(pl, "flow.train_s", unet_dco.total_secs("flow.train"));
    values.set(
        pl,
        "flow.stage.dco_s",
        unet_dco.total_secs("bench.stage.dco"),
    );
    values.set(pl, "flow.span_coverage", coverage);
    values.set(pl, "flow.dataset_s", layers.dataset_s);
    values.set(pl, "netlist.generate_s", median(&ups.secs).unwrap_or(0.0));
    values.set(pl, "place.global_s", job.total_secs("place.global"));
    values.set(pl, "place.global_calls", job.count("place.global") as f64);
    values.set(pl, "route.pattern_s", job.total_secs("route.pattern"));
    values.set(pl, "route.rrr_s", job.total_secs("route.rrr"));
    values.set(pl, "route.maze_s", job.total_secs("route.maze"));
    values.set(pl, "route.calls", job.counter("route.calls") as f64);
    values.set(pl, "route.segments", job.counter("route.segments") as f64);
    values.set(pl, "route.rrr_iterations", job.count("route.rrr") as f64);
    values.set(
        pl,
        "unet.epoch_s",
        median(&unet_dco.span_secs("unet.train.epoch")).unwrap_or(0.0),
    );
    values.set(pl, "unet.epochs", unet_dco.count("unet.train.epoch") as f64);
    values.set(pl, "unet.predict_s", layers.predict_s);
    values.set(
        pl,
        "dco.iter_s",
        median(&unet_dco.span_secs("dco.iter")).unwrap_or(0.0),
    );
    values.set(pl, "dco.iterations", unet_dco.count("dco.iter") as f64);
    values.set(pl, "tensor.arena.hits", job.arena.hits as f64);
    values.set(pl, "tensor.arena.misses", job.arena.misses as f64);
    values.set(pl, "pool.calls", job.pool.calls as f64);
    values.set(pl, "pool.tasks", job.pool.tasks as f64);
    values.set(pl, "pool.steals", job.pool.steals as f64);
    values.set(pl, "pool.idle_frac", job.pool_idle_frac(HOST_THREADS));
    if let (Some(t1), Some(t2)) = (m.median_secs(1), m.median_secs(HOST_THREADS)) {
        values.set(pl, "parallel.speedup", t1 / t2);
    }
    if let Some(t2) = m.median_normalised_secs(HOST_THREADS) {
        values.set(pl, "obs.overhead_frac", traced_norm_s / t2 - 1.0);
    }
    if let Some(p) = m.probe_ms() {
        values.set(pl, "host.probe_ms", p);
    }
    if let Some(p) = median(&ups.alloc_probes) {
        values.set(pl, "host.alloc_probe_ms", p);
    }
    Ok(ok)
}
