//! The benchmark's own tests: a tiny-scale run of every workload through
//! the binary, a perturbed output tripping the check, a recovered flow
//! counting as failed, and the seed choosing the design.

use std::process::Command;

use dco_flow::{FlowRunner, RecoveryEvent, ResilienceReport};
use dco_flowbench::job::{self, flow_options, placement_checksum, Signature};
use dco_flowbench::measure::{JobSample, Measurement};
use dco_flowbench::report::{END_TO_END, PER_LAYER};
use dco_flowbench::workload::{self, FLOW_SEED};

/// Run the benchmark binary on a tiny workload; returns stdout.
fn run_tiny(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_flowbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .output()
        .expect("spawn flowbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn tiny_runs_print_every_metric_with_its_unit() {
    for w in workload::all() {
        for (trace, catalogue) in [(0, &END_TO_END[..]), (1, &PER_LAYER[..])] {
            let stdout = run_tiny(w.name, trace);
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            assert!(last.contains("\"failed\": 0,"), "{last}");
            for d in catalogue {
                let entry = format!("\"{}\": {{\"value\": ", d.name);
                assert!(last.contains(&entry), "{}: no {} in {last}", w.name, d.name);
                let unit = format!("\"unit\": \"{}\"", d.unit);
                assert!(
                    last.contains(&unit),
                    "{}: no unit {} in {last}",
                    w.name,
                    d.unit
                );
                let row = stdout
                    .lines()
                    .find(|l| l.split_whitespace().next() == Some(d.name))
                    .unwrap_or_else(|| panic!("{}: no table row for {}", w.name, d.name));
                assert!(row.contains(d.unit), "{row}");
            }
        }
    }
}

#[test]
fn perturbed_output_trips_the_check() {
    let w = workload::by_name("dco3d-flow").expect("workload").tiny();
    let s = job::setup(&w, 5).expect("set-up");
    let (_, reference) = job::run_job(&w, &s).expect("job");

    // The same flow again, with one coordinate moved by one ulp.
    let predictor = job::train(&s.design, &w.cfg).expect("training");
    let runner = FlowRunner::new(&s.design, w.cfg.clone());
    let mut outcome = runner
        .run_resilient(w.kind, FLOW_SEED, Some(&predictor), &flow_options())
        .expect("flow")
        .outcome;
    assert!(Signature::of(&outcome).check_against(&reference).is_ok());
    let cell = dco_netlist::CellId(0);
    let x = outcome.placement.x(cell);
    let y = outcome.placement.y(cell);
    outcome
        .placement
        .set_xy(cell, f64::from_bits(x.to_bits() + 1), y);
    let perturbed = Signature::of(&outcome);
    let err = perturbed
        .check_against(&reference)
        .expect_err("must differ");
    assert!(err.to_string().contains("placement checksum"), "{err}");

    // A QoR value off by one ulp trips it too.
    let mut tns = reference;
    tns.tns_ps = f64::from_bits(tns.tns_ps.to_bits() + 1);
    assert!(tns.check_against(&reference).is_err());

    // And the measurement loop counts it as a failed job.
    let mut m = Measurement::default();
    let sample = |threads| JobSample {
        threads,
        secs: 1.0,
        stolen_s: 0.0,
        probe_ms: 1.0,
        peak_rss_bytes: None,
    };
    m.record(Ok((sample(1), reference)), 1);
    m.record(Ok((sample(2), perturbed)), 2);
    assert_eq!((m.attempted, m.failed, m.samples.len()), (2, 1, 1));
}

#[test]
fn a_recovered_flow_counts_as_failed() {
    assert!(job::check_report("flow", &ResilienceReport::default()).is_ok());
    let retried = ResilienceReport {
        events: vec![RecoveryEvent::PanicRetried {
            stage: "route",
            message: "boom".into(),
        }],
        degraded: false,
    };
    let err = job::check_report("flow", &retried).expect_err("must fail");
    assert!(err.to_string().contains("panicked"), "{err}");
    let degraded = ResilienceReport {
        degraded: true,
        ..ResilienceReport::default()
    };
    assert!(job::check_report("flow", &degraded).is_err());
}

#[test]
fn seed_chooses_the_design() {
    let w = workload::by_name("bo-flow").expect("workload").tiny();
    let fingerprint = |seed: u64| {
        let d = w.design(seed).expect("design");
        let pins: Vec<f64> = (0..d.netlist.num_nets())
            .map(|n| d.netlist.net(dco_netlist::NetId(n as u32)).pins.len() as f64)
            .collect();
        (
            placement_checksum(&d.placement),
            dco_parallel::checksum_f64(&pins),
        )
    };
    assert_eq!(fingerprint(1), fingerprint(1), "same seed, same design");
    assert_ne!(
        fingerprint(1),
        fingerprint(2),
        "another seed, another design"
    );
}
