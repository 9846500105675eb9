//! The metric catalogue and the result line.

/// A metric the benchmark reports: name, unit, and which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: [MetricDef; 4] = [
    def("job_s", "s", "lower"),
    def("job_1t_s", "s", "lower"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mib", "MiB", "lower"),
];

/// The four Table-III quality numbers of the workload's design. Every run
/// checks them and prints them in its table; the traced run also reports
/// them as per-layer metrics. They are not end-to-end metrics because they
/// vary from seed to seed far more than any bound allows.
pub const QOR: [MetricDef; 4] = [
    def("qor.overflow", "tracks", "lower"),
    def("qor.tns_ps", "ps", "lower"),
    def("qor.power_mw", "mW", "lower"),
    def("qor.wirelength_um", "um", "lower"),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`).
pub const PER_LAYER: [MetricDef; 37] = [
    def("flow.train_s", "s", "lower"),
    def("flow.dataset_s", "s", "lower"),
    def("flow.stage.place_s", "s", "lower"),
    def("flow.stage.dco_s", "s", "lower"),
    def("flow.stage.tier_assign_s", "s", "lower"),
    def("flow.stage.cts_s", "s", "lower"),
    def("flow.stage.route_s", "s", "lower"),
    def("flow.stage.sta_s", "s", "lower"),
    def("flow.span_coverage", "ratio", "higher"),
    def("netlist.generate_s", "s", "lower"),
    def("place.global_s", "s", "lower"),
    def("place.global_calls", "count", "lower"),
    def("route.pattern_s", "s", "lower"),
    def("route.rrr_s", "s", "lower"),
    def("route.maze_s", "s", "lower"),
    def("route.calls", "count", "lower"),
    def("route.segments", "count", "lower"),
    def("route.rrr_iterations", "count", "lower"),
    def("unet.epoch_s", "s", "lower"),
    def("unet.epochs", "count", "lower"),
    def("unet.predict_s", "s", "lower"),
    def("dco.iter_s", "s", "lower"),
    def("dco.iterations", "count", "lower"),
    def("tensor.arena.hits", "count", "higher"),
    def("tensor.arena.misses", "count", "lower"),
    def("pool.calls", "count", "lower"),
    def("pool.tasks", "count", "lower"),
    def("pool.steals", "count", "lower"),
    def("pool.idle_frac", "ratio", "lower"),
    def("parallel.speedup", "ratio", "higher"),
    def("obs.overhead_frac", "ratio", "lower"),
    def("host.probe_ms", "ms", "lower"),
    def("host.alloc_probe_ms", "ms", "lower"),
    QOR[0],
    QOR[1],
    QOR[2],
    QOR[3],
];

/// Metric values keyed by catalogue entry.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(MetricDef, f64)>);

impl Values {
    /// Set `name` (which must be in `catalogue`) to `value`.
    ///
    /// # Panics
    /// Panics on a name missing from the catalogue, which is a bug in the
    /// benchmark itself.
    pub fn set(&mut self, catalogue: &[MetricDef], name: &str, value: f64) {
        let Some(d) = catalogue.iter().find(|d| d.name == name) else {
            panic!("metric `{name}` is not in the catalogue");
        };
        match self.0.iter_mut().find(|(e, _)| e.name == name) {
            Some(entry) => entry.1 = value,
            None => self.0.push((*d, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(d, _)| d.name == name).map(|(_, v)| *v)
    }

    /// Names of `catalogue` entries that are unset or not finite.
    pub fn missing(&self, catalogue: &[MetricDef]) -> Vec<&'static str> {
        catalogue
            .iter()
            .filter(|d| !self.get(d.name).is_some_and(f64::is_finite))
            .map(|d| d.name)
            .collect()
    }

    /// One aligned line per `catalogue` entry: name, value, unit, direction.
    pub fn table(&self, catalogue: &[MetricDef]) -> String {
        catalogue
            .iter()
            .map(|d| {
                let v = self
                    .get(d.name)
                    .map_or("-".to_string(), |v| format!("{v:.6}"));
                format!(
                    "  {:<26} {:>16} {:<7} ({} is better)\n",
                    d.name, v, d.unit, d.better
                )
            })
            .collect()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every `catalogue` metric with its unit. A metric that
    /// is unset or not finite is printed as 0 and must already have made
    /// `correct` false.
    pub fn json_line(
        &self,
        catalogue: &[MetricDef],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|d| {
                let v = self.get(d.name).filter(|v| v.is_finite()).unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}
