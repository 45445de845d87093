//! The metric vocabulary and the result printer.
//!
//! End-to-end metrics have one name for every workload (`throughput`
//! is requests/s on `serve_mixed`, events/s on `session_stream` and
//! ∆-grid points/s on `pareto_sweep`); the human-readable lines above
//! the JSON result also print each under its workload-specific name.
//! Per-layer metrics are printed by every traced run; a layer the
//! workload does not exercise reads `0` and is listed as absent.

use std::fmt::Write;

/// End-to-end metrics: (name, unit). Order matches `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput", "1/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: (name, unit). Order matches `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.submit_p50_us", "us"),
    ("service.submit_p99_us", "us"),
    ("service.wait_p50_us", "us"),
    ("service.wait_p99_us", "us"),
    ("service.hop_p50_us", "us"),
    ("service.hop_p99_us", "us"),
    ("service.queue_depth_max", "count"),
    ("service.head_wait_max_us", "us"),
    ("service.refused", "count"),
    ("service.degraded", "count"),
    ("service.retried", "count"),
    ("service.session_apply_p50_us", "us"),
    ("service.session_apply_p99_us", "us"),
    ("service.session_open_p50_us", "us"),
    ("service.session_open_p99_us", "us"),
    ("service.session_apply_drift", "ratio"),
    ("core.plan_p50_us", "us"),
    ("core.plan_p99_us", "us"),
    ("core.dispatch_p50_us", "us"),
    ("core.dispatch_p99_us", "us"),
    ("core.package_p50_us", "us"),
    ("core.package_p99_us", "us"),
    ("core.replan_apply_p50_us", "us"),
    ("core.replan_apply_p99_us", "us"),
    ("core.replay_fraction", "ratio"),
    ("core.replayed_rounds_per_event", "count"),
    ("core.sweep_point_p50_us", "us"),
    ("core.sweep_point_p99_us", "us"),
    ("core.sweep_replayed_frac", "ratio"),
    ("dag.flatten_p50_us", "us"),
    ("dag.flatten_p99_us", "us"),
    ("dag.apply_delta_p50_us", "us"),
    ("dag.apply_delta_p99_us", "us"),
    ("dag.instance_bytes", "bytes"),
    ("listsched.rank_p50_us", "us"),
    ("listsched.rank_p99_us", "us"),
    ("listsched.kernel_cold_p50_us", "us"),
    ("listsched.kernel_cold_p99_us", "us"),
    ("listsched.kernel_hot_p50_us", "us"),
    ("listsched.kernel_hot_p99_us", "us"),
    ("exact.solve_p50_us", "us"),
    ("exact.solve_p99_us", "us"),
    ("workloads.gen_s", "s"),
    ("bench.gen_late_p99_us", "us"),
    ("ledger.unaccounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

fn unit_of(table: &[(&str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the metric table"))
}

/// One workload run's outcome.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (requests, events, grid points).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Outputs that failed a correctness check.
    pub wrong: u64,
    /// End-to-end values: (generic name, workload-specific label, value,
    /// sample note).
    e2e: Vec<(&'static str, String, f64, String)>,
    /// Per-layer values by name; absent names print as `0`.
    layers: Vec<(String, f64)>,
    /// Per-layer metrics this workload does not exercise, with why.
    absent: Vec<String>,
    /// Context lines printed above the result.
    notes: Vec<String>,
}

impl Report {
    pub fn e2e(
        &mut self,
        name: &'static str,
        label: impl Into<String>,
        value: f64,
        note: impl Into<String>,
    ) {
        unit_of(END_TO_END, name);
        self.e2e.push((name, label.into(), value, note.into()));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        unit_of(PER_LAYER, name);
        self.layers.push((name.to_string(), value));
    }

    /// Records a layer's timing sample as its `<base>_p50_us` and
    /// `<base>_p99_us` metrics.
    pub fn layer_us(&mut self, base: &str, samples: &[f64]) {
        self.layer(&format!("{base}_p50_us"), crate::measure::median(samples));
        self.layer(
            &format!("{base}_p99_us"),
            crate::measure::quantile(samples, 0.99),
        );
        self.note(format!("{base}: n = {} samples", samples.len()));
    }

    pub fn absent(&mut self, what: impl Into<String>) {
        self.absent.push(what.into());
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every output check passed and nothing failed.
    pub fn ok(&self) -> bool {
        self.wrong == 0 && self.failed == 0
    }

    /// Prints the context lines, every metric by name with its unit,
    /// and the JSON result as the last line.
    pub fn print(&self, workload: &str, traced: bool) {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# workload {workload} ({})",
            if traced { "traced" } else { "untraced" }
        );
        for line in &self.notes {
            let _ = writeln!(out, "# {line}");
        }
        let failed_frac = (self.failed + self.wrong) as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "failed_frac = {failed_frac} (failed+refused {} + wrong {} of {} attempted)",
            self.failed, self.wrong, self.attempted
        );
        let mut metrics = Vec::new();
        if traced {
            for &(name, unit) in PER_LAYER {
                let value = self
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                let _ = writeln!(out, "{name} = {value} {unit}");
                metrics.push((name, value, unit));
            }
            for what in &self.absent {
                let _ = writeln!(out, "# absent on this workload: {what}");
            }
        } else {
            for &(name, unit) in END_TO_END {
                let (_, label, value, note) = self
                    .e2e
                    .iter()
                    .find(|(n, ..)| *n == name)
                    .unwrap_or_else(|| panic!("workload did not measure {name}"));
                let _ = writeln!(out, "{label} [{name}] = {value} {unit} ({note})");
                metrics.push((name, *value, unit));
            }
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong == 0,
            self.attempted.max(1),
            self.failed + self.wrong,
            body.join(", ")
        );
        print!("{out}");
    }
}
