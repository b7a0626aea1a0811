//! The metric catalogue (mirrored by `BENCHMARK.json`) and the result line.

/// End-to-end metrics, printed by untraced runs: (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_op_pct", "%"),
];

/// Per-layer metrics, printed by traced runs: (name, unit). Names use the
/// crate (module) that does the work.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("mvm.instr_per_request", "count"),
    ("mvm.serve_ns_per_instr", "ns"),
    ("simos.calls_per_request", "count"),
    ("simos.reset_us", "us"),
    ("simos.boot_ms", "ms"),
    ("simos.reboots_per_slot", "count"),
    ("webserver.serve_us_p50", "us"),
    ("webserver.serve_us_p95", "us"),
    ("webserver.start_us", "us"),
    ("webserver.requests_per_slot", "count"),
    ("webserver.starts_per_slot", "count"),
    ("depbench.warmup_ms", "ms"),
    ("depbench.measure_ms", "ms"),
    ("depbench.interval_self_ms", "ms"),
    ("depbench.profile_ms", "ms"),
    ("depbench.repairs_per_slot", "count"),
    ("core.scan_ms", "ms"),
    ("core.accuracy_ms", "ms"),
    ("core.faults_per_scan", "count"),
    ("core.inject_undo_us", "us"),
    ("minic.compile_ms", "ms"),
    ("faultstore.record_us_p50", "us"),
    ("faultstore.record_us_p95", "us"),
    ("faultstore.record_bytes", "count"),
    ("faultstore.cache_miss_ms", "ms"),
    ("faultstore.cache_hit_ms", "ms"),
    ("simtrace.recorder_overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// The run's verdict and measurements: the benchmark's last output line.
#[derive(Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The result line. `catalogue` fixes which metrics appear and in
    /// which order.
    ///
    /// # Panics
    ///
    /// Panics when a catalogued metric was not recorded or is not finite —
    /// both are bugs in the benchmark.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"))
                    .1;
                assert!(value.is_finite(), "metric {name} is {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
