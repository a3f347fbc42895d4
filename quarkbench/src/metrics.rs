//! The metric catalogue: every name the benchmark may print, with its unit
//! and direction. `BENCHMARK.json` repeats these lists (plus the regression
//! bounds); the smoke test holds the two together.

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// What a user of the system sees. Every workload reports all of them, and
/// none can be zero. Latencies of keyed SELECTs are not here because two
/// workloads issue none, and the 99th percentile of writes is not because
/// it does not repeat within a tenth on this machine (they are the
/// `client.*_us` metrics below); failures are the result's `failed` count.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("write_p50_us", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// One layer each (layer = crate name; `client` is the generator itself).
/// Counts are `Quark::stats()` deltas over the timed phase; timings are
/// medians from the traced replay and the probes around it.
pub const PER_LAYER: &[MetricDef] = &[
    ("xquery.parse_trigger_us", "us", "lower"),
    ("xquery.create_trigger_first_us", "us", "lower"),
    ("xquery.create_trigger_cached_us", "us", "lower"),
    ("xqgm.translate_first_us", "us", "lower"),
    ("xqgm.translations", "count", "lower"),
    ("xqgm.compile_cache_hit_share", "ratio", "higher"),
    ("relational.sql_parse_us", "us", "lower"),
    ("relational.select_us", "us", "lower"),
    ("relational.dml_bare_us", "us", "lower"),
    ("relational.rows_scanned_per_write", "count", "lower"),
    ("relational.index_probes_per_write", "count", "lower"),
    ("relational.build_cache_hits_per_write", "count", "higher"),
    ("relational.statements_per_write", "count", "lower"),
    ("core.execute_write_us", "us", "lower"),
    ("core.execute_read_us", "us", "lower"),
    ("core.cascade_self_us", "us", "lower"),
    ("core.write_after_read_us", "us", "lower"),
    ("core.write_after_write_us", "us", "lower"),
    ("core.read_after_write_us", "us", "lower"),
    ("core.read_after_read_us", "us", "lower"),
    ("core.write_footprint_us", "us", "lower"),
    ("core.triggers_fired_per_write", "count", "lower"),
    ("core.latch_waits_per_write", "count", "lower"),
    ("core.latch_conflicts_per_write", "count", "lower"),
    ("xml.to_xml_us", "us", "lower"),
    ("xml.node_bytes", "B", "lower"),
    ("storage.log_statement_never_us", "us", "lower"),
    ("storage.log_statement_always_us", "us", "lower"),
    ("storage.durable_delta_us", "us", "lower"),
    ("storage.fsyncs_per_write", "count", "lower"),
    ("storage.commits_per_group_batch", "count", "higher"),
    ("storage.wal_bytes_per_write", "B", "lower"),
    ("storage.checkpoint_ms", "ms", "lower"),
    ("storage.recover_ms", "ms", "lower"),
    ("storage.dir_bytes", "B", "lower"),
    ("server.encode_request_us", "us", "lower"),
    ("server.decode_request_us", "us", "lower"),
    ("server.encode_result_us", "us", "lower"),
    ("server.decode_response_us", "us", "lower"),
    ("server.request_bytes", "B", "lower"),
    ("server.response_bytes", "B", "lower"),
    ("server.roundtrip_overhead_read_us", "us", "lower"),
    ("server.roundtrip_overhead_write_us", "us", "lower"),
    ("server.connect_us", "us", "lower"),
    ("server.frames_per_op", "count", "lower"),
    ("server.backpressure_stalls", "count", "lower"),
    ("server.frames_rejected", "count", "lower"),
    ("client.samples_write", "count", "higher"),
    ("client.samples_read", "count", "higher"),
    ("client.write_p99_us", "us", "lower"),
    ("client.read_p50_us", "us", "lower"),
    ("client.read_p99_us", "us", "lower"),
    ("client.failed_ops_share", "ratio", "lower"),
    ("client.pregen_s", "s", "lower"),
    ("client.trace_overhead_share", "ratio", "lower"),
    ("client.trace_children_share", "ratio", "higher"),
];

/// Measured values by name.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.0 == name),
            "{name} is not in the catalogue"
        );
        debug_assert!(!self.0.iter().any(|(n, _)| *n == name), "{name} set twice");
        self.0.push((name, value));
    }

    /// `(name, value, unit)` for every entry of `catalogue`, in its order.
    /// The output contract is "every metric, every run", so a metric that
    /// was not set — its layer is one the workload does not exercise, or
    /// the workload has no statement of that kind — reads 0.
    pub fn in_order(&self, catalogue: &[MetricDef]) -> Vec<(&'static str, f64, &'static str)> {
        catalogue
            .iter()
            .map(|&(name, unit, _)| {
                let value = self.0.iter().find(|(n, _)| *n == name).map_or(0.0, |m| m.1);
                (name, value, unit)
            })
            .collect()
    }
}
