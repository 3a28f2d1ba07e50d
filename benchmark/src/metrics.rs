//! Metric names, units and regression bounds as the benchmark prints them.
//! `/BENCHMARK.json` lists the same names by hand, with their direction.

use basilisk::Json;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        bound: None,
    }
}

/// The same six on every workload, always measured with tracing off. The
/// bounds are the issue's starting bounds (8, 10, 8, 8, 10, 15 %) raised
/// to three times the spread ten runs with ten seeds show and capped at
/// 15 % (README, *Calibration*).
pub const END_TO_END: [MetricDef; 6] = [
    e2e("latency_p50_ms", "ms", 0.15),
    e2e("latency_p95_ms", "ms", 0.15),
    e2e("throughput_qps", "1/s", 0.15),
    e2e("cpu_ms_per_req", "ms", 0.15),
    e2e("peak_rss_mb", "MiB", 0.10),
    e2e("setup_s", "s", 0.15),
];

/// Layer = crate name. Measured by the traced run only.
pub const PER_LAYER: [MetricDef; 41] = [
    layer("net.wire_ms_p50", "ms"),
    layer("net.encode_ms_p50", "ms"),
    layer("net.decode_ms_p50", "ms"),
    layer("net.response_bytes_p50", "B"),
    layer("sql.parse_ms_p50", "ms"),
    layer("sql.normalize_ms_p50", "ms"),
    layer("catalog.estimator_build_ms", "ms"),
    layer("plan.plan_ms_p50", "ms"),
    layer("plan.plan_ms_max", "ms"),
    layer("plan.execute_ms_p50", "ms"),
    layer("plan.tagged_over_bdisj_geomean", "ratio"),
    layer("plan.tagged_overhead_geomean", "ratio"),
    layer("serve.submit_ms_p50", "ms"),
    layer("serve.bind_ms_p50", "ms"),
    layer("serve.overhead_ms_p50", "ms"),
    layer("serve.cache_hit_ratio", "ratio"),
    layer("serve.queue_wait_ms_p50", "ms"),
    layer("core.tagged_filter_self_ms", "ms"),
    layer("core.tagged_join_self_ms", "ms"),
    layer("plan.scan_self_ms", "ms"),
    layer("plan.project_self_ms", "ms"),
    layer("exec.filter_self_ms", "ms"),
    layer("exec.hash_join_self_ms", "ms"),
    layer("exec.union_self_ms", "ms"),
    layer("expr.atom_self_ms", "ms"),
    layer("expr.short_circuit_ratio", "ratio"),
    layer("expr.or_fold_gelems_s", "Gelem/s"),
    layer("expr.cmp_gelems_s", "Gelem/s"),
    layer("types.gather_gelems_s", "Gelem/s"),
    layer("types.read_bw_gb_s", "GB/s"),
    layer("storage.build_s", "s"),
    layer("storage.decode_gelems_s", "Gelem/s"),
    layer("storage.zone_skip_ratio", "ratio"),
    layer("sched.tasks_per_req", "count"),
    layer("sched.steals_per_req", "count"),
    layer("sched.worker_busy_share", "ratio"),
    layer("sched.region_waits", "count"),
    layer("types.arena_fresh_per_req", "count"),
    layer("types.arena_outstanding", "count"),
    layer("trace.unattributed_share", "ratio"),
    layer("trace.overhead_ratio", "ratio"),
];

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}
