//! Metric names and units, and the result line the benchmark prints.

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("ns_per_hop", "ns"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("sim.events", "count"),
    ("sim.events_per_hop", "ratio"),
    ("sim.queue_high_water", "count"),
    ("sim.event_queue.ns_per_op", "ns"),
    ("sched.fifo.ns_per_pkt", "ns"),
    ("sched.fifo_plus.ns_per_pkt", "ns"),
    ("sched.wfq.ns_per_pkt", "ns"),
    ("sched.unified.ns_per_pkt", "ns"),
    ("sched.peak_depth", "count"),
    ("sched.pool_grow_events", "count"),
    ("sched.pool_segments_hw", "count"),
    ("net.hops", "count"),
    ("net.drops", "count"),
    ("net.port.ns_per_hop", "ns"),
    ("net.flow_table_bytes", "B"),
    ("net.reservation_state_bytes", "B"),
    ("traffic.generated", "count"),
    ("traffic.onoff.ns_per_pkt", "ns"),
    ("traffic.cbr.ns_per_pkt", "ns"),
    ("traffic.poisson.ns_per_pkt", "ns"),
    ("monitor.samples", "count"),
    ("monitor.record.ns_per_sample", "ns"),
    ("signal.requests", "count"),
    ("signal.accept_ratio", "ratio"),
    ("admission.verdicts", "count"),
    ("signal.us_per_request", "us"),
    ("scenario.run_s", "s"),
    ("scenario.report_s", "s"),
    ("scenario.render_s", "s"),
    ("sweep.points", "count"),
    ("sweep.point_s_p50", "s"),
    ("sweep.point_s_max", "s"),
    ("sweep.overhead_s", "s"),
    ("sweep.parallel_efficiency", "ratio"),
    ("layers.attributed_share", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("checks.error_rate", "ratio"),
    ("experiments.paper_gap", "ratio"),
    ("host.probe_ns", "ns"),
    ("host.raw_ns_per_hop", "ns"),
    ("host.raw_wall_s", "s"),
    ("host.run_probe_ratio_spread", "ratio"),
    ("host.run_s_spread", "ratio"),
];

/// Whether a metric name is well formed: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Format a measured value with all its digits (`{:?}` prints the
/// shortest representation that reads back exactly).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The final result line: `correct`, `attempted`, `failed` and the
/// metrics with their units, each metric of `names` in that order.
pub fn result_line(
    attempted: usize,
    failed: usize,
    names: &[(&str, &str)],
    value: impl Fn(&str) -> f64,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value(name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_well_formed_and_has_a_unit() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(
                !unit.is_empty() && unit.len() <= 16,
                "{name} has unit {unit:?}"
            );
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name} has unit {unit:?}"
            );
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading-dot"));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn the_result_line_carries_every_metric() {
        let line = result_line(3, 0, &END_TO_END, |_| 1.25);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.25, \"unit\": \"{unit}\"}}"
            )));
        }
        assert!(result_line(3, 1, &END_TO_END, |_| 1.0).contains("\"correct\": false"));
    }
}
