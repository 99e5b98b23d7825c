//! Metric names, units and bounds, and the result line the contract asks for.

use std::collections::BTreeMap;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, in `BENCHMARK.json`'s order. Every workload
/// reports every one; `README.md` says what each means on each workload.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("throughput_pts_s", "1/s", true, 0.25),
    e2e("ack_p50_us", "us", false, 0.25),
    e2e("query_p50_us", "us", false, 0.25),
    e2e("compression_ratio", "ratio", false, 0.075),
    e2e("stored_bytes_per_point", "B", false, 0.075),
    e2e("peak_rss_mb", "MiB", false, 0.15),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// The per-layer metrics `(name, unit, higher is better)`, one block
/// per layer of the repo. Every traced run reports every one.
pub const PER_LAYER: [(&str, &str, bool); 66] = [
    // The two tail latencies are measured end to end, but on this
    // 2-core host they fail the A/A check at any bound the contract
    // allows (`README.md`, "Demoted tails"), so they carry no bound.
    ("ack_p99_us", "us", false),
    ("query_p95_us", "us", false),
    ("geo.point_line_ns", "ns", false),
    ("geo.columnar_roundtrip_ns_per_pt", "ns", false),
    ("core.fbqs.push_ns_per_pt", "ns", false),
    ("core.bqs.push_ns_per_pt", "ns", false),
    ("core.quadrant.insert_ns", "ns", false),
    ("core.quadrant.deviation_bounds_ns", "ns", false),
    ("core.fbqs.pruning_power", "ratio", true),
    ("core.bqs.pruning_power", "ratio", true),
    ("core.bqs.full_scan_share", "ratio", false),
    ("core.fleet.push_ns_per_pt", "ns", false),
    ("core.fleet.overhead_ns_per_pt", "ns", false),
    ("core.fleet.session_cycle_ns", "ns", false),
    ("core.fleet.evict_ns_per_session", "ns", false),
    ("core.fleet.snapshot_us", "us", false),
    ("core.parallel.submit_run_ns_per_pt", "ns", false),
    ("core.parallel.push_ns_per_pt", "ns", false),
    ("core.parallel.join_s", "s", false),
    ("core.parallel.worker_busy_share", "ratio", false),
    ("core.parallel.queue_peak", "count", false),
    ("core.parallel.shard_skew", "ratio", false),
    ("core.reorder.push_ns_per_pt", "ns", false),
    ("core.reorder.depth_peak", "count", false),
    ("tlog.codec.encode_ns_per_pt", "ns", false),
    ("tlog.codec.decode_ns_per_pt", "ns", false),
    ("tlog.codec.bytes_per_pt", "B", false),
    ("tlog.log.append_us_per_record", "us", false),
    ("tlog.log.overhead_bytes_per_record", "B", false),
    ("tlog.spill.session_closed_us", "us", false),
    ("tlog.spill.finish_s", "s", false),
    ("tlog.manifest.write_ms", "ms", false),
    ("tlog.verify_s", "s", false),
    ("tlog.manifest.load_ms", "ms", false),
    ("tlog.log.open_read_only_ms", "ms", false),
    ("tlog.engine.open_ms", "ms", false),
    ("tlog.engine.query_track_us", "us", false),
    ("tlog.engine.query_bbox_us", "us", false),
    ("tlog.engine.candidate_records_per_query", "count", false),
    ("tlog.engine.decoded_records_per_query", "count", false),
    ("tlog.engine.useful_point_ratio", "ratio", true),
    ("tlog.engine.shards_pruned_share", "ratio", true),
    ("net.wire.encode_append_ns_per_pt", "ns", false),
    ("net.wire.decode_append_ns_per_pt", "ns", false),
    ("net.wire.reply_encode_us_per_query", "us", false),
    ("net.wire.bytes_per_pt", "B", false),
    ("net.server.ready_s", "s", false),
    ("net.server.shutdown_s", "s", false),
    ("net.server.append_us_p50", "us", false),
    ("net.server.append_us_p99", "us", false),
    ("net.server.query_us_p50", "us", false),
    ("net.server.io_tick_us_p99", "us", false),
    ("net.server.ready_events_mean", "count", false),
    ("net.client.rtt_idle_us", "us", false),
    ("net.residual_ns_per_pt", "ns", false),
    ("obs.counter_add_ns", "ns", false),
    ("obs.histogram_record_ns", "ns", false),
    ("obs.trace_events_dropped", "count", false),
    ("gen.lag_p99_us", "us", false),
    ("gen.offered_pts_s", "1/s", true),
    ("gen.offered_queries_s", "1/s", true),
    ("trace.coverage", "ratio", true),
    ("trace.overhead_ratio", "ratio", false),
    ("trace.replay_points", "count", true),
    ("trace.replay_queries", "count", true),
    ("trace.spans", "count", true),
];

/// One workload's outcome.
pub struct RunResult {
    pub workload: &'static str,
    /// Operations attempted and failed: frames, queries, compress jobs
    /// and output checks alike.
    pub attempted: u64,
    pub failed: u64,
    /// `name → value`, exactly the end-to-end set (untraced) or the
    /// per-layer set (traced).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines for the human reader: untracked figures and check results.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Fails the run if the metric set is not exactly the declared one
    /// or a value is not a finite number.
    pub fn validate(&self, traced: bool) -> Result<(), String> {
        let names: Vec<&str> = if traced {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        for name in &names {
            match self.metrics.get(name) {
                None => return Err(format!("{}: metric {name} was not measured", self.workload)),
                Some(v) if !v.is_finite() => {
                    return Err(format!("{}: metric {name} is {v}", self.workload))
                }
                Some(v) if !traced && *v <= 0.0 => {
                    return Err(format!(
                        "{}: metric {name} is {v}, not positive",
                        self.workload
                    ))
                }
                Some(_) => {}
            }
        }
        match self.metrics.keys().find(|k| !names.contains(k)) {
            Some(extra) => Err(format!("{}: undeclared metric {extra}", self.workload)),
            None => Ok(()),
        }
    }

    /// The contract's result object, one line. Values print with all
    /// their digits ([`RunResult::validate`] has made sure they are finite).
    pub fn to_json(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = declared(name, traced).map_or("", |(_, unit)| unit);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The declared `(name, unit)` of a metric in the traced or untraced set.
pub fn declared(name: &str, traced: bool) -> Option<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().find(|m| m.0 == name).map(|m| (m.0, m.1))
    } else {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map(|m| (m.name, m.unit))
    }
}

impl RunResult {
    /// Reads back a result line this program printed (the suite runs
    /// each workload as a child process and collects these).
    pub fn from_json(
        workload: &'static str,
        line: &str,
        traced: bool,
    ) -> Result<RunResult, String> {
        let field = |key: &str| -> Result<&str, String> {
            let start = line
                .find(key)
                .ok_or_else(|| format!("no {key} in the result line: {line:?}"))?
                + key.len();
            let rest = &line[start..];
            Ok(&rest[..rest.find([',', '}']).unwrap_or(rest.len())])
        };
        let count = |key: &str| -> Result<u64, String> {
            field(key)?.parse().map_err(|e| format!("{key} {e}"))
        };
        let mut metrics = BTreeMap::new();
        const VALUE: &str = "\": {\"value\": ";
        let mut rest = line;
        while let Some(at) = rest.find(VALUE) {
            let name_start = rest[..at].rfind('"').map_or(0, |i| i + 1);
            let (name, _) = declared(&rest[name_start..at], traced)
                .ok_or_else(|| format!("undeclared metric {}", &rest[name_start..at]))?;
            rest = &rest[at + VALUE.len()..];
            let value = &rest[..rest.find(',').unwrap_or(rest.len())];
            metrics.insert(name, value.parse().map_err(|e| format!("{name}: {e}"))?);
        }
        let result = RunResult {
            workload,
            attempted: count("\"attempted\": ")?,
            failed: count("\"failed\": ")?,
            metrics,
            notes: Vec::new(),
        };
        if (field("\"correct\": ")? == "true") != result.correct() {
            return Err("`correct` disagrees with `failed`".to_string());
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is hand-kept beside this table; they must agree
    /// on every name, unit, direction and bound.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> &str {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let open = start + text[start..].find('[').unwrap();
            let close = open + text[open..].find(']').unwrap();
            &text[open..close]
        };
        let e2e = section("end_to_end");
        for m in &END_TO_END {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let want = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(e2e.contains(&want), "BENCHMARK.json lacks {want}");
        }
        assert_eq!(e2e.matches("\"name\"").count(), END_TO_END.len());
        let layers = section("per_layer");
        for (name, unit, higher) in &PER_LAYER {
            let better = if *higher { "higher" } else { "lower" };
            let want =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(layers.contains(&want), "BENCHMARK.json lacks {want}");
        }
        assert_eq!(layers.matches("\"name\"").count(), PER_LAYER.len());
        let workloads = section("workloads");
        for w in crate::workloads::ALL.iter().map(|w| w.name) {
            assert!(workloads.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        assert_eq!(
            workloads.matches("\"name\"").count(),
            crate::workloads::ALL.len()
        );
    }

    #[test]
    fn names_and_units_stay_inside_the_contracts_alphabet() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_rejects_gaps() {
        let mut r = RunResult {
            workload: "w",
            attempted: 10,
            failed: 0,
            metrics: END_TO_END.iter().map(|m| (m.name, 1.25)).collect(),
            notes: vec![],
        };
        r.validate(false).unwrap();
        let line = r.to_json(false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
        r.metrics.remove("setup_s");
        assert!(r.validate(false).is_err());
        r.metrics.insert("setup_s", 0.0);
        assert!(
            r.validate(false).is_err(),
            "an end-to-end metric is never 0"
        );
        r.metrics.insert("setup_s", 1.0);
        r.metrics.insert("geo.point_line_ns", 1.0);
        assert!(r.validate(false).is_err(), "undeclared metric");
        r.failed = 1;
        assert!(r.to_json(false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_printed_result_line_reads_back_unchanged() {
        for traced in [false, true] {
            let names: Vec<&'static str> = if traced {
                PER_LAYER.iter().map(|m| m.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            let r = RunResult {
                workload: "w",
                attempted: 1234,
                failed: 0,
                metrics: names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (*n, 0.1 + i as f64 * 1234.5678))
                    .collect(),
                notes: vec![],
            };
            let back = RunResult::from_json("w", &r.to_json(traced), traced).unwrap();
            assert_eq!(back.metrics, r.metrics);
            assert_eq!((back.attempted, back.failed), (1234, 0));
        }
        assert!(RunResult::from_json("w", "error: nothing ran", false).is_err());
        assert!(RunResult::from_json(
            "w",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"nope\": {\"value\": 1, \"unit\": \"s\"}}}",
            false
        )
        .is_err());
    }
}
