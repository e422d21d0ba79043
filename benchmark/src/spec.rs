//! The metric table: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` at the repository root declares the same
//! table; a unit test keeps the two in step.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Printed by every untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[MetricSpec] = &[
    lower("job_ms_p25", "ms"),
    lower("peak_rss_mb", "MB"),
    lower("setup_s", "s"),
];

/// Printed by every traced run (`--trace 1`), on every workload.
pub const PER_LAYER: &[MetricSpec] = &[
    lower("config.parse_us", "us"),
    lower("sim.run_ms", "ms"),
    lower("sim.cpu_ms", "ms"),
    lower("sim.ns_per_op", "ns"),
    lower("os.ns_per_fault", "ns"),
    lower("report.results_json_ms", "ms"),
    lower("artifacts.write_ms", "ms"),
    lower("artifacts.bytes", "bytes"),
    lower("journal.bytes", "bytes"),
    lower("obs.json_parse_ms", "ms"),
    lower("obs.json_parse_ns_per_byte", "ns/byte"),
    higher("obs.trace_events", "count"),
    higher("obs.series_samples", "count"),
    lower("cache.tlb_ms", "ms"),
    lower("cache.pwc_ms", "ms"),
    lower("cache.fill_ms", "ms"),
    lower("pt.guest_walk_ms", "ms"),
    lower("pt.host_walk_ms", "ms"),
    lower("os.memo_probe_ms", "ms"),
    lower("core.alloc_ms", "ms"),
    lower("engine.loop_ms", "ms"),
    lower("prof.unattributed_ms", "ms"),
    lower("prof.overhead_pct", "%"),
    lower("cache.tlb_miss_ratio", "ratio"),
    lower("cache.data_miss_ratio", "ratio"),
    higher("os.memo_hit_ratio", "ratio"),
    higher("model.ptemagnet_gain_pct", "%"),
    lower("model.host_frag_default", "ratio"),
    lower("model.host_frag_ptemagnet", "ratio"),
    lower("model.digest", "hash"),
    lower("serve.admit_ms_p50", "ms"),
    lower("serve.exec_ms_p50", "ms"),
    lower("serve.hit_ms_p50", "ms"),
    lower("serve.cold_ms_tail", "ms"),
    lower("serve.hit_ms_tail", "ms"),
    lower("serve.queue_pos_max", "count"),
];

/// The declared table for one kind of run.
pub fn table(trace: bool) -> &'static [MetricSpec] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use vmsim_obs::json::{self, Json};

    /// The name rule: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a letter
    /// or a digit.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn declared() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn name_rule_accepts_dotted_names_and_rejects_the_rest() {
        for ok in ["job_ms_p25", "cache.tlb_ms", "a-b.c_d", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "slash/no",
            "p99%",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_declared_name_follows_the_rule_and_is_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let doc = declared();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(entries.len(), table.len(), "{key}: metric count");
            for (entry, spec) in entries.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(spec.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(spec.unit));
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(spec.better.as_str()),
                    "{}",
                    spec.name
                );
            }
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn printed_workloads_match_benchmark_json() {
        let doc = declared();
        let declared = names(&doc, "workloads");
        let printed: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(declared, printed);
    }
}
