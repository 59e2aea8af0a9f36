//! `BENCHMARK.json` at the repo root, as compiled into this binary: the
//! one place metric names, units, directions and bounds are written.

use crate::json::Json;

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// An end-to-end metric's regression rule.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen.
    pub bound: f64,
}

pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<String>,
}

impl Contract {
    /// # Panics
    ///
    /// Panics when the compiled-in `BENCHMARK.json` is not the document
    /// this benchmark expects — a bug in this package.
    pub fn load() -> Contract {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            _ => panic!("BENCHMARK.json: {key} is not a list"),
        };
        let name = |item: &Json| {
            item.get("name")
                .and_then(Json::as_str)
                .expect("BENCHMARK.json: entry has a name")
                .to_owned()
        };
        Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: list("workloads").iter().map(name).collect(),
            end_to_end: list("end_to_end")
                .iter()
                .map(|m| EndToEnd {
                    name: name(m),
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_owned(),
                    higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                    bound: m.get("bound").and_then(Json::as_f64).expect("bound"),
                })
                .collect(),
            per_layer: list("per_layer").iter().map(name).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn workloads_match_the_contract() {
        let contract = Contract::load();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(contract.workloads, ours);
        assert!(contract.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(contract.end_to_end.iter().all(|m| m.bound <= 0.25));
    }
}
