//! From what a phase logged to named metrics: per-window values, their
//! median and spread.

use crate::drive::{PhaseLog, Span};
use crate::json::Json;
use crate::stats::{iqr, median, percentile};
use crate::workload::MIN_SAMPLES_BEYOND;
use std::collections::BTreeMap;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Spread of the per-window (or per-pass) values behind `value`;
    /// `None` for a single pooled value or a count.
    pub iqr: Option<f64>,
    /// Samples behind the value.
    pub n: u64,
}

/// Metrics in the order they were added.
#[derive(Default)]
pub struct MetricSet(pub Vec<Metric>);

impl MetricSet {
    pub fn add(&mut self, name: &str, unit: &'static str, value: f64, iqr: Option<f64>, n: u64) {
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            iqr,
            n,
        });
    }

    /// A value with no spread of its own (a count, or one pooled sample).
    pub fn single(&mut self, name: &str, unit: &'static str, value: f64, n: u64) {
        self.add(name, unit, value, None, n);
    }

    /// The median and spread of repeated measurements of one thing.
    pub fn of_values(&mut self, name: &str, unit: &'static str, values: &[f64], n: u64) {
        let spread = (values.len() > 1).then(|| iqr(values));
        self.add(name, unit, median(values), spread, n);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `{name: {value, unit}}` — the shape the last stdout line carries.
    pub fn to_contract_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|m| {
                    let fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
                    (m.name.clone(), Json::obj(fields))
                })
                .collect(),
        )
    }

    /// As above plus spread and sample count, for result files.
    pub fn to_detail_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|m| {
                    let fields = vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                        ("iqr", m.iqr.map_or(Json::Null, Json::Num)),
                        ("n", Json::Num(m.n as f64)),
                    ];
                    (m.name.clone(), Json::obj(fields))
                })
                .collect(),
        )
    }

    pub fn print(&self, heading: &str) {
        println!("{heading}");
        for m in &self.0 {
            let spread = m.iqr.map_or(String::new(), |i| format!("  iqr {i:.4}"));
            println!(
                "  {:<34} {:>14.4} {:<6}{spread}  n={}",
                m.name, m.value, m.unit, m.n
            );
        }
    }
}

/// The samples of a phase, sorted into its timed windows.
pub struct Windows {
    /// Seconds per window.
    pub secs: f64,
    /// Per window: audit latencies, ns.
    pub latency: Vec<Vec<u64>>,
    /// Per window: whole `run_audit` calls, ns.
    pub run_audit: Vec<Vec<u64>>,
    /// Per window: per-round Δt as signed, ns.
    pub rounds: Vec<Vec<u64>>,
    /// Per window and thread: first and last completion time, ns, and
    /// the number of completions.
    completions: Vec<Vec<(u64, u64, u64)>>,
}

impl Windows {
    pub fn of(phase: &PhaseLog) -> Windows {
        let n = phase.plan.windows;
        let mut w = Windows {
            secs: phase.plan.window.as_secs_f64(),
            latency: vec![Vec::new(); n],
            run_audit: vec![Vec::new(); n],
            rounds: vec![Vec::new(); n],
            completions: vec![vec![(u64::MAX, 0, 0); phase.threads.len()]; n],
        };
        for (t, thread) in phase.threads.iter().enumerate() {
            let mut rounds_start = 0;
            for audit in &thread.audits {
                let rounds = &thread.rounds_ns[rounds_start..audit.rounds_end];
                rounds_start = audit.rounds_end;
                let window = (0..n).find(|&i| {
                    (phase.plan.boundary_ns(i)..phase.plan.boundary_ns(i + 1))
                        .contains(&audit.done_ns)
                });
                if let Some(i) = window {
                    w.latency[i].push(audit.latency_ns);
                    w.run_audit[i].push(audit.run_audit_ns);
                    w.rounds[i].extend(rounds.iter().map(|&r| u64::from(r)));
                    let (first, last, count) = &mut w.completions[i][t];
                    *first = (*first).min(audit.done_ns);
                    *last = (*last).max(audit.done_ns);
                    *count += 1;
                }
            }
        }
        w
    }

    pub fn audits(&self) -> u64 {
        self.latency.iter().map(|w| w.len() as u64).sum()
    }

    pub fn rounds(&self) -> u64 {
        self.rounds.iter().map(|w| w.len() as u64).sum()
    }

    /// Audits per second, one value per window: per thread, completions
    /// after the first ÷ the time from the first to the last, summed over
    /// threads. Unlike count ÷ window length this does not move in steps
    /// of one audit, which matters when a window holds under a hundred.
    pub fn rates(&self) -> Vec<f64> {
        self.completions
            .iter()
            .map(|threads| {
                threads
                    .iter()
                    .map(|&(first, last, count)| match count {
                        0 => 0.0,
                        1 => 1.0 / self.secs,
                        n => (n - 1) as f64 / ((last - first).max(1) as f64 / 1e9),
                    })
                    .sum()
            })
            .collect()
    }
}

/// Adds percentile `q` of `samples` (ns, grouped by window) as `name` in
/// µs after subtracting `offset_ns` from each: the median of per-window
/// percentiles when every window holds enough samples, otherwise one
/// percentile over the pooled samples of the run.
pub fn add_percentile_us(
    set: &mut MetricSet,
    name: &str,
    samples: &[Vec<u64>],
    q: f64,
    offset_ns: u64,
) {
    let us = |ns: u64| ns.saturating_sub(offset_ns) as f64 / 1e3;
    let n: usize = samples.iter().map(Vec::len).sum();
    let enough = (MIN_SAMPLES_BEYOND / (1.0 - q)).ceil() as usize;
    if samples.iter().all(|w| w.len() >= enough) {
        let per_window: Vec<f64> = samples
            .iter()
            .map(|w| us(percentile(&mut w.clone(), q).expect("window has samples")))
            .collect();
        set.of_values(name, "us", &per_window, n as u64);
    } else {
        let mut pooled: Vec<u64> = samples.iter().flatten().copied().collect();
        let value = percentile(&mut pooled, q).map_or(f64::NAN, us);
        set.single(name, "us", value, n as u64);
    }
}

/// Durations of every span, grouped by span name, ns.
pub fn span_durations(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(s.name)
            .or_default()
            .push(s.end_ns.saturating_sub(s.start_ns));
    }
    by_name
}

/// Percentile `q` of `samples` in µs, 0 when there are none.
pub fn pct_us(samples: Option<&Vec<u64>>, q: f64) -> (f64, u64) {
    match samples {
        Some(s) if !s.is_empty() => {
            let v = percentile(&mut s.clone(), q).expect("non-empty");
            (v as f64 / 1e3, s.len() as u64)
        }
        _ => (0.0, 0),
    }
}
