//! `compare a.json b.json`: two result sets, each end-to-end metric on
//! each workload held to its bound.

use crate::contract::Contract;
use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// `b` is no worse than `a` by more than the bound.
    Within,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// A run's own spread (IQR ÷ median) exceeds the bound, so the two
    /// medians cannot be told apart at this bound.
    Unresolved,
    /// The metric is missing from one of the sets.
    Missing,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better { a - b } else { b - a };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

/// Metric `name` of `workload`'s end-to-end run, from its bounded
/// (`"metrics"`) or unbounded group.
fn metric<'a>(set: &'a Json, workload: &str, group: &str, name: &str) -> Option<&'a Json> {
    set.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(group)?
        .get(name)
}

pub fn judge(
    a: Option<&Json>,
    b: Option<&Json>,
    higher_is_better: bool,
    bound: f64,
) -> (Status, f64) {
    let value = |m: Option<&Json>| m?.get("value")?.as_f64();
    let spread = |m: Option<&Json>| {
        let iqr = m?.get("iqr")?.as_f64()?;
        Some(iqr / value(m)?.abs().max(f64::MIN_POSITIVE))
    };
    let (Some(va), Some(vb)) = (value(a), value(b)) else {
        return (Status::Missing, f64::NAN);
    };
    let worse = worsening(va, vb, higher_is_better);
    let noisy = [spread(a), spread(b)].iter().flatten().any(|&s| s > bound);
    let status = if noisy {
        Status::Unresolved
    } else if worse > bound {
        Status::Regressed
    } else {
        Status::Within
    };
    (status, worse)
}

/// Prints one row per workload (then one line per metric) and returns
/// the number of regressed pairs.
///
/// # Errors
///
/// A file that does not read or parse.
pub fn compare(path_a: &str, path_b: &str) -> Result<usize, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{p}: {e}")))
    };
    let (a, b) = (read(path_a)?, read(path_b)?);
    let contract = Contract::load();
    let mut regressed = 0;
    println!("compare: a = {path_a}, b = {path_b}; worse = share of a by which b is worse");
    for workload in &contract.workloads {
        let rows: Vec<_> = contract
            .end_to_end
            .iter()
            .map(|m| {
                let at = |set| metric(set, workload, "metrics", &m.name);
                let (ma, mb) = (at(&a), at(&b));
                (m, judge(ma, mb, m.higher_is_better, m.bound), ma, mb)
            })
            .collect();
        let count = |s: Status| rows.iter().filter(|r| r.1 .0 == s).count();
        regressed += count(Status::Regressed);
        println!(
            "{workload:<12} within {:>2}  regressed {:>2}  unresolved {:>2}  missing {:>2}",
            count(Status::Within),
            count(Status::Regressed),
            count(Status::Unresolved),
            count(Status::Missing),
        );
        let v = |x: &Option<&Json>| x.and_then(|j| j.get("value")?.as_f64()).unwrap_or(f64::NAN);
        for (m, (status, worse), ma, mb) in &rows {
            println!(
                "    {:<24} a {:>14.4}  b {:>14.4} {:<5} worse {:>+7.3}  bound {:.2}  {:?}",
                m.name,
                v(ma),
                v(mb),
                m.unit,
                worse,
                m.bound,
                status
            );
        }
        // Measured but held to no bound: shown, not judged.
        let unbounded = a
            .get("workloads")
            .and_then(|w| w.get(workload)?.get("end_to_end")?.get("unbounded"));
        for (name, ma) in unbounded.map_or(&[][..], Json::entries) {
            let mb = metric(&b, workload, "unbounded", name);
            let unit = ma.get("unit").and_then(Json::as_str).unwrap_or("");
            println!(
                "    {name:<24} a {:>14.4}  b {:>14.4} {unit:<5} (no bound)",
                v(&Some(ma)),
                v(&mb)
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(value: f64, iqr: Option<f64>) -> Json {
        Json::obj(vec![
            ("value", Json::Num(value)),
            ("iqr", iqr.map_or(Json::Null, Json::Num)),
        ])
    }

    #[test]
    fn direction_and_bound_decide() {
        // Lower is better: 100 → 106 is 6 % worse.
        let (s, w) = judge(
            Some(&m(100.0, Some(1.0))),
            Some(&m(106.0, Some(1.0))),
            false,
            0.07,
        );
        assert_eq!(s, Status::Within);
        assert!((w - 0.06).abs() < 1e-12);
        let (s, _) = judge(
            Some(&m(100.0, Some(1.0))),
            Some(&m(108.0, Some(1.0))),
            false,
            0.07,
        );
        assert_eq!(s, Status::Regressed);
        // Higher is better: 100 → 92 is 8 % worse; 100 → 120 is better.
        let (s, _) = judge(Some(&m(100.0, None)), Some(&m(92.0, None)), true, 0.07);
        assert_eq!(s, Status::Regressed);
        let (s, w) = judge(Some(&m(100.0, None)), Some(&m(120.0, None)), true, 0.07);
        assert_eq!(s, Status::Within);
        assert!(w < 0.0);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let (s, _) = judge(
            Some(&m(100.0, Some(9.0))),
            Some(&m(101.0, Some(1.0))),
            false,
            0.07,
        );
        assert_eq!(s, Status::Unresolved);
        let (s, _) = judge(None, Some(&m(1.0, None)), false, 0.07);
        assert_eq!(s, Status::Missing);
    }
}
