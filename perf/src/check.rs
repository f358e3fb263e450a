//! `perf check <a.json> <b.json>`: compares two result files, workload by
//! metric, against the bounds `BENCHMARK.json` fixes. `a` is the reference,
//! `b` the candidate.

use crate::json::Json;
use crate::stats::median;

/// How far one end-to-end metric may worsen before it counts as a regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the reference value.
    pub bound: f64,
}

/// Carried by the result files and printed here, but gated by nobody: a
/// repetition's p99 is the host's more than the program's (see
/// `Outcome::contract_line`).
const REPORTED_ONLY: &str = "op_p99_us";

/// Bounds for the two gated metrics the result files carry beyond
/// `BENCHMARK.json`'s list: any increase of `failed_frac` regresses; the
/// kernels' headline ratio may lose 4%.
fn extra_bounds() -> [Bound; 2] {
    [
        Bound {
            name: "failed_frac".into(),
            lower_is_better: true,
            bound: 0.0,
        },
        Bound {
            name: "speedup_vs_baseline".into(),
            lower_is_better: false,
            bound: 0.04,
        },
    ]
}

pub fn bounds_from(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let listed = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut bounds = Vec::new();
    for m in listed {
        let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
        bounds.push(Bound {
            name: field("name")?
                .as_str()
                .ok_or("name is not a string")?
                .to_string(),
            lower_is_better: field("better")?.as_str() == Some("lower"),
            bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
        });
    }
    bounds.extend(extra_bounds());
    Ok(bounds)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The repetitions spread wider than the bound: the pair cannot show
    /// either "unchanged" or "regressed".
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a` the candidate `b` is worse (negative: better).
pub fn worsening(bound: &Bound, a: f64, b: f64) -> f64 {
    let delta = if bound.lower_is_better { b - a } else { a - b };
    match (delta == 0.0, a == 0.0) {
        (true, _) => 0.0,
        (false, true) => delta.signum() * f64::INFINITY,
        (false, false) => delta / a.abs(),
    }
}

/// One cell of a result file, reduced over the file's (selected) sets:
/// median of the values, widest relative IQR, and the whole range its
/// repetitions covered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub rel_spread: f64,
    pub min: f64,
    pub max: f64,
}

pub fn verdict(bound: &Bound, a: &Reading, b: &Reading) -> Verdict {
    if a.rel_spread.max(b.rel_spread) > bound.bound {
        // Too noisy to call, unless every repetition of the candidate reads
        // better than every repetition of the reference.
        let clearly_better = if bound.lower_is_better {
            b.max < a.min
        } else {
            b.min > a.max
        };
        return if clearly_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(bound, a.value, b.value) > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// A result file with an optional `:<index>` suffix naming one of its
/// untraced sets.
pub struct Selected {
    sets: Vec<Json>,
}

impl Selected {
    pub fn load(spec: &str) -> Result<Selected, String> {
        let (path, index) = match spec.rsplit_once(':') {
            Some((p, i)) if i.parse::<usize>().is_ok() => (p, i.parse::<usize>().ok()),
            _ => (spec, None),
        };
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Selected::from_doc(
            &Json::parse(&text).map_err(|e| format!("{path}: {e}"))?,
            index,
        )
        .map_err(|e| format!("{path}: {e}"))
    }

    pub fn from_doc(doc: &Json, index: Option<usize>) -> Result<Selected, String> {
        let untraced: Vec<Json> = doc
            .get("sets")
            .and_then(Json::as_array)
            .ok_or("no sets")?
            .iter()
            .filter(|s| s.get("trace") == Some(&Json::Bool(false)))
            .cloned()
            .collect();
        let sets = match index {
            None => untraced,
            Some(i) => vec![untraced
                .get(i)
                .cloned()
                .ok_or(format!("no untraced set {i}"))?],
        };
        if sets.is_empty() {
            return Err("no untraced set".into());
        }
        Ok(Selected { sets })
    }

    /// `(workload, metric)` pairs of the first set, in file order.
    pub fn cells(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (w, detail) in self.sets[0]
            .get("workloads")
            .and_then(Json::as_object)
            .unwrap_or(&[])
        {
            for (m, _) in detail
                .get("end_to_end")
                .and_then(Json::as_object)
                .unwrap_or(&[])
            {
                out.push((w.clone(), m.clone()));
            }
        }
        out
    }

    pub fn reading(&self, workload: &str, metric: &str) -> Option<Reading> {
        let cells: Vec<&Json> = self
            .sets
            .iter()
            .filter_map(|s| {
                s.get("workloads")?
                    .get(workload)?
                    .get("end_to_end")?
                    .get(metric)
            })
            .collect();
        let values: Vec<f64> = cells
            .iter()
            .filter_map(|c| c.get("value")?.as_f64())
            .collect();
        if values.is_empty() {
            return None;
        }
        let field = |k: &'static str| cells.iter().filter_map(move |c| c.get(k)?.as_f64());
        let rel_spread = field("iqr")
            .zip(&values)
            .map(|(iqr, &v)| if v == 0.0 { 0.0 } else { (iqr / v).abs() })
            .fold(0.0, f64::max);
        Some(Reading {
            value: median(&values),
            rel_spread,
            min: field("min").fold(f64::INFINITY, f64::min),
            max: field("max").fold(f64::NEG_INFINITY, f64::max),
        })
    }
}

/// Prints one line per cell; `Ok(true)` when nothing regressed.
pub fn check(bounds: &[Bound], a: &Selected, b: &Selected) -> Result<bool, String> {
    let mut clean = true;
    println!(
        "{:<14}{:<22}{:>14}{:>14}{:>9}{:>8}  verdict",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    for (w, m) in a.cells() {
        let ra = a
            .reading(&w, &m)
            .expect("cells() lists what the file holds");
        let Some(rb) = b.reading(&w, &m) else {
            return Err(format!("{w}.{m}: missing from the second file"));
        };
        if m == REPORTED_ONLY {
            println!(
                "{w:<14}{m:<22}{:>14.4}{:>14.4}{:>9}{:>8}  reported",
                ra.value, rb.value, "", ""
            );
            continue;
        }
        let Some(bound) = bounds.iter().find(|b| b.name == m) else {
            return Err(format!("{m}: no bound in BENCHMARK.json"));
        };
        let v = verdict(bound, &ra, &rb);
        clean &= v != Verdict::Regressed;
        println!(
            "{w:<14}{m:<22}{:>14.4}{:>14.4}{:>8.1}%{:>7.0}%  {}",
            ra.value,
            rb.value,
            worsening(bound, ra.value, rb.value) * 100.0,
            bound.bound * 100.0,
            v.label()
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower_is_better: bool, bound: f64) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better,
            bound,
        }
    }

    /// A reading whose repetitions spread `rel` around `value`.
    fn reading(value: f64, rel: f64) -> Reading {
        Reading {
            value,
            rel_spread: rel,
            min: value * (1.0 - rel),
            max: value * (1.0 + rel),
        }
    }

    #[test]
    fn verdicts_on_synthetic_pairs() {
        let latency = bound(true, 0.08);
        let v = |b: &Bound, a, sa, c, sc| verdict(b, &reading(a, sa), &reading(c, sc));
        assert_eq!(v(&latency, 100.0, 0.01, 107.0, 0.01), Verdict::Ok);
        assert_eq!(v(&latency, 100.0, 0.01, 109.0, 0.01), Verdict::Regressed);
        // Spread wider than the bound: neither "unchanged" nor "regressed"...
        assert_eq!(v(&latency, 100.0, 0.09, 109.0, 0.01), Verdict::Unresolved);
        assert_eq!(v(&latency, 100.0, 0.09, 100.0, 0.01), Verdict::Unresolved);
        // ...unless every candidate repetition beats every reference one.
        assert_eq!(v(&latency, 100.0, 0.09, 50.0, 0.09), Verdict::Ok);

        let throughput = bound(false, 0.08);
        assert_eq!(v(&throughput, 100.0, 0.0, 93.0, 0.0), Verdict::Ok);
        assert_eq!(v(&throughput, 100.0, 0.0, 91.0, 0.0), Verdict::Regressed);
        assert_eq!(v(&throughput, 100.0, 0.0, 120.0, 0.0), Verdict::Ok);
        assert_eq!(v(&throughput, 100.0, 0.2, 200.0, 0.2), Verdict::Ok);

        // failed_frac: any increase regresses, even from zero.
        let failed = bound(true, 0.0);
        assert_eq!(v(&failed, 0.0, 0.0, 0.0, 0.0), Verdict::Ok);
        assert_eq!(v(&failed, 0.0, 0.0, 1e-6, 0.0), Verdict::Regressed);
    }

    fn file(sets: &[(bool, f64, f64)]) -> Json {
        file_of("op_p50_us", sets)
    }

    fn file_of(metric: &str, sets: &[(bool, f64, f64)]) -> Json {
        let sets = sets.iter().map(|&(trace, value, iqr)| {
            let cell = Json::obj([
                ("value", Json::Num(value)),
                ("iqr", Json::Num(iqr)),
                ("min", Json::Num(value - iqr)),
                ("max", Json::Num(value + iqr)),
            ]);
            let detail = Json::obj([("end_to_end", Json::obj([(metric, cell)]))]);
            Json::obj([
                ("trace", Json::Bool(trace)),
                ("workloads", Json::obj([("cascade", detail)])),
            ])
        });
        Json::obj([("sets", Json::Arr(sets.collect()))])
    }

    #[test]
    fn readings_take_the_median_of_untraced_sets_and_the_widest_spread() {
        let doc = file(&[
            (false, 100.0, 1.0),
            (true, 999.0, 0.0),
            (false, 104.0, 5.2),
            (false, 102.0, 0.0),
        ]);
        let all = Selected::from_doc(&doc, None).unwrap();
        assert_eq!(
            all.cells(),
            [("cascade".to_string(), "op_p50_us".to_string())]
        );
        let r = all.reading("cascade", "op_p50_us").unwrap();
        assert_eq!(r.value, 102.0);
        assert!((r.rel_spread - 0.05).abs() < 1e-12);
        // An index counts untraced sets only.
        let second = Selected::from_doc(&doc, Some(1)).unwrap();
        assert_eq!(second.reading("cascade", "op_p50_us").unwrap().value, 104.0);
        assert!(Selected::from_doc(&doc, Some(3)).is_err());
        assert!(all.reading("cascade", "nope").is_none());
    }

    #[test]
    fn check_fails_only_on_a_resolved_regression() {
        let bounds = bounds_from(
            &Json::parse(
                r#"{"end_to_end": [{"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.08}]}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(bounds.len(), 3);
        let load = |v, iqr| Selected::from_doc(&file(&[(false, v, iqr)]), None).unwrap();
        assert_eq!(
            check(&bounds, &load(100.0, 1.0), &load(105.0, 1.0)),
            Ok(true)
        );
        assert_eq!(
            check(&bounds, &load(100.0, 1.0), &load(120.0, 1.0)),
            Ok(false)
        );
        assert_eq!(
            check(&bounds, &load(100.0, 30.0), &load(120.0, 1.0)),
            Ok(true)
        ); // unresolved
        assert_eq!(
            check(&bounds, &load(120.0, 1.0), &load(100.0, 1.0)),
            Ok(true)
        );
        // A p99 is printed, never gated; any other unbounded metric is an error.
        let of = |m, v| Selected::from_doc(&file_of(m, &[(false, v, 1.0)]), None).unwrap();
        assert_eq!(
            check(&bounds, &of("op_p99_us", 100.0), &of("op_p99_us", 200.0)),
            Ok(true)
        );
        assert!(check(&bounds, &of("nope", 100.0), &of("nope", 100.0)).is_err());
        assert!(check(
            &bounds,
            &load(1.0, 0.0),
            &Selected::from_doc(&file(&[(false, 1.0, 0.0)]), None).unwrap()
        )
        .is_ok());
    }
}
