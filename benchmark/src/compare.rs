//! `coopbench compare`: do two result files agree within the bounds that
//! `BENCHMARK.json` fixes? The tool later changes and their reviewers use
//! to tell a regression from noise.

use coopcache::obs::{parse_json, JsonValue};

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may get worse.
    pub bound: f64,
}

/// The rules in the text of `BENCHMARK.json`.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = parse_json(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(JsonValue::as_str);
            let better = m.get("better").and_then(JsonValue::as_str);
            let bound = m.get("bound").and_then(JsonValue::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("higher" | "lower")), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    higher_is_better: better == "higher",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry: {m:?}")),
            }
        })
        .collect()
}

/// What `compare` needs from a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

impl Sample {
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

pub fn parse_sample(text: &str) -> Result<Sample, String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("result has no {key}"));
    let metrics = field("metrics")?
        .as_object()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(JsonValue::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no numeric value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Sample {
        workload: field("workload")?.as_str().unwrap_or_default().to_string(),
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        metrics,
    })
}

/// The median of several runs of one workload: every metric's median,
/// operations and failures summed, correct only if every run was. The
/// bounds are meant for medians — single runs on a shared box differ by
/// more than a set of them does.
pub fn median_sample(runs: &[Sample]) -> Result<Sample, String> {
    let first = runs.first().ok_or("no result file given")?;
    if let Some(other) = runs.iter().find(|r| r.workload != first.workload) {
        return Err(format!(
            "results are of different workloads: {} and {}",
            first.workload, other.workload
        ));
    }
    let metrics = first
        .metrics
        .iter()
        .filter_map(|(name, _)| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            Some((name.clone(), crate::stats::Summary::of(&values)?.median))
        })
        .collect();
    Ok(Sample {
        workload: first.workload.clone(),
        correct: runs.iter().all(|r| r.correct),
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        metrics,
    })
}

/// One metric's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub name: String,
    pub base: f64,
    pub new: f64,
    /// Positive when `new` is worse than `base`, as a share of `base`.
    pub worse_by: f64,
    pub bound: f64,
    pub ok: bool,
}

/// How much worse `new` is than `base`, as a share of `base` (negative
/// when it is better).
pub fn worse_by(base: f64, new: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better {
        base - new
    } else {
        new - base
    };
    if base == 0.0 {
        // No baseline to take a share of: any worsening is unbounded.
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / base.abs()
    }
}

/// Applies every bound to the pair; metrics named in `skip` or missing
/// from either side are left out (a traced result has no end-to-end
/// metrics at all).
pub fn judge(bounds: &[Bound], base: &Sample, new: &Sample, skip: &[String]) -> Vec<Verdict> {
    let value = |s: &Sample, name: &str| s.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    bounds
        .iter()
        .filter(|b| !skip.contains(&b.name))
        .filter_map(|b| {
            let (old, new) = (value(base, &b.name)?, value(new, &b.name)?);
            let worse_by = worse_by(old, new, b.higher_is_better);
            Some(Verdict {
                name: b.name.clone(),
                base: old,
                new,
                worse_by,
                bound: b.bound,
                ok: worse_by <= b.bound,
            })
        })
        .collect()
}

/// Compares two result files; returns the printable report and whether
/// `new` passes: every metric within its bound, no check failed, and the
/// failure ratio no higher than the baseline's.
pub fn compare(
    bounds: &[Bound],
    base: &Sample,
    new: &Sample,
    skip: &[String],
) -> Result<(String, bool), String> {
    if base.workload != new.workload {
        return Err(format!(
            "results are of different workloads: {} and {}",
            base.workload, new.workload
        ));
    }
    let verdicts = judge(bounds, base, new, skip);
    let mut report = format!("== compare {}\n", base.workload);
    for v in &verdicts {
        report.push_str(&format!(
            "   {:<16} base={:<14.4} new={:<14.4} worse_by={:>+8.2}% bound={:.0}%  {}\n",
            v.name,
            v.base,
            v.new,
            v.worse_by * 100.0,
            v.bound * 100.0,
            if v.ok { "ok" } else { "REGRESSION" }
        ));
    }
    let fails_ok = new.fail_ratio() <= base.fail_ratio();
    report.push_str(&format!(
        "   fail_ratio       base={} new={}  {}\n",
        base.fail_ratio(),
        new.fail_ratio(),
        if fails_ok { "ok" } else { "MORE FAILURES" }
    ));
    if !new.correct {
        report.push_str("   new result failed its correctness checks\n");
    }
    let ok = verdicts.iter().all(|v| v.ok) && fails_ok && new.correct;
    Ok((report, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &str = r#"{"end_to_end": [
        {"name": "req_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    ]}"#;

    fn sample(req_per_s: f64, p50_us: f64, failed: u64) -> Sample {
        Sample {
            workload: "w".into(),
            correct: true,
            attempted: 100,
            failed,
            metrics: vec![("req_per_s".into(), req_per_s), ("p50_us".into(), p50_us)],
        }
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, false) + 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, false), 0.0);
        assert_eq!(worse_by(0.0, 1.0, false), f64::INFINITY);
    }

    #[test]
    fn bounds_parse_and_reject_malformed_entries() {
        let bounds = parse_bounds(BOUNDS).unwrap();
        assert_eq!(bounds.len(), 3);
        assert!(bounds[0].higher_is_better);
        assert!(!bounds[1].higher_is_better);
        assert_eq!(bounds[2].bound, 0.25);
        assert!(
            parse_bounds(r#"{"end_to_end":[{"name":"x","better":"sideways","bound":0.1}]}"#)
                .is_err()
        );
        assert!(parse_bounds("{}").is_err());
    }

    #[test]
    fn a_result_passes_inside_the_bound_and_fails_outside_it() {
        let bounds = parse_bounds(BOUNDS).unwrap();
        let base = sample(1000.0, 100.0, 0);
        // 9 % slower and 9 % more latency: inside both 10 % bounds.
        let (_, ok) = compare(&bounds, &base, &sample(910.0, 109.0, 0), &[]).unwrap();
        assert!(ok);
        // Faster is never a regression, however large.
        let (_, ok) = compare(&bounds, &base, &sample(5000.0, 10.0, 0), &[]).unwrap();
        assert!(ok);
        // 11 % slower: outside.
        let (report, ok) = compare(&bounds, &base, &sample(890.0, 100.0, 0), &[]).unwrap();
        assert!(!ok);
        assert!(report.contains("REGRESSION"), "{report}");
        // ... unless the metric is skipped.
        let (_, ok) = compare(
            &bounds,
            &base,
            &sample(890.0, 100.0, 0),
            &["req_per_s".to_string()],
        )
        .unwrap();
        assert!(ok);
        // setup_s is in the bounds but in neither sample: left out.
        assert_eq!(judge(&bounds, &base, &base, &[]).len(), 2);
    }

    #[test]
    fn more_failures_or_a_failed_check_fail_the_comparison() {
        let bounds = parse_bounds(BOUNDS).unwrap();
        let base = sample(1000.0, 100.0, 0);
        let (report, ok) = compare(&bounds, &base, &sample(1000.0, 100.0, 1), &[]).unwrap();
        assert!(!ok);
        assert!(report.contains("MORE FAILURES"));
        let mut incorrect = sample(1000.0, 100.0, 0);
        incorrect.correct = false;
        assert!(!compare(&bounds, &base, &incorrect, &[]).unwrap().1);
        let mut other = sample(1000.0, 100.0, 0);
        other.workload = "v".into();
        assert!(compare(&bounds, &base, &other, &[]).is_err());
    }

    #[test]
    fn several_runs_compare_by_their_medians() {
        let runs = [
            sample(900.0, 100.0, 0),
            sample(1000.0, 300.0, 1),
            sample(1100.0, 110.0, 0),
        ];
        let median = median_sample(&runs).unwrap();
        assert_eq!(median.metrics[0], ("req_per_s".to_string(), 1000.0));
        assert_eq!(median.metrics[1], ("p50_us".to_string(), 110.0));
        assert_eq!((median.attempted, median.failed), (300, 1));
        assert!(median.correct);
        let mut wrong = sample(1.0, 1.0, 0);
        wrong.correct = false;
        assert!(!median_sample(&[runs[0].clone(), wrong]).unwrap().correct);
        let mut other = sample(1.0, 1.0, 0);
        other.workload = "v".into();
        assert!(median_sample(&[runs[0].clone(), other]).is_err());
        assert!(median_sample(&[]).is_err());
    }

    #[test]
    fn result_files_parse_back() {
        let text = r#"{"workload":"sim-sync","correct":true,"attempted":80,"failed":0,
            "metrics":{"req_per_s":{"value":5.5e6,"unit":"1/s","samples":8},
                       "hit_ratio":{"value":0.8433,"unit":"ratio"}}}"#;
        let s = parse_sample(text).unwrap();
        assert_eq!(s.workload, "sim-sync");
        assert_eq!(s.attempted, 80);
        assert_eq!(s.metrics.len(), 2);
        assert_eq!(s.metrics[1], ("hit_ratio".to_string(), 0.8433));
        assert!(parse_sample(r#"{"workload":"x"}"#).is_err());
    }
}
