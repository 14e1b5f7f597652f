//! Comparing two result sets: `--check-against` (must simulated results
//! stay put?) and `agree` (do two runs of the same code agree?).

use crate::json::Json;
use crate::spec::PER_LAYER;

fn value_of(workload: &Json, section: &str, metric: &str) -> Option<f64> {
    workload.get(section)?.get(metric)?.get("value")?.as_f64()
}

/// Everything that must repeat exactly and does not, between two result
/// sets of one seed: per workload the result fingerprint and, where both
/// sets were traced, every exact per-layer metric.
pub fn check_against(prev: &Json, cur: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    for key in ["seed", "comparable"] {
        if prev.get(key) != cur.get(key) {
            problems.push(format!(
                "{key} differs ({:?} vs {:?}): exact values are only comparable at one seed and scale",
                prev.get(key),
                cur.get(key)
            ));
            return problems;
        }
    }
    let empty = Json::Null;
    for (name, now) in cur.get("workloads").unwrap_or(&empty).members() {
        let Some(before) = prev.get("workloads").and_then(|w| w.get(name)) else {
            problems.push(format!("{name}: not in the previous results"));
            continue;
        };
        if before.get("fingerprint") != now.get("fingerprint") {
            problems.push(format!(
                "{name}: result fingerprint {:?} -> {:?}",
                before.get("fingerprint").and_then(Json::as_str),
                now.get("fingerprint").and_then(Json::as_str)
            ));
        }
        for spec in PER_LAYER.iter().filter(|s| s.exact) {
            let pair =
                (value_of(before, "per_layer", spec.name), value_of(now, "per_layer", spec.name));
            if let (Some(a), Some(b)) = pair {
                if a.to_bits() != b.to_bits() {
                    problems.push(format!("{name}: {} {a} -> {b}", spec.name));
                }
            }
        }
    }
    problems
}

/// A markdown report of whether result sets `a` and `b` (two runs of the
/// same code) agree: every end-to-end metric of every workload that
/// `BENCHMARK.json` lists within the bound it gives, and everything exact
/// identical on every workload. The end-to-end rows of a workload it does
/// not list are shown, not judged.
pub fn agree(benchmark: &Json, a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut ok = true;
    let machine = |r: &Json| r.get("machine").map_or("?".to_string(), Json::to_line);
    out += &format!("machine A: `{}`\n\nmachine B: `{}`\n\n", machine(a), machine(b));
    out += "| workload | metric | A | B | difference | bound | |\n|---|---|---|---|---|---|---|\n";
    let empty = Json::Null;
    let exact = check_against(a, b);
    let gated: Vec<&str> = benchmark
        .get("workloads")
        .ok_or("BENCHMARK.json: no workloads")?
        .elements()
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    for (name, wa) in a.get("workloads").unwrap_or(&empty).members() {
        let wb = b
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("{name}: missing from the second result set"))?;
        for m in benchmark.get("end_to_end").ok_or("BENCHMARK.json: no end_to_end")?.elements() {
            let metric =
                m.get("name").and_then(Json::as_str).ok_or("end_to_end entry without name")?;
            let bound =
                m.get("bound").and_then(Json::as_f64).ok_or("end_to_end entry without bound")?;
            let (va, vb) =
                match (value_of(wa, "end_to_end", metric), value_of(wb, "end_to_end", metric)) {
                    (Some(va), Some(vb)) => (va, vb),
                    _ => return Err(format!("{name}: {metric} missing from a result set")),
                };
            let diff = (vb - va).abs() / va;
            let verdict = if !gated.contains(&name.as_str()) {
                "not gated"
            } else if diff <= bound {
                "ok"
            } else {
                ok = false;
                "DISAGREE"
            };
            out += &format!(
                "| {name} | {metric} | {va:.6} | {vb:.6} | {:.2}% | {:.0}% | {verdict} |\n",
                diff * 100.0,
                bound * 100.0,
            );
        }
    }
    ok &= exact.is_empty();
    if exact.is_empty() {
        out += "\nEvery result fingerprint and every exact per-layer metric is identical.\n";
    }
    for p in exact {
        out += &format!("\n- NOT IDENTICAL: {p}");
    }
    out += &format!("\n**{}**\n", if ok { "AGREE" } else { "DISAGREE" });
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(ops: f64, fingerprint: &str, events: f64) -> Json {
        let metric = |v: f64| Json::obj([("value", Json::Num(v)), ("unit", Json::str("x"))]);
        Json::obj([
            ("seed", Json::Num(1.0)),
            ("comparable", Json::Bool(true)),
            (
                "workloads",
                Json::obj([(
                    "w",
                    Json::obj([
                        ("fingerprint", Json::str(fingerprint)),
                        ("end_to_end", Json::obj([("ops_per_s", metric(ops))])),
                        (
                            "per_layer",
                            Json::obj([
                                ("sim.events", metric(events)),
                                ("exp.startup_ms", metric(ops)),
                            ]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    fn bounds() -> Json {
        Json::parse(
            r#"{"workloads": [{"name": "w"}], "end_to_end": [{"name": "ops_per_s", "bound": 0.05}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn identical_exact_values_pass_whatever_the_timings() {
        assert!(check_against(&results(100.0, "ab", 7.0), &results(250.0, "ab", 7.0)).is_empty());
    }

    #[test]
    fn fingerprint_and_exact_counter_changes_are_reported() {
        let problems = check_against(&results(100.0, "ab", 7.0), &results(100.0, "cd", 8.0));
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("fingerprint"));
        assert!(problems[1].contains("sim.events 7 -> 8"));
    }

    #[test]
    fn different_seeds_are_not_comparable() {
        let mut other = results(100.0, "ab", 7.0);
        if let Json::Obj(pairs) = &mut other {
            pairs[0].1 = Json::Num(2.0);
        }
        let problems = check_against(&results(100.0, "ab", 7.0), &other);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("seed differs"));
    }

    #[test]
    fn agreement_is_within_the_bound_and_exact() {
        let (report, ok) =
            agree(&bounds(), &results(100.0, "ab", 7.0), &results(104.0, "ab", 7.0)).unwrap();
        assert!(ok, "{report}");
        assert!(report.contains("| w | ops_per_s | 100.000000 | 104.000000 | 4.00% | 5% | ok |"));
        let (report, ok) =
            agree(&bounds(), &results(100.0, "ab", 7.0), &results(94.0, "ab", 7.0)).unwrap();
        assert!(!ok && report.contains("DISAGREE"));
        let (_, ok) =
            agree(&bounds(), &results(100.0, "ab", 7.0), &results(100.0, "ab", 8.0)).unwrap();
        assert!(!ok);
    }

    #[test]
    fn a_workload_the_benchmark_does_not_list_is_shown_but_not_judged() {
        let unlisted = Json::parse(
            r#"{"workloads": [], "end_to_end": [{"name": "ops_per_s", "bound": 0.05}]}"#,
        )
        .unwrap();
        let (report, ok) =
            agree(&unlisted, &results(100.0, "ab", 7.0), &results(300.0, "ab", 7.0)).unwrap();
        assert!(ok && report.contains("not gated"), "{report}");
        // Its exact values still have to repeat.
        let (_, ok) =
            agree(&unlisted, &results(100.0, "ab", 7.0), &results(100.0, "cd", 7.0)).unwrap();
        assert!(!ok);
    }
}
