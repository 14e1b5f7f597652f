//! The metrics this benchmark reports: the same names, units and order as
//! `BENCHMARK.json` (a test holds the two together).

/// A metric's name and unit; `exact` marks values that depend only on the
/// code and the seed, so two runs must agree on them to the last bit.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, exact: false }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, exact: true }
}

/// What a user of the system sees; printed by every untraced run.
pub const END_TO_END: [MetricSpec; 3] =
    [timed("setup_s", "s"), timed("ops_per_s", "1/s"), timed("peak_rss_mb", "MB")];

/// Single layers (layer = crate name); printed by every traced run. A
/// metric the workload does not exercise reads 0.
pub const PER_LAYER: [MetricSpec; 70] = [
    // calib: the algorithms' own time, from calibrate spans minus the
    // objective spans under them.
    timed("calib.random.self_us_per_eval", "us"),
    timed("calib.grid.self_us_per_eval", "us"),
    timed("calib.gdfix.self_us_per_eval", "us"),
    timed("calib.bayesopt.self_us_per_eval", "us"),
    exact("calib.evals", "count"),
    timed("calib.eval_ms_p50", "ms"),
    timed("calib.eval_ms_tail", "ms"),
    timed("calib.eval_tail_percentile", "%"),
    exact("calib.best_mre_pct", "%"),
    timed("calib.par_efficiency", "ratio"),
    // study: objective glue, sweep folding, the fleet drivers.
    timed("study.objective.self_us_per_eval", "us"),
    timed("study.sweep.self_us_per_scenario", "us"),
    timed("study.sweep.par_efficiency", "ratio"),
    timed("study.dist.overhead_ms", "ms"),
    timed("study.net.overhead_ms", "ms"),
    timed("study.dist.result_codec_us", "us"),
    // sim: whole simulations.
    timed("sim.simulate_ms.1s", "ms"),
    timed("sim.simulate_ms.3s", "ms"),
    timed("sim.simulate_ms.30s", "ms"),
    timed("sim.simulate_ms.5min", "ms"),
    timed("sim.ns_per_event.1s", "ns"),
    timed("sim.ns_per_event.3s", "ns"),
    timed("sim.ns_per_event.30s", "ns"),
    timed("sim.ns_per_event.5min", "ns"),
    timed("sim.par_efficiency", "ratio"),
    timed("sim.fixed_us_per_run", "us"),
    timed("sim.materialize_us", "us"),
    timed("sim.family_ms.paper", "ms"),
    timed("sim.family_ms.hetero", "ms"),
    timed("sim.family_ms.straggler", "ms"),
    timed("sim.family_ms.deepcache", "ms"),
    timed("sim.family_ms.arrival", "ms"),
    timed("sim.family_ms.multisite", "ms"),
    timed("sim.family_ms.wan", "ms"),
    timed("sim.family_ms.steady", "ms"),
    timed("sim.codec.encode_us", "us"),
    timed("sim.codec.decode_us", "us"),
    exact("sim.codec.bytes_per_scenario", "B"),
    exact("sim.events", "count"),
    // des: the kernel's own counters for one pass, and its ratios.
    exact("des.events", "count"),
    exact("des.timer_firings", "count"),
    exact("des.rate_recomputes", "count"),
    exact("des.component_solves", "count"),
    exact("des.full_solves", "count"),
    exact("des.flows_resolved", "count"),
    exact("des.swap_inherits", "count"),
    exact("des.clean_batch_settles", "count"),
    exact("des.warm_refills", "count"),
    exact("des.closed_form_solves", "count"),
    exact("des.memb_cache_hits", "count"),
    exact("des.event_pushes", "count"),
    exact("des.event_pops", "count"),
    exact("des.event_stale_drops", "count"),
    exact("des.stale_pop_ratio", "ratio"),
    exact("des.swap_hit_ratio", "ratio"),
    exact("des.solves_per_event", "ratio"),
    exact("des.flows_per_solve", "ratio"),
    // des: direct kernel timings on synthetic inputs.
    timed("des.engine.ns_per_event.stream", "ns"),
    timed("des.engine.ns_per_event.components", "ns"),
    timed("des.solver.ns_per_flow", "ns"),
    timed("des.timer.ns_per_timer", "ns"),
    // The set-up layers.
    timed("groundtruth.generate_s", "s"),
    exact("groundtruth.emulator_events", "count"),
    timed("workload.cms_build_us", "us"),
    timed("storage.cache_plan_us", "us"),
    timed("platform.spec_build_us", "us"),
    // exp: the binary.
    timed("exp.startup_ms", "ms"),
    timed("exp.sweep_local_ms", "ms"),
    timed("exp.par_efficiency", "ratio"),
    // The price of tracing: traced pass wall over plain pass wall, minus 1.
    timed("trace.overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads;

    /// `BENCHMARK.json` and this file name the same workloads and metrics,
    /// with the same units, in the same order.
    #[test]
    fn benchmark_json_matches() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .unwrap()
                .elements()
                .iter()
                .map(|m| m.get(field).unwrap().as_str().unwrap().to_string())
                .collect()
        };
        let gated: Vec<&str> =
            workloads::NAMES.into_iter().filter(|&n| n != workloads::UNGATED).collect();
        assert_eq!(listed("workloads", "name"), gated);
        for (key, specs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
            let units: Vec<&str> = specs.iter().map(|s| s.unit).collect();
            assert_eq!(listed(key, "name"), names, "{key} names");
            assert_eq!(listed(key, "unit"), units, "{key} units");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).map(|s| s.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
