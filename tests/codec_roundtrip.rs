//! Wire-codec round-trip properties over the whole scenario space.
//!
//! The distributed sweep's correctness rests on the codec being an exact,
//! deterministic bijection on the scenarios the repository actually runs:
//!
//! 1. `encode → decode → encode` is **byte-identical** for every registry
//!    built-in, every `icd_grid` expansion, every ground-truth emulator
//!    scenario, and randomized workload-spec scenarios;
//! 2. decoding is forward-compatible: a version-bumped payload carrying
//!    unknown fields decodes to the same scenario;
//! 3. a missing required field is a structured [`CodecError`], never a
//!    panic.

use proptest::prelude::*;

use simcal::sim::codec::{
    decode_msg, decode_scenario, encode_msg, encode_scenario, scenario_from_json, scenario_to_json,
    CodecError, Json, WireMsg, CODEC_VERSION,
};
use simcal::sim::{CacheSpec, Scenario, ScenarioRegistry, SimConfig, WorkloadSource};
use simcal::study::dist::{decode_sweep_result, encode_sweep_result};
use simcal::study::{SweepResult, SweepRunner};
use simcal::workload::{ArrivalProcess, Distribution, WorkloadSpec};

fn assert_round_trips(sc: &Scenario) {
    let text = encode_scenario(sc);
    let back = decode_scenario(&text)
        .unwrap_or_else(|e| panic!("decode of {:?} failed: {e}\npayload: {text}", sc.name));
    assert_eq!(&back, sc, "{}: decoded scenario differs", sc.name);
    assert_eq!(encode_scenario(&back), text, "{}: re-encode not byte-identical", sc.name);
}

#[test]
fn every_builtin_scenario_round_trips() {
    let reg = ScenarioRegistry::builtin();
    assert_eq!(reg.len(), 28, "the registry's 28 built-ins are the covered universe");
    for e in reg.entries() {
        assert_round_trips(&e.scenario);
    }
    for e in ScenarioRegistry::reduced().entries() {
        assert_round_trips(&e.scenario);
    }
}

#[test]
fn every_icd_grid_expansion_round_trips() {
    for reg in [ScenarioRegistry::builtin(), ScenarioRegistry::reduced()] {
        let grid = reg.icd_grid(&[0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(grid.len(), reg.len() * 5);
        for sc in &grid {
            assert_round_trips(sc);
        }
    }
}

#[test]
fn ground_truth_scenarios_round_trip() {
    // Concrete shared workloads + noisy emulator configs (write-through,
    // compute factors, jitter) — the other half of the scenario space.
    let workload = std::sync::Arc::new(simcal::workload::scaled_cms_workload(6, 3, 10e6));
    let truth = simcal::groundtruth::TruthParams::case_study();
    for kind in simcal::platform::PlatformKind::ALL {
        for sc in
            simcal::groundtruth::ground_truth_scenarios(kind, &workload, &truth, &[0.0, 0.5, 1.0])
        {
            assert_round_trips(&sc);
        }
    }
}

#[test]
fn decoded_scenarios_run_bit_identically() {
    // The codec preserves behaviour, not just structure: a decoded
    // scenario simulates to the same trace hash as the original.
    let grid: Vec<Scenario> = ScenarioRegistry::reduced().scenarios().into_iter().take(3).collect();
    let decoded: Vec<Scenario> =
        grid.iter().map(|sc| decode_scenario(&encode_scenario(sc)).unwrap()).collect();
    let runner = SweepRunner::new().with_workers(1);
    let a: Vec<_> = runner.run(&grid).iter().map(SweepResult::fingerprint).collect();
    let b: Vec<_> = runner.run(&decoded).iter().map(SweepResult::fingerprint).collect();
    assert_eq!(a, b);
}

#[test]
fn version_bumped_payloads_with_unknown_fields_decode() {
    for e in ScenarioRegistry::builtin().entries() {
        let mut json = scenario_to_json(&e.scenario);
        let fields = json.fields_mut().unwrap();
        for (k, v) in fields.iter_mut() {
            if k == "v" {
                *v = Json::Num(CODEC_VERSION as f64 + 1.0);
            }
        }
        fields.push((
            "added_in_a_later_version".to_string(),
            Json::Obj(vec![("nested".to_string(), Json::Arr(vec![Json::Num(1.0), Json::Null]))]),
        ));
        let back = scenario_from_json(&json)
            .unwrap_or_else(|err| panic!("{}: newer payload rejected: {err}", e.scenario.name));
        assert_eq!(back, e.scenario);
    }
}

#[test]
fn pre_current_versions_are_structured_version_errors() {
    // One wire version: a scenario, a sweep result and a protocol message
    // stamped with any older version fail with the version error, which
    // names both the version found and the one supported.
    let grid = ScenarioRegistry::reduced().scenarios();
    let result = &SweepRunner::new().with_workers(1).run(&grid[..1])[0];
    let current = format!(r#""v":{CODEC_VERSION}"#);
    type Decode = fn(&str) -> Option<CodecError>;
    let cases: [(&str, String, Decode); 3] = [
        ("Scenario", encode_scenario(&grid[0]), |t| decode_scenario(t).err()),
        ("SweepResult", encode_sweep_result(result), |t| decode_sweep_result(t).err()),
        ("WireMsg", encode_msg(&WireMsg::Heartbeat { inflight: None }), |t| decode_msg(t).err()),
    ];
    for (ty, text, decode) in cases {
        assert!(text.starts_with(&format!("{{{current},")), "{ty}: {text}");
        assert_eq!(decode(&text), None, "{ty}: the current version must decode");
        for old in 0..CODEC_VERSION {
            let err = decode(&text.replacen(&current, &format!(r#""v":{old}"#), 1));
            let want =
                CodecError::UnsupportedVersion { ty, version: old, supported: CODEC_VERSION };
            assert_eq!(err.as_ref(), Some(&want), "{ty} v{old}");
        }
    }
}

#[test]
fn each_missing_top_level_field_is_a_structured_error() {
    let sc = ScenarioRegistry::builtin().scenarios().remove(0);
    for field in ["v", "name", "platform", "workload", "cache", "config"] {
        let mut json = scenario_to_json(&sc);
        json.fields_mut().unwrap().retain(|(k, _)| k != field);
        match scenario_from_json(&json) {
            Err(CodecError::MissingField { field: f, .. }) => assert_eq!(f, field),
            other => panic!("dropping {field:?} gave {other:?}, expected MissingField"),
        }
    }
}

#[test]
fn sweep_results_round_trip_for_the_whole_reduced_registry() {
    let grid = ScenarioRegistry::reduced().scenarios();
    let results = SweepRunner::new().with_workers(2).run(&grid);
    for r in &results {
        let text = encode_sweep_result(r);
        let back = decode_sweep_result(&text).unwrap();
        assert_eq!(back.fingerprint(), r.fingerprint(), "{}", r.name);
        assert_eq!(encode_sweep_result(&back), text, "{}: re-encode differs", r.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized generative scenarios: distribution parameters, seeds,
    /// cache plans, and granularities drawn from the plausible ranges all
    /// survive the round trip byte-exactly.
    #[test]
    fn randomized_spec_scenarios_round_trip(
        n_jobs in 1usize..40,
        files in 1usize..8,
        dist_kind in 0u32..5,
        arr_kind in 0u32..4,
        scale in 1.0f64..1e9,
        sigma in 0.0f64..2.0,
        rate in 1e-3f64..10.0,
        wseed in 0u64..u64::MAX,
        icd_milli in 0u64..1000,
        pinned_seed in proptest::option::of(0u64..u64::MAX),
    ) {
        let file_size = match dist_kind {
            0 => Distribution::Constant(scale),
            1 => Distribution::Uniform { lo: scale * 0.5, hi: scale * 1.5 },
            2 => Distribution::Normal { mean: scale, std_dev: scale * 0.1, floor: 0.0 },
            3 => Distribution::LogNormal { mu: scale.ln(), sigma },
            _ => Distribution::Exponential { rate: 1.0 / scale },
        };
        let arrival = match arr_kind {
            0 => ArrivalProcess::Immediate,
            1 => ArrivalProcess::Poisson { rate },
            2 => ArrivalProcess::Diurnal {
                base_rate: rate,
                amplitude: (sigma / 2.0).min(1.0),
                period: 60.0 / rate,
            },
            _ => ArrivalProcess::Bursty {
                batch_size: files.max(1),
                batch_interval: 10.0 / rate,
            },
        };
        let sc = Scenario {
            name: format!("prop-{dist_kind}-{wseed:x}"),
            platform: simcal::platform::catalog::fcfn(),
            workload: WorkloadSource::Spec {
                spec: WorkloadSpec {
                    n_jobs,
                    files_per_job: files,
                    file_size,
                    flops_per_byte: Distribution::Constant(6.0),
                    output_bytes: Distribution::Constant(scale * 0.1),
                    arrival,
                },
                seed: wseed,
            },
            cache: CacheSpec {
                icd: icd_milli as f64 / 1000.0,
                seed: pinned_seed,
            },
            config: SimConfig::default(),
            multisite: None,
            horizon: None,
        };
        let text = encode_scenario(&sc);
        let back = decode_scenario(&text).unwrap();
        prop_assert_eq!(&back, &sc);
        prop_assert_eq!(encode_scenario(&back), text);
    }
}
