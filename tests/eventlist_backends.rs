//! Scenario-level oracles for the kernel's one timer store.
//!
//! The file and test names date from when three stores sat behind a knob
//! and these tests compared them; the builder's floor list pins the names,
//! so each stays on the body that replaced its second side. What is left
//! to get wrong in the one store is the state that outlives a run: timer
//! slots recycled with bumped generations and a tie-breaking sequence that
//! never restarts. None of it may leak into the next run, so every oracle
//! here compares a fresh `SimSession` with one that has history.

use simcal::sim::{Scenario, ScenarioRegistry, SimSession};
use simcal::study::sweep::SweepResult;

/// Everything a run reports: the sweep fingerprint (makespan, events,
/// trace hash as raw bits) and the horizon report, quantile for quantile.
fn observe(sc: &Scenario, session: &mut SimSession) -> (impl PartialEq + std::fmt::Debug, String) {
    let report = sc.try_run_report(session, 1).unwrap_or_else(|e| panic!("{}: {e}", sc.name));
    (SweepResult::from_report(&sc.name, &report).fingerprint(), format!("{:?}", report.horizon))
}

/// Each scenario on a fresh session must match the same scenario on one
/// long-lived session that has already run everything after it.
fn assert_history_free(grid: &[Scenario]) {
    let mut worn = SimSession::new();
    for sc in grid.iter().rev() {
        let reused = observe(sc, &mut worn);
        assert_eq!(
            observe(sc, &mut SimSession::new()),
            reused,
            "{}: session history leaked",
            sc.name
        );
    }
}

#[test]
fn every_reduced_scenario_is_backend_invariant() {
    assert_history_free(&ScenarioRegistry::reduced().scenarios());
}

#[test]
fn builtin_scenarios_are_backend_invariant_per_family() {
    // One representative per family still walks every code path (paper
    // platforms, heterogeneous nodes, stragglers, deep caches, queued
    // arrivals, multi-site staging, steady horizons) at real size.
    let reg = ScenarioRegistry::builtin();
    let mut seen = std::collections::HashSet::new();
    let grid: Vec<Scenario> = reg
        .entries()
        .iter()
        .filter(|e| seen.insert(e.family))
        .map(|e| e.scenario.clone())
        .collect();
    assert!(grid.len() >= 7, "expected one scenario per family, got {}", grid.len());
    assert_history_free(&grid);
}

#[test]
fn horizon_reports_are_bit_identical_across_backends() {
    // The calibration loop's pattern: the same scenario back to back on
    // one session, each run handed exactly the slots the last one freed.
    let reg = ScenarioRegistry::reduced();
    let steady = reg.matching("steady");
    assert_eq!(steady.len(), 3, "the steady family has three variants");
    for e in steady {
        let sc = &e.scenario;
        let mut session = SimSession::new();
        let first = observe(sc, &mut session);
        assert!(first.1.contains("completed"), "{}: no horizon report", sc.name);
        for _ in 0..2 {
            assert_eq!(observe(sc, &mut session), first, "{}: a re-run diverged", sc.name);
        }
    }
}

#[test]
fn auto_backend_migrates_on_deep_queues_and_counters_prove_it() {
    // The registry's deepest timer population: every arrival's release
    // timer is scheduled up front. The counters must show the store held
    // them all, and restart from zero when the session is reused.
    let reg = ScenarioRegistry::builtin();
    let sc = &reg.matching("steady-poisson")[0].scenario;
    let n_jobs = sc.workload.n_jobs() as u64;
    assert!(n_jobs >= 2_000, "{}: only {n_jobs} release timers", sc.name);
    let mut session = SimSession::new();
    let first = observe(sc, &mut session);
    let stats = session.engine_stats();
    assert!(stats.event_pushes >= n_jobs, "queue barely used: {stats:?}");
    assert!(stats.timer_firings >= n_jobs * 9 / 10, "release timers did not fire: {stats:?}");
    assert!(stats.event_pops <= stats.event_pushes, "{stats:?}");
    assert_eq!(observe(sc, &mut session), first);
    assert_eq!(session.engine_stats(), stats, "counters restart from zero on reuse");
}
