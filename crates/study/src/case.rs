//! The case-study bundle: workload, truth parameters, and ground truth for
//! all four platforms.
//!
//! Ground-truth generation is scenario-driven: the 4-platform x 11-ICD
//! grid of emulator [`Scenario`](simcal_sim::Scenario)s is executed by the
//! sharded [`SweepRunner`], so generation parallelizes across cores while
//! staying bit-identical to the sequential reference path
//! (`simcal_groundtruth::generate`).

use std::path::Path;
use std::sync::Arc;

use simcal_groundtruth::{ground_truth_scenarios, GroundTruthPoint, GroundTruthSet, TruthParams};
use simcal_platform::PlatformKind;
use simcal_storage::CachePlan;
use simcal_workload::{cms_workload, scaled_cms_workload, Workload};

use crate::sweep::SweepRunner;

/// The full case-study dataset: the workload and, per platform, the
/// ground-truth metrics over the 11 ICD values.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// The application workload.
    pub workload: Arc<Workload>,
    /// The (hidden) true system parameters the ground truth was generated
    /// with. Experiments must not read these except for reporting "actual"
    /// values, as the paper does in its Table IV discussion.
    pub truth: TruthParams,
    /// Ground truth per platform, in [`PlatformKind::ALL`] order.
    pub ground_truth: Vec<Arc<GroundTruthSet>>,
}

impl CaseStudy {
    /// Generate the full paper-scale case study (48 jobs x 20 x 427 MB,
    /// 4 platforms x 11 ICD values). Takes a few seconds of simulation.
    pub fn generate_full() -> Self {
        Self::generate_with(cms_workload(), TruthParams::case_study())
    }

    /// Generate a case study for a custom workload/truth (examples, tests).
    ///
    /// The (platform, ICD) grid is swept in parallel; results are
    /// bit-identical to sequential per-platform generation regardless of
    /// the worker count.
    pub fn generate_with(workload: Workload, truth: TruthParams) -> Self {
        let icds = CachePlan::paper_icd_values();
        let workload = Arc::new(workload);

        // One scenario per (platform, ICD), platform-major like the
        // ground-truth sets the sequential path builds.
        let grid: Vec<_> = PlatformKind::ALL
            .iter()
            .flat_map(|&k| ground_truth_scenarios(k, &workload, &truth, &icds))
            .collect();
        let results = SweepRunner::new().run(&grid);

        let ground_truth = PlatformKind::ALL
            .iter()
            .enumerate()
            .map(|(p, &kind)| {
                let points = icds
                    .iter()
                    .enumerate()
                    .map(|(i, &icd)| {
                        let r = &results[p * icds.len() + i];
                        GroundTruthPoint {
                            icd,
                            node_means: r.node_means.clone(),
                            node_stds: r.node_stds.clone(),
                            makespan: r.makespan,
                        }
                    })
                    .collect();
                Arc::new(GroundTruthSet { platform: kind, points })
            })
            .collect();
        Self { workload, truth, ground_truth }
    }

    /// A reduced-scale case study for fast tests: 30 jobs (covering all
    /// three nodes) x 4 files x 40 MB, coarser emulator granularity,
    /// same compute-to-data ratio as the full workload.
    pub fn generate_reduced() -> Self {
        let mut truth = TruthParams::case_study();
        truth.granularity = simcal_storage::XRootDConfig::new(8e6, 2e6);
        Self::generate_with(scaled_cms_workload(30, 4, 40e6), truth)
    }

    /// Ground truth for a platform.
    pub fn gt(&self, kind: PlatformKind) -> &Arc<GroundTruthSet> {
        &self.ground_truth
            [PlatformKind::ALL.iter().position(|&k| k == kind).expect("all kinds present")]
    }

    /// Load ground truth from `dir` (one `<platform>.csv` per platform) if
    /// all four files exist, otherwise generate and save them there.
    pub fn load_or_generate(dir: &Path) -> std::io::Result<Self> {
        let workload = cms_workload();
        let truth = TruthParams::case_study();
        let paths: Vec<_> = PlatformKind::ALL
            .iter()
            .map(|k| dir.join(format!("{}.csv", k.label().to_lowercase())))
            .collect();
        if paths.iter().all(|p| p.exists()) {
            let mut sets = Vec::new();
            for (kind, path) in PlatformKind::ALL.iter().zip(&paths) {
                let set = GroundTruthSet::load(*kind, path)
                    .map_err(|e| std::io::Error::other(format!("{}: {e}", path.display())))?;
                sets.push(Arc::new(set));
            }
            return Ok(Self { workload: Arc::new(workload), truth, ground_truth: sets });
        }
        std::fs::create_dir_all(dir)?;
        let case = Self::generate_with(workload, truth);
        for (set, path) in case.ground_truth.iter().zip(&paths) {
            set.save(path)?;
        }
        Ok(case)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_case_study_has_full_metric_grid() {
        let case = CaseStudy::generate_reduced();
        assert_eq!(case.ground_truth.len(), 4);
        for gt in &case.ground_truth {
            assert_eq!(gt.points.len(), 11);
            assert_eq!(gt.metric_vector().len(), 33);
            // 30 jobs reach all three nodes: no NaN metrics.
            assert!(gt.metric_vector().iter().all(|m| m.is_finite()));
        }
    }

    #[test]
    fn gt_lookup_by_kind() {
        let case = CaseStudy::generate_reduced();
        assert_eq!(case.gt(PlatformKind::Fcsn).platform, PlatformKind::Fcsn);
        assert_eq!(case.gt(PlatformKind::Scfn).platform, PlatformKind::Scfn);
    }

    #[test]
    fn load_or_generate_round_trips() {
        // Use the reduced dataset shape through the save/load path by
        // writing a tiny fake directory via the real API is too slow (it
        // would generate the full case study), so only exercise the "all
        // files exist" branch with hand-written CSVs.
        let dir = std::env::temp_dir().join("simcal-case-test");
        std::fs::create_dir_all(&dir).unwrap();
        let case = CaseStudy::generate_reduced();
        for (kind, gt) in PlatformKind::ALL.iter().zip(&case.ground_truth) {
            gt.save(&dir.join(format!("{}.csv", kind.label().to_lowercase()))).unwrap();
        }
        let loaded = CaseStudy::load_or_generate(&dir).unwrap();
        assert_eq!(
            loaded.gt(PlatformKind::Scsn).metric_vector(),
            case.gt(PlatformKind::Scsn).metric_vector()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
