use crate::l1::{L1Config, LearnSpec, MapBackend, MemberSpec};
use crate::l2::{L2Config, ModuleLearnSpec};
use crate::profiles::{ComputerProfile, FrequencyProfile};
use crate::L0Config;
use llc_sim::ClusterConfig;

/// A complete experiment scenario: machine layout plus controller
/// parameters plus offline-learning resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Computers grouped into modules.
    pub modules: Vec<Vec<ComputerProfile>>,
    /// L0 parameters.
    pub l0: L0Config,
    /// L1 parameters.
    pub l1: L1Config,
    /// L2 parameters.
    pub l2: L2Config,
    /// Abstraction-map grid resolution.
    pub learn: LearnSpec,
    /// Module-tree grid resolution.
    pub module_learn: ModuleLearnSpec,
    /// No-op until ROADMAP item 15: `benchmark/src/replay.rs` reads it.
    #[doc(hidden)]
    pub map_backend: MapBackend,
}

impl ScenarioConfig {
    /// Total computers across all modules.
    pub fn num_computers(&self) -> usize {
        self.modules.iter().map(|m| m.len()).sum()
    }

    /// Number of modules.
    pub fn num_modules(&self) -> usize {
        self.modules.len()
    }

    /// Reduce learning resolution for fast tests (coarse grids, same
    /// controllers).
    #[must_use]
    pub fn with_coarse_learning(mut self) -> Self {
        self.learn = LearnSpec::coarse();
        self.module_learn = ModuleLearnSpec::coarse();
        self
    }

    /// No-op until ROADMAP item 15: `benchmark/src/workloads.rs` calls
    /// it. Every map grows coverage from online outcomes.
    #[doc(hidden)]
    #[must_use]
    pub fn with_hash_maps(self) -> Self {
        self
    }

    /// The simulator configuration for this scenario.
    pub fn to_sim_config(&self) -> ClusterConfig {
        ClusterConfig {
            modules: self
                .modules
                .iter()
                .map(|module| module.iter().map(|c| c.to_sim_config()).collect())
                .collect(),
        }
    }

    /// Member specs (the L1 controller's static view), per module.
    pub fn member_specs(&self) -> Vec<Vec<MemberSpec>> {
        self.modules
            .iter()
            .map(|module| {
                module
                    .iter()
                    .map(|c| MemberSpec {
                        phis: c.phis(),
                        speed: c.speed,
                        c_prior: 0.0175 / c.speed,
                    })
                    .collect()
            })
            .collect()
    }
}

/// `p` heterogeneous modules of four computers each: "different sets of
/// computers are present within each module" (§5.2). Five composition
/// patterns cycle as `p` grows.
pub fn cluster_of(p: usize) -> Vec<Vec<ComputerProfile>> {
    use FrequencyProfile::*;
    let patterns: [[FrequencyProfile; 4]; 5] = [
        [MobileSix, WideEight, BusSeven, TallEight],
        [TallEight, TallEight, MobileSix, WideEight],
        [BusSeven, BusSeven, WideEight, TallEight],
        [WideEight, MobileSix, TallEight, BusSeven],
        [TallEight, BusSeven, MobileSix, MobileSix],
    ];
    (0..p)
        .map(|i| {
            patterns[i % patterns.len()]
                .into_iter()
                .map(ComputerProfile::paper_default)
                .collect()
        })
        .collect()
}

fn paper_scenario(p: usize) -> ScenarioConfig {
    ScenarioConfig {
        modules: cluster_of(p),
        l0: L0Config::paper_default(),
        l1: L1Config::paper_default(),
        l2: L2Config::paper_default(),
        learn: LearnSpec::default(),
        module_learn: ModuleLearnSpec::default(),
        map_backend: MapBackend::Dense,
    }
}

/// The §5.2 cluster: sixteen heterogeneous computers in four modules.
pub fn paper_cluster_16() -> ScenarioConfig {
    paper_scenario(4)
}

/// The §5.2 variant: twenty computers in five modules.
pub fn paper_cluster_20() -> ScenarioConfig {
    paper_scenario(5)
}

/// Most computers [`single_module`] builds a module of.
pub const MAX_SINGLE_MODULE: usize = 10;

/// A single-module scenario (the §4.3 experiments: m computers, no L2).
pub fn single_module(m: usize) -> ScenarioConfig {
    use FrequencyProfile::*;
    let profiles: [FrequencyProfile; MAX_SINGLE_MODULE] = [
        MobileSix, WideEight, BusSeven, TallEight, TallEight, WideEight, BusSeven, MobileSix,
        TallEight, WideEight,
    ];
    assert!(
        (1..=MAX_SINGLE_MODULE).contains(&m),
        "single module supports 1..={MAX_SINGLE_MODULE} computers"
    );
    let mut config = paper_scenario(1);
    config.modules = vec![profiles[..m]
        .iter()
        .map(|&p| ComputerProfile::paper_default(p))
        .collect()];
    if m > 4 {
        // The paper coarsens γ to 0.1 for the six- and ten-computer runs.
        config.l1.gamma_quantum = 0.1;
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_16_dimensions() {
        let s = paper_cluster_16();
        assert_eq!(s.num_modules(), 4);
        assert_eq!(s.num_computers(), 16);
        assert_eq!(s.l1.gamma_quantum, 0.05);
        assert_eq!(s.l2.gamma_quantum, 0.1);
    }

    #[test]
    fn paper_20_dimensions() {
        let s = paper_cluster_20();
        assert_eq!(s.num_modules(), 5);
        assert_eq!(s.num_computers(), 20);
    }

    #[test]
    fn modules_are_heterogeneous() {
        let modules = cluster_of(4);
        // At least two modules must differ in composition.
        let sig = |m: &Vec<ComputerProfile>| -> Vec<usize> {
            m.iter().map(|c| c.profile.len()).collect()
        };
        assert_ne!(sig(&modules[0]), sig(&modules[1]));
    }

    #[test]
    fn single_module_gamma_quantum_coarsens() {
        assert_eq!(single_module(4).l1.gamma_quantum, 0.05);
        assert_eq!(single_module(6).l1.gamma_quantum, 0.1);
        assert_eq!(single_module(10).l1.gamma_quantum, 0.1);
    }

    #[test]
    fn sim_config_matches_layout() {
        let s = paper_cluster_16();
        let sim = s.to_sim_config();
        assert_eq!(sim.modules.len(), 4);
        assert!(sim.modules.iter().all(|m| m.len() == 4));
    }

    #[test]
    fn member_specs_have_local_priors() {
        let s = single_module(4);
        let specs = s.member_specs();
        assert_eq!(specs[0].len(), 4);
        for spec in &specs[0] {
            // Slower machines see longer local processing times.
            assert!((spec.c_prior - 0.0175 / spec.speed).abs() < 1e-12);
            assert!((spec.phis.last().unwrap() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "single module supports")]
    fn oversized_single_module_panics() {
        let _ = single_module(11);
    }
}
