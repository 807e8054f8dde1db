//! Experiment configuration: which application, how many nodes, what scale.

use dsm_sim::config::SystemConfig;
use dsm_workloads::{App, Scale};
use serde::{Deserialize, Serialize};

/// One (application, system size) experiment point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExperimentConfig {
    pub app: App,
    pub n_procs: usize,
    pub scale: Scale,
    /// System-wide interval base: each processor samples every
    /// `interval_base / n_procs` committed non-sync instructions (the
    /// paper's scaling rule; 3 M at paper scale).
    pub interval_base: u64,
}

/// Why an [`ExperimentConfig`] cannot describe a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `n_procs == 0`: a machine needs at least one processor.
    NoProcessors,
    /// `n_procs` is not a power of two, which every topology, workload
    /// decomposition and DDV distance matrix needs.
    ProcsNotPowerOfTwo { n_procs: usize },
    /// `n_procs > MAX_PROCS`: the directory's sharer sets are
    /// [`dsm_sim::MAX_PROCS`] nodes wide, and the simulator refuses a wider
    /// machine.
    TooManyProcs { n_procs: usize },
    /// `interval_base < n_procs`: each processor's sampling interval,
    /// `interval_base / n_procs` instructions, would be empty.
    IntervalBaseBelowProcs { interval_base: u64, n_procs: usize },
}

impl ConfigError {
    /// The offending field.
    pub fn field(&self) -> &'static str {
        match self {
            ConfigError::NoProcessors
            | ConfigError::ProcsNotPowerOfTwo { .. }
            | ConfigError::TooManyProcs { .. } => "n_procs",
            ConfigError::IntervalBaseBelowProcs { .. } => "interval_base",
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoProcessors => write!(f, "experiment has no processors"),
            ConfigError::ProcsNotPowerOfTwo { n_procs } => {
                write!(f, "{n_procs} processors is not a power of two")
            }
            ConfigError::TooManyProcs { n_procs } => write!(
                f,
                "{n_procs} processors exceeds the {} a machine may have",
                dsm_sim::MAX_PROCS
            ),
            ConfigError::IntervalBaseBelowProcs { interval_base, n_procs } => write!(
                f,
                "interval base {interval_base} is below the {n_procs} processors it is split over"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl ExperimentConfig {
    /// Check that this point describes a machine that can run.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_procs == 0 {
            return Err(ConfigError::NoProcessors);
        }
        if !self.n_procs.is_power_of_two() {
            return Err(ConfigError::ProcsNotPowerOfTwo { n_procs: self.n_procs });
        }
        if self.n_procs > dsm_sim::MAX_PROCS {
            return Err(ConfigError::TooManyProcs { n_procs: self.n_procs });
        }
        if self.interval_base < self.n_procs as u64 {
            return Err(ConfigError::IntervalBaseBelowProcs {
                interval_base: self.interval_base,
                n_procs: self.n_procs,
            });
        }
        Ok(())
    }

    /// Default harness configuration at the reduced (`Scaled`) inputs.
    pub fn scaled(app: App, n_procs: usize) -> Self {
        Self {
            app,
            n_procs,
            scale: Scale::Scaled,
            interval_base: 128_000,
        }
    }

    /// Paper-scale configuration (Table I/II parameters).
    pub fn paper(app: App, n_procs: usize) -> Self {
        Self {
            app,
            n_procs,
            scale: Scale::Paper,
            interval_base: 3_000_000,
        }
    }

    /// Tiny configuration for tests.
    pub fn test(app: App, n_procs: usize) -> Self {
        Self {
            app,
            n_procs,
            scale: Scale::Test,
            interval_base: 16_000,
        }
    }

    /// The simulated machine for this experiment.
    pub fn system_config(&self) -> SystemConfig {
        self.scale.system_config(self.n_procs, self.interval_base)
    }

    /// Stable label for caches, filenames, and report headers.
    pub fn label(&self) -> String {
        format!(
            "{}-{}p-{:?}-{}",
            self.app.name(),
            self.n_procs,
            self.scale,
            self.interval_base
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_scaling_rule() {
        let c = ExperimentConfig::paper(App::Lu, 8);
        assert_eq!(c.system_config().interval_len(), 375_000);
        let c = ExperimentConfig::scaled(App::Lu, 32);
        assert_eq!(c.system_config().interval_len(), 4_000);
    }

    #[test]
    fn scaled_config_shrinks_l2_only() {
        let p = ExperimentConfig::paper(App::Fmm, 8).system_config();
        let s = ExperimentConfig::scaled(App::Fmm, 8).system_config();
        assert!(s.l2.size_bytes < p.l2.size_bytes);
        assert_eq!(s.l1, p.l1);
        assert_eq!(s.memory, p.memory);
        assert_eq!(s.network, p.network);
    }

    #[test]
    fn validate_rejects_empty_machines_and_intervals() {
        for app in App::ALL {
            for n in [1, 2, 32, 128] {
                for c in [ExperimentConfig::test(app, n), ExperimentConfig::paper(app, n)] {
                    assert_eq!(c.validate(), Ok(()));
                }
            }
        }
        let c = ExperimentConfig::test(App::Lu, 0);
        assert_eq!(c.validate(), Err(ConfigError::NoProcessors));
        let c = ExperimentConfig::test(App::Lu, 12);
        assert_eq!(c.validate(), Err(ConfigError::ProcsNotPowerOfTwo { n_procs: 12 }));
        assert_eq!(c.validate().unwrap_err().field(), "n_procs");
        let c = ExperimentConfig { interval_base: 7, ..ExperimentConfig::test(App::Lu, 8) };
        let err = c.validate().unwrap_err();
        assert_eq!(err, ConfigError::IntervalBaseBelowProcs { interval_base: 7, n_procs: 8 });
        assert_eq!(err.field(), "interval_base");
        let c = ExperimentConfig { interval_base: 8, ..c };
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_machines_past_max_procs() {
        // `System::new` refuses them, so a capture would panic.
        let c = ExperimentConfig::test(App::Lu, 2 * dsm_sim::MAX_PROCS);
        let err = c.validate().unwrap_err();
        assert_eq!(err, ConfigError::TooManyProcs { n_procs: 256 });
        assert_eq!(err.field(), "n_procs");
    }

    #[test]
    fn labels_are_unique_per_config() {
        let a = ExperimentConfig::scaled(App::Lu, 8).label();
        let b = ExperimentConfig::scaled(App::Lu, 32).label();
        let c = ExperimentConfig::scaled(App::Fmm, 8).label();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
