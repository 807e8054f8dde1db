//! Input sets (the paper's Table II) at three scales.
//!
//! `Paper` reproduces the parameter magnitudes of Table II; `Scaled` is the
//! reduced default used by the experiment harness (DESIGN.md §7) — mirroring
//! the paper's own use of MinneSPEC-reduced inputs and 3 M-instruction
//! intervals; `Test` is tiny, for unit/integration tests.

use dsm_sim::config::SystemConfig;
use serde::{Deserialize, Serialize};

/// Input scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// Tiny inputs for tests (runs in milliseconds).
    Test,
    /// Reduced default inputs for the harness (seconds per run).
    Scaled,
    /// Table II magnitudes (minutes per run).
    Paper,
}

impl Scale {
    /// The machine inputs of this scale run on: Table I at paper scale,
    /// and for the reduced inputs the same machine with a smaller L2, so
    /// that their working sets keep the paper's working-set-to-cache ratio
    /// (DESIGN.md §7). The cache geometry depends on the scale alone.
    pub fn system_config(self, n_procs: usize, interval_base: u64) -> SystemConfig {
        match self {
            Scale::Paper => SystemConfig::with_interval_base(n_procs, interval_base),
            Scale::Scaled | Scale::Test => SystemConfig::scaled(n_procs, interval_base),
        }
    }
}

/// LU: dense matrix dimension and block size ("512×512 matrix, 16×16
/// block" in Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LuInput {
    pub n: usize,
    pub block: usize,
}

impl LuInput {
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self { n: 64, block: 16 },
            Scale::Scaled => Self { n: 384, block: 16 },
            Scale::Paper => Self { n: 512, block: 16 },
        }
    }
}

/// FMM: particle count ("65,536 particles"), leaf-cell occupancy, timesteps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FmmInput {
    pub particles: usize,
    pub cell_cap: usize,
    pub timesteps: usize,
}

impl FmmInput {
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self { particles: 512, cell_cap: 32, timesteps: 3 },
            Scale::Scaled => Self { particles: 6144, cell_cap: 32, timesteps: 16 },
            Scale::Paper => Self { particles: 65_536, cell_cap: 64, timesteps: 10 },
        }
    }
}

/// Art: F2 neuron count, F1 window size in cache lines, scanfield
/// positions, trained objects (MinneSPEC-Large in Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArtInput {
    pub f2_neurons: usize,
    pub f1_lines: u64,
    pub positions: usize,
    pub objects: usize,
}

impl ArtInput {
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self { f2_neurons: 8, f1_lines: 16, positions: 40, objects: 2 },
            Scale::Scaled => Self { f2_neurons: 32, f1_lines: 64, positions: 400, objects: 2 },
            Scale::Paper => Self { f2_neurons: 100, f1_lines: 128, positions: 4000, objects: 2 },
        }
    }
}

/// Equake: mesh nodes, sparsity, timesteps, source-active prefix
/// (MinneSPEC-Large in Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EquakeInput {
    pub mesh_nodes: usize,
    pub nnz_per_row: usize,
    pub timesteps: usize,
    pub quake_steps: usize,
}

impl EquakeInput {
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self { mesh_nodes: 1024, nnz_per_row: 8, timesteps: 6, quake_steps: 2 },
            Scale::Scaled => Self { mesh_nodes: 4096, nnz_per_row: 8, timesteps: 48, quake_steps: 12 },
            Scale::Paper => Self { mesh_nodes: 30_000, nnz_per_row: 8, timesteps: 160, quake_steps: 40 },
        }
    }
}

/// Ocean (extension, not in the paper's Table II): grid side, multigrid
/// levels, timesteps, initial relaxation sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OceanInput {
    pub grid: usize,
    pub levels: usize,
    pub timesteps: usize,
    pub sweeps_initial: usize,
}

impl OceanInput {
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self { grid: 64, levels: 3, timesteps: 6, sweeps_initial: 4 },
            Scale::Scaled => Self { grid: 130, levels: 4, timesteps: 30, sweeps_initial: 6 },
            Scale::Paper => Self { grid: 258, levels: 5, timesteps: 100, sweeps_initial: 8 },
        }
    }
}

/// Union of the per-app inputs, with Table II rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AppInput {
    Lu(LuInput),
    Fmm(FmmInput),
    Art(ArtInput),
    Equake(EquakeInput),
}

impl AppInput {
    /// Paper-style input description (Table II's "Input Set" column).
    pub fn describe(&self) -> String {
        match self {
            AppInput::Lu(i) => format!("{}x{} matrix, {}x{} block", i.n, i.n, i.block, i.block),
            AppInput::Fmm(i) => format!("{} particles", i.particles),
            AppInput::Art(i) => format!(
                "{} F2 neurons, {} positions (Minnespec-Large analogue)",
                i.f2_neurons, i.positions
            ),
            AppInput::Equake(i) => format!(
                "{}-node mesh, {} timesteps (Minnespec-Large analogue)",
                i.mesh_nodes, i.timesteps
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_inputs_match_table_two() {
        let lu = LuInput::at(Scale::Paper);
        assert_eq!((lu.n, lu.block), (512, 16));
        assert_eq!(FmmInput::at(Scale::Paper).particles, 65_536);
    }

    #[test]
    fn scales_are_ordered() {
        assert!(LuInput::at(Scale::Test).n < LuInput::at(Scale::Scaled).n);
        assert!(LuInput::at(Scale::Scaled).n <= LuInput::at(Scale::Paper).n);
        assert!(FmmInput::at(Scale::Test).particles < FmmInput::at(Scale::Scaled).particles);
        assert!(
            EquakeInput::at(Scale::Scaled).mesh_nodes < EquakeInput::at(Scale::Paper).mesh_nodes
        );
    }

    #[test]
    fn blocks_divide_matrices() {
        for s in [Scale::Test, Scale::Scaled, Scale::Paper] {
            let lu = LuInput::at(s);
            assert_eq!(lu.n % lu.block, 0);
        }
    }

    #[test]
    fn table_two_descriptions() {
        assert_eq!(
            AppInput::Lu(LuInput::at(Scale::Paper)).describe(),
            "512x512 matrix, 16x16 block"
        );
        assert_eq!(
            AppInput::Fmm(FmmInput::at(Scale::Paper)).describe(),
            "65536 particles"
        );
    }
}
