//! Pins for the DDS ablation and baseline sweeps, which no figure golden
//! covers.
//!
//! Each `ablation_curve` variant (full F·D·C, C ≡ 1, D ≡ 1, frequency
//! only) runs through the footprint sweep with an externally recomputed
//! DDS per interval. The vector-DDV extension (data weight 1), the
//! working-set baseline and the branch-count baseline are pinned beside
//! them. Every point of every curve (phase count, CoV and both
//! thresholds, as raw bits) is folded into one FNV-1a digest, the same
//! digest the repository benchmark applies to the fig2/fig4 curves. A
//! change to the sweep that moves any point of these curves fails here.

use dsm_analysis::curve::CovCurve;
use dsm_harness::experiment::ExperimentConfig;
use dsm_harness::parallel::fnv1a64;
use dsm_harness::sweep::{
    ablation_curve, branch_count_curve, vector_ddv_curve, working_set_curve, DdsAblation,
};
use dsm_harness::trace::{capture, SystemTrace};
use dsm_workloads::App;

type Curve = fn(&SystemTrace) -> CovCurve;

/// The pinned curves, in column order.
const CURVES: [(&str, Curve); 7] = [
    ("Full", |t| ablation_curve(t, DdsAblation::Full)),
    ("NoContention", |t| ablation_curve(t, DdsAblation::NoContention)),
    ("NoDistance", |t| ablation_curve(t, DdsAblation::NoDistance)),
    ("FrequencyOnly", |t| ablation_curve(t, DdsAblation::FrequencyOnly)),
    ("vector-DDV", |t| vector_ddv_curve(t, 1.0)),
    ("working set", working_set_curve),
    ("branch count", branch_count_curve),
];

fn digest(curve: &CovCurve) -> u64 {
    let mut bytes = Vec::with_capacity(curve.points.len() * 32);
    for p in &curve.points {
        bytes.extend_from_slice(&p.phases.to_bits().to_le_bytes());
        bytes.extend_from_slice(&p.cov.to_bits().to_le_bytes());
        bytes.extend_from_slice(&p.bbv_threshold.to_bits().to_le_bytes());
        bytes.extend_from_slice(&p.dds_threshold.map_or(u64::MAX, f64::to_bits).to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Digests per `(app, nodes)` at `ExperimentConfig::test`, in `CURVES`
/// order. The four ablation columns were recorded before the sweep
/// replayed threshold classes, the three baseline columns while the
/// baselines still replayed each threshold on its own.
const PINS: [(App, usize, [u64; 7]); 8] = [
    (
        App::Lu,
        2,
        [
            0xe74b_7749_8086_fb36,
            0x46df_14fc_bc7f_a496,
            0x1d13_c336_2158_2e10,
            0xfa07_36ea_d23e_fbf2,
            0xbb72_ef97_7ff4_f5eb,
            0x01b5_446e_ff0d_3c7f,
            0x20c7_401e_fd35_37db,
        ],
    ),
    (
        App::Lu,
        8,
        [
            0x3e6b_e9f9_a63d_de1c,
            0x900a_d8b4_7d7f_4b79,
            0x3275_a66e_b3eb_15fe,
            0xd3b5_adda_2366_fbc6,
            0x004b_f8bb_a095_3f1a,
            0x8482_db24_5fa0_74b5,
            0x6ab6_160b_fe9a_2637,
        ],
    ),
    (
        App::Fmm,
        2,
        [
            0x2ff2_7b6b_5411_b5b2,
            0xfa36_c1ff_3fdb_5df0,
            0x91e1_9210_45e6_3b91,
            0x652b_ab6a_24bc_6de5,
            0xcabc_0303_2af5_4e55,
            0xcfbe_0f9b_5060_e6c1,
            0x4d5e_f916_0b46_6ae9,
        ],
    ),
    (
        App::Fmm,
        8,
        [
            0x19e1_7ece_ef6d_57eb,
            0x8621_39c6_686b_e353,
            0x29be_a48a_a492_678d,
            0x2ef7_2d9d_0c59_536e,
            0xd320_b7df_2536_b14e,
            0x3e25_7d8e_ae3b_61ea,
            0xfc5a_c04a_10c9_9221,
        ],
    ),
    (
        App::Art,
        2,
        [
            0x8e46_5cd3_785f_b583,
            0xe0a4_fee9_a26b_5ab6,
            0xabce_2c9b_6276_b75f,
            0x69c5_ebca_75be_71d5,
            0x9dde_64b8_d25d_bd84,
            0x6dc5_6ba5_1461_d229,
            0xc237_4ed1_d63b_0279,
        ],
    ),
    (
        App::Art,
        8,
        [
            0x11a9_7c9f_0d62_d00b,
            0xe918_69d5_d6bd_71f2,
            0xd0f9_03ce_5c32_0639,
            0xf130_d5e6_1a2f_62e9,
            0x4c15_0d68_6f67_14c9,
            0x267d_cf76_1368_7138,
            0x6213_c7c8_6f57_457a,
        ],
    ),
    (
        App::Equake,
        2,
        [
            0x9e02_3753_714c_c5a8,
            0x9cf1_8e4c_383f_5983,
            0xdadc_0892_0be4_482e,
            0x3e6c_8d7c_f4dc_c936,
            0x837f_adf7_5a5c_81b2,
            0x34f4_b70c_aec1_5b53,
            0x384e_57e6_fcc4_95be,
        ],
    ),
    (
        App::Equake,
        8,
        [
            0x87be_2649_9be6_3120,
            0x0f4d_0026_aa49_d846,
            0xe3c7_d5a8_0d09_cf5d,
            0x2436_c776_6860_8c6d,
            0x51b2_d204_7be1_1d85,
            0xc6ec_ceb5_1c22_9b84,
            0xd78e_3e09_af2a_f65a,
        ],
    ),
];

#[test]
fn ablation_curves_match_their_pins() {
    let mut wrong = Vec::new();
    for (app, nodes, want) in PINS {
        let trace = capture(ExperimentConfig::test(app, nodes));
        for ((name, curve), want) in CURVES.into_iter().zip(want) {
            let got = digest(&curve(&trace));
            if got != want {
                wrong.push(format!(
                    "{} {nodes}P {name}: {got:#018x} != {want:#018x}",
                    app.name()
                ));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "curve digests moved:\n{}",
        wrong.join("\n")
    );
}
