//! Pins for the DDS ablation sweeps, which no figure golden covers.
//!
//! Each `ablation_curve` variant (full F·D·C, C ≡ 1, D ≡ 1, frequency
//! only) runs through the footprint sweep with an externally recomputed
//! DDS per interval. Every point of every curve (phase count, CoV and
//! both thresholds, as raw bits) is folded into one FNV-1a digest, the
//! same digest the repository benchmark applies to the fig2/fig4 curves.
//! A change to the sweep that moves any ablation point fails here.

use dsm_analysis::curve::CovCurve;
use dsm_harness::experiment::ExperimentConfig;
use dsm_harness::parallel::fnv1a64;
use dsm_harness::sweep::{ablation_curve, DdsAblation};
use dsm_harness::trace::capture;
use dsm_workloads::App;

const VARIANTS: [DdsAblation; 4] = [
    DdsAblation::Full,
    DdsAblation::NoContention,
    DdsAblation::NoDistance,
    DdsAblation::FrequencyOnly,
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

/// Digests per `(app, nodes)` at `ExperimentConfig::test`, in `VARIANTS`
/// order, recorded before the sweep replayed threshold classes.
const PINS: [(App, usize, [u64; 4]); 8] = [
    (
        App::Lu,
        2,
        [
            0xe74b_7749_8086_fb36,
            0x46df_14fc_bc7f_a496,
            0x1d13_c336_2158_2e10,
            0xfa07_36ea_d23e_fbf2,
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
        ],
    ),
];

#[test]
fn ablation_curves_match_their_pins() {
    let mut wrong = Vec::new();
    for (app, nodes, want) in PINS {
        let trace = capture(ExperimentConfig::test(app, nodes));
        for (which, want) in VARIANTS.into_iter().zip(want) {
            let got = digest(&ablation_curve(&trace, which));
            if got != want {
                wrong.push(format!(
                    "{} {nodes}P {which:?}: {got:#018x} != {want:#018x}",
                    app.name()
                ));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "ablation digests moved:\n{}",
        wrong.join("\n")
    );
}
