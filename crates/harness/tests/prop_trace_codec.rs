//! Property tests for the `DSMTRC5` trace-store codec, to the same standard
//! as the checkpoint codec's `prop_codec`: decoding is *total* (random
//! bytes, truncations, byte flips, hostile length prefixes, bad app/scale
//! tags, trailing bytes, experiment points that fail
//! `ExperimentConfig::validate`, record geometry the sweeps cannot take
//! and counts past `u32::MAX` yield a typed error — a store miss — never a panic or a huge
//! allocation), the encoding is canonical (whatever decodes re-encodes to
//! the identical bytes), and every trace that decodes runs all six sweep
//! curves.

use proptest::prelude::*;

use dsm_harness::experiment::ExperimentConfig;
use dsm_harness::parallel::{decode_trace, encode_trace};
use dsm_harness::sweep::{
    ablation_curve, bbv_curve, bbv_ddv_curve, branch_count_curve, vector_ddv_curve,
    working_set_curve, DdsAblation,
};
use dsm_harness::trace::SystemTrace;
use dsm_phase::detector::IntervalRecord;
use dsm_sim::directory::DirectoryStats;
use dsm_sim::memctrl::MemCtrlStats;
use dsm_sim::network::NetworkStats;
use dsm_sim::stats::SystemStats;
use dsm_sim::util::splitmix64;
use dsm_sim::{FaultStats, ProcStats, ReconfigStats};
use dsm_simpoint::CkptError;
use dsm_workloads::{App, Scale};

const MAGIC: &[u8] = b"DSMTRC5\n";

/// Deterministic value stream for synthesizing trace contents.
struct Gen(u64);

impl Gen {
    fn u(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }
    fn vec(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.u() % 10_000).collect()
    }
    fn counts(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| (self.u() % 10_000) as u32).collect()
    }
}

/// A record's count vectors, edited by a test and rebuilt into the record.
struct Counts {
    bbv: Vec<u32>,
    fvec: Vec<u32>,
    cvec: Vec<u32>,
    ws: Vec<u64>,
}

/// Rebuild `r` with its counts passed through `edit`.
fn edit_counts(r: &mut IntervalRecord, edit: impl FnOnce(&mut Counts)) {
    let mut c = Counts {
        bbv: r.bbv().to_vec(),
        fvec: r.fvec().to_vec(),
        cvec: r.cvec().to_vec(),
        ws: r.ws_words().collect(),
    };
    edit(&mut c);
    let (proc, index, insns, cycles, dds, branches) =
        (r.proc, r.index, r.insns, r.cycles, r.dds, r.branches);
    *r = IntervalRecord::new(proc, index, insns, cycles, c.bbv, c.fvec, c.cvec, dds, &c.ws, branches);
}

/// A trace whose every field is derived from `seed`; `n_procs` and
/// `n_recs` vary the shape. Its experiment point is always valid.
fn synth(seed: u64, n_procs: usize, n_recs: usize) -> SystemTrace {
    let mut g = Gen(seed);
    let records = (0..n_procs)
        .map(|p| {
            (0..n_recs)
                .map(|i| {
                    IntervalRecord::new(
                        p,
                        i as u64,
                        g.u() % 100_000,
                        g.u() % 1_000_000,
                        g.counts(4),
                        g.counts(n_procs),
                        g.counts(n_procs),
                        (g.u() % 100_000) as f64 / 7.0,
                        &g.vec(2),
                        g.u() % 5000,
                    )
                })
                .collect()
        })
        .collect();
    let procs = (0..n_procs)
        .map(|_| ProcStats { cycles: g.u(), insns: g.u(), l2_misses: g.u(), ..Default::default() })
        .collect();
    SystemTrace {
        config: ExperimentConfig {
            app: App::EXTENDED[(g.u() % 5) as usize],
            n_procs,
            scale: [Scale::Test, Scale::Scaled, Scale::Paper][(g.u() % 3) as usize],
            interval_base: n_procs as u64 + g.u() % 1_000_000,
        },
        records,
        stats: SystemStats {
            procs,
            directory: DirectoryStats { reads: g.u(), nacks: g.u(), ..Default::default() },
            network: NetworkStats {
                msgs: g.u(),
                payload_msgs: g.u(),
                total_hops: g.u(),
                link_wait_cycles: g.u(),
                total_flit_hops: g.u(),
                link_flits: g.vec(n_procs * 2),
            },
            memctrls: (0..n_procs)
                .map(|_| MemCtrlStats { requests: g.u(), total_queue_delay: g.u() })
                .collect(),
            faults: FaultStats { messages: g.u(), drops: g.u(), ..Default::default() },
            reconfig: ReconfigStats { migrations: g.u(), core_switches: g.u(), ..Default::default() },
            finish_cycle: g.u(),
        },
        ddv_vectors_exchanged: g.u(),
    }
}

fn assert_same(a: &SystemTrace, b: &SystemTrace) {
    assert_eq!(a.config, b.config);
    assert_eq!(a.records, b.records);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.ddv_vectors_exchanged, b.ddv_vectors_exchanged);
}

/// Every sweep curve over `trace`, each of which must run without a panic.
fn run_every_curve(trace: &SystemTrace) {
    bbv_curve(trace);
    bbv_ddv_curve(trace);
    ablation_curve(trace, DdsAblation::Full);
    vector_ddv_curve(trace, 1.0);
    working_set_curve(trace);
    branch_count_curve(trace);
}

/// Decoding `bytes` either fails or reproduces them exactly on re-encode.
fn total_and_canonical(bytes: &[u8]) -> bool {
    match decode_trace(bytes) {
        Ok(t) => encode_trace(&t) == bytes,
        Err(_) => true,
    }
}

#[test]
fn every_truncation_errors() {
    let bytes = encode_trace(&synth(7, 3, 2));
    for cut in 0..bytes.len() {
        assert!(decode_trace(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
    }
}

#[test]
fn hostile_length_prefix_at_every_offset_is_rejected_or_canonical() {
    let bytes = encode_trace(&synth(11, 2, 2));
    for off in MAGIC.len()..bytes.len() - 8 {
        for hostile in [u64::MAX, u64::MAX / 8, 1 << 40, bytes.len() as u64] {
            let mut bad = bytes.clone();
            bad[off..off + 8].copy_from_slice(&hostile.to_le_bytes());
            assert!(total_and_canonical(&bad), "offset {off}, value {hostile}");
        }
    }
}

#[test]
fn bad_tags_magic_and_trailing_bytes_are_typed_errors() {
    let bytes = encode_trace(&synth(3, 2, 1));
    for tag in 5..=255u8 {
        let mut bad = bytes.clone();
        bad[MAGIC.len()] = tag;
        assert_eq!(decode_trace(&bad).err(), Some(CkptError::BadTag { what: "app", tag: tag as u64 }));
    }
    for tag in 3..=255u8 {
        let mut bad = bytes.clone();
        bad[MAGIC.len() + 1] = tag;
        assert_eq!(decode_trace(&bad).err(), Some(CkptError::BadTag { what: "scale", tag: tag as u64 }));
    }
    for old in [&b"DSMTRC2\n"[..], b"DSMTRC3\n", b"DSMTRC4\n", b"DSMCKPT6", b""] {
        let mut bad = old.to_vec();
        bad.extend_from_slice(&bytes[MAGIC.len()..]);
        assert_eq!(decode_trace(&bad).err(), Some(CkptError::BadMagic), "{old:?}");
    }
    let mut long = bytes.clone();
    long.push(0);
    assert_eq!(decode_trace(&long).err(), Some(CkptError::TrailingBytes));
}

#[test]
fn invalid_experiment_config_is_a_typed_error() {
    let mut empty = synth(5, 0, 0);
    assert_eq!(
        decode_trace(&encode_trace(&empty)).err(),
        Some(CkptError::BadValue { what: "n_procs" })
    );
    let mut trace = synth(5, 4, 1);
    for (base, valid) in [(0, false), (3, false), (4, true), (5, true)] {
        trace.config.interval_base = base;
        let got = decode_trace(&encode_trace(&trace));
        if valid {
            assert_same(&got.unwrap(), &trace);
        } else {
            assert_eq!(got.err(), Some(CkptError::BadValue { what: "interval_base" }));
        }
    }
    // A machine with no processors is rejected whatever its interval base.
    empty.config.interval_base = 0;
    assert!(decode_trace(&encode_trace(&empty)).is_err());
    // So is one no topology or DDV distance matrix can take.
    assert_eq!(
        decode_trace(&encode_trace(&synth(5, 3, 1))).err(),
        Some(CkptError::BadValue { what: "n_procs" })
    );
    // And one wider than the simulator's sharer sets.
    assert_eq!(
        decode_trace(&encode_trace(&synth(5, 256, 1))).err(),
        Some(CkptError::BadValue { what: "n_procs" })
    );
}

/// Records a sweep curve cannot take are a typed error, one case per rule;
/// the unedited trace decodes and runs every curve.
#[test]
fn hostile_record_geometry_is_a_typed_error() {
    type Edit = fn(&mut Vec<Vec<IntervalRecord>>);
    let cases: [(&str, Edit); 12] = [
        ("records per processor", |r| r.push(r[0].clone())),
        ("records per processor", |r| r.truncate(3)),
        ("record processor", |r| r[1][0].proc = 0),
        ("record BBV length", |r| edit_counts(&mut r[2][1], |c| c.bbv.truncate(3))),
        ("record BBV length", |r| edit_counts(&mut r[0][0], |c| c.bbv.push(5))),
        ("record working-set width", |r| edit_counts(&mut r[1][1], |c| c.ws.push(0))),
        ("record working-set width", |r| {
            r.iter_mut().flatten().for_each(|rec| edit_counts(rec, |c| c.ws.clear()))
        }),
        ("record per-home vector length", |r| edit_counts(&mut r[3][0], |c| c.fvec.truncate(3))),
        ("record per-home vector length", |r| edit_counts(&mut r[3][1], |c| c.cvec.push(1))),
        ("record DDS", |r| r[0][1].dds = -1.0),
        ("record DDS", |r| r[2][0].dds = f64::NAN),
        ("record DDS", |r| r[1][1].dds = f64::INFINITY),
    ];
    for (what, edit) in cases {
        let mut trace = synth(13, 4, 2);
        edit(&mut trace.records);
        let got = decode_trace(&encode_trace(&trace)).err();
        assert_eq!(got, Some(CkptError::BadValue { what }), "{what}");
    }
    run_every_curve(&decode_trace(&encode_trace(&synth(13, 4, 2))).unwrap());
}

/// A BBV bucket, `F_i` or `C` count past `u32::MAX` on the wire is a typed
/// error: each field's marker count is found in the encoding and widened.
#[test]
fn count_past_u32_is_a_typed_error() {
    type Edit = fn(&mut IntervalRecord, u32);
    let fields: [Edit; 3] = [
        |r, m| edit_counts(r, |c| c.bbv[2] = m),
        |r, m| edit_counts(r, |c| c.fvec[1] = m),
        |r, m| edit_counts(r, |c| c.cvec[0] = m),
    ];
    for edit in fields {
        let marker = 0xdead_beef;
        let mut trace = synth(17, 2, 2);
        edit(&mut trace.records[1][0], marker);
        let bytes = encode_trace(&trace);
        let at = bytes
            .windows(8)
            .position(|w| w == u64::from(marker).to_le_bytes())
            .expect("marker encoded");
        let mut bad = bytes.clone();
        bad[at..at + 8].copy_from_slice(&(u64::from(u32::MAX) + 1).to_le_bytes());
        assert_eq!(decode_trace(&bad).err(), Some(CkptError::BadValue { what: "u32" }));
        // `u32::MAX` itself is a count like any other.
        bad[at..at + 8].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
        assert!(decode_trace(&bad).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random byte soup never panics the decoder.
    #[test]
    fn decode_total_on_random_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_trace(&bytes);
    }

    /// Random bytes behind a valid magic exercise the structural readers.
    #[test]
    fn decode_total_behind_valid_magic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&bytes);
        prop_assert!(total_and_canonical(&buf));
    }

    /// encode → decode is the identity, and encoding is deterministic.
    #[test]
    fn roundtrip_identity(
        seed in any::<u64>(),
        n_procs in prop::sample::select(vec![1usize, 2, 4]),
        n_recs in 0usize..4,
    ) {
        let trace = synth(seed, n_procs, n_recs);
        let bytes = encode_trace(&trace);
        prop_assert_eq!(&bytes, &encode_trace(&trace));
        assert_same(&decode_trace(&bytes).unwrap(), &trace);
    }

    /// Random byte flips anywhere are rejected with a typed error or decode
    /// to a trace that re-encodes to the same corrupted bytes and runs
    /// every sweep curve.
    #[test]
    fn byte_flips_are_total_and_canonical(
        seed in any::<u64>(),
        n_procs in prop::sample::select(vec![1usize, 2, 4]),
        flips in prop::collection::vec((any::<u64>(), 1u8..255), 1..4),
    ) {
        let mut bytes = encode_trace(&synth(seed, n_procs, 2));
        for (pos_sel, delta) in flips {
            let pos = (pos_sel % bytes.len() as u64) as usize;
            bytes[pos] ^= delta;
        }
        prop_assert!(total_and_canonical(&bytes));
        if let Ok(trace) = decode_trace(&bytes) {
            run_every_curve(&trace);
        }
    }

    /// Any non-empty tail after a valid entry is a typed error.
    #[test]
    fn trailing_bytes_always_error(
        seed in any::<u64>(),
        tail in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut bytes = encode_trace(&synth(seed, 2, 1));
        bytes.extend_from_slice(&tail);
        prop_assert_eq!(decode_trace(&bytes).err(), Some(CkptError::TrailingBytes));
    }
}
