//! Property tests for the `DSMTRC4` trace-store codec, to the same standard
//! as the checkpoint codec's `prop_codec`: decoding is *total* (random
//! bytes, truncations, byte flips, hostile length prefixes, bad app/scale
//! tags and trailing bytes yield a typed error — a store miss — never a
//! panic or a huge allocation), and the encoding is canonical (whatever
//! decodes re-encodes to the identical bytes).

use proptest::prelude::*;

use dsm_harness::experiment::ExperimentConfig;
use dsm_harness::parallel::{decode_trace, encode_trace};
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

const MAGIC: &[u8] = b"DSMTRC4\n";

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
}

/// A trace whose every field is derived from `seed`; `n_procs` and
/// `n_recs` vary the shape.
fn synth(seed: u64, n_procs: usize, n_recs: usize) -> SystemTrace {
    let mut g = Gen(seed);
    let records = (0..n_procs)
        .map(|p| {
            (0..n_recs)
                .map(|i| IntervalRecord {
                    proc: p,
                    index: i as u64,
                    insns: g.u() % 100_000,
                    cycles: g.u() % 1_000_000,
                    bbv: (0..4).map(|_| (g.u() % 1000) as f64 / 1000.0).collect(),
                    fvec: g.vec(n_procs),
                    cvec: g.vec(n_procs),
                    dds: (g.u() % 100_000) as f64 / 7.0,
                    ws_sig: g.vec(2),
                    branches: g.u() % 5000,
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
            interval_base: g.u() % 1_000_000,
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
    for old in [&b"DSMTRC2\n"[..], b"DSMTRC3\n", b"DSMCKPT6", b""] {
        let mut bad = old.to_vec();
        bad.extend_from_slice(&bytes[MAGIC.len()..]);
        assert_eq!(decode_trace(&bad).err(), Some(CkptError::BadMagic), "{old:?}");
    }
    let mut long = bytes.clone();
    long.push(0);
    assert_eq!(decode_trace(&long).err(), Some(CkptError::TrailingBytes));
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
    fn roundtrip_identity(seed in any::<u64>(), n_procs in 1usize..5, n_recs in 0usize..4) {
        let trace = synth(seed, n_procs, n_recs);
        let bytes = encode_trace(&trace);
        prop_assert_eq!(&bytes, &encode_trace(&trace));
        assert_same(&decode_trace(&bytes).unwrap(), &trace);
    }

    /// Random byte flips anywhere are rejected with a typed error or decode
    /// to a trace that re-encodes to the same corrupted bytes.
    #[test]
    fn byte_flips_are_total_and_canonical(
        seed in any::<u64>(),
        n_procs in 1usize..4,
        flips in prop::collection::vec((any::<u64>(), 1u8..255), 1..4),
    ) {
        let mut bytes = encode_trace(&synth(seed, n_procs, 2));
        for (pos_sel, delta) in flips {
            let pos = (pos_sel % bytes.len() as u64) as usize;
            bytes[pos] ^= delta;
        }
        prop_assert!(total_and_canonical(&bytes));
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
