//! Deterministic synthetic signature streams.
//!
//! Replayed traces cover fidelity; scale needs thousands of tenants, far
//! more than the trace store holds. A [`SynthStream`] is a pure function
//! from `(seed, proc, index)` to an [`IntervalSignature`] with realistic
//! phase structure: the stream cycles through `PHASES` stable base
//! signatures in runs of `RUN_LEN` intervals, with per-interval jitter well
//! under the classification thresholds — so a correctly working server
//! assigns each tenant a small stable phase vocabulary, and any two runs of
//! the same seed are bit-identical.

use std::sync::OnceLock;

use dsm_phase::signature::IntervalSignature;

/// Local splitmix64 (matches `dsm_sim::util::splitmix64`; re-implemented so
/// this crate does not need the simulator).
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform f64 in [0, 1) from a hash.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic phase-structured signature generator for one tenant.
///
/// The fields are read-only: the base weights are derived from them once,
/// on the first [`Self::signature`] call, and reused by every later call.
#[derive(Debug, Clone)]
pub struct SynthStream {
    seed: u64,
    n_procs: usize,
    bbv_entries: usize,
    /// Unnormalized base BBV weights: `PHASES` rows of `bbv_entries`.
    base: OnceLock<Box<[f64]>>,
}

impl SynthStream {
    /// Distinct stable phases the stream cycles through.
    pub const PHASES: u64 = 4;
    /// Intervals per phase run before switching.
    pub const RUN_LEN: u64 = 8;

    pub fn new(seed: u64, n_procs: usize, bbv_entries: usize) -> Self {
        Self { seed, n_procs, bbv_entries, base: OnceLock::new() }
    }

    /// Which phase interval `index` belongs to.
    pub fn phase_of(&self, index: u64) -> u64 {
        (index / Self::RUN_LEN) % Self::PHASES
    }

    /// Every phase's stable base BBV: positive weights, not normalized,
    /// built in one allocation.
    fn base_weights(&self) -> Box<[f64]> {
        let n = self.bbv_entries;
        (0..Self::PHASES as usize * n)
            .map(|k| {
                let (phase, e) = ((k / n) as u64, k % n);
                let h = splitmix64(
                    self.seed ^ phase.wrapping_mul(0x517c_c1b7_2722_0a95) ^ e as u64,
                );
                // Sparse-ish: a quarter of the entries carry most of the mass.
                if h.is_multiple_of(4) {
                    1.0 + unit(splitmix64(h))
                } else {
                    0.05 * unit(h)
                }
            })
            .collect()
    }

    /// The signature of interval `index` on `proc`. Pure: same arguments,
    /// same bits, on any call order.
    pub fn signature(&self, proc: usize, index: u64) -> IntervalSignature {
        assert!(proc < self.n_procs);
        let phase = self.phase_of(index);
        let n = self.bbv_entries;
        let base = self.base.get_or_init(|| self.base_weights());
        let mut bbv = base[phase as usize * n..][..n].to_vec();
        // Per-interval jitter far below the BBV threshold, then normalize.
        let j = splitmix64(
            self.seed ^ ((proc as u64) << 32) ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d),
        );
        bbv[(j as usize) % n] += 1e-3 * unit(splitmix64(j));
        let total: f64 = bbv.iter().sum();
        for w in &mut bbv {
            *w /= total;
        }
        // Per-phase DDS with sub-threshold relative jitter.
        let dds_base = 8.0 + 6.0 * phase as f64;
        let dds = dds_base * (1.0 + 0.01 * (unit(splitmix64(j ^ 0xabcd)) - 0.5));
        // CPI varies by phase; insns fixed at a paper-like interval length.
        let insns = 16_000u64;
        let cycles = (insns as f64 * (1.2 + 0.3 * phase as f64)) as u64 + (j % 32);
        IntervalSignature { proc, index, insns, cycles, bbv, dds, degraded: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Ingest, PhaseServer, ServeConfig};
    use crate::tenant::TenantConfig;
    use dsm_phase::detector::{DetectorMode, Thresholds};

    #[test]
    fn deterministic_and_normalized() {
        let s = SynthStream::new(42, 2, 32);
        let a = s.signature(1, 17);
        let b = s.signature(1, 17);
        assert_eq!(a, b);
        let sum: f64 = a.bbv.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "bbv normalized, got {sum}");
        assert!(a.dds > 0.0);
        assert_ne!(a, s.signature(0, 17), "procs jitter independently");
        assert_ne!(a, SynthStream::new(43, 2, 32).signature(1, 17), "seed matters");
    }

    /// Digest of every field of `sig`, the floats by their bits.
    fn mix(h: u64, sig: &IntervalSignature) -> u64 {
        let fields = [sig.proc as u64, sig.index, sig.insns, sig.cycles, sig.dds.to_bits()];
        sig.bbv
            .iter()
            .map(|w| w.to_bits())
            .chain(fields)
            .fold(h, |h, x| splitmix64(h ^ x))
    }

    #[test]
    fn signatures_are_pinned() {
        // Several seeds, widths and procs; indices cover every phase twice
        // over, plus far-off indices whose products wrap.
        let mut h = 0u64;
        for seed in [0, 1, 42, 0xdead_beef, u64::MAX] {
            for bbv_entries in [1, 7, 32] {
                let s = SynthStream::new(seed, 3, bbv_entries);
                let far = [1 << 40, u64::MAX / 3, u64::MAX];
                for index in (0..2 * SynthStream::PHASES * SynthStream::RUN_LEN).chain(far) {
                    for proc in 0..3 {
                        h = mix(h, &s.signature(proc, index));
                    }
                }
            }
        }
        assert_eq!(h, 0xcd2e_1e65_57de_bafb, "synthetic signatures changed: digest {h:#018x}");
    }

    #[test]
    fn signatures_do_not_depend_on_call_order() {
        // The base weights are built on the first call, whichever interval
        // it asks for; a clone carries them along.
        let first = SynthStream::new(9, 2, 32).signature(1, 21);
        let s = SynthStream::new(9, 2, 32);
        for i in 0..64 {
            s.signature((i % 2) as usize, i);
        }
        assert_eq!(s.signature(1, 21), first);
        assert_eq!(s.clone().signature(1, 21), first);
        assert_eq!(s.signature(1, 21), first);
    }

    #[test]
    fn phase_structure_classifies_stably() {
        let s = SynthStream::new(7, 1, 32);
        let mut srv = PhaseServer::new(ServeConfig::default());
        let t = srv
            .admit(TenantConfig::new(
                1,
                DetectorMode::BbvDdv,
                Thresholds { bbv: 0.4, dds: 0.25 },
            ))
            .unwrap();
        let mut out = Vec::new();
        for i in 0..(SynthStream::PHASES * SynthStream::RUN_LEN * 2) {
            assert!(matches!(srv.offer(t, s.signature(0, i)).unwrap(), Ingest::Enqueued { .. }));
            if i % 8 == 7 {
                srv.run_batch();
                out.extend(srv.drain_output(t, usize::MAX).unwrap());
            }
        }
        srv.run_batch();
        out.extend(srv.drain_output(t, usize::MAX).unwrap());
        assert_eq!(out.len(), (SynthStream::PHASES * SynthStream::RUN_LEN * 2) as usize);
        // Exactly `PHASES` distinct phase ids, each new exactly once, and
        // the second cycle re-detects the first cycle's ids.
        let new_count = out.iter().filter(|c| c.is_new_phase).count() as u64;
        assert_eq!(new_count, SynthStream::PHASES, "each synthetic phase detected once");
        let ids: std::collections::BTreeSet<u32> = out.iter().map(|c| c.phase_id).collect();
        assert_eq!(ids.len() as u64, SynthStream::PHASES);
        for (i, c) in out.iter().enumerate() {
            assert_eq!(
                c.phase_id,
                out[i % (SynthStream::PHASES * SynthStream::RUN_LEN) as usize].phase_id,
                "cycle 2 must repeat cycle 1 at interval {i}"
            );
        }
    }
}
