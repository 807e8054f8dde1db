//! Adversarial ingest battery: random mixes of valid and malformed offers
//! against two servers built alike. One sees every offer; the other sees
//! only the valid ones. Malformed offers carry exactly one defect each: a
//! processor outside the tenant's machine, a BBV of the wrong length, a
//! NaN, infinite or negative BBV entry or DDS, zero instructions, or an
//! unknown tenant.
//!
//! Three things hold after every step:
//!
//! - nothing panics, and each malformed offer is the `Err` its defect names;
//! - offers = enqueued + busy + errors, counted by this test, because
//!   `offer` counts nothing for an `Err`;
//! - the server that saw the malformed offers matches the one that never
//!   did, in every tenant's `stats` and `queue_depth`, in
//!   `resident_footprint_vectors`, and in every classification delivered.
//!
//! `SERVE_CASES` sets the number of random cases (default 32); CI runs a
//! larger count in release mode.

use dsm_phase::detector::{DetectorMode, Thresholds};
use dsm_phase::signature::IntervalSignature;
use dsm_serve::{Ingest, PhaseServer, ServeConfig, ServeError, TenantConfig, TenantId};

const BBV_ENTRIES: usize = 4;
const STEPS: usize = 400;

fn cases() -> u64 {
    std::env::var("SERVE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(32)
}

/// splitmix64 over a running state: the battery's only randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// The one defect a malformed offer carries.
#[derive(Debug, Clone, Copy)]
enum Defect {
    Proc,
    BbvLen,
    BbvValue(f64),
    DdsValue(f64),
    ZeroInsns,
    UnknownTenant,
}

const BAD_VALUES: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5];

impl Defect {
    fn draw(rng: &mut Rng) -> Self {
        match rng.below(6) {
            0 => Defect::Proc,
            1 => Defect::BbvLen,
            2 => Defect::BbvValue(rng.pick(&BAD_VALUES)),
            3 => Defect::DdsValue(rng.pick(&BAD_VALUES)),
            4 => Defect::ZeroInsns,
            _ => Defect::UnknownTenant,
        }
    }

    /// Whether `err` is the error this defect must produce for `tenant`.
    fn explains(self, tenant: TenantId, err: &ServeError) -> bool {
        let value_error = |x: f64, field| {
            let want = if x.is_finite() {
                ServeError::Negative { tenant, field }
            } else {
                ServeError::NonFinite { tenant, field }
            };
            *err == want
        };
        match self {
            Defect::Proc => matches!(err, ServeError::BadProc { tenant: t, .. } if *t == tenant),
            Defect::BbvLen => matches!(err, ServeError::BadBbvLen { tenant: t, .. } if *t == tenant),
            Defect::BbvValue(x) => value_error(x, "bbv"),
            Defect::DdsValue(x) => value_error(x, "dds"),
            Defect::ZeroInsns => *err == ServeError::ZeroInsns { tenant },
            Defect::UnknownTenant => *err == ServeError::UnknownTenant(tenant),
        }
    }
}

/// A valid signature for a machine of `n_procs`: all weight on one of a
/// few BBV patterns, so phases recur, with a DDS from a small palette.
fn valid(rng: &mut Rng, n_procs: usize, index: u64) -> IntervalSignature {
    let mut bbv = vec![0.0; BBV_ENTRIES];
    let hot = rng.below(BBV_ENTRIES as u64) as usize;
    bbv[hot] = 0.75;
    bbv[(hot + 1) % BBV_ENTRIES] = 0.25;
    IntervalSignature {
        proc: rng.below(n_procs as u64) as usize,
        index,
        insns: 1 + rng.below(5_000),
        cycles: 1 + rng.below(20_000),
        bbv,
        dds: rng.pick(&[0.0, 1.0, 4.0, 9.5]),
        degraded: false,
    }
}

/// `sig` with `defect` applied.
fn malformed(
    rng: &mut Rng,
    mut sig: IntervalSignature,
    n_procs: usize,
    defect: Defect,
) -> IntervalSignature {
    match defect {
        Defect::Proc => sig.proc = n_procs + rng.below(3) as usize,
        Defect::BbvLen => {
            let len = rng.pick(&[0, BBV_ENTRIES - 1, BBV_ENTRIES + 1, 4 * BBV_ENTRIES]);
            sig.bbv.resize(len, 0.0);
        }
        Defect::BbvValue(x) => sig.bbv[rng.below(BBV_ENTRIES as u64) as usize] = x,
        Defect::DdsValue(x) => sig.dds = x,
        Defect::ZeroInsns => sig.insns = 0,
        Defect::UnknownTenant => {}
    }
    sig
}

/// Two servers built alike, with the tenants admitted in the same order.
fn servers(rng: &mut Rng) -> (PhaseServer, PhaseServer, Vec<(TenantId, usize)>) {
    let cfg = ServeConfig {
        shards: 1 + rng.below(3) as usize,
        queue_capacity: 1 + rng.below(4) as usize,
        output_capacity: 1 + rng.below(4) as usize,
        batch_size: 1 + rng.below(3) as usize,
        diagnose_window: rng.pick(&[0, 4]),
        ..ServeConfig::default()
    };
    let mut seen = PhaseServer::new(cfg);
    let mut clean = PhaseServer::new(cfg);
    let thresholds = Thresholds { bbv: 0.4, dds: 0.25 };
    let tenants = (0..1 + rng.below(4))
        .map(|_| {
            let n_procs = 1 + rng.below(4) as usize;
            let mode = rng.pick(&[DetectorMode::Bbv, DetectorMode::BbvDdv]);
            let mut tcfg = TenantConfig::new(n_procs, mode, thresholds);
            tcfg.bbv_entries = BBV_ENTRIES;
            tcfg.footprint_vectors = 1 + rng.below(3) as usize;
            let id = seen.admit(tcfg).unwrap();
            assert_eq!(clean.admit(tcfg).unwrap(), id);
            (id, n_procs)
        })
        .collect();
    (seen, clean, tenants)
}

/// This test's own count of what `offer` returned.
#[derive(Debug, Default)]
struct Tally {
    offers: u64,
    enqueued: u64,
    busy: u64,
    errors: u64,
}

fn assert_same(seen: &PhaseServer, clean: &PhaseServer, tenants: &[(TenantId, usize)], at: &str) {
    for &(t, _) in tenants {
        assert_eq!(seen.stats(t), clean.stats(t), "{at}: tenant {t} stats");
        assert_eq!(seen.queue_depth(t), clean.queue_depth(t), "{at}: tenant {t} queue depth");
    }
    assert_eq!(
        seen.resident_footprint_vectors(),
        clean.resident_footprint_vectors(),
        "{at}: resident footprint vectors"
    );
}

fn run_case(seed: u64) {
    let mut rng = Rng(seed);
    let (mut seen, mut clean, tenants) = servers(&mut rng);
    let unknown = TenantId(1_000 + rng.below(1_000));
    let mut tally = Tally::default();
    let mut index = 0u64;
    for step in 0..STEPS {
        let at = format!("seed {seed} step {step}");
        let (t, n_procs) = rng.pick(&tenants);
        match rng.below(10) {
            // A valid offer, to both servers.
            0..=3 => {
                index += 1;
                let sig = valid(&mut rng, n_procs, index);
                let got = seen.offer(t, sig.clone()).expect("a valid offer is accepted or busy");
                assert_eq!(clean.offer(t, sig).unwrap(), got, "{at}: ingest outcome");
                tally.offers += 1;
                match got {
                    Ingest::Enqueued { .. } => tally.enqueued += 1,
                    Ingest::Busy => tally.busy += 1,
                }
            }
            // A malformed offer, to the server that sees everything.
            4..=6 => {
                let defect = Defect::draw(&mut rng);
                let sig = valid(&mut rng, n_procs, index);
                let sig = malformed(&mut rng, sig, n_procs, defect);
                let target = if matches!(defect, Defect::UnknownTenant) { unknown } else { t };
                let err = seen.offer(target, sig).expect_err("a malformed offer is an error");
                assert!(defect.explains(target, &err), "{at}: {defect:?} gave {err:?}");
                tally.offers += 1;
                tally.errors += 1;
            }
            7 | 8 => {
                assert_eq!(seen.run_batch(), clean.run_batch(), "{at}: classified");
            }
            _ => {
                let max = rng.below(4) as usize;
                assert_eq!(
                    seen.drain_output(t, max).unwrap(),
                    clean.drain_output(t, max).unwrap(),
                    "{at}: delivered classifications"
                );
            }
        }
        assert_eq!(tally.offers, tally.enqueued + tally.busy + tally.errors, "{at}: {tally:?}");
        assert_same(&seen, &clean, &tenants, &at);
    }
    // Everything still queued classifies and delivers alike.
    loop {
        for &(t, _) in &tenants {
            assert_eq!(
                seen.drain_output(t, usize::MAX).unwrap(),
                clean.drain_output(t, usize::MAX).unwrap(),
                "seed {seed}: final classifications of tenant {t}"
            );
        }
        let classified = seen.run_batch();
        assert_eq!(clean.run_batch(), classified, "seed {seed}: final batch");
        if classified == 0 {
            break;
        }
    }
    assert_same(&seen, &clean, &tenants, &format!("seed {seed} end"));
    let offered: u64 = tenants.iter().map(|&(t, _)| seen.stats(t).unwrap().offered).sum();
    assert_eq!(offered, tally.enqueued + tally.busy, "seed {seed}: an error counted as offered");
}

#[test]
fn malformed_offers_change_nothing() {
    for case in 0..cases() {
        run_case(0x5e7e_0000 + case);
    }
}
