//! The byte layer shared by the workspace's binary formats: the `DSMCKPT6`
//! checkpoint codec ([`crate::codec`]) and the harness trace store's
//! `DSMTRC4` entries.
//!
//! [`W`] writes little-endian integers, `f64` as raw bits, booleans and
//! tags as single bytes, and vectors as a `u64` length followed by the
//! items. [`R`] reads the same primitives back and is total: every read
//! checks the bytes remaining, every length prefix is validated against
//! them before anything is reserved, and every tag and boolean is
//! range-checked, so any input yields a value or a typed [`CkptError`].
//!
//! The structure encoders both formats carry (the app and scale tags,
//! [`IntervalRecord`], and the per-processor, directory, fault and
//! reconfiguration counters) live here too, so the two formats cannot
//! drift apart field by field. The decoders build each struct with a full
//! literal, so a new field fails to compile until it is encoded.

use dsm_phase::detector::IntervalRecord;
use dsm_sim::directory::DirectoryStats;
use dsm_sim::reconfig::ReconfigStats;
use dsm_sim::{FaultStats, ProcStats};
use dsm_workloads::{App, Scale};

use crate::codec::CkptError;

/// Decode result.
pub type D<T> = Result<T, CkptError>;

/// Append-only encoder.
pub struct W {
    out: Vec<u8>,
}

impl W {
    /// An encoder whose output starts with the format's `magic`.
    pub fn with_magic(magic: &[u8]) -> Self {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(magic);
        Self { out }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    pub fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    pub fn boolean(&mut self, v: bool) {
        self.out.push(v as u8);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn vec_u64(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }

    pub fn vec_u8(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.out.extend_from_slice(v);
    }

    pub fn vec_f64(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }

    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
}

/// Total decoder over a byte slice.
pub struct R<'a> {
    b: &'a [u8],
}

impl<'a> R<'a> {
    pub fn new(b: &'a [u8]) -> Self {
        Self { b }
    }

    /// Succeeds iff every byte was consumed.
    pub fn finish(self) -> D<()> {
        if self.b.is_empty() {
            Ok(())
        } else {
            Err(CkptError::TrailingBytes)
        }
    }

    pub fn u64(&mut self) -> D<u64> {
        let Some((head, tail)) = self.b.split_first_chunk::<8>() else {
            return Err(CkptError::Truncated);
        };
        self.b = tail;
        Ok(u64::from_le_bytes(*head))
    }

    pub fn u8(&mut self) -> D<u8> {
        match self.b.split_first() {
            Some((&v, tail)) => {
                self.b = tail;
                Ok(v)
            }
            None => Err(CkptError::Truncated),
        }
    }

    pub fn boolean(&mut self, what: &'static str) -> D<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CkptError::BadTag { what, tag: t as u64 }),
        }
    }

    pub fn f64(&mut self) -> D<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn u32_checked(&mut self, what: &'static str) -> D<u32> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| CkptError::BadValue { what })
    }

    pub fn usize_checked(&mut self, what: &'static str) -> D<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CkptError::BadValue { what })
    }

    /// Length prefix for items at least `min_bytes` each: reject lengths
    /// that could not possibly fit in the remaining buffer *before*
    /// reserving space for them.
    pub fn len(&mut self, min_bytes: usize) -> D<usize> {
        let n = self.u64()? as usize;
        if n > self.b.len() / min_bytes.max(1) + 1 {
            return Err(CkptError::Truncated);
        }
        Ok(n)
    }

    pub fn vec_u64(&mut self) -> D<Vec<u64>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    pub fn vec_u8(&mut self) -> D<Vec<u8>> {
        let n = self.len(1)?;
        if self.b.len() < n {
            return Err(CkptError::Truncated);
        }
        let (head, tail) = self.b.split_at(n);
        self.b = tail;
        Ok(head.to_vec())
    }

    pub fn vec_f64(&mut self) -> D<Vec<f64>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    pub fn opt_u64(&mut self, what: &'static str) -> D<Option<u64>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            t => Err(CkptError::BadTag { what, tag: t as u64 }),
        }
    }
}

// ---------------------------------------------------------------------------
// Structures both formats carry
// ---------------------------------------------------------------------------

/// The app as its index in [`App::EXTENDED`].
pub fn put_app(w: &mut W, app: App) {
    w.u8(App::EXTENDED.iter().position(|a| *a == app).expect("known app") as u8);
}

pub fn get_app(r: &mut R) -> D<App> {
    let tag = r.u8()?;
    App::EXTENDED.get(tag as usize).copied().ok_or(CkptError::BadTag { what: "app", tag: tag as u64 })
}

pub fn put_scale(w: &mut W, scale: Scale) {
    w.u8(match scale {
        Scale::Test => 0,
        Scale::Scaled => 1,
        Scale::Paper => 2,
    });
}

pub fn get_scale(r: &mut R) -> D<Scale> {
    Ok(match r.u8()? {
        0 => Scale::Test,
        1 => Scale::Scaled,
        2 => Scale::Paper,
        t => return Err(CkptError::BadTag { what: "scale", tag: t as u64 }),
    })
}

/// Encoded size floor of one [`IntervalRecord`] (ten `u64` words), for
/// [`R::len`].
pub const RECORD_MIN_BYTES: usize = 80;

pub fn put_record(w: &mut W, rec: &IntervalRecord) {
    w.u64(rec.proc as u64);
    w.u64(rec.index);
    w.u64(rec.insns);
    w.u64(rec.cycles);
    w.vec_f64(&rec.bbv);
    w.vec_u64(&rec.fvec);
    w.vec_u64(&rec.cvec);
    w.f64(rec.dds);
    w.vec_u64(&rec.ws_sig);
    w.u64(rec.branches);
}

pub fn get_record(r: &mut R) -> D<IntervalRecord> {
    Ok(IntervalRecord {
        proc: r.usize_checked("record proc")?,
        index: r.u64()?,
        insns: r.u64()?,
        cycles: r.u64()?,
        bbv: r.vec_f64()?,
        fvec: r.vec_u64()?,
        cvec: r.vec_u64()?,
        dds: r.f64()?,
        ws_sig: r.vec_u64()?,
        branches: r.u64()?,
    })
}

/// Encoded size of one [`ProcStats`] (fourteen `u64` counters).
pub const PROC_STATS_BYTES: usize = 112;

pub fn put_proc_stats(w: &mut W, s: &ProcStats) {
    for v in [
        s.cycles,
        s.insns,
        s.sync_ops,
        s.sync_wait_cycles,
        s.mem_refs,
        s.l1_misses,
        s.l2_misses,
        s.local_home_misses,
        s.remote_home_misses,
        s.mem_stall_cycles,
        s.contention_cycles,
        s.mispredicts,
        s.branches,
        s.intervals,
    ] {
        w.u64(v);
    }
}

pub fn get_proc_stats(r: &mut R) -> D<ProcStats> {
    Ok(ProcStats {
        cycles: r.u64()?,
        insns: r.u64()?,
        sync_ops: r.u64()?,
        sync_wait_cycles: r.u64()?,
        mem_refs: r.u64()?,
        l1_misses: r.u64()?,
        l2_misses: r.u64()?,
        local_home_misses: r.u64()?,
        remote_home_misses: r.u64()?,
        mem_stall_cycles: r.u64()?,
        contention_cycles: r.u64()?,
        mispredicts: r.u64()?,
        branches: r.u64()?,
        intervals: r.u64()?,
    })
}

pub fn put_directory_stats(w: &mut W, d: &DirectoryStats) {
    for v in [d.reads, d.writes, d.owner_forwards, d.invalidations, d.upgrades, d.writebacks, d.nacks]
    {
        w.u64(v);
    }
}

pub fn get_directory_stats(r: &mut R) -> D<DirectoryStats> {
    Ok(DirectoryStats {
        reads: r.u64()?,
        writes: r.u64()?,
        owner_forwards: r.u64()?,
        invalidations: r.u64()?,
        upgrades: r.u64()?,
        writebacks: r.u64()?,
        nacks: r.u64()?,
    })
}

pub fn put_fault_stats(w: &mut W, f: &FaultStats) {
    for v in [
        f.messages,
        f.drops,
        f.retries,
        f.forced_deliveries,
        f.duplicates,
        f.spikes,
        f.spike_cycles,
        f.timeout_wait_cycles,
        f.slowdown_events,
        f.slowdown_cycles,
    ] {
        w.u64(v);
    }
}

pub fn get_fault_stats(r: &mut R) -> D<FaultStats> {
    Ok(FaultStats {
        messages: r.u64()?,
        drops: r.u64()?,
        retries: r.u64()?,
        forced_deliveries: r.u64()?,
        duplicates: r.u64()?,
        spikes: r.u64()?,
        spike_cycles: r.u64()?,
        timeout_wait_cycles: r.u64()?,
        slowdown_events: r.u64()?,
        slowdown_cycles: r.u64()?,
    })
}

pub fn put_reconfig_stats(w: &mut W, s: &ReconfigStats) {
    for v in [
        s.migrations,
        s.migration_stall_cycles,
        s.dvfs_epochs,
        s.dvfs_extra_cycles,
        s.dvfs_saved_cycles,
        s.core_switches,
    ] {
        w.u64(v);
    }
}

pub fn get_reconfig_stats(r: &mut R) -> D<ReconfigStats> {
    Ok(ReconfigStats {
        migrations: r.u64()?,
        migration_stall_cycles: r.u64()?,
        dvfs_epochs: r.u64()?,
        dvfs_extra_cycles: r.u64()?,
        dvfs_saved_cycles: r.u64()?,
        core_switches: r.u64()?,
    })
}
