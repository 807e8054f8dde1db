//! The byte layer under the `DSMCKPT9` checkpoint codec ([`crate::codec`]).
//!
//! Every encoded type implements [`Wire`]: `put` appends it to a [`W`],
//! `get` reads it back from an [`R`], and `MIN_BYTES` is the fewest bytes
//! any encoding of it takes. Integers are little-endian, `f64` is its raw
//! bits, `bool` and enum tags are one byte, `u32` and `usize` travel as
//! `u64` and are range-checked on read, `Option` is a tag then the value,
//! and `Vec` is a `u64` length then the items.
//!
//! A struct's layout is written once, as its field list in wire order, by
//! [`wire_struct!`](crate::wire_struct); both directions and the length
//! floor are derived from that one list. `get` builds the struct with a
//! full literal, so a new field fails to compile until it is listed.
//!
//! Decoding is total: every read checks the bytes remaining, every length
//! prefix is checked against `MIN_BYTES` of its item type before anything
//! is reserved, and every tag and boolean is range-checked, so any input
//! yields a value or a typed [`CkptError`].
//!
//! The layouts of the simulator and detector values a checkpoint carries
//! ([`IntervalRecord`], the run counters, the app and scale) live here,
//! with the rules every decoded record must meet ([`check_records`]); the
//! layouts of the checkpoint's own structure live in [`crate::codec`]. A
//! record's BBV buckets, `F_i` and `C` are `u32` counts, so a count above
//! `u32::MAX` is a `BadValue`, and a decoded BBV normalizes to a finite,
//! non-negative vector by construction.

use dsm_phase::detector::IntervalRecord;
use dsm_sim::directory::DirectoryStats;
use dsm_sim::reconfig::ReconfigStats;
use dsm_sim::{FaultStats, ProcStats};
use dsm_workloads::{App, Scale};

use crate::codec::CkptError;

/// Decode result.
pub type D<T> = Result<T, CkptError>;

/// A type with one binary layout.
pub trait Wire: Sized {
    /// The fewest bytes any encoding of `Self` takes: the per-item floor a
    /// `Vec` length prefix is checked against.
    const MIN_BYTES: usize;
    fn put(&self, w: &mut W);
    fn get(r: &mut R) -> D<Self>;
}

/// `T::MIN_BYTES` for the field `f` selects; lets [`wire_struct!`](crate::wire_struct)
/// sum field floors from field names alone.
#[doc(hidden)]
pub const fn floor_of<S, T: Wire>(_f: fn(&S) -> &T) -> usize {
    T::MIN_BYTES
}

/// Implement [`Wire`] for each listed struct from its field names in wire
/// order: `wire_struct! { A { x, y } B { z } }`.
#[macro_export]
macro_rules! wire_struct {
    ($($t:ty { $($f:ident),* $(,)? })*) => {$(
        impl $crate::wire::Wire for $t {
            const MIN_BYTES: usize = 0 $(+ $crate::wire::floor_of(|s: &Self| &s.$f))*;
            fn put(&self, w: &mut $crate::wire::W) {
                $($crate::wire::Wire::put(&self.$f, w);)*
            }
            fn get(r: &mut $crate::wire::R) -> $crate::wire::D<Self> {
                Ok(Self { $($f: $crate::wire::Wire::get(r)?),* })
            }
        }
    )*};
}

/// The error for an out-of-range one-byte tag.
pub(crate) fn bad_tag(what: &'static str, tag: u8) -> CkptError {
    CkptError::BadTag { what, tag: tag as u64 }
}

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

    /// `items` as a `Vec<T>` encodes them: a `u64` length, then each item.
    pub fn items<T: Wire>(&mut self, items: &[T]) {
        self.u64(items.len() as u64);
        for v in items {
            v.put(self);
        }
    }

    /// `v` as its one-byte index in `all`.
    pub(crate) fn index<T: PartialEq>(&mut self, all: &[T], v: &T) {
        self.u8(all.iter().position(|a| a == v).expect("listed variant") as u8);
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

    /// A one-byte index into `all`; out of range is a `BadTag` naming `what`.
    pub(crate) fn index<T: Copy>(&mut self, all: &[T], what: &'static str) -> D<T> {
        let tag = self.u8()?;
        all.get(tag as usize).copied().ok_or(bad_tag(what, tag))
    }

    /// Length prefix for items at least `min_bytes` each: reject lengths
    /// that could not possibly fit in the remaining buffer *before*
    /// reserving space for them.
    fn len(&mut self, min_bytes: usize) -> D<usize> {
        let n = self.u64()? as usize;
        if n > self.b.len() / min_bytes.max(1) + 1 {
            return Err(CkptError::Truncated);
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Primitives and containers
// ---------------------------------------------------------------------------

impl Wire for u8 {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut W) {
        w.u8(*self);
    }
    fn get(r: &mut R) -> D<Self> {
        r.u8()
    }
}

impl Wire for u64 {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut W) {
        w.u64(*self);
    }
    fn get(r: &mut R) -> D<Self> {
        r.u64()
    }
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut W) {
        w.u8(*self as u8);
    }
    fn get(r: &mut R) -> D<Self> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(bad_tag("bool", t)),
        }
    }
}

impl Wire for f64 {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut W) {
        w.u64(self.to_bits());
    }
    fn get(r: &mut R) -> D<Self> {
        Ok(f64::from_bits(r.u64()?))
    }
}

/// `u32` and `usize` travel as `u64` and are range-checked on read.
macro_rules! wire_as_u64 {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = 8;
            fn put(&self, w: &mut W) {
                w.u64(*self as u64);
            }
            fn get(r: &mut R) -> D<Self> {
                <$t>::try_from(r.u64()?).map_err(|_| CkptError::BadValue { what: stringify!($t) })
            }
        }
    )*};
}

wire_as_u64!(u32, usize);

impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut W) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.put(w);
            }
        }
    }
    fn get(r: &mut R) -> D<Self> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            t => Err(bad_tag("option", t)),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut W) {
        w.items(self);
    }
    fn get(r: &mut R) -> D<Self> {
        let n = r.len(T::MIN_BYTES)?;
        (0..n).map(|_| T::get(r)).collect()
    }
}

/// Tuples are their items in order; enum encoders write a variant as its
/// tag followed by its fields.
macro_rules! wire_tuple {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN_BYTES: usize = 0 $(+ $t::MIN_BYTES)+;
            fn put(&self, w: &mut W) {
                $(self.$i.put(w);)+
            }
            fn get(r: &mut R) -> D<Self> {
                Ok(($($t::get(r)?,)+))
            }
        }
    };
}

wire_tuple!(T0 0, T1 1);
wire_tuple!(T0 0, T1 1, T2 2);
wire_tuple!(T0 0, T1 1, T2 2, T3 3);
wire_tuple!(T0 0, T1 1, T2 2, T3 3, T4 4, T5 5, T6 6);

// ---------------------------------------------------------------------------
// Simulator and detector layouts
// ---------------------------------------------------------------------------

/// The app as its index in [`App::EXTENDED`].
impl Wire for App {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut W) {
        w.index(&App::EXTENDED, self);
    }
    fn get(r: &mut R) -> D<Self> {
        r.index(&App::EXTENDED, "app")
    }
}

const SCALES: [Scale; 3] = [Scale::Test, Scale::Scaled, Scale::Paper];

impl Wire for Scale {
    const MIN_BYTES: usize = 1;
    fn put(&self, w: &mut W) {
        w.index(&SCALES, self);
    }
    fn get(r: &mut R) -> D<Self> {
        r.index(&SCALES, "scale")
    }
}

/// A record's fields in the order `proc, index, insns, cycles, bbv, fvec,
/// cvec, dds, ws_sig, branches`, each as its `Vec` or scalar encodes: the
/// counts as `u32`s and the working-set signature as `u64` words.
impl Wire for IntervalRecord {
    const MIN_BYTES: usize = 10 * 8;
    fn put(&self, w: &mut W) {
        (self.proc, self.index, self.insns, self.cycles).put(w);
        w.items(self.bbv());
        w.items(self.fvec());
        w.items(self.cvec());
        self.dds.put(w);
        w.u64(self.ws_words().len() as u64);
        self.ws_words().for_each(|word| w.u64(word));
        self.branches.put(w);
    }
    fn get(r: &mut R) -> D<Self> {
        let (proc, index, insns, cycles) = Wire::get(r)?;
        let (bbv, fvec, cvec): (Vec<u32>, Vec<u32>, Vec<u32>) = Wire::get(r)?;
        let (dds, ws_sig, branches): (f64, Vec<u64>, u64) = Wire::get(r)?;
        Ok(IntervalRecord::new(proc, index, insns, cycles, bbv, fvec, cvec, dds, &ws_sig, branches))
    }
}

crate::wire_struct! {
    ProcStats {
        cycles, insns, sync_ops, sync_wait_cycles, mem_refs, l1_misses, l2_misses,
        local_home_misses, remote_home_misses, mem_stall_cycles, contention_cycles, mispredicts,
        branches, intervals,
    }
    DirectoryStats { reads, writes, owner_forwards, invalidations, upgrades, writebacks, nacks }
    FaultStats {
        messages, drops, retries, forced_deliveries, duplicates, spikes, spike_cycles,
        timeout_wait_cycles, slowdown_events, slowdown_cycles,
    }
    ReconfigStats {
        migrations, migration_stall_cycles, dvfs_epochs, dvfs_extra_cycles, dvfs_saved_cycles,
        core_switches,
    }
}

/// The widths every interval record of one capture shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordShape {
    /// Processors: the length of `F_i` and of `C`.
    pub n_procs: usize,
    /// BBV buckets.
    pub bbv_entries: usize,
    /// Working-set signature words (`u64`s).
    pub ws_words: usize,
}

/// The rules every decoded record list meets: `records[p]` holds processor `p`'s records, each
/// naming processor `p`, with `shape`'s BBV width, one `F_i` and one `C`
/// count per processor, a non-empty working set of `shape`'s width, and a
/// finite, non-negative DDS. The first rule broken is a `BadValue` naming
/// it. The caller checks how many lists there are.
pub fn check_records(records: &[Vec<IntervalRecord>], shape: RecordShape) -> D<()> {
    let bad = |what| Err(CkptError::BadValue { what });
    for (p, recs) in records.iter().enumerate() {
        for rec in recs {
            if rec.proc != p {
                return bad("record processor");
            }
            if rec.bbv().len() != shape.bbv_entries {
                return bad("record BBV length");
            }
            if rec.ws_sig().is_empty() || rec.ws_sig().len() != 2 * shape.ws_words {
                return bad("record working-set width");
            }
            if rec.fvec().len() != shape.n_procs || rec.cvec().len() != shape.n_procs {
                return bad("record per-home vector length");
            }
            if !(rec.dds.is_finite() && rec.dds >= 0.0) {
                return bad("record DDS");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_past_u32_is_a_typed_error() {
        // Record counts travel as `u64`; one that does not fit a `u32` is
        // refused, not truncated.
        let mut w = W::with_magic(b"");
        w.u64(u64::from(u32::MAX));
        w.u64(u64::from(u32::MAX) + 1);
        let bytes = w.into_bytes();
        let mut r = R::new(&bytes);
        assert_eq!(u32::get(&mut r), Ok(u32::MAX));
        assert_eq!(u32::get(&mut r), Err(CkptError::BadValue { what: "u32" }));
    }
}
