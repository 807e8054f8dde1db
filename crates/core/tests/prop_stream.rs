//! `PhaseStream` against an eager model: random `push`, `evict_to` and
//! `truncate_front` sequences must leave the stream observably identical
//! to a plain `Vec<ClassifiedInterval>` that drops its evicted prefix at
//! once — the same errors, bounds and, rebuilt from the stream's compact
//! entries, the same intervals — and streams that hold the same intervals
//! compare equal whatever evicted prefix each still carries.

use proptest::prelude::*;

use dsm_phase::stream::{PhaseStream, StreamError};
use dsm_phase::ClassifiedInterval;

const NODE: usize = 3;

fn ci(proc: usize, index: u64, phase_id: u32) -> ClassifiedInterval {
    ClassifiedInterval { proc, index, phase_id, is_new_phase: false, cpi: 1.0, degraded: false }
}

/// An interval whose every payload field varies with `seed`.
fn varied(proc: usize, index: u64, seed: u64) -> ClassifiedInterval {
    ClassifiedInterval {
        proc,
        index,
        phase_id: (seed % 5) as u32,
        is_new_phase: seed.is_multiple_of(3),
        cpi: 0.25 + seed as f64 / 8.0,
        degraded: seed % 4 == 1,
    }
}

/// The eager reference: evicting drains the prefix immediately.
#[derive(Default)]
struct Model {
    first_index: u64,
    intervals: Vec<ClassifiedInterval>,
}

impl Model {
    fn next_index(&self) -> u64 {
        self.first_index + self.intervals.len() as u64
    }

    fn push(&mut self, c: ClassifiedInterval) -> Result<(), StreamError> {
        if c.proc != NODE {
            return Err(StreamError::WrongNode { node: NODE, got: c.proc });
        }
        if self.intervals.is_empty() {
            self.first_index = c.index;
        } else if c.index != self.next_index() {
            return Err(StreamError::Gap { expected: self.next_index(), got: c.index });
        }
        self.intervals.push(c);
        Ok(())
    }

    fn evict_to(&mut self, index: u64) {
        let drop = index.saturating_sub(self.first_index).min(self.intervals.len() as u64);
        self.intervals.drain(..drop as usize);
        self.first_index += drop;
    }
}

fn assert_matches(s: &PhaseStream, m: &Model) {
    assert_eq!(s.node(), NODE);
    assert_eq!(s.first_index(), m.first_index);
    assert_eq!(s.next_index(), m.next_index());
    assert_eq!(s.len(), m.intervals.len());
    assert_eq!(s.is_empty(), m.intervals.is_empty());
    assert_eq!(s.iter().len(), m.intervals.len());
    assert!(s.iter().eq(m.intervals.iter().copied()));
    assert!(s.iter().rev().eq(m.intervals.iter().rev().copied()));
    assert_eq!(s.intervals().len(), m.intervals.len());
    for (i, (e, c)) in s.intervals().iter().zip(&m.intervals).enumerate() {
        assert_eq!(e.interval(NODE, s.first_index() + i as u64), *c);
    }
}

/// `s`'s retained intervals behind an evicted prefix of `dead` intervals.
fn with_dead_prefix(s: &PhaseStream, dead: u64) -> PhaseStream {
    let mut t = PhaseStream::new(NODE);
    let start = s.first_index() - dead;
    for i in start..s.first_index() {
        t.push(ci(NODE, i, u32::MAX)).unwrap();
    }
    for c in s.iter() {
        t.push(c).unwrap();
    }
    t.evict_to(s.first_index());
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn stream_matches_eager_model(
        ops in prop::collection::vec((0u8..7, 0u64..48), 0..160),
        dead in 0u64..24,
    ) {
        let mut s = PhaseStream::new(NODE);
        let mut m = Model::default();
        for (op, arg) in ops {
            match op {
                // The next contiguous interval (the common case).
                0 | 1 => {
                    let c = varied(NODE, m.next_index(), arg);
                    prop_assert_eq!(s.push(c), m.push(c));
                }
                // An arbitrary index, or another node: gaps, refusals and
                // re-anchoring an emptied stream.
                2 => {
                    let proc = if arg % 7 == 0 { NODE + 1 } else { NODE };
                    let c = varied(proc, m.next_index() + arg % 3 + arg / 16, arg);
                    prop_assert_eq!(s.push(c), m.push(c));
                }
                3 => {
                    let index = m.first_index + arg % (m.intervals.len() as u64 + 4);
                    s.evict_to(index);
                    m.evict_to(index);
                }
                4 => {
                    let window = (arg % 12) as usize;
                    s.truncate_front(window);
                    if m.intervals.len() > window {
                        let to = m.next_index() - window as u64;
                        m.evict_to(to);
                    }
                }
                // Evict everything, then re-anchor at an index before or
                // after the old end (a wrong node is still refused).
                _ => {
                    let to = m.next_index() + arg % 2;
                    s.evict_to(to);
                    m.evict_to(to);
                    assert_matches(&s, &m);
                    let index = (m.next_index() + 3 * arg).saturating_sub(40);
                    let stray = varied(NODE + 1 + arg as usize, index, arg);
                    prop_assert_eq!(s.push(stray), m.push(stray));
                    let c = varied(NODE, index, arg + 1);
                    prop_assert_eq!(s.push(c), m.push(c));
                }
            }
            assert_matches(&s, &m);
        }

        // Equality ignores the evicted prefix each stream still carries.
        if !s.is_empty() {
            let fresh = PhaseStream::from_intervals(NODE, s.iter().collect());
            prop_assert_eq!(&fresh, &s);
            let dead = dead.min(s.first_index());
            let padded = with_dead_prefix(&s, dead);
            assert_matches(&padded, &m);
            prop_assert_eq!(&padded, &s);
            prop_assert_eq!(&padded, &fresh);
            let mut other = padded.clone();
            other.truncate_front(s.len() - 1);
            prop_assert_ne!(&other, &s);
        }
    }
}
