//! Per-node classified-interval streams — the shared substrate of the
//! cross-node diagnostics layer.
//!
//! Both the offline trace pass (`dsm-harness`) and the streaming server
//! (`dsm-serve`) produce sequences of [`ClassifiedInterval`]s per node.
//! Until now each consumer threaded ad-hoc `Vec<ClassifiedInterval>`s and
//! re-derived the invariants it needed; [`PhaseStream`] makes the contract
//! explicit: one node, intervals in index order, contiguous, every gap
//! detected at the point of ingest rather than deep inside an analysis.
//!
//! The stream is windowable from the front ([`PhaseStream::evict_to`]) so
//! an online consumer can bound its memory while the retained suffix stays
//! index-aligned — the diagnostics engine (`dsm-diagnose`) never has to
//! guess where a window starts. Eviction is O(1) amortized: it advances a
//! front offset and compacts the buffer only once the evicted prefix is at
//! least as long as the retained part, so a consumer that windows after
//! every push moves each interval at most once per window length.
//! Compaction also gives back capacity beyond twice the retained length, so
//! right after each compaction a stream windowed to `W` intervals holds at
//! most `2W` slots, whatever its history.
//!
//! A stream is node-pure and contiguous, so an interval's `proc` and `index`
//! are always `node` and `first_index + position`. Each retained interval is
//! therefore kept as a 16-byte [`StreamEntry`] — the classification outputs
//! only — and [`PhaseStream::iter`] rebuilds the full
//! [`ClassifiedInterval`]s on the fly.

use serde::{Deserialize, Serialize};

use crate::detector::ClassifiedInterval;

/// What a [`PhaseStream`] keeps of one classified interval: everything but
/// the node and index, which the stream already knows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamEntry {
    pub cpi: f64,
    pub phase_id: u32,
    pub is_new_phase: bool,
    /// See [`ClassifiedInterval::degraded`].
    pub degraded: bool,
}

const _: () = assert!(std::mem::size_of::<StreamEntry>() == 16);

impl StreamEntry {
    /// The classified interval this entry holds, at `index` on `node`.
    pub fn interval(self, node: usize, index: u64) -> ClassifiedInterval {
        let StreamEntry { cpi, phase_id, is_new_phase, degraded } = self;
        ClassifiedInterval { proc: node, index, phase_id, is_new_phase, cpi, degraded }
    }
}

/// One node's classified-interval sequence, in interval-index order with no
/// gaps. The building block every cross-node analysis consumes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseStream {
    node: usize,
    /// Interval index of `intervals[front]` (streams may be windowed: the
    /// prefix before `first_index` has been evicted, not lost track of).
    first_index: u64,
    /// `intervals[front..]` is retained; `intervals[..front]` is evicted
    /// and waits for the next compaction. `front` stays below the retained
    /// length (or is 0), so an empty stream holds an empty buffer.
    front: usize,
    intervals: Vec<StreamEntry>,
}

/// Streams are equal when they hold the same retained intervals for the
/// same node from the same index, whatever evicted prefix each still
/// carries.
impl PartialEq for PhaseStream {
    fn eq(&self, other: &Self) -> bool {
        self.node == other.node
            && self.first_index == other.first_index
            && self.intervals() == other.intervals()
    }
}

/// Pushing an interval that does not extend the stream contiguously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The interval's `proc` is not this stream's node.
    WrongNode { node: usize, got: usize },
    /// The interval's `index` is not the next expected index.
    Gap { expected: u64, got: u64 },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::WrongNode { node, got } => {
                write!(f, "stream for node {node} offered interval from node {got}")
            }
            StreamError::Gap { expected, got } => {
                write!(f, "stream expected interval index {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for StreamError {}

impl PhaseStream {
    /// An empty stream for `node`; the first pushed interval fixes the
    /// starting index.
    pub fn new(node: usize) -> Self {
        Self { node, first_index: 0, front: 0, intervals: Vec::new() }
    }

    /// Adopt an already-ordered interval sequence (the offline pass builds
    /// streams from whole captured traces). Panics if any entry is for the
    /// wrong node or out of index order — offline inputs are programmer
    /// errors, not runtime conditions.
    pub fn from_intervals(node: usize, intervals: Vec<ClassifiedInterval>) -> Self {
        let mut s = Self { intervals: Vec::with_capacity(intervals.len()), ..Self::new(node) };
        for c in intervals {
            s.push(c).expect("offline stream must be contiguous and node-pure");
        }
        s
    }

    pub fn node(&self) -> usize {
        self.node
    }

    /// Interval index of the first retained interval.
    pub fn first_index(&self) -> u64 {
        self.first_index
    }

    /// Index one past the last retained interval (`first_index` when
    /// empty).
    pub fn next_index(&self) -> u64 {
        self.first_index + self.len() as u64
    }

    pub fn len(&self) -> usize {
        self.intervals.len() - self.front
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained entries, in index order: entry `i` is interval
    /// `first_index() + i`.
    pub fn intervals(&self) -> &[StreamEntry] {
        &self.intervals[self.front..]
    }

    /// The retained intervals in index order, rebuilt from their entries.
    pub fn iter(
        &self,
    ) -> impl ExactSizeIterator<Item = ClassifiedInterval> + DoubleEndedIterator + '_ {
        let (node, first) = (self.node, self.first_index);
        self.intervals().iter().enumerate().map(move |(i, e)| e.interval(node, first + i as u64))
    }

    /// Append the next classified interval. The first push fixes the
    /// stream's starting index; every later push must carry the next
    /// consecutive index for this node, or the push is refused and the
    /// stream is unchanged.
    pub fn push(&mut self, c: ClassifiedInterval) -> Result<(), StreamError> {
        if c.proc != self.node {
            return Err(StreamError::WrongNode { node: self.node, got: c.proc });
        }
        if self.is_empty() {
            self.first_index = c.index;
        } else if c.index != self.next_index() {
            return Err(StreamError::Gap { expected: self.next_index(), got: c.index });
        }
        let ClassifiedInterval { phase_id, is_new_phase, cpi, degraded, .. } = c;
        self.intervals.push(StreamEntry { cpi, phase_id, is_new_phase, degraded });
        Ok(())
    }

    /// Evict everything before interval index `index` (windowing). The
    /// retained suffix keeps its true indices; `first_index` advances. The
    /// evicted prefix is dropped from the buffer once it is at least as
    /// long as the retained suffix, so each retained interval is moved at
    /// most once per that many evictions. That compaction also releases
    /// capacity beyond twice the retained length: the buffer's capacity
    /// right after it is at most `2 * len()`, so a windowed stream's memory
    /// follows its window, not its largest burst.
    pub fn evict_to(&mut self, index: u64) {
        let drop = index.saturating_sub(self.first_index).min(self.len() as u64);
        if drop > 0 {
            self.front += drop as usize;
            self.first_index += drop;
            if self.front >= self.len() {
                self.intervals.drain(..self.front);
                self.front = 0;
                self.intervals.shrink_to(2 * self.intervals.len());
            }
        }
    }

    /// Keep only the most recent `window` intervals.
    pub fn truncate_front(&mut self, window: usize) {
        if self.len() > window {
            self.evict_to(self.next_index() - window as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ci(proc: usize, index: u64, phase_id: u32) -> ClassifiedInterval {
        ClassifiedInterval { proc, index, phase_id, is_new_phase: false, cpi: 1.0, degraded: false }
    }

    #[test]
    fn push_enforces_node_and_contiguity() {
        let mut s = PhaseStream::new(2);
        assert_eq!(s.push(ci(1, 0, 0)), Err(StreamError::WrongNode { node: 2, got: 1 }));
        s.push(ci(2, 5, 0)).unwrap(); // first push fixes the start
        assert_eq!(s.first_index(), 5);
        assert_eq!(s.push(ci(2, 7, 0)), Err(StreamError::Gap { expected: 6, got: 7 }));
        s.push(ci(2, 6, 1)).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.next_index(), 7);
    }

    #[test]
    fn windowing_keeps_true_indices() {
        let mut s = PhaseStream::new(0);
        for i in 0..10 {
            s.push(ci(0, i, i as u32)).unwrap();
        }
        s.truncate_front(4);
        assert_eq!(s.len(), 4);
        assert_eq!(s.first_index(), 6);
        assert_eq!(s.iter().next().map(|c| c.index), Some(6));
        s.evict_to(8);
        assert_eq!((s.first_index(), s.len()), (8, 2));
        // Evicting past the end empties but never underflows.
        s.evict_to(100);
        assert!(s.is_empty());
        assert_eq!(s.first_index(), 10);
        // An emptied stream re-anchors on the next push.
        s.push(ci(0, 10, 0)).unwrap();
        assert_eq!(s.first_index(), 10);
    }

    /// Trim a stream to `window` intervals with `trim_every` pushes between
    /// trims; after every compaction the buffer's capacity is at most twice
    /// the retained length, and the retained suffix is the last `window`.
    fn assert_window_bounds_capacity(window: usize, trim_every: usize) {
        let mut s = PhaseStream::new(0);
        let mut compactions = 0;
        for i in 0..(20 * window as u64 + 50) {
            s.push(ci(0, i, 0)).unwrap();
            if s.len() < trim_every {
                continue;
            }
            let first = s.first_index();
            s.truncate_front(window);
            if s.first_index() > first && s.front == 0 {
                compactions += 1;
                assert!(
                    s.intervals.capacity() <= 2 * s.len(),
                    "W={window} every {trim_every}: capacity {} holds {} intervals",
                    s.intervals.capacity(),
                    s.len()
                );
            }
            assert_eq!((s.first_index(), s.len()), (i + 1 - window as u64, window));
            assert_eq!(s.iter().next_back().map(|c| c.index), Some(i));
        }
        assert!(compactions > 0, "W={window} every {trim_every}: never compacted");
    }

    #[test]
    fn windowed_capacity_follows_the_window() {
        for window in [1, 2, 256] {
            // Grow to 2W+1, then trim to W (the benchmark driver's pattern).
            assert_window_bounds_capacity(window, 2 * window + 1);
            // Trim to W after every push (the serve scenario's pattern).
            assert_window_bounds_capacity(window, window + 1);
        }
    }

    #[test]
    fn from_intervals_round_trips() {
        let v: Vec<_> = (3..8).map(|i| ci(1, i, (i % 2) as u32)).collect();
        let s = PhaseStream::from_intervals(1, v.clone());
        assert!(s.iter().eq(v.iter().copied()));
        assert_eq!(s.first_index(), 3);
        assert_eq!(s.iter().count(), 5);
    }
}
