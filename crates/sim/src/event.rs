//! Committed-instruction events and the stream abstraction that feeds the
//! simulator.
//!
//! Workloads are *structural traces*: per-processor state machines that emit
//! the basic-block and memory-reference structure of the application. An
//! [`Event`] is deliberately coarse — one event per basic-block execution
//! burst, per cache-line touch, or per synchronization operation — which
//! keeps simulation fast while preserving exactly the signals the phase
//! detectors consume (committed basic blocks weighted by instruction count,
//! and committed loads/stores labelled by home node).

use crate::addr::Addr;

/// One committed event on a processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A basic block (or a burst of consecutive executions of the same basic
    /// block) ending in a branch at address `bb`.
    ///
    /// `insns` is the total number of non-memory, non-FP instructions
    /// committed, and `taken` the outcome of the terminating branch. In
    /// Sherwood's BBV the accumulator entry hashed by the branch address is
    /// incremented by the instruction count, so bursting identical blocks
    /// into one event is exact.
    Block { bb: u32, insns: u32, taken: bool },
    /// A committed load or store to `addr` (one event per touched cache
    /// line; the timing model charges the full miss path).
    Mem { addr: Addr, write: bool },
    /// A burst of `ops` floating-point instructions (throughput-limited by
    /// the FPU count).
    Fp { ops: u32 },
    /// Barrier arrival. All processors must arrive at the same sequence of
    /// barrier ids; the system releases them together.
    Barrier { id: u32 },
    /// Acquire a global lock (blocking).
    Acquire { lock: u32 },
    /// Release a previously acquired lock.
    Release { lock: u32 },
    /// This processor's stream is exhausted.
    End,
}

impl Event {
    /// Committed non-synchronization instructions this event represents
    /// (what the paper's sampling interval counts).
    #[inline]
    pub fn nonsync_insns(&self) -> u64 {
        match *self {
            Event::Block { insns, .. } => insns as u64,
            Event::Mem { .. } => 1,
            Event::Fp { ops } => ops as u64,
            _ => 0,
        }
    }

    /// True for synchronization events (excluded from interval counting).
    #[inline]
    pub fn is_sync(&self) -> bool {
        matches!(
            self,
            Event::Barrier { .. } | Event::Acquire { .. } | Event::Release { .. }
        )
    }
}

/// A source of per-processor committed-instruction streams.
pub trait InstructionStream {
    /// Number of processors this stream drives.
    fn n_procs(&self) -> usize;
    /// Next event for processor `proc`. Must return [`Event::End`] forever
    /// once the stream is exhausted.
    fn next(&mut self, proc: usize) -> Event;
}

/// A chunk generator: the state-machine side of a workload. The adapter
/// [`ChunkedStream`] buffers chunks into an [`InstructionStream`].
pub trait ChunkGen {
    fn n_procs(&self) -> usize;
    /// Append the next batch of events for `proc` to `buf`. Returning
    /// without pushing anything signals end-of-stream for that processor.
    fn fill(&mut self, proc: usize, buf: &mut Vec<Event>);
}

/// Buffers [`ChunkGen`] output per processor.
///
/// Chunks are filled straight into per-processor buffers consumed through a
/// cursor, so the per-event cost of `next` is one indexed read — no
/// per-event queue traffic and no intermediate copy of each chunk.
pub struct ChunkedStream<G: ChunkGen> {
    gen: G,
    lanes: Vec<Lane>,
}

/// One processor's buffered chunk, its read cursor, and whether the
/// generator has ended its stream.
struct Lane {
    buf: Vec<Event>,
    pos: usize,
    done: bool,
}

impl<G: ChunkGen> ChunkedStream<G> {
    pub fn new(gen: G) -> Self {
        let n = gen.n_procs();
        let lanes =
            (0..n).map(|_| Lane { buf: Vec::with_capacity(4096), pos: 0, done: false }).collect();
        Self { gen, lanes }
    }

    /// Access the wrapped generator (e.g. for ground-truth phase labels).
    pub fn generator(&self) -> &G {
        &self.gen
    }

    /// `proc`'s buffer is drained: fill the next chunk and return its
    /// first event, or [`Event::End`] once the generator has none.
    #[cold]
    #[inline(never)]
    fn refill(&mut self, proc: usize) -> Event {
        let lane = &mut self.lanes[proc];
        if lane.done {
            return Event::End;
        }
        lane.buf.clear();
        self.gen.fill(proc, &mut lane.buf);
        match lane.buf.first() {
            Some(&e) => {
                lane.pos = 1;
                e
            }
            None => {
                lane.done = true;
                Event::End
            }
        }
    }
}

impl<G: ChunkGen> InstructionStream for ChunkedStream<G> {
    fn n_procs(&self) -> usize {
        self.lanes.len()
    }

    #[inline]
    fn next(&mut self, proc: usize) -> Event {
        let lane = &mut self.lanes[proc];
        if let Some(&e) = lane.buf.get(lane.pos) {
            lane.pos += 1;
            return e;
        }
        self.refill(proc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonsync_insn_accounting() {
        assert_eq!(Event::Block { bb: 1, insns: 10, taken: true }.nonsync_insns(), 10);
        assert_eq!(Event::Mem { addr: 0, write: false }.nonsync_insns(), 1);
        assert_eq!(Event::Fp { ops: 7 }.nonsync_insns(), 7);
        assert_eq!(Event::Barrier { id: 0 }.nonsync_insns(), 0);
        assert_eq!(Event::Acquire { lock: 0 }.nonsync_insns(), 0);
        assert_eq!(Event::End.nonsync_insns(), 0);
    }

    #[test]
    fn sync_classification() {
        assert!(Event::Barrier { id: 0 }.is_sync());
        assert!(Event::Acquire { lock: 1 }.is_sync());
        assert!(Event::Release { lock: 1 }.is_sync());
        assert!(!Event::Block { bb: 0, insns: 1, taken: false }.is_sync());
        assert!(!Event::End.is_sync());
    }

    struct Counting {
        emitted: Vec<u32>,
        limit: u32,
    }

    impl ChunkGen for Counting {
        fn n_procs(&self) -> usize {
            self.emitted.len()
        }
        fn fill(&mut self, proc: usize, buf: &mut Vec<Event>) {
            if self.emitted[proc] >= self.limit {
                return;
            }
            // Two events per chunk.
            for _ in 0..2 {
                buf.push(Event::Block { bb: self.emitted[proc], insns: 1, taken: true });
                self.emitted[proc] += 1;
            }
        }
    }

    #[test]
    fn chunked_stream_delivers_then_ends() {
        let mut s = ChunkedStream::new(Counting { emitted: vec![0, 0], limit: 4 });
        let mut seen = vec![];
        loop {
            match s.next(0) {
                Event::End => break,
                Event::Block { bb, .. } => seen.push(bb),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);
        // End is sticky.
        assert_eq!(s.next(0), Event::End);
        // Processor 1 is independent.
        assert!(matches!(s.next(1), Event::Block { bb: 0, .. }));
    }
}
