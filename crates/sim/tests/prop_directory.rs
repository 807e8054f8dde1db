//! Property tests for the directory protocol: on arbitrary operation
//! sequences the directory state machine stays coherent — at most one
//! exclusive owner, writes always end exclusive at the writer, sharer sets
//! only contain live readers.

use proptest::prelude::*;

use dsm_sim::directory::{DirState, Directory, ReadSource};

#[derive(Debug, Clone)]
enum Op {
    Read(usize),
    Write(usize),
    Writeback(usize),
}

fn op_strategy(n_nodes: usize) -> impl Strategy<Value = Op> {
    (0..3u8, 0..n_nodes).prop_map(|(k, node)| match k {
        0 => Op::Read(node),
        1 => Op::Write(node),
        _ => Op::Writeback(node),
    })
}

/// Run `ops` against one block, checking the protocol after every step.
fn check_coherent(ops: Vec<Op>) {
    let mut dir = Directory::new();
    let block = 42u64;
    // Shadow: which nodes could legitimately hold the block.
    let mut holders: u128 = 0;
    for op in ops {
        match op {
            Op::Read(p) => {
                let o = dir.read(block, p);
                if let ReadSource::Owner(owner) = o.source {
                    prop_assert_ne!(owner, p, "cannot forward from self");
                    prop_assert!(holders & (1 << owner) != 0, "forward from non-holder");
                }
                holders |= 1 << p;
            }
            Op::Write(p) => {
                let o = dir.write(block, p);
                prop_assert_eq!(o.invalidate_mask & (1 << p), 0,
                    "never invalidate the requester");
                prop_assert!(o.invalidate_mask & !holders == 0,
                    "invalidation sent to a node that never held the block");
                holders = 1 << p;
                prop_assert_eq!(dir.state(block), Some(DirState::Exclusive(p)));
            }
            Op::Writeback(p) => {
                dir.writeback(block, p);
                holders &= !(1 << p);
            }
        }
        // Global invariant: directory never tracks an empty sharer set,
        // and the tracked set is a subset of legitimate holders plus
        // stale entries (stale only possible after writebacks).
        prop_assert_ne!(dir.sharers(block), Some(0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn directory_state_stays_coherent(
        ops in prop::collection::vec(op_strategy(8), 1..200),
    ) {
        check_coherent(ops);
    }

    /// The same on a 128-node machine, whose sharers above node 63 live in
    /// the directory's side table.
    #[test]
    fn directory_state_stays_coherent_on_128_nodes(
        ops in prop::collection::vec(op_strategy(128), 1..200),
    ) {
        check_coherent(ops);
    }

    #[test]
    fn write_always_wins_ownership(
        readers in prop::collection::vec(0usize..8, 0..20),
        writer in 0usize..8,
    ) {
        let mut dir = Directory::new();
        for r in readers {
            dir.read(7, r);
        }
        let o = dir.write(7, writer);
        prop_assert_eq!(dir.state(7), Some(DirState::Exclusive(writer)));
        // Everyone but the writer must be gone after the invalidations.
        prop_assert_eq!(o.invalidate_mask & (1 << writer), 0);
    }

    #[test]
    fn distinct_blocks_are_independent(
        ops_a in prop::collection::vec(op_strategy(4), 1..50),
    ) {
        let mut with_noise = Directory::new();
        let mut clean = Directory::new();
        for (i, op) in ops_a.iter().enumerate() {
            // Interleave noise traffic on a different block.
            with_noise.read(999, i % 4);
            match op {
                Op::Read(p) => {
                    let a = with_noise.read(5, *p);
                    let b = clean.read(5, *p);
                    prop_assert_eq!(a, b);
                }
                Op::Write(p) => {
                    let a = with_noise.write(5, *p);
                    let b = clean.write(5, *p);
                    prop_assert_eq!(a, b);
                }
                Op::Writeback(p) => {
                    with_noise.writeback(5, *p);
                    clean.writeback(5, *p);
                }
            }
            prop_assert_eq!(with_noise.state(5), clean.state(5));
        }
    }
}
