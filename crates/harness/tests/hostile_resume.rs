//! Hostile checkpoints at the resume boundary: a checkpoint that decodes
//! but whose machine state does not fit the machine its metadata builds,
//! or whose fetch counts run past the end of a processor's stream, is
//! refused by `resume_checkpoint` as a typed error. Without the checks
//! the first kind panics in `restore_state` and the second replays a
//! finished stream up to `u64::MAX` times.

use dsm_harness::simpoint::{capture_with_checkpoints, resume_checkpoint, resume_to_end};
use dsm_harness::ExperimentConfig;
use dsm_sim::config::FaultPlan;
use dsm_simpoint::{Checkpoint, CkptError};
use dsm_workloads::App;

#[test]
fn hostile_machine_state_is_a_typed_error() {
    let config = ExperimentConfig::test(App::Lu, 2);
    let (ckpts, golden) = capture_with_checkpoints(config, FaultPlan::none(), &[2]);
    let ck = Checkpoint::decode(&ckpts[0].1).expect("checkpoint decodes");

    type Edit = fn(&mut Checkpoint);
    let cases: [(&str, Edit); 5] = [
        // One whole set of the direct-mapped L1 instead of all its lines.
        ("L1 cache lines", |ck| {
            let l1 = ck.meta.scale.system_config(1, 1).l1;
            ck.system.procs[0].l1.tags.truncate(l1.assoc as usize);
        }),
        ("gshare entries", |ck| {
            ck.system.procs[1].gshare.table.pop();
        }),
        ("memory banks", |ck| ck.system.memctrls[1].busy_until.push(0)),
        ("network links", |ck| {
            ck.system.network.link_busy.push(0);
            ck.system.network.link_flits.push(0);
        }),
        ("fetch count past the stream's end", |ck| ck.system.fetched[0] = u64::MAX),
    ];
    for (what, edit) in cases {
        let mut hostile = ck.clone();
        edit(&mut hostile);
        // The edit passes the decoder's own checks; only resuming can tell.
        let hostile = Checkpoint::decode(&hostile.encode()).expect("edited checkpoint decodes");
        let got = resume_checkpoint(&hostile).err();
        assert_eq!(got, Some(CkptError::BadValue { what }), "{what}");
    }

    let resumed = resume_to_end(&ck).expect("unedited checkpoint resumes");
    assert_eq!(resumed.stats, golden.stats);
    assert_eq!(resumed.records, golden.records);
}
