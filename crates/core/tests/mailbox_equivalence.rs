//! Differential property test: the three mailboxes are observationally
//! equivalent.
//!
//! The paper's §6.1 synchronisation flavours (block-waiting mutex,
//! busy-waiting spinlock) and the lock-free CAS mailbox the benchmark
//! probes differ only in *how* they protect the single-message slot — for any sequence of
//! deliveries and takes they must produce identical combined values,
//! identical "was empty" signals (the §4 bypass enqueue bit), and
//! identical occupancy flags. Any divergence convicts a mailbox, not the
//! program.

#![cfg(not(loom))]
#![forbid(unsafe_code)]

use ipregel::mailbox::{AtomicMailbox, Mailbox, MutexMailbox, SpinMailbox};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Deliver(u32),
    Take,
    Peek,
}

/// The full observable outcome of applying `ops` to one mailbox kind.
#[derive(Debug, PartialEq, Eq)]
struct Trace {
    /// One entry per Deliver: did it observe the empty mailbox?
    firsts: Vec<bool>,
    /// One entry per Take: the removed (combined) value, if any.
    taken: Vec<Option<u32>>,
    /// One entry per Peek: occupancy at that point.
    occupancy: Vec<bool>,
    /// Whatever remains at the end.
    leftover: Option<u32>,
}

fn apply<MB: Mailbox<u32>>(ops: &[Op], combine: fn(&mut u32, u32)) -> Trace {
    let mb = MB::empty();
    let mut trace = Trace { firsts: vec![], taken: vec![], occupancy: vec![], leftover: None };
    for op in ops {
        match op {
            Op::Deliver(m) => trace.firsts.push(mb.deliver(*m, combine)),
            Op::Take => trace.taken.push(mb.take()),
            Op::Peek => trace.occupancy.push(mb.has_message()),
        }
    }
    trace.leftover = mb.take();
    trace
}

fn min32(old: &mut u32, new: u32) {
    if new < *old {
        *old = new;
    }
}

fn sum32(old: &mut u32, new: u32) {
    *old = old.wrapping_add(new);
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Bias towards deliveries: combining is the interesting path.
        4 => any::<u32>().prop_map(Op::Deliver),
        1 => Just(Op::Take),
        1 => Just(Op::Peek),
    ]
}

// prop_assert_eq! needs a Result-returning context; keep the comparison
// in one helper so both properties share it.
fn check(ops: Vec<Op>, combine: fn(&mut u32, u32)) -> Result<(), TestCaseError> {
    let mutex = apply::<MutexMailbox<u32>>(&ops, combine);
    let spin = apply::<SpinMailbox<u32>>(&ops, combine);
    let atomic = apply::<AtomicMailbox<u32>>(&ops, combine);
    prop_assert_eq!(&mutex, &spin, "mutex vs spin diverged");
    prop_assert_eq!(&mutex, &atomic, "mutex vs atomic diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if cfg!(miri) { 8 } else { 256 },
        .. ProptestConfig::default()
    })]

    #[test]
    fn three_mailboxes_agree_under_min_combiner(
        ops in proptest::collection::vec(op_strategy(), 0..64)
    ) {
        check(ops, min32)?;
    }

    #[test]
    fn three_mailboxes_agree_under_sum_combiner(
        ops in proptest::collection::vec(op_strategy(), 0..64)
    ) {
        check(ops, sum32)?;
    }
}

#[test]
fn fixed_sequences_agree() {
    // A deterministic smoke test that runs even when proptest is
    // filtered out (e.g. the curated Miri subset).
    let ops = vec![
        Op::Peek,
        Op::Deliver(9),
        Op::Deliver(3),
        Op::Peek,
        Op::Take,
        Op::Take,
        Op::Deliver(7),
        Op::Deliver(2),
        Op::Deliver(11),
        Op::Peek,
    ];
    for combine in [min32 as fn(&mut u32, u32), sum32] {
        let mutex = apply::<MutexMailbox<u32>>(&ops, combine);
        let spin = apply::<SpinMailbox<u32>>(&ops, combine);
        let atomic = apply::<AtomicMailbox<u32>>(&ops, combine);
        assert_eq!(mutex, spin);
        assert_eq!(mutex, atomic);
    }
}
