//! Property tests over the framework's concurrency primitives.

use ipregel::mailbox::{AtomicMailbox, Mailbox, MutexMailbox, PackMessage, SpinMailbox};
use ipregel::selection::EpochTags;
use proptest::prelude::*;
use ipregel_par::prelude::*;

fn min32(old: &mut u32, new: u32) {
    if new < *old {
        *old = new;
    }
}

fn add32(old: &mut u32, new: u32) {
    *old = old.wrapping_add(new);
}

/// Sequential oracle for a delivery sequence: (min, wrapping sum, count).
fn oracle(values: &[u32]) -> (Option<u32>, Option<u32>) {
    if values.is_empty() {
        return (None, None);
    }
    let min = values.iter().copied().min();
    let sum = values.iter().copied().fold(0u32, u32::wrapping_add);
    (min, Some(sum))
}

fn check_sequential_delivery<MB: Mailbox<u32>>(values: &[u32]) {
    let (expect_min, expect_sum) = oracle(values);

    let mb = MB::empty();
    let mut firsts = 0;
    for &v in values {
        firsts += u32::from(mb.deliver(v, min32));
    }
    assert_eq!(mb.take(), expect_min);
    assert_eq!(firsts, u32::from(!values.is_empty()), "exactly one first delivery");

    let mb = MB::empty();
    for &v in values {
        mb.deliver(v, add32);
    }
    assert_eq!(mb.take(), expect_sum);
    assert_eq!(mb.take(), None, "take drains");
}

fn check_parallel_delivery<MB: Mailbox<u32>>(values: &[u32]) {
    let (expect_min, _) = oracle(values);
    let mb = MB::empty();
    let firsts: u32 = values.par_iter().map(|&v| u32::from(mb.deliver(v, min32))).sum();
    assert_eq!(mb.take(), expect_min);
    if !values.is_empty() {
        assert_eq!(firsts, 1, "exactly one concurrent first delivery");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn mutex_mailbox_folds_like_a_sequence(values in prop::collection::vec(1u32..u32::MAX, 0..200)) {
        check_sequential_delivery::<MutexMailbox<u32>>(&values);
        check_parallel_delivery::<MutexMailbox<u32>>(&values);
    }

    #[test]
    fn spin_mailbox_folds_like_a_sequence(values in prop::collection::vec(1u32..u32::MAX, 0..200)) {
        check_sequential_delivery::<SpinMailbox<u32>>(&values);
        check_parallel_delivery::<SpinMailbox<u32>>(&values);
    }

    #[test]
    fn atomic_mailbox_folds_like_a_sequence(values in prop::collection::vec(1u32..u32::MAX, 0..200)) {
        check_sequential_delivery::<AtomicMailbox<u32>>(&values);
        check_parallel_delivery::<AtomicMailbox<u32>>(&values);
    }

    #[test]
    fn pack_message_round_trips_u32(v in any::<u32>()) {
        prop_assert_eq!(u32::unpack(v.pack()), v);
    }

    #[test]
    fn pack_message_round_trips_f64(v in any::<f64>().prop_filter("sentinel NaN", |x| x.to_bits() != u64::MAX)) {
        let back = f64::unpack(v.pack());
        if v.is_nan() {
            prop_assert!(back.is_nan());
        } else {
            prop_assert_eq!(back, v);
        }
    }

    #[test]
    fn epoch_tags_admit_one_winner_per_vertex_epoch(
        slots in 1usize..64,
        epochs in 1u32..8,
        attempts in 2usize..32,
    ) {
        let tags = EpochTags::new(slots);
        for epoch in 1..=epochs {
            for v in 0..slots as u32 {
                let winners: usize = (0..attempts)
                    .into_par_iter()
                    .map(|_| usize::from(tags.claim(v, epoch)))
                    .sum();
                prop_assert_eq!(winners, 1, "slot {} epoch {}", v, epoch);
            }
        }
    }
}
