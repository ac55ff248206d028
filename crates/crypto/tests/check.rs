//! The property harness checked on itself: a false property arrives
//! shrunk to a pinned smallest case, and a case replays its draws.

use std::panic;

use discfs_crypto::rng::check::{check, TEXT};

/// The panic message of `f`, which must panic.
fn failure(f: impl FnOnce() + panic::UnwindSafe) -> String {
    let payload = panic::catch_unwind(f).expect_err("the property is false");
    payload
        .downcast_ref::<String>()
        .expect("a formatted report")
        .clone()
}

#[test]
fn a_false_sum_bound_shrinks_to_one_element_of_1000() {
    let report = failure(|| {
        check("every_vec_of_u16_sums_below_1000", 64, |src| {
            let v = src.vec(0..20, |src| src.any::<u16>());
            let sum: u64 = v.iter().map(|&x| u64::from(x)).sum();
            assert!(sum < 1000, "{v:?} sums to {sum}");
        })
    });
    // The length draw 1, then one element: not an end of the range (0),
    // and 1000.
    assert!(report.contains("draws to 3: [1, 0, 1000]"), "{report}");
    assert!(report.contains("[1000] sums to 1000"), "{report}");
}

#[test]
fn a_case_draws_the_same_values_every_time() {
    let cases = || {
        let mut seen = Vec::new();
        check("the_same_case_twice", 8, |src| {
            seen.push((
                src.vec(0..40, |src| src.range(3u32..900)),
                src.string(0..30, TEXT),
                src.bytes::<12>(),
                src.bool(),
            ))
        });
        seen
    };
    let first = cases();
    assert_eq!(first, cases());
    assert!(first.windows(2).all(|w| w[0] != w[1]), "cases differ");
}
