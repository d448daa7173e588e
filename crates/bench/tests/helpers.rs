//! Tests for the bench-harness helpers.

use bench::{log_bar, pass_templates, percentile};

#[test]
fn log_bar_is_monotone_and_bounded() {
    let max = 10_000;
    let mut prev = 0;
    for count in [0u64, 1, 10, 100, 1_000, 10_000] {
        let bar = log_bar(count, max).len();
        assert!(bar >= prev, "bar length must grow with count");
        assert!(bar <= 51);
        prev = bar;
    }
    assert!(log_bar(0, max).is_empty());
    assert!(log_bar(max, max).len() >= 50);
}

#[test]
fn pass_templates_excludes_memory_ops() {
    let ts = pass_templates();
    assert!(ts.len() > 100);
    for (name, t) in &ts {
        assert!(
            !t.source
                .iter()
                .chain(&t.target)
                .any(|s| s.inst.is_memory_op()),
            "{name} has memory ops"
        );
    }
}

#[test]
fn percentile_of_empty_and_single_slices() {
    assert_eq!(percentile(&[], 50), 0);
    assert_eq!(percentile(&[], 99), 0);
    for p in [0, 50, 90, 99, 100] {
        assert_eq!(percentile(&[7], p), 7);
    }
    let sorted: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&sorted, 0), 1);
    assert_eq!(percentile(&sorted, 50), 50);
    assert_eq!(percentile(&sorted, 99), 99);
    assert_eq!(percentile(&sorted, 100), 100);
}
