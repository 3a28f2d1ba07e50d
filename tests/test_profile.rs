//! Test builds must keep the checks the suite relies on: every
//! `debug_assert!` (cost bounds, verifiers) and integer overflow panics.
//! A `[profile.test]` edit in the root `Cargo.toml` that turns either off
//! fails here.

#[test]
fn test_builds_keep_debug_assertions_and_overflow_checks() {
    let asserted = std::panic::catch_unwind(|| debug_assert!(std::hint::black_box(false)));
    assert!(asserted.is_err(), "test builds must keep debug-assertions");
    let overflowed = std::panic::catch_unwind(|| std::hint::black_box(i32::MAX) + 1);
    assert!(overflowed.is_err(), "test builds must keep overflow-checks");
}
