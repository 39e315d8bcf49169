//! The pool spawns its helpers once: repeated fan-outs reuse them.
//!
//! This is its own test binary, holding one test, so no concurrently
//! running test starts or ends threads while `Threads:` is read.

use dlm_numerics::pool::{parallel_map, Parallelism};

/// The `Threads:` line of `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn thousand_fan_outs_spawn_no_threads() {
    let items: Vec<u64> = (0..64).collect();
    let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
    assert_eq!(
        parallel_map(Parallelism::Fixed(2), &items, |_, &x| x * 3),
        expect
    );
    let after_first = thread_count();
    for _ in 0..1000 {
        assert_eq!(
            parallel_map(Parallelism::Fixed(2), &items, |_, &x| x * 3),
            expect
        );
    }
    assert_eq!(thread_count(), after_first);
}
