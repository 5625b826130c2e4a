//! Failure paths of the engine's single-flight memos: an owner whose
//! computation panics must leave no lookup hanging, must not take
//! good points down with it, and must not be counted as having done
//! the work it never finished.
//!
//! `not-a-bench` is a scenario that panics inside the trace layer,
//! under the sim and annotation owners above it. Every lookup runs
//! on its own thread behind `recv_timeout`, so a regression that
//! hangs a waiter fails the test instead of stalling the suite.

use fuleak_experiments::{Budget, Engine, Scenario};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::Duration;

const BUDGET: Budget = Budget::Custom(5_000);

/// How long any one lookup may take before the test calls it hung.
const TIMEOUT: Duration = Duration::from_secs(60);

fn bad() -> Scenario {
    Scenario::paper("not-a-bench", 2, 12, BUDGET)
}

fn good() -> Scenario {
    Scenario::paper("mst", 2, 12, BUDGET)
}

/// Runs `f` on its own thread; [`join`] collects the outcome, `Err`
/// if `f` panicked.
fn spawn<T: Send + 'static>(
    f: impl FnOnce() -> T + Send + 'static,
) -> mpsc::Receiver<thread::Result<T>> {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
    });
    rx
}

fn join<T>(rx: mpsc::Receiver<thread::Result<T>>) -> thread::Result<T> {
    rx.recv_timeout(TIMEOUT)
        .expect("a single-flight lookup hung")
}

#[test]
fn a_panicked_owner_leaves_the_next_lookup_free_to_panic_again() {
    let engine = Arc::new(Engine::new(2));
    for attempt in 0..2 {
        let e = Arc::clone(&engine);
        assert!(
            join(spawn(move || e.result(bad()))).is_err(),
            "attempt {attempt} must panic, not hang or succeed"
        );
    }
    assert_eq!(engine.cache().len(), 0, "nothing was published");
}

#[test]
fn a_panicking_prime_leaves_its_good_points_servable() {
    let engine = Arc::new(Engine::new(2));
    let e = Arc::clone(&engine);
    assert!(join(spawn(move || e.prime(&[bad(), good()]))).is_err());
    let e = Arc::clone(&engine);
    let served = join(spawn(move || e.result(good()))).expect("the good point simulates");
    assert_eq!(*served, *Engine::sequential().result(good()));
}

#[test]
fn a_waiter_reclaims_after_the_owner_panics() {
    let engine = Arc::new(Engine::new(1));
    let barrier = Arc::new(Barrier::new(2));
    let (e, b) = (Arc::clone(&engine), Arc::clone(&barrier));
    // The owner claims mst's trace, then holds the flight until the
    // waiter is blocked on its latch, and dies.
    let owner = spawn(move || {
        e.trace_cache().get_or_compute(
            &("mst", BUDGET),
            || None,
            || {
                b.wait();
                for _ in 0..TIMEOUT.as_millis() {
                    if e.trace_cache().waits() > 0 {
                        break;
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                panic!("owner died mid-capture")
            },
        )
    });
    let (e, b) = (Arc::clone(&engine), Arc::clone(&barrier));
    let waiter = spawn(move || {
        b.wait();
        e.result(good())
    });
    assert!(join(owner).is_err());
    let served = join(waiter).expect("the waiter re-claims and simulates");
    assert_eq!(*served, *Engine::sequential().result(good()));
    let traces = engine.trace_cache();
    assert_eq!(traces.waits(), 1, "the waiter blocked on the owner's latch");
    assert_eq!(traces.misses(), 2, "and then claimed the trace itself");
    assert_eq!(traces.computes(), 1, "the dead owner computed nothing");
}

#[test]
fn computes_count_only_work_that_returned() {
    let engine = Arc::new(Engine::new(2));
    let e = Arc::clone(&engine);
    assert!(join(spawn(move || e.prime(&[bad(), good()]))).is_err());
    let e = Arc::clone(&engine);
    assert!(join(spawn(move || e.result(good()))).is_ok());
    let e = Arc::clone(&engine);
    assert!(join(spawn(move || e.result(bad()))).is_err());
    // The prime's mst capture returned and was published; the
    // not-a-bench capture panicked three layers down, twice.
    let stats = engine.stats();
    assert_eq!((stats.traces, stats.captures), (1, 1));
    assert_eq!((stats.annotations, stats.annotations_built), (1, 1));
}
