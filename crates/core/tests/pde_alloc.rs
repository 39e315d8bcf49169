//! Allocation-count regression test for the checkpoint-only solves.
//!
//! A counting global allocator records every allocation made on the
//! calling thread. A solve that keeps only its query rows must allocate
//! the same number of times whatever its step count: its work buffers are
//! allocated once per solve, never inside the time-step or Newton loops.

use dlm_core::growth::ExpDecayGrowth;
use dlm_core::initial::{InitialDensity, PhiConstruction};
use dlm_core::model::DlModelBuilder;
use dlm_core::params::DlParameters;
use dlm_core::pde::{solve, solve_at, SolverConfig, SolverMethod};
use dlm_core::variable::VariableDlModelBuilder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the memory handed out is exactly what `System` handed out. Counting
// touches only a const-initialized thread-local `Cell`, which never
// allocates and so cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, including those of its result.
fn allocations<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

const OBS: [f64; 6] = [2.1, 0.7, 0.9, 0.5, 0.3, 0.2];
const HOURS: [u32; 7] = [2, 3, 4, 5, 6, 7, 8];
const DISTANCES: [u32; 6] = [1, 2, 3, 4, 5, 6];

/// Solver configs taking 100 and 700 steps from hour 1 to hour 8.
fn configs(method: SolverMethod) -> [SolverConfig; 2] {
    [0.07, 0.01].map(|dt| SolverConfig {
        method,
        space_intervals: 100,
        dt,
    })
}

#[test]
fn solve_at_allocations_do_not_grow_with_steps() {
    let params = DlParameters::paper_hops(6).unwrap();
    let phi =
        InitialDensity::from_observations(&params, &OBS, PhiConstruction::SplineFlat).unwrap();
    let growth = ExpDecayGrowth::paper_hops();
    let queries: Vec<f64> = HOURS.iter().map(|&h| f64::from(h)).collect();
    for method in [SolverMethod::CrankNicolson, SolverMethod::BackwardEuler] {
        let [short, long] = configs(method).map(|config| {
            let at = allocations(|| solve_at(&params, &growth, &phi, 1.0, &queries, &config));
            let full = allocations(|| solve(&params, &growth, &phi, 1.0, 8.0, &config));
            (at, full)
        });
        assert_eq!(short.0, long.0, "{method:?}: solve_at, 100 vs 700 steps");
        // Control: full recording allocates one row per step, so the
        // counter does see the step count.
        assert!(
            long.1 >= short.1 + 600,
            "{method:?}: solve {short:?} {long:?}"
        );
    }
}

#[test]
fn predict_allocations_do_not_grow_with_steps() {
    let params = DlParameters::paper_hops(6).unwrap();
    let [short, long] = configs(SolverMethod::CrankNicolson).map(|config| {
        let model = DlModelBuilder::new(params)
            .growth(ExpDecayGrowth::paper_hops())
            .solver(config)
            .build(&OBS)
            .unwrap();
        allocations(|| model.predict(&DISTANCES, &HOURS).unwrap())
    });
    assert_eq!(short, long, "DlModel::predict, 100 vs 700 steps");

    let [short, long] = [0.07, 0.01].map(|dt| {
        let model = VariableDlModelBuilder::new(1.0, 6.0)
            .unwrap()
            .resolution(100, dt)
            .build(&OBS)
            .unwrap();
        allocations(|| model.predict(&DISTANCES, &HOURS).unwrap())
    });
    assert_eq!(short, long, "VariableDlModel::predict, 100 vs 700 steps");
}
