//! A persistent, caller-first executor for embarrassingly parallel grids.
//!
//! The evaluation layer runs models × cascades grids whose cells are
//! independent and pure, so the only scheduling problem is load balance:
//! a calibrated-DL fit costs orders of magnitude more than a naive
//! baseline. The build environment is fully offline (no rayon), so
//! [`parallel_map`] hand-rolls it over one process-wide pool:
//!
//! - **Helpers are spawned once.** The first fan-out that can use them
//!   starts `available_cores() − 1` helper threads (at least one), which
//!   then wait on a condvar for published work. A fan-out costs a
//!   condvar notify, never a thread spawn.
//! - **The caller drains its own fan-out.** A call publishes its items as
//!   a shared chunk cursor, wakes helpers, and claims chunks itself until
//!   the cursor runs out. It then waits only for chunks a helper has
//!   already claimed. A caller never waits on work nobody has started,
//!   so nested calls (a calibration multi-start inside a refit fan-out
//!   running on a helper) cannot deadlock, even with every helper busy.
//! - **Panics propagate.** A panic in any participant is caught, the
//!   call waits for its helpers to stop, and the panic resumes on the
//!   caller. Helpers survive it, so the pool stays usable afterwards.
//!
//! Determinism: results are keyed by item index and reassembled in input
//! order, so the output of [`parallel_map`] is identical for every
//! [`Parallelism`] setting; only wall-clock changes.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// How many threads a parallel region may use, the caller included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// Run on the calling thread only.
    Serial,
    /// One worker per available hardware thread.
    #[default]
    Auto,
    /// At most `n` workers (`0` is treated as `1`), capped by the pool.
    Fixed(usize),
}

impl Parallelism {
    /// The number of workers requested for `jobs` independent jobs —
    /// never more workers than jobs, never fewer than one.
    /// [`parallel_map`] further caps it at the pool's helpers plus the
    /// caller.
    #[must_use]
    pub fn workers(self, jobs: usize) -> usize {
        let requested = match self {
            Self::Serial => 1,
            Self::Auto => available_cores(),
            Self::Fixed(n) => n.max(1),
        };
        requested.min(jobs).max(1)
    }
}

/// The machine's hardware thread count, read once per process: std
/// derives it from cgroup files on every call, which costs tens of
/// microseconds.
#[must_use]
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// One published fan-out. The drain loop it runs lives on the
/// publishing caller's stack; the caller returns only after
/// retracting the job and seeing `inside` fall to zero, so no helper
/// runs the loop after its frame is gone. The job itself is
/// reference-counted, so a helper's last touch (leaving) stays valid.
struct Job {
    /// The caller's drain loop, type-erased; `run` knows its type.
    work: *const (),
    run: unsafe fn(*const ()),
    /// How many helpers may ever join: the participant budget minus
    /// the caller.
    seats: usize,
    state: Mutex<JobState>,
    /// Signalled when the last helper inside leaves.
    left: Condvar,
}

#[derive(Default)]
struct JobState {
    joined: usize,
    inside: usize,
    panic: Option<Box<dyn Any + Send>>,
}

// SAFETY: `work` points at a `Sync` closure (`parallel_map` requires
// every capture to be shareable), and it is only dereferenced by
// helpers between joining and leaving, which `parallel_map` brackets
// inside its own frame. Every other field is `Send + Sync`.
unsafe impl Send for Job {}
// SAFETY: as for `Send`: shared access only ever calls the `Sync`
// closure or goes through the mutex.
unsafe impl Sync for Job {}

/// Erases `work`'s type: a pointer to it and the function that calls
/// it through that pointer.
fn erase<W: Fn() + Sync>(work: &W) -> (*const (), unsafe fn(*const ())) {
    /// # Safety
    ///
    /// `work` must point at a live `W`.
    unsafe fn run<W: Fn() + Sync>(work: *const ()) {
        // SAFETY: the caller guarantees `work` points at a live `W`.
        unsafe { (*work.cast::<W>())() }
    }
    (std::ptr::from_ref(work).cast(), run::<W>)
}

impl Job {
    /// Takes a seat if one is left; the helper is then inside.
    fn try_join(&self) -> bool {
        let mut state = self.state.lock().expect("pool job poisoned");
        if state.joined == self.seats {
            return false;
        }
        state.joined += 1;
        state.inside += 1;
        true
    }

    /// Runs the drain loop as a helper, then leaves, keeping the first
    /// panic for the caller.
    fn help(&self) {
        // SAFETY: this helper joined the job and has not left, so the
        // caller is still inside `parallel_map` and `work` is live.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (self.run)(self.work) }));
        let mut state = self.state.lock().expect("pool job poisoned");
        if let Err(payload) = outcome {
            state.panic.get_or_insert(payload);
        }
        state.inside -= 1;
        if state.inside == 0 {
            self.left.notify_all();
        }
    }

    /// Blocks until no helper is inside; returns a helper's panic.
    fn wait_helpers(&self) -> Option<Box<dyn Any + Send>> {
        let mut state = self.state.lock().expect("pool job poisoned");
        while state.inside > 0 {
            state = self.left.wait(state).expect("pool job poisoned");
        }
        state.panic.take()
    }
}

/// The process-wide helper pool.
struct Pool {
    /// Published jobs, oldest first. A helper joins the oldest with a
    /// free seat.
    open: Mutex<Vec<Arc<Job>>>,
    work_ready: Condvar,
    helpers: usize,
}

impl Pool {
    fn publish(&self, job: &Arc<Job>) {
        self.open
            .lock()
            .expect("pool queue poisoned")
            .push(Arc::clone(job));
        for _ in 0..job.seats.min(self.helpers) {
            self.work_ready.notify_one();
        }
    }

    /// Removes `job` so no further helper joins it.
    fn retract(&self, job: &Arc<Job>) {
        self.open
            .lock()
            .expect("pool queue poisoned")
            .retain(|open| !Arc::ptr_eq(open, job));
    }

    fn helper_loop(&self) {
        let mut open = self.open.lock().expect("pool queue poisoned");
        loop {
            let Some(job) = open.iter().find(|job| job.try_join()).map(Arc::clone) else {
                open = self.work_ready.wait(open).expect("pool queue poisoned");
                continue;
            };
            drop(open);
            job.help();
            open = self.open.lock().expect("pool queue poisoned");
        }
    }
}

/// The pool, spawning its helpers on first use. Helpers live for the
/// rest of the process and are never joined: they hold no resources
/// beyond their stacks, and a panic in a job is caught and handed to
/// its caller, so no failure can hide in a detached helper.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let helpers = available_cores().saturating_sub(1).max(1);
        for i in 0..helpers {
            std::thread::Builder::new()
                .name(format!("dlm-pool-{i}"))
                // Each helper waits for the pool to finish initializing.
                .spawn(|| pool().helper_loop())
                .expect("spawning a pool helper thread");
        }
        Pool {
            open: Mutex::new(Vec::new()),
            work_ready: Condvar::new(),
            helpers,
        }
    })
}

/// Applies `f` to every item and returns the results in input order.
///
/// `f` receives `(index, &item)` and must be pure with respect to
/// ordering: it may run on the caller or on any helper at any time, and
/// it may itself call `parallel_map`. Panics in `f` propagate to the
/// caller once every helper has left the call.
pub fn parallel_map<T, R, F>(parallelism: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let requested = parallelism.workers(items.len());
    if requested <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let pool = pool();
    let participants = requested.min(pool.helpers + 1);

    // Small chunks keep the claim granularity fine enough to balance
    // wildly uneven job costs; the floor of 1 makes every grid cell
    // independently claimable when jobs are few and coarse (the
    // evaluation-pipeline and refit regime).
    let chunk_len = (items.len() / (participants * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    let drain = || {
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            // Relaxed: the cursor only partitions indices; results are
            // published through `collected`'s mutex.
            let start = cursor.fetch_add(chunk_len, Ordering::Relaxed);
            if start >= items.len() {
                break;
            }
            let end = (start + chunk_len).min(items.len());
            local.extend(
                (start..end)
                    .zip(&items[start..end])
                    .map(|(i, x)| (i, f(i, x))),
            );
        }
        collected
            .lock()
            .expect("pool results poisoned")
            .append(&mut local);
    };

    let (work, run) = erase(&drain);
    let job = Arc::new(Job {
        work,
        run,
        seats: participants - 1,
        state: Mutex::new(JobState::default()),
        left: Condvar::new(),
    });
    pool.publish(&job);
    // Even a panicking caller must not unwind past `drain` before the
    // helpers are out of it: once retracted, no helper can join, and
    // once `wait_helpers` returns, every helper that joined has left.
    let own = panic::catch_unwind(AssertUnwindSafe(&drain));
    pool.retract(&job);
    let helper_panic = job.wait_helpers();
    if let Err(payload) = own {
        panic::resume_unwind(payload);
    }
    if let Some(payload) = helper_panic {
        panic::resume_unwind(payload);
    }

    let mut collected = collected.into_inner().expect("pool results poisoned");
    debug_assert_eq!(collected.len(), items.len());
    collected.sort_unstable_by_key(|&(i, _)| i);
    collected.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn workers_respect_mode_and_job_count() {
        assert_eq!(Parallelism::Serial.workers(100), 1);
        assert_eq!(Parallelism::Fixed(4).workers(100), 4);
        assert_eq!(Parallelism::Fixed(4).workers(2), 2);
        assert_eq!(Parallelism::Fixed(0).workers(5), 1);
        assert_eq!(Parallelism::Fixed(3).workers(0), 1);
        assert!(Parallelism::Auto.workers(usize::MAX) >= 1);
    }

    #[test]
    fn map_preserves_input_order_in_every_mode() {
        let items: Vec<u64> = (0..997).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for mode in [
            Parallelism::Serial,
            Parallelism::Auto,
            Parallelism::Fixed(2),
            Parallelism::Fixed(7),
            Parallelism::Fixed(64),
        ] {
            let got = parallel_map(mode, &items, |_, &x| x * x);
            assert_eq!(got, expect, "mode {mode:?}");
        }
    }

    #[test]
    fn map_handles_empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(Parallelism::Fixed(8), &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(Parallelism::Auto, &[41], |_, &x| x + 1), [42]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..counters.len()).collect();
        parallel_map(Parallelism::Fixed(5), &items, |_, &i| {
            counters[i].fetch_add(1, Ordering::Relaxed)
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn uneven_workloads_finish_and_stay_ordered() {
        // A few very expensive items at the front: whoever claims them
        // is stuck early while the other participants drain the rest.
        let items: Vec<usize> = (0..64).collect();
        let got = parallel_map(Parallelism::Fixed(4), &items, |_, &i| {
            if i < 3 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i * 2
        });
        let expect: Vec<usize> = items.iter().map(|i| i * 2).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn index_argument_matches_item_position() {
        let items = ["a", "b", "c", "d"];
        let got = parallel_map(Parallelism::Fixed(2), &items, |i, &s| format!("{i}{s}"));
        assert_eq!(got, ["0a", "1b", "2c", "3d"]);
    }

    #[test]
    fn nested_maps_inside_pool_jobs_complete() {
        // Every outer item fans out again: inner calls run on helpers
        // as well as on the caller, with every helper possibly busy.
        let outer: Vec<u64> = (0..16).collect();
        let got = parallel_map(Parallelism::Auto, &outer, |_, &o| {
            let inner: Vec<u64> = (0..32).map(|i| o * 100 + i).collect();
            parallel_map(Parallelism::Auto, &inner, |_, &x| x * 2)
                .into_iter()
                .sum::<u64>()
        });
        let expect: Vec<u64> = outer
            .iter()
            .map(|&o| (0..32).map(|i| (o * 100 + i) * 2).sum())
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn panics_propagate_and_the_pool_stays_usable() {
        let items: Vec<usize> = (0..64).collect();
        for round in 0..4 {
            let culprit = round * 17 % items.len();
            let caught = panic::catch_unwind(|| {
                parallel_map(Parallelism::Fixed(2), &items, |_, &i| {
                    assert_ne!(i, culprit, "job {i} fails on purpose");
                    i
                })
            });
            let payload = caught.expect_err("the job's panic reaches the caller");
            let message = payload
                .downcast_ref::<String>()
                .expect("assert_ne! panics with a formatted message");
            assert!(message.contains("fails on purpose"), "{message}");
            let after = parallel_map(Parallelism::Fixed(2), &items, |_, &i| i + 1);
            assert_eq!(after, items.iter().map(|i| i + 1).collect::<Vec<_>>());
        }
    }
}
