//! Parallel regions on persistent helper threads.
//!
//! A region runs one job on `width` threads at once: the calling thread
//! and `width - 1` helpers. The job claims work from state it shares
//! with the other participants (a chunk cursor, a queue) until none is
//! left, so it does not matter which participant does how much.
//!
//! Every thread that opens regions owns its helpers. They are spawned
//! the first time a region needs them, wait between regions, and are
//! joined by a thread-local destructor when the owning thread exits.
//! Threads never share helpers, so independent callers — the service's
//! workers under `with_local_threads` — never wait on each other.
//!
//! A waiting thread (a helper between regions, a caller whose helpers
//! are still busy) spins for at most [`SPIN`] while the widths of all
//! open regions fit within the host's cores, and parks otherwise: on an
//! oversubscribed host a spinner takes the core from the thread it is
//! waiting for.
//!
//! A region opened by a thread that is already running a region's job —
//! a nested region, on the caller or on a helper — runs inline.
//!
//! This module holds the crate's only `unsafe`: helpers reach the job,
//! which borrows from the caller's stack, through a reference whose
//! lifetime is erased. [`run_region`] neither returns nor unwinds until
//! every helper it posted the job to has given it back.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Longest time a waiting thread spins before it parks.
const SPIN: Duration = Duration::from_micros(50);

// Slot states. The owner posts (IDLE → POSTED), retracts a job the
// helper has not taken (POSTED → IDLE) and stops the helper (IDLE →
// EXIT); the helper takes a job (POSTED → RUNNING) and gives it back
// (RUNNING → IDLE).
const IDLE: u8 = 0;
const POSTED: u8 = 1;
const RUNNING: u8 = 2;
const EXIT: u8 = 3;

/// Sum of the widths of the regions open in this process. It only
/// steers the choice between spinning and parking and publishes no
/// data, so `Relaxed` suffices.
static OPEN_WIDTH: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The helpers this thread has started, joined when it exits.
    static HELPERS: RefCell<Vec<Helper>> = const { RefCell::new(Vec::new()) };
    /// Whether this thread is running a region's job.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

type Payload = Box<dyn Any + Send + 'static>;

/// A region's job as a helper sees it.
struct Job {
    /// Borrowed from the caller's stack; `'static` is a lie that
    /// [`run_region`] keeps unobservable.
    run: &'static (dyn Fn() + Sync),
    width: usize,
}

/// What a helper and its owner share.
struct Slot {
    state: AtomicU8,
    job: Mutex<Option<Job>>,
    /// The payload of the last job that panicked on this helper, until
    /// the owner collects it.
    panic: Mutex<Option<Payload>>,
    owner: Thread,
}

/// A helper thread; dropping it stops and joins the thread.
struct Helper {
    slot: Arc<Slot>,
    thread: Option<JoinHandle<()>>,
}

/// The number of cores this process may run on.
pub(crate) fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `job` on `width` threads at once — the calling thread and
/// `width - 1` of its helpers — and returns once every participant has
/// returned from it. If any participant panics, the panic resumes on
/// the calling thread after all have returned: the caller's own first,
/// else the first helper's. Runs `job` once, inline, when `width <= 1`
/// or when the calling thread is already running a region's job.
pub(crate) fn run_region(width: usize, job: &(dyn Fn() + Sync)) {
    if width <= 1 || IN_REGION.with(Cell::get) {
        return job();
    }
    let ran = HELPERS.try_with(|helpers| {
        let mut helpers = helpers.borrow_mut();
        while helpers.len() < width - 1 {
            helpers.push(Helper::spawn(width));
        }
        run_on(&helpers[..width - 1], width, job);
    });
    if ran.is_err() {
        // The thread is exiting and its helpers are already joined.
        job();
    }
}

fn run_on(helpers: &[Helper], width: usize, job: &(dyn Fn() + Sync)) {
    OPEN_WIDTH.fetch_add(width, Ordering::Relaxed);
    IN_REGION.with(|r| r.set(true));
    // SAFETY: only the lifetime changes. A helper uses the reference
    // between taking the job (POSTED → RUNNING) and giving it back
    // (RUNNING → IDLE), and keeps no copy. From the first `post` to the
    // end of the `settle` loop nothing here can unwind: the caller's
    // share runs under `catch_unwind`, and `post` and `settle` cannot
    // panic (their locks recover from poison, their critical sections
    // only move an `Option`). `settle` returns only when the slot is
    // IDLE again, either retracted before the helper took the job or
    // given back by the helper. So every use of `run` happens while
    // `job` is borrowed by this call.
    let run = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(job) };
    for helper in helpers {
        helper.post(Job { run, width });
    }
    let mine = panic::catch_unwind(AssertUnwindSafe(job));
    let theirs: Vec<Payload> = helpers.iter().filter_map(|h| h.slot.settle()).collect();
    IN_REGION.with(|r| r.set(false));
    OPEN_WIDTH.fetch_sub(width, Ordering::Relaxed);

    if let Err(payload) = mine {
        panic::resume_unwind(payload);
    }
    if let Some(payload) = theirs.into_iter().next() {
        panic::resume_unwind(payload);
    }
}

impl Helper {
    fn spawn(width: usize) -> Helper {
        let slot = Arc::new(Slot {
            state: AtomicU8::new(IDLE),
            job: Mutex::new(None),
            panic: Mutex::new(None),
            owner: thread::current(),
        });
        let thread = thread::Builder::new()
            .name("rdp-par".into())
            .spawn({
                let slot = Arc::clone(&slot);
                move || serve(&slot, width)
            })
            .expect("failed to spawn an rdp-par helper thread");
        Helper {
            slot,
            thread: Some(thread),
        }
    }

    fn post(&self, job: Job) {
        *lock(&self.slot.job) = Some(job);
        self.slot.state.store(POSTED, Ordering::Release);
        self.unpark();
    }

    fn unpark(&self) {
        if let Some(thread) = &self.thread {
            thread.thread().unpark();
        }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        // Owners drop helpers only between regions, so the slot is IDLE.
        self.slot.state.store(EXIT, Ordering::Release);
        self.unpark();
        if let Some(thread) = self.thread.take() {
            // `serve` catches every job's panic, so the join cannot fail.
            let _ = thread.join();
        }
    }
}

impl Slot {
    /// Owner side: takes the job back if the helper has not taken it,
    /// else waits until the helper gives it back. Returns the payload
    /// if the helper's share panicked.
    fn settle(&self) -> Option<Payload> {
        if self
            .state
            .compare_exchange(POSTED, IDLE, Ordering::Acquire, Ordering::Acquire)
            .is_ok()
        {
            lock(&self.job).take();
            return None;
        }
        wait_until(
            || self.state.load(Ordering::Acquire) == IDLE,
            || OPEN_WIDTH.load(Ordering::Relaxed) <= cores(),
        );
        lock(&self.panic).take()
    }
}

/// A helper's life: wait for a job, run it, give it back, until told to
/// exit. Every region it runs in would open on this thread nested, so
/// the thread counts as inside a region for good.
fn serve(slot: &Slot, mut width: usize) {
    IN_REGION.with(|r| r.set(true));
    loop {
        wait_until(
            || slot.state.load(Ordering::Acquire) != IDLE,
            || OPEN_WIDTH.load(Ordering::Relaxed) + width <= cores(),
        );
        match slot
            .state
            .compare_exchange(POSTED, RUNNING, Ordering::Acquire, Ordering::Acquire)
        {
            Ok(_) => {}
            Err(EXIT) => return,
            Err(_) => continue, // retracted before this helper took it
        }
        let job = lock(&slot.job).take().expect("a posted slot holds a job");
        width = job.width;
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(job.run)) {
            *lock(&slot.panic) = Some(payload);
        }
        slot.state.store(IDLE, Ordering::Release);
        slot.owner.unpark();
    }
}

/// Returns once `ready()` holds. Spins while `may_spin()` holds, for at
/// most [`SPIN`], then parks; whoever makes `ready()` true unparks the
/// waiting thread afterwards.
fn wait_until(ready: impl Fn() -> bool, may_spin: impl Fn() -> bool) {
    let start = Instant::now();
    while may_spin() && start.elapsed() < SPIN {
        for _ in 0..64 {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
    }
    while !ready() {
        thread::park();
    }
}

/// Locks a slot field. Each critical section only moves an `Option`,
/// which leaves the value valid at every step, so a poisoned lock is
/// recovered rather than turned into a panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pool;
    use std::collections::HashSet;
    use std::sync::{mpsc, Barrier, Weak};

    /// Runs `body` on a fresh thread and returns its result, failing
    /// instead of hanging if it has not finished within a minute.
    fn bounded<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(body)));
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(Ok(value)) => value,
            Ok(Err(payload)) => panic::resume_unwind(payload),
            Err(e) => panic!("pool deadlocked: {e}"),
        }
    }

    fn helper_count() -> usize {
        HELPERS.with(|h| h.borrow().len())
    }

    #[test]
    fn thousand_regions_start_one_helper() {
        let (threads, helpers) = bounded(|| {
            let barrier = Barrier::new(2);
            let mut threads = HashSet::new();
            for _ in 0..1000 {
                // The two chunks wait for each other, so every region
                // runs one of them off the calling thread.
                threads.extend(Pool::new(2).map_chunks(2, 1, |_, _| {
                    barrier.wait();
                    thread::current().id()
                }));
            }
            (threads.len(), helper_count())
        });
        assert_eq!(threads, 2, "chunks ran on the caller and one helper");
        assert_eq!(helpers, 1);
    }

    #[test]
    fn helper_and_caller_panics_leave_the_pool_usable() {
        #[derive(Clone, Copy, PartialEq)]
        enum Fail {
            Helpers,
            Everyone,
            Nobody,
        }
        bounded(|| {
            for width in 2..=8 {
                let caller = thread::current().id();
                let barrier = Barrier::new(width);
                let region = |fail: Fail| {
                    panic::catch_unwind(AssertUnwindSafe(|| {
                        // Every chunk waits for all others, so each
                        // participant runs exactly one chunk.
                        Pool::new(width).map_chunks(width, 1, |ci, _| {
                            barrier.wait();
                            if thread::current().id() == caller {
                                assert!(fail != Fail::Everyone, "caller chunk");
                            } else {
                                assert!(fail == Fail::Nobody, "helper chunk");
                            }
                            ci
                        })
                    }))
                };
                let message = |payload: Payload| payload.downcast::<&str>().map(|m| *m).ok();

                let helpers = region(Fail::Helpers).expect_err("a helper panic propagates");
                assert_eq!(message(helpers), Some("helper chunk"), "width {width}");
                let both = region(Fail::Everyone).expect_err("a caller panic propagates");
                assert_eq!(message(both), Some("caller chunk"), "width {width}");
                let clean = region(Fail::Nobody).expect("no stale helper panic surfaces");
                assert_eq!(clean, (0..width).collect::<Vec<_>>(), "width {width}");
                assert_eq!(helper_count(), width - 1, "no helper died");
            }
        });
    }

    #[test]
    fn exiting_thread_joins_its_helpers() {
        /// Placed on a helper by a chunk; dropped when that helper's
        /// thread exits, and holds the exit until the test releases it.
        struct ExitProbe {
            exiting: mpsc::Sender<()>,
            release: Arc<Mutex<mpsc::Receiver<()>>>,
        }
        impl Drop for ExitProbe {
            fn drop(&mut self) {
                let _ = self.exiting.send(());
                let _ = lock(&self.release).recv_timeout(Duration::from_secs(60));
            }
        }
        thread_local! {
            static PROBE: RefCell<Option<ExitProbe>> = const { RefCell::new(None) };
        }

        let (exiting_tx, exiting_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let release = Arc::new(Mutex::new(release_rx));
        let owner = thread::spawn(move || {
            let caller = thread::current().id();
            let barrier = Barrier::new(4);
            // One chunk per participant, so each helper gets a probe.
            Pool::new(4).map_chunks(4, 1, |_, _| {
                barrier.wait();
                if thread::current().id() != caller {
                    let probe = ExitProbe {
                        exiting: exiting_tx.clone(),
                        release: Arc::clone(&release),
                    };
                    PROBE.with(|p| *p.borrow_mut() = Some(probe));
                }
            });
            HELPERS.with(|h| {
                h.borrow()
                    .iter()
                    .map(|h| Arc::downgrade(&h.slot))
                    .collect::<Vec<Weak<Slot>>>()
            })
        });
        // `join` returns after the owner's thread-local destructors ran.
        let (done_tx, done_rx) = mpsc::channel();
        thread::spawn(move || {
            let _ = done_tx.send(owner.join());
        });

        let minute = Duration::from_secs(60);
        exiting_rx
            .recv_timeout(minute)
            .expect("the owner's exit stops a helper");
        assert!(
            done_rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "the owner exited before its helpers did"
        );
        for _ in 0..3 {
            release_tx.send(()).expect("a probe is waiting");
        }
        let slots = done_rx
            .recv_timeout(minute)
            .expect("the owner thread exits")
            .expect("the owner thread did not panic");
        assert_eq!(slots.len(), 3);
        let live = slots.iter().filter(|s| s.strong_count() > 0).count();
        assert_eq!(live, 0, "helpers outlived their owner");
    }

    #[test]
    fn nested_regions_run_inline_with_serial_results() {
        fn nested(outer: Pool, inner: Pool) -> Vec<(bool, usize)> {
            outer.map_chunks(16, 1, |ci, _| {
                let me = thread::current().id();
                let parts = inner.map_chunks(16, 1, |cj, _| (thread::current().id(), ci * 16 + cj));
                let inline = parts.iter().all(|&(id, _)| id == me);
                (inline, parts.iter().map(|&(_, v)| v).sum())
            })
        }
        bounded(|| {
            let serial = nested(Pool::serial(), Pool::serial());
            for width in [2, 4] {
                let out = nested(Pool::new(width), Pool::new(width));
                assert!(out.iter().all(|&(inline, _)| inline), "{width}x{width}");
                assert_eq!(out, serial, "{width}x{width}");
            }
        });
    }
}
