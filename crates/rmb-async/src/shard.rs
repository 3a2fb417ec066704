//! A persistent worker pool for conservative time-window execution.
//!
//! The parallel hierarchy engine in `rmb-hier` advances every ring with
//! due work by one synchronisation window, merges bridge traffic, and
//! repeats — millions of windows per run. Spawning threads per window (or
//! even routing every window through channel sends) would cost more than
//! the ring work it parallelises, so [`ShardPool`] keeps its workers alive
//! across windows and synchronises each one with two atomics:
//!
//! * a **generation counter** the coordinator bumps to publish a window
//!   (workers spin briefly, then park on a condvar), and
//! * a **remaining counter** each worker decrements when its stripe of
//!   shards is done (the coordinator spins until it reaches zero).
//!
//! [`ShardPool::run_shards`] hands each worker a *stripe* of a
//! `&mut [&mut T]` slice — worker `w` touches indices `w, w + threads,
//! …` only, and the calling thread works the last stripe itself instead
//! of idling. Shard-to-stripe assignment is fixed, but because every
//! shard is advanced independently (that is the caller's contract), the
//! assignment affects wall-clock time only, never results.
//!
//! # Safety
//!
//! This module contains the workspace's only `unsafe` code. The pool
//! passes two raw pointers to its workers per window: the slice base and
//! the borrowed closure. Both stay valid because `run_shards` does not
//! return — by normal exit *or* by unwinding (the caller's own stripe
//! runs under `catch_unwind`) — until every worker has bumped the
//! remaining counter, and workers never touch a job after that bump (the
//! next job only becomes visible through a later generation bump, which
//! the coordinator issues only from inside the next `run_shards` call).
//! `run_shards` takes `&mut self`, so only one window can ever be in
//! flight: no second publish can race the generation bump or the
//! remaining counter. Disjoint striping means no element is ever aliased
//! by two threads. `T: Send` bounds the cross-thread `&mut T` handoff
//! and `F: Sync` the shared closure, exactly as `std::thread::scope`
//! would demand.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Spin iterations before a waiter starts yielding its timeslice, and
/// yields before a worker parks on the condvar. Windows arrive back to
/// back during a run, so on a machine with a core per stripe the fast
/// path is "next generation arrives while spinning". When the host has
/// fewer cores than the pool has stripes, every spin iteration steals
/// the CPU from the thread that actually holds work, so an oversubscribed
/// pool zeroes both limits and parks immediately instead (see
/// [`ShardPool::new`]).
const SPIN_LIMIT: u32 = 256;
const YIELD_LIMIT: u32 = 2_048;

/// One published window: a type-erased shard slice plus the closure to
/// apply to each shard. `call` re-instantiates the erased types.
#[derive(Clone, Copy)]
struct Job {
    shards: *mut (),
    len: usize,
    ctx: *const (),
    call: unsafe fn(*const (), *mut (), usize),
}

impl Job {
    const fn empty() -> Self {
        Job {
            shards: std::ptr::null_mut(),
            len: 0,
            ctx: std::ptr::null(),
            call: |_, _, _| {},
        }
    }
}

// SAFETY: a `Job` is only ever executed while the `run_shards` call that
// built it is blocked waiting on the remaining counter, so the pointers
// are live; striping keeps element access disjoint (see module docs).
#[allow(unsafe_code)]
unsafe impl Send for Job {}

struct Inner {
    /// Spin iterations before yielding (0 when the host is
    /// oversubscribed: fewer cores than pool stripes).
    spin_limit: u32,
    /// Yields before a worker parks on the condvar (0 when
    /// oversubscribed).
    yield_limit: u32,
    /// Window generation; bumped (under `job`'s lock) to publish work.
    gen: AtomicU64,
    /// Workers still running the current window.
    remaining: AtomicUsize,
    /// Set when the pool is dropped; workers exit at the next wakeup.
    stop: AtomicBool,
    /// `true` when some worker panicked inside a window.
    panicked: AtomicBool,
    /// The published job. Doubles as the condvar's mutex.
    job: Mutex<Job>,
    cv: Condvar,
}

/// A reusable fork/join pool over persistent OS threads, tuned for very
/// short, very frequent windows.
///
/// `threads` counts the calling thread too: `ShardPool::new(4)` spawns
/// three workers and the caller runs the fourth stripe inside
/// [`run_shards`](Self::run_shards). A pool of one spawns nothing and
/// degenerates to an in-order loop, which keeps `Sharded(1)` runs useful
/// as a minimal-diff check against the serial engine.
///
/// # Examples
///
/// ```
/// use rmb_async::ShardPool;
///
/// let mut pool = ShardPool::new(4);
/// let mut counters = vec![0u64; 64];
/// let mut shards: Vec<&mut u64> = counters.iter_mut().collect();
/// for round in 0..10 {
///     pool.run_shards(&mut shards, &|i, c| *c += (i as u64) + round);
/// }
/// assert_eq!(*shards[3], 10 * 3 + 45);
/// ```
pub struct ShardPool {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl ShardPool {
    /// Creates a pool of `threads` total stripes (clamped to at least 1);
    /// `threads - 1` worker threads are spawned immediately and parked.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        // Spinning only pays when each stripe can hold a core; on an
        // oversubscribed host the waiter's best move is to give the CPU
        // back immediately so the threads that hold shards can run.
        let oversubscribed = cores < threads;
        let inner = Arc::new(Inner {
            spin_limit: if oversubscribed { 0 } else { SPIN_LIMIT },
            yield_limit: if oversubscribed { 0 } else { YIELD_LIMIT },
            gen: AtomicU64::new(0),
            remaining: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            job: Mutex::new(Job::empty()),
            cv: Condvar::new(),
        });
        let handles = (0..threads - 1)
            .map(|stripe| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("rmb-shard-{stripe}"))
                    .spawn(move || worker_loop(&inner, stripe, threads))
                    .expect("spawn shard worker")
            })
            .collect();
        ShardPool {
            inner,
            handles,
            threads,
        }
    }

    /// Total stripes (worker threads plus the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every shard, striped across the pool, and returns
    /// once all shards are done. `f(i, shard)` must depend only on `i`
    /// and the shard itself — shards are advanced concurrently and may
    /// not observe each other. Takes `&mut self` so that at most one
    /// window is ever in flight per pool; this exclusivity is part of
    /// the safety argument (see module docs), not just an API nicety.
    ///
    /// # Panics
    ///
    /// Propagates any panic raised by `f` — the caller's own panic
    /// payload if `f` panicked on the calling thread, otherwise a fresh
    /// panic for a worker-thread panic. Either way the propagation
    /// happens only after every worker finished the window, so the
    /// shard slice and closure are no longer referenced by any thread.
    pub fn run_shards<T, F>(&mut self, shards: &mut [&mut T], f: &F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        if self.handles.is_empty() || shards.len() <= 1 {
            for (i, shard) in shards.iter_mut().enumerate() {
                f(i, shard);
            }
            return;
        }

        #[allow(unsafe_code)]
        unsafe fn call_one<T, F: Fn(usize, &mut T)>(ctx: *const (), base: *mut (), i: usize) {
            // SAFETY: `ctx` is the `&F` and `base` the slice base pointer
            // published by the `run_shards` frame currently blocked on
            // this window; `i` is inside the published `len` and visited
            // by exactly one thread (striping).
            let f = unsafe { &*(ctx.cast::<F>()) };
            let slot = unsafe { &mut *base.cast::<&mut T>().add(i) };
            f(i, slot);
        }

        let base = shards.as_mut_ptr();
        let len = shards.len();
        let job = Job {
            shards: base.cast(),
            len,
            ctx: (f as *const F).cast(),
            call: call_one::<T, F>,
        };
        self.inner.remaining.store(self.handles.len(), Ordering::Release);
        {
            let mut slot = self.inner.job.lock().expect("shard pool poisoned");
            *slot = job;
            // The bump happens under the lock so a worker checking the
            // generation before parking cannot miss the notification.
            self.inner.gen.fetch_add(1, Ordering::Release);
            self.inner.cv.notify_all();
        }

        // The caller is the last stripe — work instead of waiting. The
        // stripe runs under catch_unwind because an unwind past the
        // join below would let the caller free the shard slice while
        // workers still dereference the published pointers; the panic
        // is re-raised only after every worker has decremented
        // `remaining`.
        let caller = catch_unwind(AssertUnwindSafe(|| {
            let mut i = self.threads - 1;
            while i < len {
                // SAFETY: same contract as the workers'; this stripe is
                // disjoint from every worker stripe.
                #[allow(unsafe_code)]
                unsafe {
                    call_one::<T, F>(job.ctx, job.shards, i);
                }
                i += self.threads;
            }
        }));

        let mut spins = 0u32;
        while self.inner.remaining.load(Ordering::Acquire) != 0 {
            spins += 1;
            if spins < self.inner.spin_limit {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // The window is fully joined: no thread holds the job pointers
        // any more, so unwinding is safe from here on. A caller-stripe
        // panic wins over a concurrent worker panic (its payload is the
        // original one); the flag is cleared either way so it cannot
        // leak into the next window.
        let worker_panicked = self.inner.panicked.swap(false, Ordering::AcqRel);
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
        if worker_panicked {
            panic!("a shard worker panicked during the window");
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        {
            let _slot = self.inner.job.lock().expect("shard pool poisoned");
            self.inner.gen.fetch_add(1, Ordering::Release);
            self.inner.cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner, stripe: usize, stripes: usize) {
    let mut seen = 0u64;
    loop {
        // Wait for a new generation: spin, then yield, then park.
        let mut spins = 0u32;
        loop {
            let g = inner.gen.load(Ordering::Acquire);
            if g != seen {
                seen = g;
                break;
            }
            spins += 1;
            if spins < inner.spin_limit {
                std::hint::spin_loop();
            } else if spins < inner.yield_limit {
                std::thread::yield_now();
            } else {
                let guard = inner.job.lock().expect("shard pool poisoned");
                if inner.gen.load(Ordering::Acquire) == seen {
                    // Re-checked under the lock that publishes bumps, so
                    // this wait cannot miss one; spurious wakeups just
                    // re-enter the outer check.
                    drop(inner.cv.wait(guard).expect("shard pool poisoned"));
                }
                spins = 0;
            }
        }
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        let job = *inner.job.lock().expect("shard pool poisoned");
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut i = stripe;
            while i < job.len {
                // SAFETY: published job pointers are live until every
                // worker decrements `remaining` below; stripe indices are
                // disjoint across threads (see module docs).
                #[allow(unsafe_code)]
                unsafe {
                    (job.call)(job.ctx, job.shards, i);
                }
                i += stripes;
            }
        }));
        if result.is_err() {
            inner.panicked.store(true, Ordering::Release);
        }
        inner.remaining.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applies_to_every_shard_with_its_index() {
        let mut pool = ShardPool::new(4);
        let mut data = vec![0usize; 37];
        let mut shards: Vec<&mut usize> = data.iter_mut().collect();
        pool.run_shards(&mut shards, &|i, v| *v = i * i);
        drop(shards);
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn reusable_across_many_windows() {
        // The hierarchy runs one window per simulated tick; the pool must
        // stay correct over long window sequences, including stretches
        // long enough for workers to fall back to parking.
        let mut pool = ShardPool::new(3);
        let mut data = [0u64; 8];
        let mut shards: Vec<&mut u64> = data.iter_mut().collect();
        for w in 0..5_000u64 {
            pool.run_shards(&mut shards, &|i, v| *v += w + i as u64);
        }
        drop(shards);
        let base: u64 = (0..5_000).sum();
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, base + 5_000 * i as u64);
        }
    }

    #[test]
    fn single_thread_pool_runs_in_order() {
        let mut pool = ShardPool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut log = vec![0usize; 5];
        let mut shards: Vec<&mut usize> = log.iter_mut().collect();
        let counter = AtomicUsize::new(0);
        pool.run_shards(&mut shards, &|_, v| {
            *v = counter.fetch_add(1, Ordering::Relaxed);
        });
        drop(shards);
        assert_eq!(log, vec![0, 1, 2, 3, 4], "in-order like a plain loop");
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let mut pool = ShardPool::new(0);
        assert_eq!(pool.threads(), 1);
        let mut data = [1u32, 2];
        let mut shards: Vec<&mut u32> = data.iter_mut().collect();
        pool.run_shards(&mut shards, &|_, v| *v *= 10);
        drop(shards);
        assert_eq!(data, [10, 20]);
    }

    #[test]
    fn more_threads_than_shards() {
        let mut pool = ShardPool::new(8);
        let mut data = vec![0u8; 3];
        let mut shards: Vec<&mut u8> = data.iter_mut().collect();
        pool.run_shards(&mut shards, &|i, v| *v = i as u8 + 1);
        drop(shards);
        assert_eq!(data, vec![1, 2, 3]);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives_drop() {
        let mut pool = ShardPool::new(4);
        let mut data = [0u32; 16];
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut shards: Vec<&mut u32> = data.iter_mut().collect();
            pool.run_shards(&mut shards, &|i, _| {
                // Index 1 lives on a worker stripe (caller takes stripe
                // `threads - 1` = 3, then 7, 11, …).
                assert!(i != 1, "boom");
            });
        }));
        assert!(r.is_err(), "worker panic must propagate to the caller");
        drop(pool); // workers must still join cleanly
    }

    #[test]
    fn caller_stripe_panic_joins_workers_before_unwinding() {
        let mut pool = ShardPool::new(4);
        let mut data = [0u32; 16];
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut shards: Vec<&mut u32> = data.iter_mut().collect();
            pool.run_shards(&mut shards, &|i, v| {
                *v = i as u32 + 1;
                // Index 3 is the caller's first stripe index
                // (`threads - 1`), so this panic unwinds the
                // coordinating thread, not a worker.
                assert!(i != 3, "boom on caller stripe");
            });
        }));
        assert!(r.is_err(), "caller panic must still propagate");
        // The join completed before the unwind: every worker-stripe
        // index was written even though the caller stripe died early.
        for (i, v) in data.iter().enumerate() {
            if i % 4 != 3 {
                assert_eq!(*v, i as u32 + 1, "worker stripe {i} unfinished");
            }
        }
        // And the pool is still healthy for subsequent windows.
        let mut shards: Vec<&mut u32> = data.iter_mut().collect();
        pool.run_shards(&mut shards, &|i, v| *v = 100 + i as u32);
        drop(shards);
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, 100 + i as u32);
        }
        drop(pool);
    }
}
