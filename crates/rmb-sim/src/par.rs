//! Deterministic fork/join parallelism for experiment sweeps.
//!
//! Experiment grids are embarrassingly parallel: every (N, k, load, seed)
//! cell runs an independent simulator. [`par_map`] fans the cells out over
//! scoped worker threads and collects results **by input index**, so the
//! output order — and therefore any serialized report — is byte-identical
//! to a sequential map regardless of thread scheduling. Determinism rules:
//!
//! 1. every cell derives its randomness from its own seed (no shared RNG),
//! 2. results are written to the slot of the cell's input index,
//! 3. no cell reads another cell's output.
//!
//! Worker count is the host's available parallelism and can be pinned
//! with the `RMB_THREADS` environment variable (`RMB_THREADS=1` forces a
//! sequential in-order run, useful for A/B determinism checks).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads a sweep will use.
fn available_parallelism() -> usize {
    if let Ok(v) = std::env::var("RMB_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on `threads` scoped workers, preserving input
/// order in the output.
///
/// With `threads <= 1` this is exactly `items.iter().map(f).collect()`,
/// including evaluation order.
///
/// # Panics
///
/// Propagates the first worker panic.
fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let workers = threads.min(items.len());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was processed")
        })
        .collect()
}

/// Maps `f` over `items` on one scoped worker per available core (or
/// `RMB_THREADS` workers), preserving input order in the output.
///
/// # Panics
///
/// Propagates the first worker panic.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(available_parallelism(), items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map_with(8, &items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_map_exactly() {
        let items: Vec<u64> = (0..37).collect();
        let serial = par_map_with(1, &items, |&x| x.wrapping_mul(0x9e3779b97f4a7c15));
        let parallel = par_map_with(4, &items, |&x| x.wrapping_mul(0x9e3779b97f4a7c15));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_with(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map_with(4, &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..8).collect();
        let _ = par_map_with(4, &items, |&x| {
            if x == 5 {
                panic!("boom");
            }
            x
        });
    }
}
