//! Simulation substrate for the RMB reproduction.
//!
//! The RMB paper's protocols are asynchronous hardware; every executable
//! model in this workspace runs them over a deterministic discrete-time
//! substrate provided here:
//!
//! * [`Tick`] — the simulation clock, a newtype over `u64`.
//! * [`EventQueue`] — a stable discrete-event queue (FIFO among events
//!   due at the same tick) over a binary heap, with an exact O(1) peek,
//!   used by the event-driven protocol scheduler and the serving driver.
//! * [`ring_prev_word`] and [`ring_next_word`] — a word of a whole-ring
//!   lane read one position back or on, across the wrap: how the
//!   bit-parallel compaction kernel lines each hop up with its
//!   neighbours.
//! * [`SimRng`] — seeded, stream-splittable randomness so that every
//!   experiment is reproducible from a single seed.
//! * [`QuantileSketch`] — a CKMS targeted-quantiles summary for online
//!   p50/p99/p999 tracking without per-sample retention, used by the
//!   open-loop serving driver.
//! * [`stats`] — online moments and histograms used by every report in
//!   EXPERIMENTS.md.
//! * [`trace`] — structured event tracing used to regenerate the paper's
//!   protocol figures.
//!
//! # Examples
//!
//! ```
//! use rmb_sim::{EventQueue, Tick};
//!
//! let mut q = EventQueue::new();
//! q.schedule(Tick::new(5), "b");
//! q.schedule(Tick::new(2), "a");
//! q.schedule(Tick::new(5), "c"); // same tick: FIFO among equals
//! let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
//! assert_eq!(order, vec!["a", "b", "c"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod clock;
pub mod par;
mod queue;
mod rng;
mod sketch;
pub mod stats;
pub mod trace;

pub use bitset::{ring_next_word, ring_prev_word};
pub use clock::Tick;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use sketch::QuantileSketch;
