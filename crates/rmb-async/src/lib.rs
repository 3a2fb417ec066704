//! A threaded RMB: every INC runs on its own OS thread.
//!
//! The paper's §2.5 assumes "individual INCs operate off independent
//! clocks and the timing of communications on the virtual buses is
//! entirely independent of these clocks". The tick simulator in
//! `rmb-core` *models* that; this crate *executes* it: one OS thread per
//! INC, no global clock, neighbours coordinating only through the
//! five-rule odd/even cycle handshake (Table 2, Fig. 9–10) over shared
//! atomics.
//!
//! Two layers:
//!
//! * [`ThreadedCycleRing`] — the synchronisation layer alone: N threads
//!   run their cycle controllers at deliberately different speeds and the
//!   harness verifies Lemma 1 (neighbouring transition counts never differ
//!   by more than one) *at every transition*, under true preemption.
//! * [`ThreadedCompactor`] — the compaction layer: N INC threads compact
//!   a shared set of established virtual buses downwards, each thread
//!   deciding only the moves of its own output side, in its own local
//!   phase. The result must equal the fixpoint the synchronous simulator
//!   reaches: every bus on the lowest segments reachable under the ±1
//!   switching constraint.
//!
//! # Examples
//!
//! ```
//! use rmb_async::ThreadedCycleRing;
//!
//! let stats = ThreadedCycleRing::new(4).min_transitions(50).run();
//! assert!(stats.lemma1_held);
//! assert!(stats.transitions.iter().all(|&t| t >= 50));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compactor;
mod cycle_ring;

pub use compactor::{CompactionResult, StaticBus, ThreadedCompactor};
pub use cycle_ring::{CycleRunStats, ThreadedCycleRing};
