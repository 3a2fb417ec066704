//! Workload generation for the RMB reproduction.
//!
//! The paper frames its whole comparison (§3) around *k-permutations*:
//! sets of messages in which every node sends at most one message and
//! receives at most one message. This crate provides the classic
//! permutation families of the era, arrival processes for open-loop load
//! sweeps, and message-size distributions — everything the experiment
//! harness feeds to the RMB simulator and the baseline networks.
//!
//! # Examples
//!
//! ```
//! use rmb_workloads::{Permutation, PermutationKind};
//! use rmb_sim::SimRng;
//!
//! let mut rng = SimRng::seed(7);
//! let p = Permutation::generate(PermutationKind::BitReversal, 8, &mut rng);
//! assert_eq!(p.apply(1), 4); // 001 reversed over 3 bits = 100
//! assert!(p.is_permutation());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrival;
mod collective;
mod faults;
mod locality;
mod permutation;
mod sizes;
mod suite;
mod trace;

pub use arrival::{ArrivalStream, BernoulliArrivals, BurstyStream, PoissonStream};
pub use collective::{all_to_all, nearest_neighbour, ExchangeStream};
pub use faults::FaultScenario;
pub use locality::LocalityTraffic;
pub use permutation::{Permutation, PermutationKind};
pub use sizes::SizeDistribution;
pub use suite::{WorkloadConfig, WorkloadSuite};
pub use trace::{canonical_trace_order, decode_trace, encode_trace};
