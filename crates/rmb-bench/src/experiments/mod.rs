//! The measured experiments of the reproduction (see DESIGN.md §4).
//!
//! Every function here is deterministic given its seed, returns a
//! structured result, and renders to the text tables recorded in
//! EXPERIMENTS.md.

mod ablation;
mod compare;
mod competitive;
mod deadlock;
mod extensions;
mod fault_tolerance;
mod hier_scaling;
mod hier_throughput;
mod lemma1;
mod load;
mod open_loop;
mod permutation;
mod scaling;
mod theorem1;

pub use ablation::{ablation_suite, ablation_table, AblationResult};
pub use compare::{comparison_table, cross_check_table, Metric};
pub use competitive::{competitiveness, competitiveness_table, CompetitivenessRow};
pub use deadlock::{deadlock_study, DeadlockResult};
pub use extensions::{
    grid_experiment, grid_table, hotspot_experiment, hotspot_table, multi_send_experiment,
    multi_send_table, multicast_experiment, multicast_table, wire_delay_experiment,
    wire_delay_table, GridRow, HotspotRow, MultiSendRow, MulticastRow, WireDelayRow,
};
pub use fault_tolerance::{fault_tolerance_experiment, fault_tolerance_table, FaultToleranceRow};
pub use hier_scaling::{hier_scaling_experiment, hier_scaling_table, HierScalingRow};
pub use hier_throughput::{hier_throughput_experiment, hier_throughput_table, HierThroughputRow};
pub use lemma1::{lemma1_experiment, Lemma1Result};
pub use load::{load_sweep, load_table, LoadPoint};
pub use open_loop::{
    open_loop_experiment, open_loop_soak, open_loop_table, soak_table, OpenLoopRow, SoakRow,
};
pub use permutation::{permutation_comparison, permutation_table, PermutationRow};
pub use scaling::{scaling_experiment, scaling_table, ScalingRow};
pub use theorem1::{theorem1_experiment, Theorem1Result};
