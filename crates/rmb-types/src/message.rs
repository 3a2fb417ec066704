//! Message descriptors used by workloads and simulators.

use crate::ids::{NodeId, RequestId};
use std::fmt;

/// A message a PE wants to send: the unit of work fed to every simulator in
/// the workspace (RMB and baselines alike).
///
/// # Examples
///
/// ```
/// use rmb_types::{MessageSpec, NodeId};
/// let m = MessageSpec::new(NodeId::new(0), NodeId::new(3), 16).at(100);
/// assert_eq!(m.data_flits, 16);
/// assert_eq!(m.inject_at, 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MessageSpec {
    /// Originating node.
    pub source: NodeId,
    /// Destination node. Must differ from `source`.
    pub destination: NodeId,
    /// Number of data flits in the message body (the header and final flits
    /// are accounted for separately by each simulator).
    pub data_flits: u32,
    /// Simulation tick at which the PE first asks its INC for a connection.
    pub inject_at: u64,
}

impl MessageSpec {
    /// Creates a message injected at tick 0.
    pub const fn new(source: NodeId, destination: NodeId, data_flits: u32) -> Self {
        MessageSpec {
            source,
            destination,
            data_flits,
            inject_at: 0,
        }
    }

    /// Returns a copy scheduled for injection at `tick`.
    pub const fn at(mut self, tick: u64) -> Self {
        self.inject_at = tick;
        self
    }
}

impl fmt::Display for MessageSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}->{} ({} DFs @t{})",
            self.source, self.destination, self.data_flits, self.inject_at
        )
    }
}

/// Completion record for a delivered message, as reported by a simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeliveredMessage {
    /// The request that carried the message.
    pub request: RequestId,
    /// The original specification.
    pub spec: MessageSpec,
    /// Tick at which the PE asked for the connection.
    pub requested_at: u64,
    /// Tick at which the circuit was acknowledged (`Hack` back at source).
    pub circuit_at: u64,
    /// Tick at which the final flit arrived at the destination.
    pub delivered_at: u64,
    /// Number of `Nack` refusals suffered before this delivery.
    pub refusals: u32,
}

impl DeliveredMessage {
    /// End-to-end latency in ticks, from request to last flit delivered.
    pub const fn latency(&self) -> u64 {
        self.delivered_at.saturating_sub(self.requested_at)
    }

    /// Circuit set-up time in ticks (request until `Hack` returns).
    pub const fn setup_latency(&self) -> u64 {
        self.circuit_at.saturating_sub(self.requested_at)
    }
}

/// Terminal record for a message that was given up on: either refused at
/// the source while its path was fault-blocked, or torn down after its
/// retry budget ran out. Mirrors [`DeliveredMessage`] for the failure
/// path so compositions (bridged rings, scripted drivers) can account
/// for every request without scraping the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AbortedMessage {
    /// The request that carried the message.
    pub request: RequestId,
    /// The original specification.
    pub spec: MessageSpec,
    /// Tick at which the engine recorded the abort.
    pub aborted_at: u64,
    /// Number of `Nack` refusals suffered before the abort.
    pub refusals: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builders() {
        let m = MessageSpec::new(NodeId::new(1), NodeId::new(2), 8).at(5);
        assert_eq!(m.inject_at, 5);
        assert_eq!(m.to_string(), "n1->n2 (8 DFs @t5)");
    }

    #[test]
    fn delivered_latencies() {
        let d = DeliveredMessage {
            request: RequestId::new(1),
            spec: MessageSpec::new(NodeId::new(0), NodeId::new(1), 4),
            requested_at: 10,
            circuit_at: 25,
            delivered_at: 40,
            refusals: 2,
        };
        assert_eq!(d.latency(), 30);
        assert_eq!(d.setup_latency(), 15);
    }
}
