//! Error types shared across the workspace.
//!
//! Both enums implement [`std::error::Error`] and a lowercase, period-free
//! [`Display`](std::fmt::Display) style so they compose cleanly under
//! `anyhow`-like wrappers ("while submitting: node n9 is outside the
//! ring"). [`ProtocolError`] variants carry structured context — the
//! node, address, leg or request involved — so callers can react
//! programmatically instead of parsing messages.

use crate::hier::{HierLeg, NodeAddr};
use crate::ids::{NodeId, RequestId};
use std::error::Error;
use std::fmt;

/// Errors raised while validating a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The ring needs at least two nodes; got the stated count.
    RingTooSmall(u32),
    /// The multiple bus system needs at least one bus segment.
    NoBuses,
    /// `max_concurrent_sends` must be at least one.
    NoSendSlots,
    /// `max_concurrent_receives` must be at least one.
    NoReceiveSlots,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::RingTooSmall(n) => {
                write!(f, "ring needs at least 2 nodes, got {n}")
            }
            ConfigError::NoBuses => f.write_str("bus count k must be at least 1"),
            ConfigError::NoSendSlots => f.write_str("max_concurrent_sends must be at least 1"),
            ConfigError::NoReceiveSlots => {
                f.write_str("max_concurrent_receives must be at least 1")
            }
        }
    }
}

impl Error for ConfigError {}

/// Errors raised by protocol engines when asked to do something invalid.
///
/// Every variant is a struct with named fields recording the context the
/// engine had at hand: the node, address, leg or request involved. The
/// constructor shorthands ([`ProtocolError::unknown_node`] and friends)
/// build values tersely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// A node identifier lies outside the ring.
    UnknownNode {
        /// The out-of-range node.
        node: NodeId,
    },
    /// A message names the same node as source and destination; the ring
    /// RMB only carries traffic between distinct nodes.
    SelfMessage {
        /// The node talking to itself.
        node: NodeId,
    },
    /// A hierarchical endpoint lies outside the network's address space,
    /// or names a bridge position (bridges host no PE).
    UnknownAddress {
        /// The rejected address.
        addr: NodeAddr,
    },
    /// One leg of a hierarchical route aborted permanently (its ring's
    /// retry budget was exhausted), taking the end-to-end message with it.
    LegAborted {
        /// Which leg of the route failed.
        leg: HierLeg,
        /// The local ring the leg ran on; `None` for the global ring.
        ring: Option<u32>,
        /// The end-to-end hierarchical request.
        request: RequestId,
    },
}

impl ProtocolError {
    /// A node outside the ring.
    pub fn unknown_node(node: NodeId) -> Self {
        ProtocolError::UnknownNode { node }
    }

    /// A self-addressed message.
    pub fn self_message(node: NodeId) -> Self {
        ProtocolError::SelfMessage { node }
    }

    /// A bad hierarchical endpoint.
    pub fn unknown_address(addr: NodeAddr) -> Self {
        ProtocolError::UnknownAddress { addr }
    }

    /// A permanently failed leg of a hierarchical route.
    pub fn leg_aborted(leg: HierLeg, ring: Option<u32>, request: RequestId) -> Self {
        ProtocolError::LegAborted { leg, ring, request }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::UnknownNode { node } => write!(f, "node {node} is outside the ring"),
            ProtocolError::SelfMessage { node } => {
                write!(f, "message from {node} to itself is not routable")
            }
            ProtocolError::UnknownAddress { addr } => {
                write!(
                    f,
                    "address {addr} is outside the hierarchy or names a bridge"
                )
            }
            ProtocolError::LegAborted { leg, ring, request } => {
                write!(f, "{leg} leg")?;
                if let Some(r) = ring {
                    write!(f, " on ring {r}")?;
                }
                write!(f, " aborted for {request}")
            }
        }
    }
}

impl Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_lowercase_and_informative() {
        let msgs = [
            ConfigError::RingTooSmall(1).to_string(),
            ConfigError::NoBuses.to_string(),
            ConfigError::NoSendSlots.to_string(),
            ConfigError::NoReceiveSlots.to_string(),
            ProtocolError::unknown_node(NodeId::new(9)).to_string(),
            ProtocolError::self_message(NodeId::new(1)).to_string(),
            ProtocolError::unknown_address(NodeAddr::new(2, NodeId::new(0))).to_string(),
            ProtocolError::leg_aborted(HierLeg::Global, None, RequestId::new(7)).to_string(),
            ProtocolError::leg_aborted(HierLeg::SourceLocal, Some(3), RequestId::new(7))
                .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase());
            assert!(!m.ends_with('.'));
        }
    }

    #[test]
    fn context_is_carried_and_queryable() {
        let e = ProtocolError::unknown_node(NodeId::new(9));
        assert_eq!(
            e,
            ProtocolError::UnknownNode {
                node: NodeId::new(9)
            }
        );
        assert!(e.to_string().contains("n9"));

        let e = ProtocolError::leg_aborted(HierLeg::DestLocal, Some(1), RequestId::new(9));
        assert!(matches!(
            e,
            ProtocolError::LegAborted { leg: HierLeg::DestLocal, ring: Some(1), request }
                if request == RequestId::new(9)
        ));
        assert!(e.to_string().contains("dest-local leg on ring 1"));
        assert!(e.to_string().ends_with("aborted for r9"));

        let e = ProtocolError::unknown_address(NodeAddr::new(0, NodeId::new(3)));
        assert!(matches!(e, ProtocolError::UnknownAddress { addr } if addr.node == NodeId::new(3)));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<ConfigError>();
        assert_err::<ProtocolError>();
        assert_err::<crate::fault::FaultPlanError>();
    }
}
