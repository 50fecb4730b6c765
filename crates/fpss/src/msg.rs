//! FPSS protocol messages.
//!
//! # Wire-size contract
//!
//! Every message type's [`Payload::size_bytes`] is a **frozen** formula:
//! the network models in `specfaith-netsim` turn these byte counts into
//! serialization delays, fair-share contention, and per-run byte totals,
//! and those totals are pinned by the byte-identical golden tests in
//! `tests/network_models.rs`. Changing any formula below is a
//! reproducibility break, not a refactor — it must come with refreshed
//! goldens and a changelog entry. The formulas count 4 bytes per node id,
//! 8 per money amount / table key, plus a fixed header per enum variant:
//!
//! | Message | Bytes |
//! |---|---|
//! | `RouteRow` | `4 + 4·path.len()` |
//! | `PriceRow` | `4 + 4 + 8 + 4·tags.len()` |
//! | `Packet` | `12` |
//! | `CostAnnounce` | `12` |
//! | `CostUpdate` | `20` |
//! | `RoutingUpdate` | `8 + Σ rows` |
//! | `PricingUpdate` | `8 + Σ rows + 8·retractions.len()` |
//! | `Data` | inner `Packet` |

use crate::tags::TagSet;
use specfaith_core::id::NodeId;
use specfaith_core::money::{Cost, Money};
use specfaith_netsim::Payload;

/// One row of a routing announcement: "my current lowest-cost path to
/// `dst` is `path`".
///
/// Rows deliberately carry **no cost field**: receivers recompute the cost
/// from their transit-cost list (DATA1) over the path's nodes, which is the
/// \[CHECK1\] verification built into the update rule itself. A node can
/// still lie about the *path* (claiming adjacency it does not have —
/// semi-private information), which is exactly manipulation 2 of §4.3.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteRow {
    /// Destination this row routes toward.
    pub dst: NodeId,
    /// Claimed path, starting at the announcing node and ending at `dst`.
    pub path: Vec<NodeId>,
}

impl Payload for RouteRow {
    fn size_bytes(&self) -> usize {
        4 + 4 * self.path.len()
    }
}

/// One row of a pricing announcement: "the per-packet payment I would owe
/// transit `transit` for traffic to `dst` is `price`", plus the DATA3*
/// identity tags naming the neighbor(s) whose information produced the
/// entry (union on ties).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PriceRow {
    /// Traffic destination.
    pub dst: NodeId,
    /// The transit node being priced.
    pub transit: NodeId,
    /// VCG per-packet payment.
    pub price: Money,
    /// Identity tags: the neighbors that triggered/support this entry.
    pub tags: TagSet,
}

impl Payload for PriceRow {
    fn size_bytes(&self) -> usize {
        4 + 4 + 8 + 4 * self.tags.len()
    }
}

/// A routed data packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Originating node.
    pub src: NodeId,
    /// Final destination.
    pub dst: NodeId,
    /// Hop counter (TTL-style safety against forwarding loops).
    pub hops: u32,
}

impl Payload for Packet {
    fn size_bytes(&self) -> usize {
        12
    }
}

/// Messages of the plain FPSS protocol.
#[derive(Clone, Debug)]
pub enum FpssMsg {
    /// Construction phase 1: flooded declaration of a node's transit cost.
    CostAnnounce {
        /// The node whose cost is declared.
        origin: NodeId,
        /// The declared (not necessarily true) cost.
        declared: Cost,
    },
    /// Streaming mode: flooded *re*-declaration of a node's transit cost.
    /// Unlike [`FpssMsg::CostAnnounce`] (first-write-wins, assumes a static
    /// network), receivers overwrite on a strictly newer `epoch` and
    /// re-flood; stale or duplicate epochs are dropped, which terminates
    /// the flood exactly like the duplicate suppression of phase 1.
    CostUpdate {
        /// The node whose cost is re-declared.
        origin: NodeId,
        /// The new declared cost.
        declared: Cost,
        /// Per-origin monotone epoch (starts at 1 for the first update).
        epoch: u64,
    },
    /// Construction phase 2: changed routing rows.
    RoutingUpdate {
        /// The changed rows.
        rows: Vec<RouteRow>,
    },
    /// Construction phase 2: changed pricing rows, plus retractions of
    /// `(dst, transit)` entries that left the table (a transit node drops
    /// off a route when a better path is found mid-convergence).
    PricingUpdate {
        /// The changed rows.
        rows: Vec<PriceRow>,
        /// Entries removed from the announcer's table.
        retractions: Vec<(NodeId, NodeId)>,
    },
    /// Execution phase: a routed packet.
    Data(Packet),
}

impl Payload for FpssMsg {
    fn size_bytes(&self) -> usize {
        match self {
            FpssMsg::CostAnnounce { .. } => 12,
            FpssMsg::CostUpdate { .. } => 20,
            FpssMsg::RoutingUpdate { rows } => {
                8 + rows.iter().map(Payload::size_bytes).sum::<usize>()
            }
            FpssMsg::PricingUpdate { rows, retractions } => {
                8 + rows.iter().map(Payload::size_bytes).sum::<usize>() + 8 * retractions.len()
            }
            FpssMsg::Data(p) => p.size_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn sizes_scale_with_content() {
        let row = RouteRow {
            dst: n(1),
            path: vec![n(0), n(2), n(1)],
        };
        assert_eq!(row.size_bytes(), 16);
        let msg = FpssMsg::RoutingUpdate {
            rows: vec![row.clone(), row],
        };
        assert_eq!(msg.size_bytes(), 8 + 32);
    }

    #[test]
    fn price_row_counts_tags() {
        let row = PriceRow {
            dst: n(1),
            transit: n(2),
            price: Money::new(5),
            tags: [n(0), n(3)].into_iter().collect(),
        };
        assert_eq!(row.size_bytes(), 16 + 8);
    }

    #[test]
    fn packet_is_fixed_size() {
        let p = Packet {
            src: n(0),
            dst: n(1),
            hops: 3,
        };
        assert_eq!(FpssMsg::Data(p).size_bytes(), 12);
    }

    /// Pins every variant's wire-size formula (see the module docs): the
    /// network models convert these into delays and contention, and the
    /// golden byte totals in `tests/network_models.rs` depend on them.
    #[test]
    fn wire_sizes_are_frozen() {
        assert_eq!(
            FpssMsg::CostAnnounce {
                origin: n(3),
                declared: Cost::new(7),
            }
            .size_bytes(),
            12
        );
        assert_eq!(
            FpssMsg::CostUpdate {
                origin: n(3),
                declared: Cost::new(7),
                epoch: 1,
            }
            .size_bytes(),
            20
        );
        let empty_path = RouteRow {
            dst: n(1),
            path: Vec::new(),
        };
        assert_eq!(empty_path.size_bytes(), 4);
        assert_eq!(FpssMsg::RoutingUpdate { rows: Vec::new() }.size_bytes(), 8);
        let bare_price = PriceRow {
            dst: n(1),
            transit: n(2),
            price: Money::new(0),
            tags: TagSet::new(),
        };
        assert_eq!(bare_price.size_bytes(), 16);
        assert_eq!(
            FpssMsg::PricingUpdate {
                rows: vec![bare_price],
                retractions: vec![(n(1), n(2)), (n(3), n(4))],
            }
            .size_bytes(),
            8 + 16 + 16
        );
    }
}
