//! Checker mirrors: the redundancy that makes catch-and-punish possible.
//!
//! A checker of principal `P` maintains:
//!
//! * a **recomputed mirror** — an [`FpssCore`] with `me = P`, fed by the
//!   checker's own messages to `P` and by forwarded copies of what `P`
//!   received from its other neighbors (\[PRINC1\]/\[PRINC2\]); running the
//!   same pure recompute functions as `P` itself should;
//! * the **announced tables** — what `P` actually announced to this
//!   checker, accumulated row by row;
//! * execution-phase **flow counters** — packets handed to and received
//!   from `P`, keyed by `(src, dst)`.
//!
//! At checkpoint time the bank compares, for each principal: `P`'s own
//! hash, every checker's announced-table hash, and every checker's
//! recomputed-mirror hash. Any lie — miscomputation, selective
//! announcements, dropped or tampered forwards, spoofed inputs — breaks at
//! least one of those equalities (tested exhaustively in the harness).

use specfaith_core::id::NodeId;
use specfaith_core::money::Cost;
use specfaith_fpss::msg::{FpssMsg, PriceRow, RouteRow};
use specfaith_fpss::node::FpssCore;
use specfaith_fpss::state::{PriceEntry, PricingTable, RoutingTable};
use std::collections::BTreeMap;

/// A checker's complete view of one principal.
#[derive(Clone, Debug)]
pub struct Mirror {
    /// Who is being checked.
    principal: NodeId,
    /// This checker's own id.
    checker: NodeId,
    /// The recomputed mirror core (me = principal).
    core: FpssCore,
    /// The principal's routing table as announced to this checker.
    announced_routing: RoutingTable,
    /// The principal's pricing table as announced (with tags).
    announced_pricing: PricingTable,
    /// Packets this checker handed to the principal, per `(src, dst)`.
    sent_to: BTreeMap<(NodeId, NodeId), u64>,
    /// Packets this checker received from the principal, per `(src, dst)`.
    recv_from: BTreeMap<(NodeId, NodeId), u64>,
}

impl Mirror {
    /// Creates a mirror of `principal` (with its neighbor list, which is
    /// semi-private information shared among its checkers) held by
    /// `checker`.
    pub fn new(checker: NodeId, principal: NodeId, principal_neighbors: Vec<NodeId>) -> Self {
        Mirror {
            principal,
            checker,
            core: FpssCore::new(principal, principal_neighbors),
            announced_routing: RoutingTable::new(),
            announced_pricing: PricingTable::new(),
            sent_to: BTreeMap::new(),
            recv_from: BTreeMap::new(),
        }
    }

    /// The checked principal.
    pub fn principal(&self) -> NodeId {
        self.principal
    }

    /// Feeds a transit-cost declaration (mirrors share the global DATA1).
    pub fn learn_cost(&mut self, origin: NodeId, declared: Cost) {
        self.core.learn_cost(origin, declared);
    }

    /// Overwrites a transit-cost entry from a streamed
    /// [`FpssMsg::CostUpdate`] flood. Construction's first-write-wins
    /// [`Mirror::learn_cost`] would silently drop the new value; the
    /// checker must track the re-declaration or every post-event hash
    /// comparison against its principal would fail.
    pub fn update_cost(&mut self, origin: NodeId, declared: Cost) {
        self.core.update_cost(origin, declared);
    }

    /// Feeds a message this checker itself sent to the principal. Cost
    /// floods reach the mirror through the holder's own
    /// [`Mirror::learn_cost`] / [`Mirror::update_cost`] calls instead.
    pub fn record_own_send(&mut self, msg: &FpssMsg) {
        match msg {
            FpssMsg::Data(pkt) => {
                *self.sent_to.entry((pkt.src, pkt.dst)).or_insert(0) += 1;
            }
            _ => self.core.learn_update(self.checker, msg, |_| {}),
        }
    }

    /// Feeds a forwarded copy: the principal claims to have received
    /// `inner` from `original_from`. Returns `false` when the copy is
    /// rejected:
    ///
    /// * `original_from` is not a neighbor of the principal (it could not
    ///   have sent anything) — the \[CHECK2\] provenance rule;
    /// * `original_from` is this checker itself — the checker trusts its
    ///   own record of what it sent, which is exactly what makes spoofing
    ///   "from" a checker detectable (the victim checker's mirror will
    ///   disagree with the others').
    pub fn feed_forwarded(&mut self, original_from: NodeId, inner: &FpssMsg) -> bool {
        if original_from == self.checker || !self.core.neighbors().contains(&original_from) {
            return false;
        }
        if !matches!(
            inner,
            FpssMsg::RoutingUpdate { .. } | FpssMsg::PricingUpdate { .. }
        ) {
            return false;
        }
        self.core.learn_update(original_from, inner, |_| {});
        true
    }

    /// Records routing rows the principal announced to this checker.
    pub fn record_announced_routing(&mut self, rows: &[RouteRow]) {
        for row in rows {
            if row.path.first() == Some(&self.principal) {
                self.announced_routing.install(row.dst, row.path.clone());
            }
        }
    }

    /// Records pricing rows and retractions the principal announced to
    /// this checker.
    pub fn record_announced_pricing(
        &mut self,
        rows: &[PriceRow],
        retractions: &[(NodeId, NodeId)],
    ) {
        for row in rows {
            self.announced_pricing.insert(
                row.dst,
                row.transit,
                PriceEntry {
                    price: row.price,
                    tags: row.tags.clone(),
                },
            );
        }
        for &(dst, transit) in retractions {
            self.announced_pricing.remove(dst, transit);
        }
    }

    /// Records a packet received from the principal.
    pub fn record_packet_from_principal(&mut self, src: NodeId, dst: NodeId) {
        *self.recv_from.entry((src, dst)).or_insert(0) += 1;
    }

    /// Runs the mirror recomputation, bringing the recomputed tables up to
    /// date with all fed inputs. Called before hashing or reporting.
    pub fn recompute(&mut self) {
        let _ = self.core.recompute();
    }

    /// The recomputed routing table.
    pub fn recomputed_routing(&self) -> &RoutingTable {
        self.core.routes()
    }

    /// The recomputed pricing table.
    pub fn recomputed_pricing(&self) -> &PricingTable {
        self.core.prices()
    }

    /// The announced routing table.
    pub fn announced_routing(&self) -> &RoutingTable {
        &self.announced_routing
    }

    /// The announced pricing table.
    pub fn announced_pricing(&self) -> &PricingTable {
        &self.announced_pricing
    }

    /// The declared cost of the principal, once known from the flood.
    pub fn principal_declared_cost(&self) -> Option<Cost> {
        self.core.data1().declared(self.principal)
    }

    /// Execution-phase flows handed to the principal.
    pub fn flows_sent_to(&self) -> &BTreeMap<(NodeId, NodeId), u64> {
        &self.sent_to
    }

    /// Execution-phase flows received from the principal.
    pub fn flows_recv_from(&self) -> &BTreeMap<(NodeId, NodeId), u64> {
        &self.recv_from
    }

    /// Resets construction state for a phase restart (execution counters
    /// are kept — restarts only happen before execution).
    pub fn reset_construction(&mut self) {
        self.core.reset();
        self.announced_routing = RoutingTable::new();
        self.announced_pricing = PricingTable::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaith_core::money::Money;
    use specfaith_fpss::msg::Packet;
    use specfaith_fpss::tags::TagSet;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// checker 0 mirrors principal 1 whose neighbors are {0, 2}.
    fn mirror() -> Mirror {
        Mirror::new(n(0), n(1), vec![n(0), n(2)])
    }

    #[test]
    fn rejects_forwards_claiming_to_be_from_self() {
        let mut m = mirror();
        let msg = FpssMsg::RoutingUpdate {
            rows: vec![RouteRow {
                dst: n(3),
                path: vec![n(0), n(3)],
            }],
        };
        assert!(!m.feed_forwarded(n(0), &msg), "own-origin copies rejected");
    }

    #[test]
    fn rejects_forwards_from_non_neighbors_of_principal() {
        let mut m = mirror();
        let msg = FpssMsg::RoutingUpdate {
            rows: vec![RouteRow {
                dst: n(3),
                path: vec![n(9), n(3)],
            }],
        };
        assert!(!m.feed_forwarded(n(9), &msg), "9 is not P's neighbor");
    }

    #[test]
    fn accepts_forwards_from_other_checkers() {
        let mut m = mirror();
        let msg = FpssMsg::RoutingUpdate {
            rows: vec![RouteRow {
                dst: n(3),
                path: vec![n(2), n(3)],
            }],
        };
        assert!(m.feed_forwarded(n(2), &msg));
    }

    #[test]
    fn mirror_recomputes_principals_routes() {
        let mut m = mirror();
        for (id, c) in [(0u32, 4), (1, 0), (2, 1), (3, 0)] {
            m.learn_cost(n(id), Cost::new(c));
        }
        // Checker 0 tells P it can reach 3 via [0,3]; neighbor 2 (via a
        // forward) claims [2,3].
        m.record_own_send(&FpssMsg::RoutingUpdate {
            rows: vec![RouteRow {
                dst: n(3),
                path: vec![n(0), n(3)],
            }],
        });
        m.feed_forwarded(
            n(2),
            &FpssMsg::RoutingUpdate {
                rows: vec![RouteRow {
                    dst: n(3),
                    path: vec![n(2), n(3)],
                }],
            },
        );
        m.recompute();
        // P should prefer via 2 (cost 1) over via 0 (cost 4).
        assert_eq!(
            m.recomputed_routing().path(n(3)),
            Some(&[n(1), n(2), n(3)][..])
        );
    }

    #[test]
    fn announced_tables_accumulate() {
        let mut m = mirror();
        m.record_announced_routing(&[RouteRow {
            dst: n(3),
            path: vec![n(1), n(2), n(3)],
        }]);
        // Rows not starting at the principal are ignored (malformed).
        m.record_announced_routing(&[RouteRow {
            dst: n(4),
            path: vec![n(9), n(4)],
        }]);
        assert_eq!(
            m.announced_routing().path(n(3)),
            Some(&[n(1), n(2), n(3)][..])
        );
        assert_eq!(m.announced_routing().path(n(4)), None);

        m.record_announced_pricing(
            &[PriceRow {
                dst: n(3),
                transit: n(2),
                price: Money::new(5),
                tags: TagSet::new(),
            }],
            &[],
        );
        assert_eq!(m.announced_pricing().price(n(3), n(2)), Some(Money::new(5)));
        // A retraction removes the announced entry.
        m.record_announced_pricing(&[], &[(n(3), n(2))]);
        assert_eq!(m.announced_pricing().price(n(3), n(2)), None);
    }

    #[test]
    fn flow_counters_track_packets() {
        let mut m = mirror();
        m.record_own_send(&FpssMsg::Data(Packet {
            src: n(0),
            dst: n(3),
            hops: 0,
        }));
        m.record_own_send(&FpssMsg::Data(Packet {
            src: n(0),
            dst: n(3),
            hops: 0,
        }));
        m.record_packet_from_principal(n(2), n(0));
        assert_eq!(m.flows_sent_to().get(&(n(0), n(3))), Some(&2));
        assert_eq!(m.flows_recv_from().get(&(n(2), n(0))), Some(&1));
    }

    #[test]
    fn reset_clears_construction_but_keeps_flows() {
        let mut m = mirror();
        m.learn_cost(n(2), Cost::new(1));
        m.record_announced_routing(&[RouteRow {
            dst: n(3),
            path: vec![n(1), n(3)],
        }]);
        m.record_packet_from_principal(n(2), n(0));
        m.reset_construction();
        assert!(m.announced_routing().is_empty());
        assert_eq!(m.principal_declared_cost(), None);
        assert_eq!(m.flows_recv_from().len(), 1);
    }
}
