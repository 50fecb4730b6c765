//! The rational-deviation surface and the deviation library (§4.3).
//!
//! Every externally visible action of a node passes through its
//! [`RationalStrategy`]: declaring a cost (information revelation),
//! announcing routing/pricing rows and reporting payments (computation),
//! forwarding copies to checkers and forwarding packets (message passing).
//! The [`Faithful`] strategy is the identity everywhere; each deviation
//! overrides exactly the hooks named by its
//! [`DeviationSpec`] surface, which is how strong-CC and strong-AC are
//! tested *as defined* — deviations may combine arbitrary behavior within
//! their declared surface.
//!
//! The library implements the manipulations enumerated in §4.3:
//!
//! 1. drop / change / spoof forwarded routing-table update messages,
//! 2. miscompute LCPs, spoof LCP updates,
//! 3. drop / change / spoof forwarded pricing-table update messages,
//! 4. miscompute pricing tables,
//!
//! plus execution-phase manipulations (payment underreporting, packet
//! dropping) and the joint deviations Proposition 2 must rule out.

use crate::msg::{FpssMsg, Packet, PriceRow, RouteRow};
use crate::state::PricingTable;
use specfaith_core::actions::{DeviationSurface, ExternalActionKind};
use specfaith_core::equilibrium::DeviationSpec;
use specfaith_core::id::NodeId;
use specfaith_core::money::{Cost, Money};
use std::fmt;

/// Phase labels used by the deviation specs.
pub mod phases {
    /// Construction phase 1: transit-cost flooding.
    pub const CONSTRUCTION_1: &str = "construction-1";
    /// Construction phase 2: routing + pricing computation.
    pub const CONSTRUCTION_2: &str = "construction-2";
    /// Execution phase: traffic and payments.
    pub const EXECUTION: &str = "execution";
}

/// The hook surface through which a node takes every externally visible
/// action. Implementations deviate by overriding hooks; defaults are
/// faithful.
pub trait RationalStrategy: fmt::Debug {
    /// Whether this strategy is the honest baseline — every hook the
    /// identity, no internal state.
    fn is_faithful(&self) -> bool {
        false
    }

    /// Whether the destination-scoped incremental recompute fast path
    /// ([`crate::node::FpssCore::recompute_dsts`]) may serve this
    /// strategy. Safe exactly when the strategy's construction-phase
    /// *computation* hooks — [`RationalStrategy::announce_routing`],
    /// [`RationalStrategy::announce_pricing`],
    /// [`RationalStrategy::install_own_pricing`] — are the identity:
    /// the incremental path produces byte-identical changed rows but
    /// installs the recomputed pricing directly, bypassing
    /// `install_own_pricing`, so table-transforming deviations must keep
    /// the full recompute. Deviations confined to other surfaces
    /// (misreported declarations, tampered floods, packet drops, payment
    /// fraud, checker-forward manipulation) override this to `true` and
    /// take the same fast path honest nodes do — pinned byte-identical
    /// to the full recompute by the engine equivalence tests.
    ///
    /// Defaults to [`RationalStrategy::is_faithful`], so the honest
    /// baseline is incremental and unknown deviations conservatively get
    /// the full-table path.
    fn dst_scoped_recompute_safe(&self) -> bool {
        self.is_faithful()
    }

    /// The deviation's descriptor (name, action surface, phase attacked).
    fn spec(&self) -> DeviationSpec;

    /// Information revelation: the cost this node declares in the phase-1
    /// flood (its report `θ̂ᵢ`).
    fn declare_cost(&mut self, true_cost: Cost) -> Cost {
        true_cost
    }

    /// Message passing (construction phase 1): how to re-flood another
    /// node's cost declaration. `Some(declared)` forwards (possibly
    /// altered); `None` suppresses the re-flood.
    fn reflood_cost(&mut self, _origin: NodeId, declared: Cost) -> Option<Cost> {
        Some(declared)
    }

    /// Computation: the routing rows the node announces to neighbors after
    /// an honest recomputation produced `honest`.
    fn announce_routing(&mut self, _me: NodeId, honest: Vec<RouteRow>) -> Vec<RouteRow> {
        honest
    }

    /// Computation: the pricing rows the node announces.
    fn announce_pricing(&mut self, _me: NodeId, honest: Vec<PriceRow>) -> Vec<PriceRow> {
        honest
    }

    /// Computation: the pricing table the node *installs for its own use*
    /// (what it will pay from in execution).
    fn install_own_pricing(&mut self, _me: NodeId, honest: PricingTable) -> PricingTable {
        honest
    }

    /// Message passing (faithful extension only): the copy of an inbound
    /// construction message the node forwards to its checkers. `None`
    /// drops the forward; returning a modified message tampers with it.
    fn forward_to_checkers(&mut self, _original_from: NodeId, msg: FpssMsg) -> Option<FpssMsg> {
        Some(msg)
    }

    /// Message passing (execution): whether to forward a transit packet.
    fn forward_packet(&mut self, _me: NodeId, _packet: &Packet) -> bool {
        true
    }

    /// Computation (execution): the payment list the node reports
    /// (\[DATA4\]) after honest accrual produced `honest`.
    fn report_owed(&mut self, _me: NodeId, honest: Vec<(NodeId, Money)>) -> Vec<(NodeId, Money)> {
        honest
    }
}

/// The faithful strategy: every hook is the identity.
#[derive(Clone, Debug, Default)]
pub struct Faithful;

impl RationalStrategy for Faithful {
    fn is_faithful(&self) -> bool {
        true
    }

    fn spec(&self) -> DeviationSpec {
        DeviationSpec::new("faithful", DeviationSurface::new())
    }
}

/// Honest behavior on the pre-incremental code path: every hook is the
/// identity (exactly like [`Faithful`]) but `is_faithful()` stays `false`,
/// so the node recomputes its full tables on every message.
///
/// Not a deviation — retained for the equivalence tests that pin the
/// incremental fast path byte-identical to the full recompute, and for
/// the sweep regression benchmark's reference arm.
#[doc(hidden)]
#[derive(Clone, Debug, Default)]
pub struct FullRecomputeFaithful;

impl RationalStrategy for FullRecomputeFaithful {
    fn spec(&self) -> DeviationSpec {
        DeviationSpec::new("faithful-full-recompute", DeviationSurface::new())
    }
}

/// Wraps any strategy, delegating every hook verbatim while reporting
/// `dst_scoped_recompute_safe() == false` — forcing the wrapped strategy
/// onto the full-table recompute path it would otherwise skip.
///
/// Not a deviation — retained for the equivalence tests that pin
/// incremental-safe deviations (e.g. [`MisreportCost`]) byte-identical to
/// their full-recompute behavior.
#[doc(hidden)]
#[derive(Debug)]
pub struct ForceFullRecompute(pub Box<dyn RationalStrategy>);

impl RationalStrategy for ForceFullRecompute {
    // is_faithful and dst_scoped_recompute_safe keep their defaults:
    // always the full-table path.
    fn spec(&self) -> DeviationSpec {
        self.0.spec()
    }

    fn declare_cost(&mut self, true_cost: Cost) -> Cost {
        self.0.declare_cost(true_cost)
    }

    fn reflood_cost(&mut self, origin: NodeId, declared: Cost) -> Option<Cost> {
        self.0.reflood_cost(origin, declared)
    }

    fn announce_routing(&mut self, me: NodeId, honest: Vec<RouteRow>) -> Vec<RouteRow> {
        self.0.announce_routing(me, honest)
    }

    fn announce_pricing(&mut self, me: NodeId, honest: Vec<PriceRow>) -> Vec<PriceRow> {
        self.0.announce_pricing(me, honest)
    }

    fn install_own_pricing(&mut self, me: NodeId, honest: PricingTable) -> PricingTable {
        self.0.install_own_pricing(me, honest)
    }

    fn forward_to_checkers(&mut self, original_from: NodeId, msg: FpssMsg) -> Option<FpssMsg> {
        self.0.forward_to_checkers(original_from, msg)
    }

    fn forward_packet(&mut self, me: NodeId, packet: &Packet) -> bool {
        self.0.forward_packet(me, packet)
    }

    fn report_owed(&mut self, me: NodeId, honest: Vec<(NodeId, Money)>) -> Vec<(NodeId, Money)> {
        self.0.report_owed(me, honest)
    }
}

/// Misreport the declared transit cost by `delta` (information
/// revelation, construction phase 1). FPSS's strategyproofness should make
/// this unprofitable *everywhere*, even in the plain mechanism.
#[derive(Clone, Debug)]
pub struct MisreportCost {
    /// Signed adjustment to the true cost (clamped at zero).
    pub delta: i64,
}

impl RationalStrategy for MisreportCost {
    fn dst_scoped_recompute_safe(&self) -> bool {
        true
    }

    fn spec(&self) -> DeviationSpec {
        DeviationSpec::new(
            format!("misreport-cost({:+})", self.delta),
            DeviationSurface::only(ExternalActionKind::InformationRevelation),
        )
        .in_phase(phases::CONSTRUCTION_1)
    }

    fn declare_cost(&mut self, true_cost: Cost) -> Cost {
        let declared = (true_cost.value() as i64).saturating_add(self.delta).max(0);
        Cost::new(declared as u64)
    }
}

/// Tamper with the phase-1 cost flood (message passing): re-flood other
/// nodes' declarations scaled by `multiplier`, poisoning downstream DATA1
/// copies. In plain FPSS this corrupts the first-write-wins transit-cost
/// lists of every node whose flood path crosses the tamperer; in the
/// faithful extension the resulting DATA1 divergence makes principal and
/// checker tables disagree at the first checkpoint.
#[derive(Clone, Debug)]
pub struct TamperCostFlood {
    /// Multiplier applied to re-flooded declarations.
    pub multiplier: u64,
}

impl RationalStrategy for TamperCostFlood {
    fn dst_scoped_recompute_safe(&self) -> bool {
        true
    }

    fn spec(&self) -> DeviationSpec {
        DeviationSpec::new(
            format!("tamper-cost-flood(x{})", self.multiplier),
            DeviationSurface::only(ExternalActionKind::MessagePassing),
        )
        .in_phase(phases::CONSTRUCTION_1)
    }

    fn reflood_cost(&mut self, _origin: NodeId, declared: Cost) -> Option<Cost> {
        Some(Cost::new(
            (declared.value().saturating_mul(self.multiplier)).min(Cost::MAX_FINITE),
        ))
    }
}

/// Suppress the phase-1 cost flood entirely (message passing): never
/// re-flood other nodes' declarations. Biconnectivity routes the flood
/// around a single silent node, so in the honest-remainder network every
/// node still learns every cost — the redundancy argument of §3.9.
#[derive(Clone, Debug, Default)]
pub struct DropCostFlood;

impl RationalStrategy for DropCostFlood {
    fn dst_scoped_recompute_safe(&self) -> bool {
        true
    }

    fn spec(&self) -> DeviationSpec {
        DeviationSpec::new(
            "drop-cost-flood",
            DeviationSurface::only(ExternalActionKind::MessagePassing),
        )
        .in_phase(phases::CONSTRUCTION_1)
    }

    fn reflood_cost(&mut self, _origin: NodeId, _declared: Cost) -> Option<Cost> {
        None
    }
}

/// Spoof LCP updates (§4.3 manipulation 2): announce fabricated routing
/// rows claiming direct adjacency to every destination, making paths
/// through this node look maximally attractive. Receivers cannot verify
/// adjacency (semi-private information), so in plain FPSS this attracts
/// traffic and inflates the node's VCG payments.
#[derive(Clone, Debug, Default)]
pub struct SpoofShortRoutes;

impl RationalStrategy for SpoofShortRoutes {
    fn spec(&self) -> DeviationSpec {
        DeviationSpec::new(
            "spoof-short-routes",
            DeviationSurface::only(ExternalActionKind::Computation),
        )
        .in_phase(phases::CONSTRUCTION_2)
    }

    fn announce_routing(&mut self, me: NodeId, honest: Vec<RouteRow>) -> Vec<RouteRow> {
        honest
            .into_iter()
            .map(|row| {
                if row.dst != me && row.path.len() > 2 {
                    // Claim a fake direct link to the destination.
                    RouteRow {
                        dst: row.dst,
                        path: vec![me, row.dst],
                    }
                } else {
                    row
                }
            })
            .collect()
    }
}

/// Miscompute the node's own pricing table (§4.3 manipulation 4): install
/// prices scaled to `keep_percent`% for execution, so the node pays less
/// for the traffic it originates. Announcements carry the same deflated
/// rows (the lie must be consistent to have any hope of passing checks).
#[derive(Clone, Debug)]
pub struct DeflateOwnPricing {
    /// Percentage of the honest price retained (e.g. 50).
    pub keep_percent: u32,
}

impl DeflateOwnPricing {
    fn deflate(&self, price: Money) -> Money {
        Money::new(price.value() * i64::from(self.keep_percent) / 100)
    }
}

impl RationalStrategy for DeflateOwnPricing {
    fn spec(&self) -> DeviationSpec {
        DeviationSpec::new(
            format!("deflate-own-pricing({}%)", self.keep_percent),
            DeviationSurface::only(ExternalActionKind::Computation),
        )
        .in_phase(phases::CONSTRUCTION_2)
    }

    fn install_own_pricing(&mut self, _me: NodeId, honest: PricingTable) -> PricingTable {
        let mut deflated = PricingTable::new();
        for ((dst, transit), entry) in honest.iter() {
            deflated.insert(
                dst,
                transit,
                crate::state::PriceEntry {
                    price: self.deflate(entry.price),
                    tags: entry.tags.clone(),
                },
            );
        }
        deflated
    }

    fn announce_pricing(&mut self, _me: NodeId, honest: Vec<PriceRow>) -> Vec<PriceRow> {
        honest
            .into_iter()
            .map(|row| PriceRow {
                price: self.deflate(row.price),
                ..row
            })
            .collect()
    }
}

/// Spoof pricing messages (§4.3 manipulation 3): announce pricing rows
/// with forged identity tags naming a non-neighbor, attempting to inject
/// price information that no checker can attribute.
#[derive(Clone, Debug)]
pub struct SpoofPricingTags {
    /// The forged tag planted in announced rows.
    pub forged_tag: NodeId,
    /// Price multiplier (percent) applied to the spoofed rows.
    pub price_percent: u32,
}

impl RationalStrategy for SpoofPricingTags {
    fn spec(&self) -> DeviationSpec {
        DeviationSpec::new(
            "spoof-pricing-tags",
            DeviationSurface::only(ExternalActionKind::Computation),
        )
        .in_phase(phases::CONSTRUCTION_2)
    }

    fn announce_pricing(&mut self, _me: NodeId, honest: Vec<PriceRow>) -> Vec<PriceRow> {
        honest
            .into_iter()
            .map(|row| PriceRow {
                price: Money::new(row.price.value() * i64::from(self.price_percent) / 100),
                tags: [self.forged_tag].into_iter().collect(),
                ..row
            })
            .collect()
    }
}

/// Drop forwarded construction messages to checkers (§4.3 manipulations
/// 1/3, message passing). Only meaningful in the faithful extension (plain
/// FPSS has no checker forwards); in the plain mechanism it is a no-op.
#[derive(Clone, Debug, Default)]
pub struct DropCheckerForwards;

impl RationalStrategy for DropCheckerForwards {
    fn dst_scoped_recompute_safe(&self) -> bool {
        true
    }

    fn spec(&self) -> DeviationSpec {
        DeviationSpec::new(
            "drop-checker-forwards",
            DeviationSurface::only(ExternalActionKind::MessagePassing),
        )
        .in_phase(phases::CONSTRUCTION_2)
    }

    fn forward_to_checkers(&mut self, _original_from: NodeId, _msg: FpssMsg) -> Option<FpssMsg> {
        None
    }
}

/// Tamper with forwarded construction messages (§4.3 manipulations 1/3):
/// forwarded pricing rows have their prices doubled; forwarded routing
/// rows have their paths truncated to fake directness.
#[derive(Clone, Debug, Default)]
pub struct TamperCheckerForwards;

impl RationalStrategy for TamperCheckerForwards {
    fn dst_scoped_recompute_safe(&self) -> bool {
        true
    }

    fn spec(&self) -> DeviationSpec {
        DeviationSpec::new(
            "tamper-checker-forwards",
            DeviationSurface::only(ExternalActionKind::MessagePassing),
        )
        .in_phase(phases::CONSTRUCTION_2)
    }

    fn forward_to_checkers(&mut self, original_from: NodeId, msg: FpssMsg) -> Option<FpssMsg> {
        let tampered = match msg {
            FpssMsg::PricingUpdate { rows, retractions } => FpssMsg::PricingUpdate {
                rows: rows
                    .into_iter()
                    .map(|row| PriceRow {
                        price: row.price.scale(2),
                        ..row
                    })
                    .collect(),
                retractions,
            },
            FpssMsg::RoutingUpdate { rows } => FpssMsg::RoutingUpdate {
                rows: rows
                    .into_iter()
                    .map(|row| RouteRow {
                        path: vec![original_from, row.dst],
                        ..row
                    })
                    .collect(),
            },
            other => other,
        };
        Some(tampered)
    }
}

/// Drop transit packets in execution (message passing): keep collecting
/// payments while refusing the transit work that justifies them.
#[derive(Clone, Debug, Default)]
pub struct DropTransitPackets;

impl RationalStrategy for DropTransitPackets {
    fn dst_scoped_recompute_safe(&self) -> bool {
        true
    }

    fn spec(&self) -> DeviationSpec {
        DeviationSpec::new(
            "drop-transit-packets",
            DeviationSurface::only(ExternalActionKind::MessagePassing),
        )
        .in_phase(phases::EXECUTION)
    }

    fn forward_packet(&mut self, me: NodeId, packet: &Packet) -> bool {
        packet.src == me || packet.dst == me
    }
}

/// Underreport the payment ledger (computation, execution): report only
/// `keep_percent`% of what is honestly owed.
#[derive(Clone, Debug)]
pub struct UnderreportPayments {
    /// Percentage of the honest amount reported.
    pub keep_percent: u32,
}

impl RationalStrategy for UnderreportPayments {
    fn dst_scoped_recompute_safe(&self) -> bool {
        true
    }

    fn spec(&self) -> DeviationSpec {
        DeviationSpec::new(
            format!("underreport-payments({}%)", self.keep_percent),
            DeviationSurface::only(ExternalActionKind::Computation),
        )
        .in_phase(phases::EXECUTION)
    }

    fn report_owed(&mut self, _me: NodeId, honest: Vec<(NodeId, Money)>) -> Vec<(NodeId, Money)> {
        honest
            .into_iter()
            .map(|(to, amount)| {
                (
                    to,
                    Money::new(amount.value() * i64::from(self.keep_percent) / 100),
                )
            })
            .collect()
    }
}

/// The joint execution deviation: drop transit packets *and* underreport
/// payments — the kind of combined manipulation the "strong" properties
/// must rule out in one sweep.
#[derive(Clone, Debug)]
pub struct DropAndUnderreport {
    drop: DropTransitPackets,
    under: UnderreportPayments,
}

impl DropAndUnderreport {
    /// Drops all transit packets and reports `keep_percent`% of payments.
    pub fn new(keep_percent: u32) -> Self {
        DropAndUnderreport {
            drop: DropTransitPackets,
            under: UnderreportPayments { keep_percent },
        }
    }
}

impl RationalStrategy for DropAndUnderreport {
    fn dst_scoped_recompute_safe(&self) -> bool {
        true
    }

    fn spec(&self) -> DeviationSpec {
        DeviationSpec::new(
            "drop-and-underreport",
            DeviationSurface::new()
                .with(ExternalActionKind::MessagePassing)
                .with(ExternalActionKind::Computation),
        )
        .in_phase(phases::EXECUTION)
    }

    fn forward_packet(&mut self, me: NodeId, packet: &Packet) -> bool {
        self.drop.forward_packet(me, packet)
    }

    fn report_owed(&mut self, me: NodeId, honest: Vec<(NodeId, Money)>) -> Vec<(NodeId, Money)> {
        self.under.report_owed(me, honest)
    }
}

/// The joint construction deviation: spoof short routes *and* tamper with
/// checker forwards, trying to keep the checkers' mirrors consistent with
/// the lie.
#[derive(Clone, Debug, Default)]
pub struct SpoofAndTamper {
    spoof: SpoofShortRoutes,
    tamper: TamperCheckerForwards,
}

impl RationalStrategy for SpoofAndTamper {
    fn spec(&self) -> DeviationSpec {
        DeviationSpec::new(
            "spoof-routes-and-tamper-forwards",
            DeviationSurface::new()
                .with(ExternalActionKind::Computation)
                .with(ExternalActionKind::MessagePassing),
        )
        .in_phase(phases::CONSTRUCTION_2)
    }

    fn announce_routing(&mut self, me: NodeId, honest: Vec<RouteRow>) -> Vec<RouteRow> {
        self.spoof.announce_routing(me, honest)
    }

    fn forward_to_checkers(&mut self, original_from: NodeId, msg: FpssMsg) -> Option<FpssMsg> {
        self.tamper.forward_to_checkers(original_from, msg)
    }
}

/// A fail-stop failure expressed through the strategy surface: the node
/// declares its cost, then goes silent — no announcements, no checker
/// forwards, no packet forwarding, no reports. This is **not** a rational
/// deviation (it never benefits the node); it exists to study §5's
/// observation that "introducing other failures, such as general omissions
/// or even failstop, may cause the system to falsely detect and punish
/// manipulation" (experiment E13).
#[derive(Clone, Debug, Default)]
pub struct FailStop;

impl RationalStrategy for FailStop {
    fn spec(&self) -> DeviationSpec {
        DeviationSpec::new("fail-stop", DeviationSurface::all()).in_phase("failure-model")
    }

    fn reflood_cost(&mut self, _origin: NodeId, _declared: Cost) -> Option<Cost> {
        None
    }

    fn announce_routing(&mut self, _me: NodeId, _honest: Vec<RouteRow>) -> Vec<RouteRow> {
        Vec::new()
    }

    fn announce_pricing(&mut self, _me: NodeId, _honest: Vec<PriceRow>) -> Vec<PriceRow> {
        Vec::new()
    }

    fn forward_to_checkers(&mut self, _original_from: NodeId, _msg: FpssMsg) -> Option<FpssMsg> {
        None
    }

    fn forward_packet(&mut self, _me: NodeId, _packet: &Packet) -> bool {
        false
    }

    fn report_owed(&mut self, _me: NodeId, _honest: Vec<(NodeId, Money)>) -> Vec<(NodeId, Money)> {
        Vec::new()
    }
}

/// Builds a fresh instance of every deviation in the standard library.
///
/// `forged_tag` parameterizes [`SpoofPricingTags`] (any id that is not a
/// neighbor of the deviant — experiment harnesses pass a far-away node).
pub fn standard_catalog(forged_tag: NodeId) -> Vec<Box<dyn RationalStrategy>> {
    vec![
        Box::new(MisreportCost { delta: 5 }),
        Box::new(MisreportCost { delta: -1 }),
        Box::new(TamperCostFlood { multiplier: 100 }),
        Box::new(DropCostFlood),
        Box::new(SpoofShortRoutes),
        Box::new(DeflateOwnPricing { keep_percent: 50 }),
        Box::new(SpoofPricingTags {
            forged_tag,
            price_percent: 50,
        }),
        Box::new(DropCheckerForwards),
        Box::new(TamperCheckerForwards),
        Box::new(DropTransitPackets),
        Box::new(UnderreportPayments { keep_percent: 10 }),
        Box::new(DropAndUnderreport::new(10)),
        Box::new(SpoofAndTamper::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tags::TagSet;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn faithful_is_identity_everywhere() {
        let mut f = Faithful;
        assert_eq!(f.declare_cost(Cost::new(5)), Cost::new(5));
        let rows = vec![RouteRow {
            dst: n(1),
            path: vec![n(0), n(1)],
        }];
        assert_eq!(f.announce_routing(n(0), rows.clone()), rows);
        assert!(f.forward_packet(
            n(0),
            &Packet {
                src: n(1),
                dst: n(2),
                hops: 0
            }
        ));
        assert!(f.spec().surface().is_empty());
    }

    #[test]
    fn misreport_clamps_at_zero() {
        let mut s = MisreportCost { delta: -10 };
        assert_eq!(s.declare_cost(Cost::new(3)), Cost::ZERO);
        let mut s = MisreportCost { delta: 4 };
        assert_eq!(s.declare_cost(Cost::new(3)), Cost::new(7));
    }

    #[test]
    fn spoof_short_routes_fakes_adjacency() {
        let mut s = SpoofShortRoutes;
        let rows = vec![
            RouteRow {
                dst: n(5),
                path: vec![n(0), n(2), n(5)],
            },
            RouteRow {
                dst: n(1),
                path: vec![n(0), n(1)],
            },
        ];
        let out = s.announce_routing(n(0), rows);
        assert_eq!(out[0].path, vec![n(0), n(5)]);
        assert_eq!(out[1].path, vec![n(0), n(1)], "already direct unchanged");
    }

    #[test]
    fn deflate_halves_prices() {
        let mut s = DeflateOwnPricing { keep_percent: 50 };
        let rows = vec![PriceRow {
            dst: n(1),
            transit: n(2),
            price: Money::new(10),
            tags: TagSet::new(),
        }];
        let out = s.announce_pricing(n(0), rows);
        assert_eq!(out[0].price, Money::new(5));
    }

    #[test]
    fn drop_transit_keeps_own_traffic() {
        let mut s = DropTransitPackets;
        let own = Packet {
            src: n(0),
            dst: n(2),
            hops: 0,
        };
        let transit = Packet {
            src: n(1),
            dst: n(2),
            hops: 1,
        };
        assert!(s.forward_packet(n(0), &own));
        assert!(!s.forward_packet(n(0), &transit));
    }

    #[test]
    fn underreport_scales() {
        let mut s = UnderreportPayments { keep_percent: 10 };
        let out = s.report_owed(n(0), vec![(n(1), Money::new(100))]);
        assert_eq!(out, vec![(n(1), Money::new(10))]);
    }

    #[test]
    fn joint_deviations_declare_joint_surfaces() {
        assert!(DropAndUnderreport::new(10).spec().surface().is_joint());
        assert!(SpoofAndTamper::default().spec().surface().is_joint());
    }

    #[test]
    fn catalog_covers_all_three_action_kinds_and_phases() {
        let catalog = standard_catalog(n(99));
        let surfaces: Vec<_> = catalog.iter().map(|s| s.spec()).collect();
        for kind in ExternalActionKind::ALL {
            assert!(
                surfaces.iter().any(|s| s.surface().touches(kind)),
                "no deviation touches {kind}"
            );
        }
        for phase in [
            phases::CONSTRUCTION_1,
            phases::CONSTRUCTION_2,
            phases::EXECUTION,
        ] {
            assert!(
                surfaces.iter().any(|s| s.phase() == Some(phase)),
                "no deviation attacks {phase}"
            );
        }
        assert!(surfaces.iter().any(|s| s.surface().is_joint()));
    }

    #[test]
    fn tamper_doubles_forwarded_prices() {
        let mut s = TamperCheckerForwards;
        let msg = FpssMsg::PricingUpdate {
            rows: vec![PriceRow {
                dst: n(1),
                transit: n(2),
                price: Money::new(7),
                tags: TagSet::new(),
            }],
            retractions: Vec::new(),
        };
        match s.forward_to_checkers(n(3), msg) {
            Some(FpssMsg::PricingUpdate { rows, .. }) => {
                assert_eq!(rows[0].price, Money::new(14))
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
