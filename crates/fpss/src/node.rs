//! The FPSS node: a reusable pure core plus the plain (no-checkers) actor.
//!
//! [`FpssCore`] holds the construction-phase state (DATA1, DATA2, DATA3*,
//! neighbor view) and applies the pure recompute functions. It is reused
//! verbatim by the faithful extension's checker mirrors: a mirror of
//! principal `P` is simply an `FpssCore` with `me = P` fed by the forwarded
//! copies of `P`'s inputs.

use crate::compute::{
    best_route_to, price_entries_to, recompute_prices, recompute_routes, NeighborView,
};
use crate::deviation::{Faithful, RationalStrategy};
use crate::msg::{FpssMsg, Packet, PriceRow, RouteRow};
use crate::settle::ExecutionSummary;
use crate::state::{PaymentLedger, PricingTable, RoutingTable, TransitCostList};
use specfaith_core::id::NodeId;
use specfaith_core::money::{Cost, Money};
use specfaith_netsim::{Actor, Ctx};
use std::collections::{BTreeMap, BTreeSet};

/// Timer tag that starts the execution phase (set by the harness once
/// construction has converged).
pub const TAG_BEGIN_EXECUTION: u64 = 1;

/// Timer tag that makes a node drain its queued [`StreamCommand`]s (set by
/// the streaming engine when re-entering an equilibrated network).
pub const TAG_STREAM: u64 = 2;

/// A management-plane command injected by the streaming run engine between
/// convergence epochs. Commands are queued on the node out-of-band (the
/// engine owns the actors while the simulation is quiescent) and drained by
/// a [`TAG_STREAM`] timer, so every protocol-visible effect still flows
/// through ordinary simulated messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamCommand {
    /// This node's true transit cost changed: re-declare it (through the
    /// node's strategy) and flood a [`FpssMsg::CostUpdate`].
    DeclareCost(Cost),
    /// The named node went down: drop it from the neighbor list (if
    /// adjacent), forget its declared cost, and recompute in full so its
    /// table rows disappear.
    PurgeNode(NodeId),
    /// This node returns from downtime with amnesia: fresh construction
    /// core, re-flood its own cost (every live node forgot it, so the
    /// first-write-wins flood works again).
    Rejoin,
    /// A downed neighbor returned: re-add it and resync it by sending the
    /// full local state as ordinary (idempotent) protocol messages.
    ResyncNeighbor(NodeId),
}

/// The pure FPSS construction-phase state machine of one node.
#[derive(Clone, Debug)]
pub struct FpssCore {
    me: NodeId,
    neighbors: Vec<NodeId>,
    data1: TransitCostList,
    routes: RoutingTable,
    prices: PricingTable,
    view: NeighborView,
}

impl FpssCore {
    /// A fresh core for node `me` with the given (sorted) neighbor list.
    pub fn new(me: NodeId, neighbors: Vec<NodeId>) -> Self {
        FpssCore {
            me,
            neighbors,
            data1: TransitCostList::new(),
            routes: RoutingTable::new(),
            prices: PricingTable::new(),
            view: NeighborView::new(),
        }
    }

    /// This core's node id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The neighbor list.
    pub fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// \[DATA1\] access.
    pub fn data1(&self) -> &TransitCostList {
        &self.data1
    }

    /// \[DATA2\] access.
    pub fn routes(&self) -> &RoutingTable {
        &self.routes
    }

    /// \[DATA3*\] access.
    pub fn prices(&self) -> &PricingTable {
        &self.prices
    }

    /// Records a declared cost. Returns `true` when new.
    pub fn learn_cost(&mut self, origin: NodeId, declared: Cost) -> bool {
        self.data1.learn(origin, declared)
    }

    /// Overwrites a declared cost (streaming re-declaration; see
    /// [`TransitCostList::update`]). Returns `true` when the value changed.
    pub fn update_cost(&mut self, origin: NodeId, declared: Cost) -> bool {
        self.data1.update(origin, declared)
    }

    /// Forgets a departed node's declared cost (see
    /// [`TransitCostList::forget`]). Returns whether one was present.
    pub fn forget_cost(&mut self, origin: NodeId) -> bool {
        self.data1.forget(origin)
    }

    /// Removes `gone` from the neighbor list (node churn). With `gone`
    /// absent from the list and its cost forgotten, every stored candidate
    /// through it becomes inert: candidate gathering iterates the neighbor
    /// list and skips paths with unknown intermediate costs, so no view
    /// purge is needed. Returns whether `gone` was a neighbor.
    pub fn remove_neighbor(&mut self, gone: NodeId) -> bool {
        match self.neighbors.binary_search(&gone) {
            Ok(pos) => {
                self.neighbors.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Re-adds a returned neighbor, keeping the list sorted. Returns
    /// whether the list changed.
    pub fn add_neighbor(&mut self, back: NodeId) -> bool {
        match self.neighbors.binary_search(&back) {
            Err(pos) => {
                self.neighbors.insert(pos, back);
                true
            }
            Ok(_) => false,
        }
    }

    /// The destinations a newly learned declared cost for `origin` can
    /// affect — the flood-time counterpart of the destination-scoped
    /// recompute.
    ///
    /// Soundness: declared costs are first-write-wins, so learning
    /// `origin`'s cost can only *enable* candidates that were previously
    /// skipped for an unknown cost. Every such candidate — a routing
    /// candidate whose advertised path crosses `origin`, a pricing
    /// witness `b = origin`, or `origin` newly becoming a destination —
    /// involves `origin` on some stored advertised path (advertised paths
    /// start at the advertising neighbor, so `b = origin` rows index
    /// themselves) or is `origin` itself. Destinations outside this set
    /// have bit-identical recompute inputs before and after the learn,
    /// so their rows provably cannot change; pass the set to
    /// [`FpssCore::recompute_dsts`] for byte-identical results at
    /// flood-proportional cost.
    ///
    /// The same argument covers streaming *overwrites*
    /// ([`FpssCore::update_cost`], which can move a cost in either
    /// direction): every routing or pricing term that reads `origin`'s
    /// cost — a candidate path crossing it, this node's installed path
    /// cost `d_me`, a pricing witness `b = origin` (whose advertised path
    /// starts at `origin` and is therefore indexed), or `origin` as the
    /// destination itself — places `origin` on a stored advertised path or
    /// is `origin`, so the affected set is sound for cost changes too.
    pub fn dsts_affected_by_cost(&self, origin: NodeId) -> BTreeSet<NodeId> {
        let mut dsts: BTreeSet<NodeId> = self.view.dsts_through(origin).collect();
        dsts.insert(origin);
        dsts
    }

    /// Records a neighbor's routing row. Returns `true` when the view
    /// changed.
    pub fn learn_route(&mut self, from: NodeId, row: &RouteRow) -> bool {
        self.view.learn_route(from, row)
    }

    /// Records a neighbor's pricing row. Returns `true` when the view
    /// changed.
    pub fn learn_price(&mut self, from: NodeId, row: &PriceRow) -> bool {
        self.view.learn_price(from, row)
    }

    /// Records a neighbor's price retraction. Returns `true` when the
    /// view changed.
    pub fn learn_price_retraction(&mut self, from: NodeId, dst: NodeId, transit: NodeId) -> bool {
        self.view.retract_price(from, dst, transit)
    }

    /// Recomputes routing and pricing from the current inputs, installing
    /// the results and returning the changed routing rows, changed pricing
    /// rows, and retracted pricing keys (all to be announced).
    ///
    /// `install_pricing` post-processes the honestly recomputed pricing
    /// table before installation — the identity for faithful nodes, a
    /// manipulation hook for deviants.
    #[allow(clippy::type_complexity)]
    pub fn recompute_with(
        &mut self,
        install_pricing: impl FnOnce(PricingTable) -> PricingTable,
    ) -> (Vec<RouteRow>, Vec<PriceRow>, Vec<(NodeId, NodeId)>) {
        let new_routes = recompute_routes(self.me, &self.neighbors, &self.data1, &self.view);
        let mut changed_routes = Vec::new();
        for (dst, path) in new_routes.iter() {
            if self.routes.path(dst) != Some(path) {
                changed_routes.push(RouteRow {
                    dst,
                    path: path.to_vec(),
                });
            }
        }
        // Keep the installed table, and its digest memo, when nothing
        // changed: no row differs and no row was dropped.
        if !changed_routes.is_empty() || new_routes.len() != self.routes.len() {
            self.routes = new_routes;
        }
        let new_prices = install_pricing(recompute_prices(
            self.me,
            &self.neighbors,
            &self.data1,
            &self.routes,
            &self.view,
        ));
        let (changed_prices, retractions) = self.prices.replace(new_prices);
        (changed_routes, changed_prices, retractions)
    }

    /// Faithful recomputation.
    #[allow(clippy::type_complexity)]
    pub fn recompute(&mut self) -> (Vec<RouteRow>, Vec<PriceRow>, Vec<(NodeId, NodeId)>) {
        self.recompute_with(|t| t)
    }

    /// Destination-scoped faithful recomputation: updates only the table
    /// rows of `dsts`, producing **byte-identical** tables and announced
    /// rows to a full [`FpssCore::recompute`] whenever only those
    /// destinations' inputs changed since the last recomputation.
    ///
    /// Soundness: a destination's routing row is a pure function of that
    /// destination's advertised routes and DATA1 ([`best_route_to`]), and
    /// its pricing rows of those plus its advertised prices
    /// ([`price_entries_to`]) — so rows outside `dsts` cannot differ from
    /// what the last full recompute installed. Callers pass
    /// `routing_changed = false` for price-only input changes (advertised
    /// prices are not a routing input). DATA1 changes invalidate every
    /// destination and must go through the full recompute.
    ///
    /// This is the construction-phase hot path: honest nodes — and
    /// deviants declaring [`destination-scoped
    /// safety`](crate::deviation::RationalStrategy::dst_scoped_recompute_safe)
    /// — process each routing/pricing update in time proportional to the
    /// rows it touched rather than the whole table. Strategies that
    /// transform tables or announcements keep the full recompute so their
    /// whole-table hooks observe unchanged inputs.
    #[allow(clippy::type_complexity)]
    pub fn recompute_dsts(
        &mut self,
        dsts: &BTreeSet<NodeId>,
        routing_changed: bool,
    ) -> (Vec<RouteRow>, Vec<PriceRow>, Vec<(NodeId, NodeId)>) {
        let mut changed_routes = Vec::new();
        if routing_changed {
            for &dst in dsts {
                // A full recompute only enumerates destinations it has a
                // declared cost for (or that are direct neighbors); mirror
                // that exactly or rows would appear early here.
                if dst == self.me
                    || (self.data1.declared(dst).is_none() && !self.neighbors.contains(&dst))
                {
                    continue;
                }
                match best_route_to(self.me, &self.neighbors, &self.data1, &self.view, dst) {
                    Some(path) => {
                        if self.routes.path(dst) != Some(path.as_slice()) {
                            changed_routes.push(RouteRow {
                                dst,
                                path: path.clone(),
                            });
                            self.routes.install(dst, path);
                        }
                    }
                    None => {
                        self.routes.remove(dst);
                    }
                }
            }
        }
        let mut changed_prices = Vec::new();
        let mut retractions = Vec::new();
        for &dst in dsts {
            if dst == self.me {
                continue;
            }
            let new_rows = match self.routes.path(dst) {
                Some(path) => price_entries_to(&self.neighbors, &self.data1, path, &self.view, dst),
                None => Vec::new(),
            };
            self.prices
                .install_dst(dst, new_rows, &mut changed_prices, &mut retractions);
        }
        (changed_routes, changed_prices, retractions)
    }
}

/// The plain FPSS node actor: construction by flooding + asynchronous
/// recomputation, execution by source routing over the converged tables.
/// No checkers, no bank — the trust assumptions of the original FPSS.
pub struct PlainFpssNode {
    core: FpssCore,
    true_cost: Cost,
    declared: Option<Cost>,
    strategy: Box<dyn RationalStrategy>,
    /// Cached [`RationalStrategy::dst_scoped_recompute_safe`]: honest
    /// nodes — and deviants whose computation hooks are the identity —
    /// take the destination-scoped incremental recompute path.
    incremental: bool,
    pending_traffic: Vec<(NodeId, u64)>,
    /// Highest [`FpssMsg::CostUpdate`] epoch seen per origin (including
    /// this node's own updates); stale epochs are dropped unprocessed.
    cost_epochs: BTreeMap<NodeId, u64>,
    /// Engine-queued streaming commands, drained on [`TAG_STREAM`].
    stream_commands: Vec<StreamCommand>,
    originated: BTreeMap<NodeId, u64>,
    delivered_from: BTreeMap<NodeId, u64>,
    carried: u64,
    dropped: u64,
    ledger: PaymentLedger,
    max_hops: u32,
}

impl std::fmt::Debug for PlainFpssNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PlainFpssNode({}, strategy={})",
            self.core.me(),
            self.strategy.spec().name()
        )
    }
}

impl PlainFpssNode {
    /// Creates a node with the given true cost and strategy.
    pub fn new(
        me: NodeId,
        neighbors: Vec<NodeId>,
        true_cost: Cost,
        strategy: Box<dyn RationalStrategy>,
        max_hops: u32,
    ) -> Self {
        let incremental = strategy.dst_scoped_recompute_safe();
        PlainFpssNode {
            core: FpssCore::new(me, neighbors),
            true_cost,
            declared: None,
            strategy,
            incremental,
            pending_traffic: Vec::new(),
            cost_epochs: BTreeMap::new(),
            stream_commands: Vec::new(),
            originated: BTreeMap::new(),
            delivered_from: BTreeMap::new(),
            carried: 0,
            dropped: 0,
            ledger: PaymentLedger::new(),
            max_hops,
        }
    }

    /// A faithful node.
    pub fn faithful(me: NodeId, neighbors: Vec<NodeId>, true_cost: Cost, max_hops: u32) -> Self {
        Self::new(me, neighbors, true_cost, Box::new(Faithful), max_hops)
    }

    /// The construction core (tables, DATA1, view).
    pub fn core(&self) -> &FpssCore {
        &self.core
    }

    /// The cost this node declared (after its strategy), once started.
    pub fn declared_cost(&self) -> Option<Cost> {
        self.declared
    }

    /// Queues traffic to originate when execution begins.
    pub fn add_traffic(&mut self, dst: NodeId, packets: u64) {
        self.pending_traffic.push((dst, packets));
    }

    /// Queues a streaming management command; the engine schedules a
    /// [`TAG_STREAM`] timer on this node to drain the queue in-simulation.
    pub fn queue_stream_command(&mut self, cmd: StreamCommand) {
        self.stream_commands.push(cmd);
    }

    /// Packets transited (true cost incurred on each).
    pub fn carried(&self) -> u64 {
        self.carried
    }

    /// Packets dropped (by strategy, TTL, or missing route).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Packets delivered here, keyed by originating node.
    pub fn delivered_from(&self) -> &BTreeMap<NodeId, u64> {
        &self.delivered_from
    }

    /// The post-strategy execution summary for settlement.
    pub fn execution_summary(&mut self) -> ExecutionSummary {
        let honest = self.ledger.to_entries();
        let me = self.core.me();
        ExecutionSummary {
            node: me,
            reported_owed: self.strategy.report_owed(me, honest),
            true_cost: self.true_cost,
            carried: self.carried,
            originated: self.originated.clone(),
            delivered_from: self.delivered_from.clone(),
        }
    }

    fn announce(
        &mut self,
        ctx: &mut Ctx<'_, FpssMsg>,
        changed_routes: Vec<RouteRow>,
        changed_prices: Vec<PriceRow>,
        retractions: Vec<(NodeId, NodeId)>,
    ) {
        let me = self.core.me();
        let routes = self.strategy.announce_routing(me, changed_routes);
        if !routes.is_empty() {
            for &b in self.core.neighbors() {
                ctx.send(
                    b,
                    FpssMsg::RoutingUpdate {
                        rows: routes.clone(),
                    },
                );
            }
        }
        let prices = self.strategy.announce_pricing(me, changed_prices);
        if !prices.is_empty() || !retractions.is_empty() {
            for &b in self.core.neighbors() {
                ctx.send(
                    b,
                    FpssMsg::PricingUpdate {
                        rows: prices.clone(),
                        retractions: retractions.clone(),
                    },
                );
            }
        }
    }

    /// Destination-scoped recompute after `origin`'s declared cost changed
    /// (see [`FpssCore::dsts_affected_by_cost`]), falling back to the full
    /// recompute for strategies with whole-table hooks.
    fn recompute_after_cost_change(&mut self, ctx: &mut Ctx<'_, FpssMsg>, origin: NodeId) {
        if self.incremental {
            let changed_dsts = self.core.dsts_affected_by_cost(origin);
            let (routes, prices, retractions) = self.core.recompute_dsts(&changed_dsts, true);
            self.announce(ctx, routes, prices, retractions);
        } else {
            self.recompute_and_announce(ctx);
        }
    }

    fn apply_stream_command(&mut self, ctx: &mut Ctx<'_, FpssMsg>, cmd: StreamCommand) {
        let me = self.core.me();
        match cmd {
            StreamCommand::DeclareCost(cost) => {
                self.true_cost = cost;
                let declared = self.strategy.declare_cost(cost);
                self.declared = Some(declared);
                let epoch = self.cost_epochs.get(&me).copied().unwrap_or(0) + 1;
                self.cost_epochs.insert(me, epoch);
                let changed = self.core.update_cost(me, declared);
                for &b in self.core.neighbors() {
                    ctx.send(
                        b,
                        FpssMsg::CostUpdate {
                            origin: me,
                            declared,
                            epoch,
                        },
                    );
                }
                if changed {
                    self.recompute_after_cost_change(ctx, me);
                }
            }
            StreamCommand::PurgeNode(gone) => {
                self.core.remove_neighbor(gone);
                self.core.forget_cost(gone);
                self.cost_epochs.remove(&gone);
                // Full recompute: the wholesale table replacement is what
                // drops the departed node's rows (the destination-scoped
                // path cannot remove a destination it no longer costs).
                self.recompute_and_announce(ctx);
            }
            StreamCommand::Rejoin => {
                let neighbors = self.core.neighbors().to_vec();
                self.core = FpssCore::new(me, neighbors);
                self.cost_epochs.clear();
                let declared = self.strategy.declare_cost(self.true_cost);
                self.declared = Some(declared);
                self.core.learn_cost(me, declared);
                for &b in self.core.neighbors() {
                    ctx.send(
                        b,
                        FpssMsg::CostAnnounce {
                            origin: me,
                            declared,
                        },
                    );
                }
                self.recompute_and_announce(ctx);
            }
            StreamCommand::ResyncNeighbor(back) => {
                self.core.add_neighbor(back);
                // The returned node restarts with amnesia: hand it
                // everything known here as ordinary protocol messages —
                // duplicates are idempotent on its side (first-write-wins
                // costs, change-detected table rows).
                let costs: Vec<(NodeId, Cost)> = self.core.data1().iter().collect();
                for (origin, declared) in costs {
                    ctx.send(back, FpssMsg::CostAnnounce { origin, declared });
                }
                let rows = self.core.routes().to_rows();
                if !rows.is_empty() {
                    ctx.send(back, FpssMsg::RoutingUpdate { rows });
                }
                let rows = self.core.prices().to_rows();
                if !rows.is_empty() {
                    ctx.send(
                        back,
                        FpssMsg::PricingUpdate {
                            rows,
                            retractions: Vec::new(),
                        },
                    );
                }
            }
        }
    }

    fn recompute_and_announce(&mut self, ctx: &mut Ctx<'_, FpssMsg>) {
        let strategy = &mut self.strategy;
        let me = self.core.me();
        let (changed_routes, changed_prices, retractions) = self
            .core
            .recompute_with(|honest| strategy.install_own_pricing(me, honest));
        self.announce(ctx, changed_routes, changed_prices, retractions);
    }

    fn handle_packet(&mut self, ctx: &mut Ctx<'_, FpssMsg>, pkt: Packet) {
        let me = self.core.me();
        if pkt.dst == me {
            *self.delivered_from.entry(pkt.src).or_insert(0) += 1;
            return;
        }
        if pkt.hops > self.max_hops {
            self.dropped += 1;
            return;
        }
        if pkt.src != me && !self.strategy.forward_packet(me, &pkt) {
            self.dropped += 1;
            return;
        }
        let Some(next) = self.core.routes().next_hop(pkt.dst) else {
            self.dropped += 1;
            return;
        };
        if pkt.src != me {
            self.carried += 1;
        }
        ctx.send(
            next,
            FpssMsg::Data(Packet {
                hops: pkt.hops + 1,
                ..pkt
            }),
        );
    }

    fn begin_execution(&mut self, ctx: &mut Ctx<'_, FpssMsg>) {
        let me = self.core.me();
        let flows = std::mem::take(&mut self.pending_traffic);
        for (dst, packets) in flows {
            let Some(path) = self.core.routes().path(dst).map(<[NodeId]>::to_vec) else {
                continue;
            };
            let transits: Vec<NodeId> = if path.len() > 2 {
                path[1..path.len() - 1].to_vec()
            } else {
                Vec::new()
            };
            for _ in 0..packets {
                *self.originated.entry(dst).or_insert(0) += 1;
                for &k in &transits {
                    let price = self.core.prices().price(dst, k).unwrap_or(Money::ZERO);
                    self.ledger.accrue(k, price);
                }
                self.handle_packet(
                    ctx,
                    Packet {
                        src: me,
                        dst,
                        hops: 0,
                    },
                );
            }
        }
    }
}

impl Actor for PlainFpssNode {
    type Msg = FpssMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, FpssMsg>) {
        let me = self.core.me();
        let declared = self.strategy.declare_cost(self.true_cost);
        self.declared = Some(declared);
        self.core.learn_cost(me, declared);
        for &b in self.core.neighbors() {
            ctx.send(
                b,
                FpssMsg::CostAnnounce {
                    origin: me,
                    declared,
                },
            );
        }
        self.recompute_and_announce(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, FpssMsg>, from: NodeId, msg: FpssMsg) {
        match msg {
            FpssMsg::CostAnnounce { origin, declared } => {
                if self.core.learn_cost(origin, declared) {
                    if let Some(refloooded) = self.strategy.reflood_cost(origin, declared) {
                        for &b in self.core.neighbors() {
                            if b != from {
                                ctx.send(
                                    b,
                                    FpssMsg::CostAnnounce {
                                        origin,
                                        declared: refloooded,
                                    },
                                );
                            }
                        }
                    }
                    if self.incremental {
                        // First-write-wins costs only *enable* candidates:
                        // the affected destinations are exactly those with
                        // an advertised route through the origin.
                        let changed_dsts = self.core.dsts_affected_by_cost(origin);
                        let (routes, prices, retractions) =
                            self.core.recompute_dsts(&changed_dsts, true);
                        self.announce(ctx, routes, prices, retractions);
                    } else {
                        self.recompute_and_announce(ctx);
                    }
                }
            }
            FpssMsg::CostUpdate {
                origin,
                declared,
                epoch,
            } => {
                let last = self.cost_epochs.get(&origin).copied().unwrap_or(0);
                if epoch <= last {
                    return;
                }
                self.cost_epochs.insert(origin, epoch);
                // Re-flood on epoch newness (not value change): the flood
                // must reach nodes that already hold the value through a
                // different path, and the epoch check terminates it.
                for &b in self.core.neighbors() {
                    if b != from {
                        ctx.send(
                            b,
                            FpssMsg::CostUpdate {
                                origin,
                                declared,
                                epoch,
                            },
                        );
                    }
                }
                if self.core.update_cost(origin, declared) {
                    self.recompute_after_cost_change(ctx, origin);
                }
            }
            FpssMsg::RoutingUpdate { rows } => {
                let mut changed_dsts = BTreeSet::new();
                for row in &rows {
                    if self.core.learn_route(from, row) {
                        changed_dsts.insert(row.dst);
                    }
                }
                if !changed_dsts.is_empty() {
                    if self.incremental {
                        let (routes, prices, retractions) =
                            self.core.recompute_dsts(&changed_dsts, true);
                        self.announce(ctx, routes, prices, retractions);
                    } else {
                        self.recompute_and_announce(ctx);
                    }
                }
            }
            FpssMsg::PricingUpdate { rows, retractions } => {
                let mut changed_dsts = BTreeSet::new();
                for row in &rows {
                    if self.core.learn_price(from, row) {
                        changed_dsts.insert(row.dst);
                    }
                }
                for &(dst, transit) in &retractions {
                    if self.core.learn_price_retraction(from, dst, transit) {
                        changed_dsts.insert(dst);
                    }
                }
                if !changed_dsts.is_empty() {
                    if self.incremental {
                        // Advertised prices are not a routing input:
                        // routing rows cannot change here.
                        let (routes, prices, retractions) =
                            self.core.recompute_dsts(&changed_dsts, false);
                        self.announce(ctx, routes, prices, retractions);
                    } else {
                        self.recompute_and_announce(ctx);
                    }
                }
            }
            FpssMsg::Data(pkt) => self.handle_packet(ctx, pkt),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, FpssMsg>, tag: u64) {
        if tag == TAG_BEGIN_EXECUTION {
            self.begin_execution(ctx);
        } else if tag == TAG_STREAM {
            let cmds = std::mem::take(&mut self.stream_commands);
            for cmd in cmds {
                self.apply_stream_command(ctx, cmd);
            }
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
    fn core_recompute_reports_changes_once() {
        let mut core = FpssCore::new(n(0), vec![n(1)]);
        core.learn_cost(n(0), Cost::new(0));
        core.learn_cost(n(1), Cost::new(5));
        let (routes, _, _) = core.recompute();
        // Trivial self-row plus the adjacency row to 1.
        assert!(routes.iter().any(|r| r.dst == n(1)));
        let (routes2, prices2, retractions2) = core.recompute();
        assert!(routes2.is_empty(), "no change on re-run");
        assert!(prices2.is_empty());
        assert!(retractions2.is_empty());
    }

    #[test]
    fn core_me_and_neighbors() {
        let core = FpssCore::new(n(2), vec![n(0), n(1)]);
        assert_eq!(core.me(), n(2));
        assert_eq!(core.neighbors(), &[n(0), n(1)]);
    }

    #[test]
    fn node_debug_names_strategy() {
        let node = PlainFpssNode::faithful(n(0), vec![n(1)], Cost::new(1), 32);
        assert!(format!("{node:?}").contains("faithful"));
    }
}
