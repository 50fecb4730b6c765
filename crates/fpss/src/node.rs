//! The FPSS node: a reusable pure core plus the one protocol engine.
//!
//! [`FpssCore`] holds the construction-phase state (DATA1, DATA2, DATA3*,
//! neighbor view) and applies the pure recompute functions. It is reused
//! verbatim by the faithful extension's checker mirrors: a mirror of
//! principal `P` is simply an `FpssCore` with `me = P` fed by the forwarded
//! copies of `P`'s inputs.
//!
//! [`PlainFpssNode`] is the one FPSS protocol engine: the cost flood and
//! its streamed re-declarations, routing and pricing intake, the choice
//! between the destination-scoped and the full recompute, announcements,
//! packet forwarding and the start of execution. Run as it is, it is the
//! plain FPSS actor. The faithful node (`specfaith_faithful::node`) runs
//! the same engine, sending in its own message type (the tap's
//! [`Tap::Msg`], any type with `From<FpssMsg>`), and adds only a checker
//! [`Tap`] and the bank channel, so a protocol change is made here, once.
//!
//! A tap sees six points of a node's run. Every method does nothing by
//! default; `()` is the plain node's tap.
//!
//! * [`Tap::cost_learned`]: a declared cost was learned (the node's own
//!   when construction starts, or the first copy of a flooded one), before
//!   it is re-flooded.
//! * [`Tap::cost_updated`]: a declared cost was overwritten: the node's own
//!   streamed re-declaration, always, or a received `CostUpdate` that
//!   changed DATA1. Called before the recompute.
//! * [`Tap::inbound`]: a routing, pricing or data message arrived, before
//!   the engine processes it.
//! * [`Tap::announced`]: a routing or pricing announcement was sent to
//!   every neighbor.
//! * [`Tap::packet_sent`]: a data packet is about to be sent.
//! * [`Tap::restarted`]: construction was reset and is about to start
//!   again.

use crate::compute::{
    best_route_to, price_entries_to, recompute_prices, recompute_routes, NeighborView,
};
use crate::deviation::RationalStrategy;
use crate::msg::{FpssMsg, Packet, PriceRow, RouteRow};
use crate::settle::ExecutionSummary;
use crate::state::{PaymentLedger, PricingTable, RoutingTable, TransitCostList};
use specfaith_core::id::NodeId;
use specfaith_core::money::{Cost, Money};
use specfaith_crypto::sha256::Digest;
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

    /// The `(data1, routing, pricing)` digests of this node's tables.
    pub fn table_digests(&self) -> (Digest, Digest, Digest) {
        (
            self.data1.digest(),
            self.routes.digest(),
            self.prices.digest(),
        )
    }

    /// Forgets DATA1, both tables and the neighbor view, keeping the node
    /// id and neighbor list: a construction restart.
    pub fn reset(&mut self) {
        *self = FpssCore::new(self.me, std::mem::take(&mut self.neighbors));
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

    /// Records a neighbor's routing or pricing update (rows and
    /// retractions) in the neighbor view, calling `changed` with the
    /// destination of each row that changed the view. Other messages
    /// change nothing.
    pub fn learn_update(&mut self, from: NodeId, msg: &FpssMsg, mut changed: impl FnMut(NodeId)) {
        match msg {
            FpssMsg::RoutingUpdate { rows } => {
                for row in rows {
                    if self.view.learn_route(from, row) {
                        changed(row.dst);
                    }
                }
            }
            FpssMsg::PricingUpdate { rows, retractions } => {
                for row in rows {
                    if self.view.learn_price(from, row) {
                        changed(row.dst);
                    }
                }
                for &(dst, transit) in retractions {
                    if self.view.retract_price(from, dst, transit) {
                        changed(dst);
                    }
                }
            }
            FpssMsg::CostAnnounce { .. } | FpssMsg::CostUpdate { .. } | FpssMsg::Data(_) => {}
        }
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

/// What an extension layered on the engine sees of one node's protocol
/// run (see the module docs for when each method is called).
pub trait Tap {
    /// The message type the node sends: [`FpssMsg`] itself, or a wider
    /// type that wraps it.
    type Msg: From<FpssMsg>;

    /// `origin`'s declared cost was learned.
    fn cost_learned(&mut self, _origin: NodeId, _declared: Cost) {}

    /// `origin`'s declared cost was overwritten.
    fn cost_updated(&mut self, _origin: NodeId, _declared: Cost) {}

    /// A routing, pricing or data message from neighbor `from` arrived.
    /// `strategy` and `neighbors` are the node's own, for a tap that
    /// passes copies on.
    fn inbound(
        &mut self,
        _ctx: &mut Ctx<'_, Self::Msg>,
        _strategy: &mut dyn RationalStrategy,
        _neighbors: &[NodeId],
        _from: NodeId,
        _msg: &FpssMsg,
    ) {
    }

    /// A routing or pricing announcement was sent to every neighbor.
    fn announced(&mut self, _msg: &FpssMsg) {}

    /// `pkt` is about to be sent to `next`.
    fn packet_sent(&mut self, _next: NodeId, _pkt: &Packet) {}

    /// Construction was reset and is about to start again.
    fn restarted(&mut self) {}
}

impl Tap for () {
    type Msg = FpssMsg;
}

/// The FPSS protocol engine: construction by flooding + asynchronous
/// recomputation, execution by source routing over the converged tables.
/// With the default tap it is the plain FPSS actor: no checkers, no bank,
/// the trust assumptions of the original FPSS.
pub struct PlainFpssNode<T: Tap = ()> {
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
    tap: T,
}

impl<T: Tap> std::fmt::Debug for PlainFpssNode<T> {
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
    /// Creates a plain node with the given true cost and strategy.
    pub fn new(
        me: NodeId,
        neighbors: Vec<NodeId>,
        true_cost: Cost,
        strategy: Box<dyn RationalStrategy>,
        max_hops: u32,
    ) -> Self {
        Self::with_tap(me, neighbors, true_cost, strategy, max_hops, ())
    }
}

impl<T: Tap> PlainFpssNode<T> {
    /// Creates a node whose run `tap` sees.
    pub fn with_tap(
        me: NodeId,
        neighbors: Vec<NodeId>,
        true_cost: Cost,
        strategy: Box<dyn RationalStrategy>,
        max_hops: u32,
        tap: T,
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
            tap,
        }
    }

    /// The construction core (tables, DATA1, view).
    pub fn core(&self) -> &FpssCore {
        &self.core
    }

    /// The node's strategy.
    pub fn strategy(&self) -> &dyn RationalStrategy {
        &*self.strategy
    }

    /// The tap.
    pub fn tap(&self) -> &T {
        &self.tap
    }

    /// Mutable access to the tap.
    pub fn tap_mut(&mut self) -> &mut T {
        &mut self.tap
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

    /// Starts construction: declares this node's cost (through its
    /// strategy), floods it and announces the first tables.
    pub fn start(&mut self, ctx: &mut Ctx<'_, T::Msg>) {
        let me = self.core.me();
        let declared = self.strategy.declare_cost(self.true_cost);
        self.declared = Some(declared);
        self.core.learn_cost(me, declared);
        self.tap.cost_learned(me, declared);
        let msg = FpssMsg::CostAnnounce {
            origin: me,
            declared,
        };
        self.send_to_neighbors(ctx, None, &msg);
        self.recompute_and_announce(ctx);
    }

    /// Restarts construction from scratch (a restart the faithful bank
    /// orders, or a rejoin after downtime): forgets every table and
    /// declared cost, then [`start`](Self::start)s again.
    pub fn restart(&mut self, ctx: &mut Ctx<'_, T::Msg>) {
        self.core.reset();
        self.tap.restarted();
        self.start(ctx);
    }

    /// Handles a protocol message from neighbor `from`.
    pub fn receive(&mut self, ctx: &mut Ctx<'_, T::Msg>, from: NodeId, msg: FpssMsg) {
        if !matches!(
            msg,
            FpssMsg::CostAnnounce { .. } | FpssMsg::CostUpdate { .. }
        ) {
            let neighbors = self.core.neighbors();
            self.tap
                .inbound(ctx, &mut *self.strategy, neighbors, from, &msg);
        }
        match msg {
            FpssMsg::CostAnnounce { origin, declared } => {
                if self.core.learn_cost(origin, declared) {
                    self.tap.cost_learned(origin, declared);
                    if let Some(reflooded) = self.strategy.reflood_cost(origin, declared) {
                        let msg = FpssMsg::CostAnnounce {
                            origin,
                            declared: reflooded,
                        };
                        self.send_to_neighbors(ctx, Some(from), &msg);
                    }
                    self.recompute_after_cost_change(ctx, origin);
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
                self.send_to_neighbors(ctx, Some(from), &msg);
                if self.core.update_cost(origin, declared) {
                    self.tap.cost_updated(origin, declared);
                    self.recompute_after_cost_change(ctx, origin);
                }
            }
            FpssMsg::RoutingUpdate { .. } | FpssMsg::PricingUpdate { .. } => {
                let mut changed_dsts = BTreeSet::new();
                self.core.learn_update(from, &msg, |dst| {
                    changed_dsts.insert(dst);
                });
                // Advertised prices are not a routing input: a pricing
                // update cannot change routing rows.
                let routing_changed = matches!(msg, FpssMsg::RoutingUpdate { .. });
                self.recompute_dsts_and_announce(ctx, &changed_dsts, routing_changed);
            }
            FpssMsg::Data(pkt) => self.handle_packet(ctx, pkt),
        }
    }

    /// Drains the queued [`StreamCommand`]s (the [`TAG_STREAM`] timer).
    pub fn run_stream_commands(&mut self, ctx: &mut Ctx<'_, T::Msg>) {
        for cmd in std::mem::take(&mut self.stream_commands) {
            self.apply_stream_command(ctx, cmd);
        }
    }

    /// Starts the execution phase: originates the queued traffic along the
    /// converged routes, accruing what each packet owes its transit nodes.
    pub fn begin_execution(&mut self, ctx: &mut Ctx<'_, T::Msg>) {
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

    /// Sends `msg` to every neighbor except `except`.
    fn send_to_neighbors(&self, ctx: &mut Ctx<'_, T::Msg>, except: Option<NodeId>, msg: &FpssMsg) {
        for &b in self.core.neighbors() {
            if Some(b) != except {
                ctx.send(b, msg.clone().into());
            }
        }
    }

    fn announce(
        &mut self,
        ctx: &mut Ctx<'_, T::Msg>,
        changed_routes: Vec<RouteRow>,
        changed_prices: Vec<PriceRow>,
        retractions: Vec<(NodeId, NodeId)>,
    ) {
        let me = self.core.me();
        let rows = self.strategy.announce_routing(me, changed_routes);
        if !rows.is_empty() {
            let msg = FpssMsg::RoutingUpdate { rows };
            self.send_to_neighbors(ctx, None, &msg);
            self.tap.announced(&msg);
        }
        let rows = self.strategy.announce_pricing(me, changed_prices);
        if !rows.is_empty() || !retractions.is_empty() {
            let msg = FpssMsg::PricingUpdate { rows, retractions };
            self.send_to_neighbors(ctx, None, &msg);
            self.tap.announced(&msg);
        }
    }

    fn recompute_and_announce(&mut self, ctx: &mut Ctx<'_, T::Msg>) {
        let strategy = &mut self.strategy;
        let me = self.core.me();
        let (changed_routes, changed_prices, retractions) = self
            .core
            .recompute_with(|honest| strategy.install_own_pricing(me, honest));
        self.announce(ctx, changed_routes, changed_prices, retractions);
    }

    /// Recomputes after the inputs of `dsts` changed: the
    /// destination-scoped recompute when the strategy allows it, else the
    /// full one. Nothing happens when `dsts` is empty.
    fn recompute_dsts_and_announce(
        &mut self,
        ctx: &mut Ctx<'_, T::Msg>,
        dsts: &BTreeSet<NodeId>,
        routing_changed: bool,
    ) {
        if dsts.is_empty() {
            return;
        }
        if self.incremental {
            let (routes, prices, retractions) = self.core.recompute_dsts(dsts, routing_changed);
            self.announce(ctx, routes, prices, retractions);
        } else {
            self.recompute_and_announce(ctx);
        }
    }

    /// Recomputes after `origin`'s declared cost changed. A first-write
    /// cost only *enables* candidates, and an overwrite moves only terms
    /// that read it: either way the affected destinations are those of
    /// [`FpssCore::dsts_affected_by_cost`].
    fn recompute_after_cost_change(&mut self, ctx: &mut Ctx<'_, T::Msg>, origin: NodeId) {
        if self.incremental {
            let changed_dsts = self.core.dsts_affected_by_cost(origin);
            self.recompute_dsts_and_announce(ctx, &changed_dsts, true);
        } else {
            self.recompute_and_announce(ctx);
        }
    }

    fn apply_stream_command(&mut self, ctx: &mut Ctx<'_, T::Msg>, cmd: StreamCommand) {
        let me = self.core.me();
        match cmd {
            StreamCommand::DeclareCost(cost) => {
                self.true_cost = cost;
                let declared = self.strategy.declare_cost(cost);
                self.declared = Some(declared);
                let epoch = self.cost_epochs.get(&me).copied().unwrap_or(0) + 1;
                self.cost_epochs.insert(me, epoch);
                let changed = self.core.update_cost(me, declared);
                self.tap.cost_updated(me, declared);
                let msg = FpssMsg::CostUpdate {
                    origin: me,
                    declared,
                    epoch,
                };
                self.send_to_neighbors(ctx, None, &msg);
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
                self.cost_epochs.clear();
                self.restart(ctx);
            }
            StreamCommand::ResyncNeighbor(back) => {
                self.core.add_neighbor(back);
                // The returned node restarts with amnesia: hand it
                // everything known here as ordinary protocol messages —
                // duplicates are idempotent on its side (first-write-wins
                // costs, change-detected table rows).
                for (origin, declared) in self.core.data1().iter() {
                    ctx.send(back, FpssMsg::CostAnnounce { origin, declared }.into());
                }
                let rows = self.core.routes().to_rows();
                if !rows.is_empty() {
                    ctx.send(back, FpssMsg::RoutingUpdate { rows }.into());
                }
                let rows = self.core.prices().to_rows();
                if !rows.is_empty() {
                    ctx.send(
                        back,
                        FpssMsg::PricingUpdate {
                            rows,
                            retractions: Vec::new(),
                        }
                        .into(),
                    );
                }
            }
        }
    }

    fn handle_packet(&mut self, ctx: &mut Ctx<'_, T::Msg>, pkt: Packet) {
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
        let pkt = Packet {
            hops: pkt.hops + 1,
            ..pkt
        };
        self.tap.packet_sent(next, &pkt);
        ctx.send(next, FpssMsg::Data(pkt).into());
    }
}

impl Actor for PlainFpssNode {
    type Msg = FpssMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, FpssMsg>) {
        self.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, FpssMsg>, from: NodeId, msg: FpssMsg) {
        self.receive(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, FpssMsg>, tag: u64) {
        if tag == TAG_BEGIN_EXECUTION {
            self.begin_execution(ctx);
        } else if tag == TAG_STREAM {
            self.run_stream_commands(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deviation::Faithful;

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
        let node = PlainFpssNode::new(n(0), vec![n(1)], Cost::new(1), Box::new(Faithful), 32);
        assert!(format!("{node:?}").contains("faithful"));
    }
}
