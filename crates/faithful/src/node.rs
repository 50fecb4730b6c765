//! The faithful FPSS node: the FPSS engine plus a checker tap and the
//! bank channel.
//!
//! Each topology node simultaneously:
//!
//! * runs the FPSS construction/execution protocol as a **principal**:
//!   the very engine plain FPSS runs ([`PlainFpssNode`]), sending in
//!   [`FMsg`];
//! * forwards every routing and pricing message it receives to its
//!   checkers (\[PRINC1\]/\[PRINC2\]), through its strategy, which is where
//!   message-passing deviations live;
//! * maintains a [`Mirror`] of every neighbor, acting as their **checker**
//!   (\[CHECK1\]/\[CHECK2\]);
//! * answers the bank's signed requests: hash reports at checkpoints,
//!   payment/observation reports after execution.
//!
//! The first three are the engine plus `Checkers`, its [`Tap`]: the
//! engine calls the tap wherever the principal's run touches the mirrors
//! (a cost learned or updated, an inbound message, an announcement, a
//! packet sent, a restart). [`FaithfulNode`] itself keeps only the message
//! type, the checker-copy intake and the bank channel: a bank restart
//! restarts the engine, and the green light begins its execution phase.

use crate::checker::Mirror;
use crate::codec::{BankPayload, MirrorHashes, PrincipalObservation};
use specfaith_core::id::NodeId;
use specfaith_core::money::{Cost, Money};
use specfaith_crypto::auth::{Authenticated, ChannelKey};
use specfaith_fpss::deviation::RationalStrategy;
use specfaith_fpss::msg::{FpssMsg, Packet};
use specfaith_fpss::node::{FpssCore, PlainFpssNode, StreamCommand, Tap, TAG_STREAM};
use specfaith_netsim::{Actor, Ctx, Payload};
use std::collections::BTreeMap;

/// Messages of the faithful protocol.
#[derive(Clone, Debug)]
pub enum FMsg {
    /// A plain FPSS protocol message between neighbors.
    Fpss(FpssMsg),
    /// A copy of an inbound construction message, forwarded by a
    /// principal to its checkers (\[PRINC1\]/\[PRINC2\]).
    CheckerCopy {
        /// The neighbor the principal claims sent the original.
        original_from: NodeId,
        /// The (possibly tampered) copy.
        inner: FpssMsg,
    },
    /// A MAC-authenticated bank-channel envelope.
    Bank(Authenticated),
}

impl Payload for FMsg {
    /// Frozen wire-size formulas — the mechanism's overhead accounting and
    /// the byte-identical golden runs in `tests/network_models.rs` both
    /// build on them (see the wire-size contract in `specfaith_fpss::msg`).
    /// `CheckerCopy` adds a 4-byte claimed-sender id to the inner message;
    /// `Bank` counts sender id (4) + sequence (8) + HMAC tag (32) + the
    /// sealed payload bytes.
    fn size_bytes(&self) -> usize {
        match self {
            FMsg::Fpss(m) => m.size_bytes(),
            FMsg::CheckerCopy { inner, .. } => 4 + inner.size_bytes(),
            FMsg::Bank(env) => 4 + 8 + 32 + env.payload.len(),
        }
    }
}

impl From<FpssMsg> for FMsg {
    fn from(msg: FpssMsg) -> Self {
        FMsg::Fpss(msg)
    }
}

/// The checker role of a node: one [`Mirror`] per neighbor, kept in step
/// with the principal's own run by the engine's tap calls.
struct Checkers {
    mirrors: BTreeMap<NodeId, Mirror>,
}

impl Tap for Checkers {
    type Msg = FMsg;

    fn cost_learned(&mut self, origin: NodeId, declared: Cost) {
        for mirror in self.mirrors.values_mut() {
            mirror.learn_cost(origin, declared);
        }
    }

    /// Mirrors share the global DATA1, so a cost overwrite reaches every
    /// checker through the flood itself: `CostUpdate`, like
    /// `CostAnnounce`, is not forwarded to checkers.
    fn cost_updated(&mut self, origin: NodeId, declared: Cost) {
        for mirror in self.mirrors.values_mut() {
            mirror.update_cost(origin, declared);
        }
    }

    /// Records what neighbor `from` announced (or the packet it handed
    /// over) in its mirror, then forwards a copy of a routing or pricing
    /// message to every other neighbor: its checkers.
    fn inbound(
        &mut self,
        ctx: &mut Ctx<'_, FMsg>,
        strategy: &mut dyn RationalStrategy,
        neighbors: &[NodeId],
        from: NodeId,
        msg: &FpssMsg,
    ) {
        if let Some(mirror) = self.mirrors.get_mut(&from) {
            match msg {
                FpssMsg::RoutingUpdate { rows } => mirror.record_announced_routing(rows),
                FpssMsg::PricingUpdate { rows, retractions } => {
                    mirror.record_announced_pricing(rows, retractions);
                }
                FpssMsg::Data(pkt) => mirror.record_packet_from_principal(pkt.src, pkt.dst),
                FpssMsg::CostAnnounce { .. } | FpssMsg::CostUpdate { .. } => {}
            }
        }
        if !matches!(
            msg,
            FpssMsg::RoutingUpdate { .. } | FpssMsg::PricingUpdate { .. }
        ) {
            return;
        }
        if let Some(copy) = strategy.forward_to_checkers(from, msg.clone()) {
            for &c in neighbors {
                if c != from {
                    ctx.send(
                        c,
                        FMsg::CheckerCopy {
                            original_from: from,
                            inner: copy.clone(),
                        },
                    );
                }
            }
        }
    }

    /// What went on the wire is also what the mirrors of the receivers
    /// must count as this node's input to them.
    fn announced(&mut self, msg: &FpssMsg) {
        for mirror in self.mirrors.values_mut() {
            mirror.record_own_send(msg);
        }
    }

    fn packet_sent(&mut self, next: NodeId, pkt: &Packet) {
        if let Some(mirror) = self.mirrors.get_mut(&next) {
            mirror.record_own_send(&FpssMsg::Data(*pkt));
        }
    }

    fn restarted(&mut self) {
        for mirror in self.mirrors.values_mut() {
            mirror.reset_construction();
        }
    }
}

/// The faithful node actor.
pub struct FaithfulNode {
    engine: PlainFpssNode<Checkers>,
    bank: NodeId,
    key: ChannelKey,
    send_seq: u64,
    last_bank_seq: u64,
    auth_failures: u64,
    settled: Option<(Money, Money)>,
}

impl std::fmt::Debug for FaithfulNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FaithfulNode({}, strategy={})",
            self.engine.core().me(),
            self.engine.strategy().spec().name()
        )
    }
}

impl FaithfulNode {
    /// Creates a node.
    ///
    /// `neighbor_map` provides each neighbor's own neighbor list (the
    /// semi-private adjacency knowledge checkers hold about their
    /// principals).
    #[allow(clippy::too_many_arguments)] // node identity, knowledge, strategy, and bank wiring are all distinct concerns
    pub fn new(
        me: NodeId,
        neighbors: Vec<NodeId>,
        neighbor_map: BTreeMap<NodeId, Vec<NodeId>>,
        true_cost: Cost,
        strategy: Box<dyn RationalStrategy>,
        bank: NodeId,
        key: ChannelKey,
        max_hops: u32,
    ) -> Self {
        let mirrors = neighbors
            .iter()
            .map(|&p| {
                let p_neighbors = neighbor_map
                    .get(&p)
                    .expect("neighbor map covers all neighbors")
                    .clone();
                (p, Mirror::new(me, p, p_neighbors))
            })
            .collect();
        FaithfulNode {
            engine: PlainFpssNode::with_tap(
                me,
                neighbors,
                true_cost,
                strategy,
                max_hops,
                Checkers { mirrors },
            ),
            bank,
            key,
            send_seq: 0,
            last_bank_seq: 0,
            auth_failures: 0,
            settled: None,
        }
    }

    /// Queues a streaming management command; the engine schedules a
    /// [`TAG_STREAM`] timer on this node to drain the queue in-simulation.
    /// The faithful engine only streams [`StreamCommand::DeclareCost`] —
    /// churn commands are a plain-engine concept (see the liveness-hole
    /// discussion on `FaithfulRunState`).
    pub fn queue_stream_command(&mut self, cmd: StreamCommand) {
        self.engine.queue_stream_command(cmd);
    }

    /// The construction core.
    pub fn core(&self) -> &FpssCore {
        self.engine.core()
    }

    /// The declared cost, once started.
    pub fn declared_cost(&self) -> Option<Cost> {
        self.engine.declared_cost()
    }

    /// Queues execution-phase traffic (sent on the bank's green light).
    pub fn add_traffic(&mut self, dst: NodeId, packets: u64) {
        self.engine.add_traffic(dst, packets);
    }

    /// Packets transited (true cost incurred on each).
    pub fn carried(&self) -> u64 {
        self.engine.carried()
    }

    /// Packets dropped here.
    pub fn dropped(&self) -> u64 {
        self.engine.dropped()
    }

    /// Bank-channel verification failures observed by this node.
    pub fn auth_failures(&self) -> u64 {
        self.auth_failures
    }

    /// The settlement `(net_transfer, penalty)` received from the bank.
    pub fn settled(&self) -> Option<(Money, Money)> {
        self.settled
    }

    /// The checker mirror held for `principal`, if it is a neighbor.
    pub fn mirror(&self, principal: NodeId) -> Option<&Mirror> {
        self.engine.tap().mirrors.get(&principal)
    }

    fn send_to_bank(&mut self, ctx: &mut Ctx<'_, FMsg>, payload: &BankPayload) {
        self.send_seq += 1;
        let env = self.key.seal(self.send_seq, payload.encode());
        ctx.send(self.bank, FMsg::Bank(env));
    }

    fn hash_report(&mut self) -> BankPayload {
        let mirrors = self
            .engine
            .tap_mut()
            .mirrors
            .values_mut()
            .map(|mirror| {
                mirror.recompute();
                MirrorHashes {
                    principal: mirror.principal(),
                    announced_routing: mirror.announced_routing().digest(),
                    announced_pricing: mirror.announced_pricing().digest(),
                    recomputed_routing: mirror.recomputed_routing().digest(),
                    recomputed_pricing: mirror.recomputed_pricing().digest(),
                }
            })
            .collect();
        let core = self.engine.core();
        BankPayload::HashReport {
            own_routing: core.routes().digest(),
            own_pricing: core.prices().digest(),
            mirrors,
        }
    }

    fn payment_report(&mut self) -> BankPayload {
        let summary = self.engine.execution_summary();
        BankPayload::PaymentReport {
            owed: summary
                .reported_owed
                .into_iter()
                .map(|(to, amount)| (to.raw(), amount.value()))
                .collect(),
            originated: summary
                .originated
                .into_iter()
                .map(|(dst, count)| (dst.raw(), count))
                .collect(),
        }
    }

    fn observation_report(&mut self) -> BankPayload {
        let principals = self
            .engine
            .tap_mut()
            .mirrors
            .values_mut()
            .map(|mirror| {
                mirror.recompute();
                PrincipalObservation {
                    principal: mirror.principal().raw(),
                    declared_cost: mirror
                        .principal_declared_cost()
                        .map(Cost::value)
                        .unwrap_or(0),
                    sent_to: mirror
                        .flows_sent_to()
                        .iter()
                        .map(|(&(s, d), &c)| (s.raw(), d.raw(), c))
                        .collect(),
                    recv_from: mirror
                        .flows_recv_from()
                        .iter()
                        .map(|(&(s, d), &c)| (s.raw(), d.raw(), c))
                        .collect(),
                    mirror_prices: mirror
                        .recomputed_pricing()
                        .iter()
                        .map(|((dst, k), entry)| (dst.raw(), k.raw(), entry.price.value()))
                        .collect(),
                }
            })
            .collect();
        BankPayload::ObservationReport { principals }
    }

    fn handle_bank(&mut self, ctx: &mut Ctx<'_, FMsg>, env: Authenticated) {
        let payload = match self.key.open(&env, self.last_bank_seq) {
            Ok(bytes) => {
                self.last_bank_seq = env.sequence;
                bytes
            }
            Err(_) => {
                self.auth_failures += 1;
                return;
            }
        };
        let Ok(payload) = BankPayload::decode(&payload) else {
            self.auth_failures += 1;
            return;
        };
        match payload {
            BankPayload::RequestHashes => {
                let report = self.hash_report();
                self.send_to_bank(ctx, &report);
            }
            BankPayload::Restart => self.engine.restart(ctx),
            BankPayload::GreenLight => self.engine.begin_execution(ctx),
            BankPayload::RequestReports => {
                let payments = self.payment_report();
                self.send_to_bank(ctx, &payments);
                let observations = self.observation_report();
                self.send_to_bank(ctx, &observations);
            }
            BankPayload::Settle {
                net_transfer,
                penalty,
            } => {
                self.settled = Some((Money::new(net_transfer), Money::new(penalty)));
            }
            // Node-originated payloads arriving at a node are protocol
            // violations; count and ignore.
            BankPayload::HashReport { .. }
            | BankPayload::PaymentReport { .. }
            | BankPayload::ObservationReport { .. } => {
                self.auth_failures += 1;
            }
        }
    }
}

impl Actor for FaithfulNode {
    type Msg = FMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, FMsg>) {
        self.engine.start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, FMsg>, tag: u64) {
        if tag == TAG_STREAM {
            self.engine.run_stream_commands(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, FMsg>, from: NodeId, msg: FMsg) {
        match msg {
            FMsg::Fpss(msg) => self.engine.receive(ctx, from, msg),
            FMsg::CheckerCopy {
                original_from,
                inner,
            } => {
                if let Some(mirror) = self.engine.tap_mut().mirrors.get_mut(&from) {
                    mirror.feed_forwarded(original_from, &inner);
                }
            }
            FMsg::Bank(env) => self.handle_bank(ctx, env),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the faithful-layer wire-size formulas. These feed the network
    /// models' serialization/contention math and the golden byte totals in
    /// `tests/network_models.rs`; changing them is a reproducibility break.
    #[test]
    fn wire_sizes_are_frozen() {
        let packet = Packet {
            src: NodeId::new(0),
            dst: NodeId::new(1),
            hops: 2,
        };
        assert_eq!(FMsg::Fpss(FpssMsg::Data(packet)).size_bytes(), 12);
        assert_eq!(
            FMsg::CheckerCopy {
                original_from: NodeId::new(3),
                inner: FpssMsg::Data(packet),
            }
            .size_bytes(),
            4 + 12
        );
        let env = ChannelKey::derive(b"test-secret", 7).seal(1, vec![0u8; 10]);
        assert_eq!(FMsg::Bank(env).size_bytes(), 4 + 8 + 32 + 10);
    }
}
