//! The bank: trusted checkpointing and settlement.
//!
//! The bank "is a trusted and obedient entity that can also perform simple
//! comparisons, and enforce penalties when it detects a problem" (§4.2).
//! It never performs the mechanism computation itself — it only compares
//! what principals and checkers report:
//!
//! * **\[BANK1\]** at network quiescence, collect routing-table hashes from
//!   every principal and every checker mirror; any difference ⇒ restart
//!   the construction phase.
//! * **\[BANK2\]** same for pricing tables (identity tags included); pass ⇒
//!   green-light execution.
//! * **Execution settlement**: recompute expected payments from checker
//!   observations × mirror prices, transfer the *corrected* amounts, and
//!   charge ε-above-the-deviation penalties for payment misreports and
//!   flow-conservation violations (dropped packets).
//!
//! Restarts are bounded; a persistently mismatching construction halts the
//! mechanism, which (per §4.3's assumption that non-progress carries a
//! strong negative value) is the construction-phase punishment.

use crate::codec::{BankPayload, MirrorHashes, PrincipalObservation};
use crate::node::FMsg;
use specfaith_core::id::NodeId;
use specfaith_core::money::Money;
use specfaith_crypto::auth::ChannelKey;
use specfaith_crypto::sha256::Digest;
use specfaith_graph::topology::Topology;
use specfaith_netsim::{Actor, Ctx};
use std::collections::BTreeMap;

/// Where the bank is in its checkpointing lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BankState {
    /// Waiting for the construction phase to go quiet.
    AwaitConstruction,
    /// Hash requests sent; waiting for reports.
    AwaitHashes,
    /// Hashes agreed under an execution hold: construction is certified
    /// but the green light is withheld until a checkpointed run calls
    /// [`BankNode::request_execution`] (or re-enters certification via
    /// [`BankNode::begin_recertification`]).
    Certified,
    /// Execution green-lighted; waiting for traffic to finish.
    Executing,
    /// Report requests sent; waiting for payment/observation reports.
    AwaitReports,
    /// Settlement done (or mechanism halted).
    Done,
}

/// Final settlement computed by the bank.
#[derive(Clone, Debug)]
pub struct Settlement {
    /// Net money transferred to each node (payments received − paid).
    pub transfers: Vec<Money>,
    /// Penalty charged to each node.
    pub penalties: Vec<Money>,
    /// Packets delivered, credited per originating node.
    pub delivered_by_src: Vec<u64>,
}

struct HashReportData {
    own_routing: Digest,
    own_pricing: Digest,
    mirrors: Vec<MirrorHashes>,
}

/// A node's payment report as stored by the bank: `(owed, originated)`.
type PaymentReportData = (Vec<(u32, i64)>, Vec<(u32, u64)>);

/// The bank actor. Lives at node id `n` (one past the topology), with an
/// overlay link to every node.
pub struct BankNode {
    topology: Topology,
    keys: Vec<ChannelKey>,
    node_last_seq: Vec<u64>,
    send_seq: u64,
    state: BankState,
    max_restarts: u32,
    epsilon: Money,
    hash_reports: BTreeMap<NodeId, HashReportData>,
    payment_reports: BTreeMap<NodeId, PaymentReportData>,
    observations: BTreeMap<NodeId, Vec<PrincipalObservation>>,
    restarts: u32,
    halted: bool,
    green_lighted: bool,
    auth_failures: u64,
    mismatched: Vec<NodeId>,
    outcome: Option<Settlement>,
    /// Streaming mode: park in `BankState::Certified` after a successful
    /// hash comparison instead of broadcasting the green light.
    hold_execution: bool,
    /// Set by [`BankNode::request_execution`]; the next quiescence in
    /// `BankState::Certified` broadcasts the green light.
    resume_requested: bool,
}

impl std::fmt::Debug for BankNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BankNode(state={:?}, restarts={}, halted={})",
            self.state, self.restarts, self.halted
        )
    }
}

impl BankNode {
    /// Creates the bank for `topology`, holding one channel key per node.
    pub fn new(topology: Topology, bank_secret: &[u8], max_restarts: u32, epsilon: Money) -> Self {
        let n = topology.num_nodes();
        let keys = (0..n as u32)
            .map(|id| ChannelKey::derive(bank_secret, id))
            .collect();
        BankNode {
            topology,
            keys,
            node_last_seq: vec![0; n],
            send_seq: 0,
            state: BankState::AwaitConstruction,
            max_restarts,
            epsilon,
            hash_reports: BTreeMap::new(),
            payment_reports: BTreeMap::new(),
            observations: BTreeMap::new(),
            restarts: 0,
            halted: false,
            green_lighted: false,
            auth_failures: 0,
            mismatched: Vec::new(),
            outcome: None,
            hold_execution: false,
            resume_requested: false,
        }
    }

    /// Puts the bank in streaming mode: a successful hash comparison parks
    /// it in `BankState::Certified` (green-lighted, but no green-light
    /// broadcast) so a checkpointed run can stream topology events against the
    /// certified fixed point before releasing execution.
    #[must_use]
    pub fn with_execution_hold(mut self) -> Self {
        self.hold_execution = true;
        self
    }

    /// Re-enters certification after a streamed event: clears collected
    /// hash reports and the green light, and re-arms the checkpoint state
    /// machine. The next quiescence re-requests hashes from every node;
    /// agreement re-certifies (parking in `BankState::Certified` again),
    /// disagreement follows the ordinary restart-then-halt path.
    ///
    /// Only meaningful from `BankState::Certified`; a no-op otherwise
    /// (in particular after a halt).
    pub fn begin_recertification(&mut self) {
        if self.state != BankState::Certified {
            return;
        }
        self.hash_reports.clear();
        self.green_lighted = false;
        self.state = BankState::AwaitConstruction;
    }

    /// Asks a certified, held bank to broadcast the green light at the next
    /// quiescence, releasing the execution phase.
    pub fn request_execution(&mut self) {
        self.resume_requested = true;
    }

    /// Times the construction phase was restarted.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Whether the mechanism was halted (restart budget exhausted).
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Whether execution was green-lighted.
    pub fn green_lighted(&self) -> bool {
        self.green_lighted
    }

    /// MAC/codec verification failures on inbound envelopes.
    pub fn auth_failures(&self) -> u64 {
        self.auth_failures
    }

    /// Principals whose hash comparison failed in the last check.
    pub fn mismatched_principals(&self) -> &[NodeId] {
        &self.mismatched
    }

    /// The settlement, once computed.
    pub fn outcome(&self) -> Option<&Settlement> {
        self.outcome.as_ref()
    }

    fn broadcast(&mut self, ctx: &mut Ctx<'_, FMsg>, payload: &BankPayload) {
        let bytes = payload.encode();
        self.send_seq += 1;
        for node in self.topology.nodes() {
            let env = self.keys[node.index()].seal(self.send_seq, bytes.clone());
            ctx.send(node, FMsg::Bank(env));
        }
    }

    fn send_one(&mut self, ctx: &mut Ctx<'_, FMsg>, node: NodeId, payload: &BankPayload) {
        self.send_seq += 1;
        let env = self.keys[node.index()].seal(self.send_seq, payload.encode());
        ctx.send(node, FMsg::Bank(env));
    }

    /// \[BANK1\] + \[BANK2\]: for every principal, its own hashes, every
    /// checker's announced-table hashes, and every checker's recomputed
    /// mirror hashes must all agree. Returns the mismatching principals.
    fn evaluate_hashes(&self) -> Vec<NodeId> {
        let mut bad = Vec::new();
        for principal in self.topology.nodes() {
            let Some(own) = self.hash_reports.get(&principal) else {
                bad.push(principal);
                continue;
            };
            let mut ok = true;
            for checker in self.topology.neighbors(principal) {
                let Some(report) = self.hash_reports.get(checker) else {
                    ok = false;
                    break;
                };
                let Some(mirror) = report.mirrors.iter().find(|m| m.principal == principal) else {
                    ok = false;
                    break;
                };
                if mirror.announced_routing != own.own_routing
                    || mirror.recomputed_routing != own.own_routing
                    || mirror.announced_pricing != own.own_pricing
                    || mirror.recomputed_pricing != own.own_pricing
                {
                    ok = false;
                    break;
                }
            }
            if !ok {
                bad.push(principal);
            }
        }
        bad
    }

    /// Execution settlement from checker observations and payment reports.
    fn settle(&self) -> Settlement {
        let n = self.topology.num_nodes();
        let mut transfers = vec![Money::ZERO; n];
        let mut penalties = vec![Money::ZERO; n];
        let mut delivered_by_src = vec![0u64; n];

        // Aggregate checker observations per principal.
        // observed_originated[(P, dst)] = packets P injected (first hop).
        let mut observed_originated: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        // flow_in[(P, src, dst)] / flow_out[(P, src, dst)] for transit P.
        let mut flow_in: BTreeMap<(u32, u32, u32), u64> = BTreeMap::new();
        let mut flow_out: BTreeMap<(u32, u32, u32), u64> = BTreeMap::new();
        // Mirror prices per principal, from its lowest-id checker (all
        // checkers' mirrors are hash-certified equal).
        let mut mirror_prices: BTreeMap<u32, BTreeMap<(u32, u32), i64>> = BTreeMap::new();
        let mut declared_costs: BTreeMap<u32, u64> = BTreeMap::new();

        for (&checker, observations) in &self.observations {
            for obs in observations {
                let p = obs.principal;
                declared_costs.entry(p).or_insert(obs.declared_cost);
                mirror_prices.entry(p).or_insert_with(|| {
                    obs.mirror_prices
                        .iter()
                        .map(|&(d, k, v)| ((d, k), v))
                        .collect()
                });
                for &(src, dst, count) in &obs.recv_from {
                    if src == p {
                        *observed_originated.entry((p, dst)).or_insert(0) += count;
                    } else {
                        *flow_out.entry((p, src, dst)).or_insert(0) += count;
                    }
                }
                for &(src, dst, count) in &obs.sent_to {
                    if dst == p {
                        // Final-hop arrival at p: credit the source.
                        delivered_by_src[src as usize] += count;
                    } else if src != p {
                        *flow_in.entry((p, src, dst)).or_insert(0) += count;
                    }
                }
                let _ = checker;
            }
        }

        // Expected payments: observed originated × certified mirror prices.
        let mut expected_owed: BTreeMap<(u32, u32), i64> = BTreeMap::new();
        for (&(p, dst), &count) in &observed_originated {
            if let Some(prices) = mirror_prices.get(&p) {
                for (&(d, k), &price) in prices {
                    if d == dst {
                        *expected_owed.entry((p, k)).or_insert(0) += price * count as i64;
                    }
                }
            }
        }

        // Transfers: the bank enforces the *expected* amounts.
        for (&(payer, payee), &amount) in &expected_owed {
            transfers[payer as usize] -= Money::new(amount);
            transfers[payee as usize] += Money::new(amount);
        }

        // Penalty 1: payment misreports (|reported − expected| + ε).
        for node in self.topology.nodes() {
            let reported: BTreeMap<u32, i64> = self
                .payment_reports
                .get(&node)
                .map(|(owed, _)| owed.iter().copied().collect())
                .unwrap_or_default();
            let mut discrepancy = 0i64;
            let mut payees: std::collections::BTreeSet<u32> = reported.keys().copied().collect();
            for &(payer, payee) in expected_owed.keys() {
                if payer == node.raw() {
                    payees.insert(payee);
                }
            }
            for payee in payees {
                let expected = expected_owed
                    .get(&(node.raw(), payee))
                    .copied()
                    .unwrap_or(0);
                let claimed = reported.get(&payee).copied().unwrap_or(0);
                discrepancy += (expected - claimed).abs();
            }
            if discrepancy > 0 {
                penalties[node.index()] += Money::new(discrepancy) + self.epsilon;
            }
        }

        // Penalty 2: flow-conservation violations (dropped transit
        // packets): dropped × declared cost + ε.
        for node in self.topology.nodes() {
            let p = node.raw();
            let mut dropped = 0u64;
            for (&(q, src, dst), &inflow) in &flow_in {
                if q != p {
                    continue;
                }
                let outflow = flow_out.get(&(p, src, dst)).copied().unwrap_or(0);
                dropped += inflow.saturating_sub(outflow);
            }
            if dropped > 0 {
                let declared = declared_costs.get(&p).copied().unwrap_or(0);
                penalties[node.index()] += Money::new((dropped * declared) as i64) + self.epsilon;
            }
        }

        Settlement {
            transfers,
            penalties,
            delivered_by_src,
        }
    }

    fn handle_envelope(&mut self, env: &specfaith_crypto::auth::Authenticated) {
        let sender = env.sender as usize;
        if sender >= self.keys.len() {
            self.auth_failures += 1;
            return;
        }
        let bytes = match self.keys[sender].open(env, self.node_last_seq[sender]) {
            Ok(bytes) => {
                self.node_last_seq[sender] = env.sequence;
                bytes
            }
            Err(_) => {
                self.auth_failures += 1;
                return;
            }
        };
        let Ok(payload) = BankPayload::decode(&bytes) else {
            self.auth_failures += 1;
            return;
        };
        let node = NodeId::new(env.sender);
        match payload {
            BankPayload::HashReport {
                own_routing,
                own_pricing,
                mirrors,
            } => {
                self.hash_reports.insert(
                    node,
                    HashReportData {
                        own_routing,
                        own_pricing,
                        mirrors,
                    },
                );
            }
            BankPayload::PaymentReport { owed, originated } => {
                self.payment_reports.insert(node, (owed, originated));
            }
            BankPayload::ObservationReport { principals } => {
                self.observations.insert(node, principals);
            }
            // Bank-originated payloads arriving at the bank are protocol
            // violations.
            _ => self.auth_failures += 1,
        }
    }
}

impl Actor for BankNode {
    type Msg = FMsg;

    fn on_message(&mut self, _ctx: &mut Ctx<'_, FMsg>, _from: NodeId, msg: FMsg) {
        match msg {
            FMsg::Bank(env) => self.handle_envelope(&env),
            // Only bank-channel traffic is addressed to the bank.
            _ => self.auth_failures += 1,
        }
    }

    fn observes_quiescence(&self) -> bool {
        true
    }

    fn on_quiescence(&mut self, ctx: &mut Ctx<'_, FMsg>) {
        match self.state {
            BankState::AwaitConstruction => {
                self.broadcast(ctx, &BankPayload::RequestHashes);
                self.state = BankState::AwaitHashes;
            }
            BankState::AwaitHashes => {
                self.mismatched = self.evaluate_hashes();
                if self.mismatched.is_empty() {
                    self.green_lighted = true;
                    if self.hold_execution {
                        // Streaming: certified, but execution stays parked
                        // until the engine asks for it.
                        self.state = BankState::Certified;
                    } else {
                        self.broadcast(ctx, &BankPayload::GreenLight);
                        self.state = BankState::Executing;
                    }
                } else if self.restarts < self.max_restarts {
                    self.restarts += 1;
                    self.hash_reports.clear();
                    self.broadcast(ctx, &BankPayload::Restart);
                    self.state = BankState::AwaitConstruction;
                } else {
                    self.halted = true;
                    self.state = BankState::Done;
                }
            }
            BankState::Certified => {
                if self.resume_requested {
                    self.resume_requested = false;
                    self.broadcast(ctx, &BankPayload::GreenLight);
                    self.state = BankState::Executing;
                }
            }
            BankState::Executing => {
                self.broadcast(ctx, &BankPayload::RequestReports);
                self.state = BankState::AwaitReports;
            }
            BankState::AwaitReports => {
                let settlement = self.settle();
                for node in self.topology.nodes().collect::<Vec<_>>() {
                    let payload = BankPayload::Settle {
                        net_transfer: settlement.transfers[node.index()].value(),
                        penalty: settlement.penalties[node.index()].value(),
                    };
                    self.send_one(ctx, node, &payload);
                }
                self.outcome = Some(settlement);
                self.state = BankState::Done;
            }
            BankState::Done => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaith_graph::generators::ring;

    fn bank() -> BankNode {
        BankNode::new(ring(3), b"secret", 2, Money::new(1))
    }

    #[test]
    fn rejects_bad_macs() {
        let mut b = bank();
        let key = ChannelKey::derive(b"wrong-secret", 0);
        let env = key.seal(1, BankPayload::RequestHashes.encode());
        b.handle_envelope(&env);
        assert_eq!(b.auth_failures(), 1);
    }

    #[test]
    fn rejects_replays() {
        let mut b = bank();
        let key = ChannelKey::derive(b"secret", 0);
        let env = key.seal(
            1,
            BankPayload::PaymentReport {
                owed: vec![],
                originated: vec![],
            }
            .encode(),
        );
        b.handle_envelope(&env);
        assert_eq!(b.auth_failures(), 0);
        b.handle_envelope(&env);
        assert_eq!(b.auth_failures(), 1, "replay rejected");
    }

    #[test]
    fn rejects_tampered_payloads() {
        let mut b = bank();
        let key = ChannelKey::derive(b"secret", 0);
        let mut env = key.seal(
            1,
            BankPayload::PaymentReport {
                owed: vec![(1, 100)],
                originated: vec![],
            }
            .encode(),
        );
        // A transit node flips a byte of the report.
        let last = env.payload.len() - 1;
        env.payload[last] ^= 0xff;
        b.handle_envelope(&env);
        assert_eq!(b.auth_failures(), 1);
        assert!(b.payment_reports.is_empty());
    }

    #[test]
    fn rejects_out_of_range_senders() {
        let mut b = bank();
        let key = ChannelKey::derive(b"secret", 99);
        let env = key.seal(1, BankPayload::RequestHashes.encode());
        b.handle_envelope(&env);
        assert_eq!(b.auth_failures(), 1);
    }

    #[test]
    fn missing_hash_reports_count_as_mismatch() {
        let b = bank();
        let bad = b.evaluate_hashes();
        assert_eq!(bad.len(), 3, "no reports at all: everyone mismatches");
    }
}
