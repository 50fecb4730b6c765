//! Heterogeneous actor wrapper: topology nodes plus the bank in one
//! simulated network.

use crate::bank::BankNode;
use crate::node::{FMsg, FaithfulNode};
use specfaith_core::id::NodeId;
use specfaith_core::money::Cost;
use specfaith_fpss::node::{FpssCore, StreamCommand};
use specfaith_fpss::runner::FpssActor;
use specfaith_netsim::{Actor, Ctx};

/// Either a protocol node or the bank.
#[derive(Debug)]
pub enum NodeOrBank {
    /// A faithful (or deviating) protocol node.
    Node(Box<FaithfulNode>),
    /// The trusted bank.
    Bank(Box<BankNode>),
}

impl NodeOrBank {
    /// The protocol node, if this is one.
    ///
    /// # Panics
    ///
    /// Panics if this is the bank.
    pub fn node(&self) -> &FaithfulNode {
        match self {
            NodeOrBank::Node(n) => n,
            NodeOrBank::Bank(_) => panic!("expected a protocol node, found the bank"),
        }
    }

    /// Mutable access to the protocol node.
    ///
    /// # Panics
    ///
    /// Panics if this is the bank.
    pub fn node_mut(&mut self) -> &mut FaithfulNode {
        match self {
            NodeOrBank::Node(n) => n,
            NodeOrBank::Bank(_) => panic!("expected a protocol node, found the bank"),
        }
    }

    /// The bank, if this is it.
    ///
    /// # Panics
    ///
    /// Panics if this is a protocol node.
    pub fn bank(&self) -> &BankNode {
        match self {
            NodeOrBank::Bank(b) => b,
            NodeOrBank::Node(_) => panic!("expected the bank, found a protocol node"),
        }
    }

    /// Mutable access to the bank (a checkpointed run flips its
    /// certification/hold state between simulator runs).
    ///
    /// # Panics
    ///
    /// Panics if this is a protocol node.
    pub fn bank_mut(&mut self) -> &mut BankNode {
        match self {
            NodeOrBank::Bank(b) => b,
            NodeOrBank::Node(_) => panic!("expected the bank, found a protocol node"),
        }
    }
}

impl Actor for NodeOrBank {
    type Msg = FMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, FMsg>) {
        match self {
            NodeOrBank::Node(n) => n.on_start(ctx),
            NodeOrBank::Bank(b) => b.on_start(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, FMsg>, from: NodeId, msg: FMsg) {
        match self {
            NodeOrBank::Node(n) => n.on_message(ctx, from, msg),
            NodeOrBank::Bank(b) => b.on_message(ctx, from, msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, FMsg>, tag: u64) {
        match self {
            NodeOrBank::Node(n) => n.on_timer(ctx, tag),
            NodeOrBank::Bank(b) => b.on_timer(ctx, tag),
        }
    }

    fn observes_quiescence(&self) -> bool {
        match self {
            NodeOrBank::Node(n) => n.observes_quiescence(),
            NodeOrBank::Bank(b) => b.observes_quiescence(),
        }
    }

    fn on_quiescence(&mut self, ctx: &mut Ctx<'_, FMsg>) {
        match self {
            NodeOrBank::Node(n) => n.on_quiescence(ctx),
            NodeOrBank::Bank(b) => b.on_quiescence(ctx),
        }
    }
}

/// The lifecycle drives the protocol nodes; the bank is never addressed
/// as one.
impl FpssActor for NodeOrBank {
    fn core(&self) -> &FpssCore {
        self.node().core()
    }
    fn declared_cost(&self) -> Option<Cost> {
        self.node().declared_cost()
    }
    fn queue_stream_command(&mut self, cmd: StreamCommand) {
        self.node_mut().queue_stream_command(cmd);
    }
    fn add_traffic(&mut self, dst: NodeId, packets: u64) {
        self.node_mut().add_traffic(dst, packets);
    }
}
