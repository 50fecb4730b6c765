//! The discrete-event engine: actors, contexts, and the network.
//!
//! # Event order
//!
//! Every scheduled delivery, timer and transfer completion is an event
//! keyed by `(at, seq)`: its virtual time, then a sequence number drawn
//! when it was scheduled. Events fire in ascending key order, so
//! simultaneous events fire in the order they were scheduled and a run is
//! a deterministic function of its seed.
//!
//! The queue holding them is two structures with one order:
//!
//! * a FIFO of blocks, which takes every push whose key is at or after the
//!   newest key already in it, in O(1). Under fixed latency a delivery
//!   lands at `now + latency` with a fresh `seq`, after every delivery
//!   already queued, so deliveries take this path;
//! * a binary heap, which takes only the pushes that would break the FIFO's
//!   order. Those come from jitter, throughput-model transfers and their
//!   deliveries, lazy `Complete` re-pushes (which keep an older `seq`), and
//!   timers scheduled behind pending deliveries (or deliveries behind a
//!   timer set further ahead).
//!
//! A pop takes the smaller of the two heads, and the queue's length (read
//! by [`NetStats::max_queue_depth`]) counts both. Pops therefore come out
//! exactly as from one heap over every event; the FIFO only saves the
//! sifting. Its fixed-size blocks are released as it drains (one is kept
//! for reuse), so its memory follows the queue's depth to within two
//! blocks.
//!
//! # Truncation
//!
//! [`Network::run`] spends one unit of its event budget per fired event. It
//! checks the budget before popping, so a run that stops on a spent budget
//! leaves every pending event queued, and a later `run` (a streamed event,
//! or an execution phase after a truncated construction) resumes from
//! exactly where the earlier one stopped.

use crate::connect::Connectivity;
use crate::dynamics::{Dynamics, DynamicsState};
use crate::latency::LatencyModel;
use crate::model::{NetModel, NetworkModel, SendVerdict, TransferId};
use crate::payload::Payload;
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use specfaith_core::id::NodeId;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::fmt;

/// A protocol node.
///
/// All callbacks receive a [`Ctx`] through which the node sends messages,
/// sets timers, and reads the clock. Every mutation of the outside world
/// goes through the context, which is what lets deviation strategies in
/// `specfaith-faithful` interpose on exactly the externally visible
/// actions.
pub trait Actor {
    /// The message type this protocol exchanges.
    type Msg: Payload;

    /// Called once, at time zero, in increasing node-id order.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Called when a message addressed to this node is delivered.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self::Msg>, _tag: u64) {}

    /// Whether this node wants [`Actor::on_quiescence`] callbacks.
    fn observes_quiescence(&self) -> bool {
        false
    }

    /// Called when the network is globally quiescent (no in-flight
    /// messages or timers). FPSS's bank checkpoints from this hook.
    fn on_quiescence(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}
}

/// The side-effect interface handed to actor callbacks.
pub struct Ctx<'a, M> {
    id: NodeId,
    now: SimTime,
    outbox: &'a mut Vec<(NodeId, M)>,
    timers: &'a mut Vec<(SimDuration, u64)>,
    rng: &'a mut StdRng,
}

impl<M> Ctx<'_, M> {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Queues a message to `to`. Delivery is asynchronous; the connectivity
    /// check happens at flush time and panics on illegal links (a protocol
    /// bug, not a runtime condition).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Schedules an [`Actor::on_timer`] callback after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.timers.push((delay, tag));
    }

    /// The simulation RNG (shared, seeded; use for protocol randomness so
    /// runs stay reproducible).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

enum EventKind<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
    },
    Timer {
        node: NodeId,
        tag: u64,
    },
    /// Serialization of transfer `id` tentatively completes (see
    /// [`crate::model::SendVerdict::Transfer`]). Completion events are
    /// lazy: a popped event whose transfer has since been re-scheduled to
    /// a later time re-pushes itself at the new target instead of firing.
    /// Re-schedules that *delay* a transfer — the overwhelmingly common
    /// case under fair sharing, where every arrival slows the whole link —
    /// therefore cost no heap traffic at all.
    Complete {
        id: u64,
    },
}

/// A message held by the engine while its serialization is in flight under
/// a throughput model; delivered when a `Complete` fires on its
/// [`TransferTimes`] target.
struct PendingTransfer<M> {
    from: NodeId,
    to: NodeId,
    msg: M,
}

/// The re-schedule-hot state of one transfer, kept in a flat slab indexed
/// by transfer id (ids are dense and sequential) — fair sharing
/// re-schedules every flight on a link per arrival/completion, so this is
/// touched orders of magnitude more often than the transfer's message.
#[derive(Clone, Copy, Default)]
struct TransferTimes {
    /// Authoritative serialization-completion time (moved by re-schedules).
    target: SimTime,
    /// Sequence number the completion fires with. Every re-schedule draws
    /// a fresh sequence number (whether or not it pushes an event), so
    /// same-timestamp tie-breaking is identical to an engine that pushed a
    /// fresh event per re-schedule — traces are independent of how many
    /// events were actually queued.
    tie_seq: u64,
    /// A lower bound on the earliest queued `Complete` for this transfer.
    /// Invariant: while the transfer is pending, an event is queued at or
    /// before `min(scheduled, target)`, so a pop happens no later than the
    /// target; pops that don't match `(target, tie_seq)` re-push the real
    /// completion and are skipped.
    scheduled: SimTime,
}

struct Event<M> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // (time, then insertion sequence) — a deterministic total order.
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// The engine's pending events, popped in `(at, seq)` order: an in-order
/// FIFO of fixed-size blocks beside a heap for out-of-order pushes (see the
/// module docs).
struct EventQueue<M> {
    /// Events in ascending key order. Every block but the first and last
    /// is full, and none is empty.
    fifo: VecDeque<VecDeque<Event<M>>>,
    /// Events across all of `fifo`'s blocks.
    fifo_len: usize,
    /// The last block `fifo` drained, kept for its next new block.
    spare: Option<VecDeque<Event<M>>>,
    /// Events whose key fell behind the FIFO's newest when pushed.
    heap: BinaryHeap<Reverse<Event<M>>>,
}

impl<M> EventQueue<M> {
    /// Events per FIFO block: about 32 KiB of them.
    const BLOCK: usize = {
        let per = 32 * 1024 / std::mem::size_of::<Event<M>>();
        if per == 0 {
            1
        } else {
            per
        }
    };

    fn new() -> Self {
        EventQueue {
            fifo: VecDeque::new(),
            fifo_len: 0,
            spare: None,
            heap: BinaryHeap::new(),
        }
    }

    fn len(&self) -> usize {
        self.fifo_len + self.heap.len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&mut self, event: Event<M>) {
        if let Some(block) = self.fifo.back_mut() {
            if event < *block.back().expect("FIFO blocks are never empty") {
                self.heap.push(Reverse(event));
                return;
            }
            if block.len() < Self::BLOCK {
                block.push_back(event);
                self.fifo_len += 1;
                return;
            }
        }
        let mut block = self
            .spare
            .take()
            .unwrap_or_else(|| VecDeque::with_capacity(Self::BLOCK));
        block.push_back(event);
        self.fifo.push_back(block);
        self.fifo_len += 1;
    }

    fn pop(&mut self) -> Option<Event<M>> {
        let fifo_first = match (self.fifo.front(), self.heap.peek()) {
            (Some(block), Some(Reverse(top))) => {
                block.front().expect("FIFO blocks are never empty") < top
            }
            (Some(_), None) => true,
            (None, _) => false,
        };
        if !fifo_first {
            return self.heap.pop().map(|Reverse(event)| event);
        }
        let block = self.fifo.front_mut().expect("checked above");
        let event = block.pop_front().expect("FIFO blocks are never empty");
        if block.is_empty() {
            self.spare = self.fifo.pop_front();
        }
        self.fifo_len -= 1;
        Some(event)
    }
}

/// Per-run message accounting.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Messages sent per node.
    pub msgs_sent: Vec<u64>,
    /// Estimated bytes sent per node.
    pub bytes_sent: Vec<u64>,
    /// Total messages delivered.
    pub msgs_delivered: u64,
    /// Total timer callbacks fired.
    pub timers_fired: u64,
    /// Messages lost to the network model or topology dynamics (loss,
    /// downed nodes, partitions). Dropped messages still count in
    /// `msgs_sent`/`bytes_sent` — the sender paid for them.
    pub msgs_dropped: u64,
    /// In-flight deliveries re-scheduled by a throughput model reacting to
    /// load changes (zero under `Ideal`/`ConstantThroughput`).
    pub deliveries_rescheduled: u64,
    /// High-water mark of the event queue — a gauge of simultaneous
    /// in-flight work (messages, transfers, timers).
    pub max_queue_depth: u64,
}

impl NetStats {
    fn new(n: usize) -> Self {
        NetStats {
            msgs_sent: vec![0; n],
            bytes_sent: vec![0; n],
            ..NetStats::default()
        }
    }

    /// Total messages sent across all nodes.
    pub fn total_msgs(&self) -> u64 {
        self.msgs_sent.iter().sum()
    }

    /// Total bytes sent across all nodes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent.iter().sum()
    }
}

/// Summary of a [`Network::run`].
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Messages delivered during the run.
    pub messages_delivered: u64,
    /// Timer callbacks fired.
    pub timers_fired: u64,
    /// Number of quiescence rounds in which observers were invoked.
    pub quiescence_rounds: u64,
    /// Virtual time when the run ended.
    pub final_time: SimTime,
    /// Whether the run hit the event budget before reaching quiescence
    /// (indicates a livelocked protocol; treated as a failed run by
    /// experiments).
    pub truncated: bool,
}

/// A simulated network of homogeneous actors.
pub struct Network<A: Actor, L> {
    connectivity: Connectivity,
    actors: Vec<A>,
    latency: L,
    model: Box<dyn NetworkModel>,
    dynamics: DynamicsState,
    /// False ⇒ no dynamics were configured; skips all per-event dynamics
    /// bookkeeping (the default path is exactly the pre-dynamics engine).
    dynamics_active: bool,
    rng: StdRng,
    queue: EventQueue<A::Msg>,
    /// Transfers whose serialization is in flight, keyed by transfer id.
    pending: BTreeMap<u64, PendingTransfer<A::Msg>>,
    /// Hot per-transfer scheduling state, indexed by transfer id. Grows
    /// only when a model answers `Transfer` (never under `Ideal`).
    times: Vec<TransferTimes>,
    /// The latest delivery scheduled on each directed link, indexed
    /// `from · n + to`: links are FIFO, so a delivery drawn earlier than
    /// its link's last one is raised to it (see `Network::fifo`).
    link_clock: Vec<SimTime>,
    next_transfer: u64,
    now: SimTime,
    seq: u64,
    stats: NetStats,
    started: bool,
    max_events: u64,
    max_quiescence_rounds: u64,
}

impl<A: Actor, L> fmt::Debug for Network<A, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Network({} nodes, {} queued, {})",
            self.actors.len(),
            self.queue.len(),
            self.now
        )
    }
}

impl<A: Actor, L: LatencyModel> Network<A, L> {
    /// Builds a network.
    ///
    /// # Panics
    ///
    /// Panics if the number of actors differs from the connectivity's node
    /// count.
    pub fn new(connectivity: Connectivity, actors: Vec<A>, latency: L, seed: u64) -> Self {
        assert_eq!(
            connectivity.num_nodes(),
            actors.len(),
            "one actor per connectivity node"
        );
        let n = actors.len();
        Network {
            connectivity,
            actors,
            latency,
            model: NetModel::Ideal.instantiate(),
            dynamics: DynamicsState::new(&Dynamics::default(), n),
            dynamics_active: false,
            rng: StdRng::seed_from_u64(seed),
            queue: EventQueue::new(),
            pending: BTreeMap::new(),
            times: Vec::new(),
            link_clock: vec![SimTime::ZERO; n * n],
            next_transfer: 0,
            now: SimTime::ZERO,
            seq: 0,
            stats: NetStats::new(n),
            started: false,
            max_events: 10_000_000,
            max_quiescence_rounds: 10_000,
        }
    }

    /// Replaces the network model (default: [`NetModel::Ideal`], which
    /// reproduces the latency-only engine byte-for-byte).
    #[must_use]
    pub fn with_network(mut self, model: &NetModel) -> Self {
        self.model = model.instantiate();
        self
    }

    /// Installs a topology-dynamics schedule (default: none).
    #[must_use]
    pub fn with_dynamics(mut self, dynamics: &Dynamics) -> Self {
        self.dynamics_active = !dynamics.is_empty();
        self.dynamics = DynamicsState::new(dynamics, self.actors.len());
        self
    }

    /// Applies one topology event to the live dynamics state immediately —
    /// the streaming engines' entry point between [`Network::run`] calls
    /// (a scheduled [`Dynamics`] drives the same state during a run).
    /// Events applied this way activate dynamics bookkeeping for the rest
    /// of the network's lifetime.
    pub fn apply_dynamics_event(&mut self, event: &crate::dynamics::TopologyEvent) {
        self.dynamics.apply_now(event);
        self.dynamics_active = true;
    }

    /// Caps total processed events (protection against livelocked
    /// protocols under deviation).
    #[must_use]
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Caps quiescence rounds (protection against observers that restart
    /// forever).
    #[must_use]
    pub fn with_max_quiescence_rounds(mut self, rounds: u64) -> Self {
        self.max_quiescence_rounds = rounds;
        self
    }

    /// Immutable access to a node's actor.
    pub fn node(&self, id: NodeId) -> &A {
        &self.actors[id.index()]
    }

    /// Mutable access to a node's actor (used by experiment harnesses to
    /// inspect or prime state between runs).
    pub fn node_mut(&mut self, id: NodeId) -> &mut A {
        &mut self.actors[id.index()]
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + Clone {
        specfaith_core::id::node_ids(self.actors.len())
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Schedules a timer for `node` from outside the simulation — how
    /// experiment harnesses hand control to actors between [`Network::run`]
    /// calls (e.g. to start the FPSS execution phase after construction
    /// has converged).
    pub fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) {
        self.seq += 1;
        self.queue.push(Event {
            at: self.now + delay,
            seq: self.seq,
            kind: EventKind::Timer { node, tag },
        });
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn flush(
        &mut self,
        from: NodeId,
        outbox: Vec<(NodeId, A::Msg)>,
        timers: Vec<(SimDuration, u64)>,
    ) {
        for (to, msg) in outbox {
            assert!(
                self.connectivity.can_send(from, to),
                "protocol bug: {from} attempted to send to non-neighbor {to}"
            );
            self.stats.msgs_sent[from.index()] += 1;
            let size = msg.size_bytes() as u64;
            self.stats.bytes_sent[from.index()] += size;
            if self.dynamics_active && self.dynamics.blocked(from, to) {
                self.stats.msgs_dropped += 1;
                continue;
            }
            // A link-cost override replaces the model's draw — and skips
            // it, so overrides perturb jittered RNG streams (documented in
            // `dynamics`); the default path draws exactly as before.
            let delay = if self.dynamics_active {
                self.dynamics
                    .latency_override(from, to)
                    .unwrap_or_else(|| self.latency.delay(from, to, &mut self.rng))
            } else {
                self.latency.delay(from, to, &mut self.rng)
            };
            let id = self.next_transfer;
            self.next_transfer += 1;
            let outcome = self.model.on_send(
                TransferId(id),
                (from, to),
                size,
                delay,
                self.now,
                &mut self.rng,
            );
            match outcome.verdict {
                SendVerdict::Deliver { at } => {
                    let at = self.fifo(from, to, at);
                    self.seq += 1;
                    self.queue.push(Event {
                        at,
                        seq: self.seq,
                        kind: EventKind::Deliver { from, to, msg },
                    });
                }
                SendVerdict::Transfer { completes_at } => {
                    self.seq += 1;
                    self.pending.insert(id, PendingTransfer { from, to, msg });
                    if self.times.len() <= id as usize {
                        self.times.resize(id as usize + 1, TransferTimes::default());
                    }
                    self.times[id as usize] = TransferTimes {
                        target: completes_at,
                        tie_seq: self.seq,
                        scheduled: completes_at,
                    };
                    self.queue.push(Event {
                        at: completes_at,
                        seq: self.seq,
                        kind: EventKind::Complete { id },
                    });
                }
                SendVerdict::Drop => {
                    self.stats.msgs_dropped += 1;
                }
            }
            self.apply_reschedules(outcome.reschedules);
        }
        for (delay, tag) in timers {
            self.seq += 1;
            self.queue.push(Event {
                at: self.now + delay,
                seq: self.seq,
                kind: EventKind::Timer { node: from, tag },
            });
        }
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len() as u64);
    }

    /// Moves in-flight transfers to new completion times. Delays are free —
    /// an already-queued event discovers the later target when it pops and
    /// re-pushes itself; only a completion moving *earlier* than everything
    /// queued for its transfer needs a fresh event. Every re-schedule
    /// draws a sequence number either way, so traces are exactly those of
    /// an engine that pushed one event per re-schedule.
    fn apply_reschedules(&mut self, reschedules: Vec<(TransferId, SimTime)>) {
        self.stats.deliveries_rescheduled += reschedules.len() as u64;
        for (TransferId(id), at) in reschedules {
            debug_assert!(
                self.pending.contains_key(&id),
                "models only reschedule in-flight transfers"
            );
            self.seq += 1;
            let times = &mut self.times[id as usize];
            times.target = at;
            times.tie_seq = self.seq;
            if at < times.scheduled {
                times.scheduled = at;
                self.queue.push(Event {
                    at,
                    seq: self.seq,
                    kind: EventKind::Complete { id },
                });
            }
        }
    }

    /// Raises a delivery scheduled on `from → to` to no earlier than the
    /// link's previous one, and records it. Jittered delays are drawn
    /// independently, so without this a later message could overtake an
    /// earlier one on the same link; equal times keep send order by `seq`.
    fn fifo(&mut self, from: NodeId, to: NodeId, at: SimTime) -> SimTime {
        let last = &mut self.link_clock[from.index() * self.actors.len() + to.index()];
        *last = (*last).max(at);
        *last
    }

    fn invoke(&mut self, node: NodeId, call: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg>)) {
        let mut outbox = Vec::new();
        let mut timers = Vec::new();
        {
            let mut ctx = Ctx {
                id: node,
                now: self.now,
                outbox: &mut outbox,
                timers: &mut timers,
                rng: &mut self.rng,
            };
            call(&mut self.actors[node.index()], &mut ctx);
        }
        self.flush(node, outbox, timers);
    }

    /// Runs to global quiescence: starts actors (first call only), drains
    /// the event queue, invokes quiescence observers, and repeats until no
    /// observer generates further work. A run that spends its event budget
    /// first stops with [`RunOutcome::truncated`] set and every pending
    /// event still queued, so the next call resumes it.
    pub fn run(&mut self) -> RunOutcome {
        if self.dynamics_active {
            // Events scheduled at or before the current time (e.g. a
            // partition at t=0) take effect before anything is sent.
            self.dynamics.apply_until(self.now);
        }
        if !self.started {
            self.started = true;
            for node in self.node_ids().collect::<Vec<_>>() {
                self.invoke(node, |actor, ctx| actor.on_start(ctx));
            }
        }
        let mut processed = 0u64;
        let mut quiescence_rounds = 0u64;
        let mut truncated = false;
        'outer: loop {
            while !self.queue.is_empty() {
                // Budget first: a spent budget leaves the next event queued
                // for a later run.
                if processed >= self.max_events {
                    truncated = true;
                    break 'outer;
                }
                let event = self.queue.pop().expect("checked non-empty");
                debug_assert!(event.at >= self.now, "time must be monotone");
                // Lazy completions: an event whose transfer already fired
                // is queue garbage, and one that doesn't match the
                // transfer's `(target, tie_seq)` — it was queued before a
                // re-schedule — re-pushes the real completion and is
                // skipped. Neither advances time nor spends event budget.
                if let EventKind::Complete { id } = event.kind {
                    if !self.pending.contains_key(&id) {
                        continue;
                    }
                    let times = &mut self.times[id as usize];
                    if event.at != times.target || event.seq != times.tie_seq {
                        debug_assert!(
                            event.at <= times.target,
                            "an event queued at `scheduled ≤ target` pops by the target"
                        );
                        let (at, seq) = (times.target, times.tie_seq);
                        times.scheduled = at;
                        self.queue.push(Event {
                            at,
                            seq,
                            kind: EventKind::Complete { id },
                        });
                        continue;
                    }
                }
                processed += 1;
                self.now = event.at;
                if self.dynamics_active {
                    self.dynamics.apply_until(self.now);
                }
                match event.kind {
                    EventKind::Deliver { from, to, msg } => {
                        // Checked at delivery as well as send: a message in
                        // flight when its link goes down is lost.
                        if self.dynamics_active && self.dynamics.blocked(from, to) {
                            self.stats.msgs_dropped += 1;
                            continue;
                        }
                        self.stats.msgs_delivered += 1;
                        self.invoke(to, |actor, ctx| actor.on_message(ctx, from, msg));
                    }
                    EventKind::Timer { node, tag } => {
                        self.stats.timers_fired += 1;
                        self.invoke(node, |actor, ctx| actor.on_timer(ctx, tag));
                    }
                    EventKind::Complete { id } => {
                        let done = self.model.on_serialized(TransferId(id), self.now);
                        let transfer = self.pending.remove(&id).expect("checked live above");
                        let at = self.fifo(transfer.from, transfer.to, done.deliver_at);
                        self.seq += 1;
                        self.queue.push(Event {
                            at,
                            seq: self.seq,
                            kind: EventKind::Deliver {
                                from: transfer.from,
                                to: transfer.to,
                                msg: transfer.msg,
                            },
                        });
                        self.apply_reschedules(done.reschedules);
                        self.stats.max_queue_depth =
                            self.stats.max_queue_depth.max(self.queue.len() as u64);
                    }
                }
            }
            debug_assert!(
                self.pending.is_empty(),
                "a drained queue leaves no transfer in flight"
            );
            // Queue drained: give quiescence observers a chance.
            if quiescence_rounds >= self.max_quiescence_rounds {
                truncated = true;
                break;
            }
            let observers: Vec<NodeId> = self
                .node_ids()
                .filter(|&id| self.actors[id.index()].observes_quiescence())
                .collect();
            if observers.is_empty() {
                break;
            }
            quiescence_rounds += 1;
            for node in observers {
                self.invoke(node, |actor, ctx| actor.on_quiescence(ctx));
            }
            if self.queue.is_empty() {
                break;
            }
        }
        RunOutcome {
            messages_delivered: self.stats.msgs_delivered,
            timers_fired: self.stats.timers_fired,
            quiescence_rounds,
            final_time: self.now,
            truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::TopologyEvent;
    use crate::latency::{FixedLatency, JitteredLatency};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[derive(Clone, Debug)]
    struct Token(u64);

    impl Payload for Token {
        fn size_bytes(&self) -> usize {
            8
        }
    }

    /// Passes a token around the full ring `hops` times, recording the
    /// order in which this node saw tokens.
    struct RingActor {
        n: u32,
        hops: u64,
        seen: Vec<u64>,
    }

    impl Actor for RingActor {
        type Msg = Token;

        fn on_start(&mut self, ctx: &mut Ctx<'_, Token>) {
            if ctx.id() == NodeId::new(0) {
                let next = NodeId::new(1 % self.n);
                ctx.send(next, Token(0));
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, Token>, _from: NodeId, msg: Token) {
            self.seen.push(msg.0);
            if msg.0 + 1 < self.hops {
                let next = NodeId::new((ctx.id().raw() + 1) % self.n);
                ctx.send(next, Token(msg.0 + 1));
            }
        }
    }

    fn ring_network(nodes: u32, hops: u64, seed: u64) -> Network<RingActor, FixedLatency> {
        let actors = (0..nodes)
            .map(|_| RingActor {
                n: nodes,
                hops,
                seen: Vec::new(),
            })
            .collect();
        Network::new(
            Connectivity::fully_connected(nodes as usize),
            actors,
            FixedLatency::new(10),
            seed,
        )
    }

    #[test]
    fn token_ring_delivers_all_hops() {
        let mut net = ring_network(4, 8, 1);
        let outcome = net.run();
        assert_eq!(outcome.messages_delivered, 8);
        assert!(!outcome.truncated);
        assert_eq!(outcome.final_time, SimTime::from_micros(80));
        // Node 1 saw tokens 0 and 4.
        assert_eq!(net.node(n(1)).seen, vec![0, 4]);
    }

    #[test]
    fn stats_account_messages_and_bytes() {
        let mut net = ring_network(4, 8, 1);
        net.run();
        let stats = net.stats();
        assert_eq!(stats.total_msgs(), 8);
        assert_eq!(stats.total_bytes(), 64);
        assert_eq!(stats.msgs_sent[0], 2); // tokens 0 (start) and 4→5 hop
    }

    #[test]
    fn identical_seeds_give_identical_traces() {
        let mut a = ring_network(5, 20, 7);
        let mut b = ring_network(5, 20, 7);
        a.run();
        b.run();
        for i in 0..5 {
            assert_eq!(a.node(n(i)).seen, b.node(n(i)).seen);
        }
        assert_eq!(a.stats().msgs_sent, b.stats().msgs_sent);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let build = |seed| {
            let actors = (0..3)
                .map(|_| RingActor {
                    n: 3,
                    hops: 12,
                    seen: Vec::new(),
                })
                .collect::<Vec<_>>();
            Network::new(
                Connectivity::fully_connected(3),
                actors,
                JitteredLatency::new(5, 10),
                seed,
            )
        };
        let mut a = build(3);
        let mut b = build(3);
        assert_eq!(a.run().final_time, b.run().final_time);
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn sends_outside_connectivity_panic() {
        struct Rogue;
        impl Actor for Rogue {
            type Msg = Token;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Token>) {
                ctx.send(NodeId::new(1), Token(0));
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Token>, _: NodeId, _: Token) {}
        }
        let mut net = Network::new(
            Connectivity::disconnected(2),
            vec![Rogue, Rogue],
            FixedLatency::new(1),
            0,
        );
        net.run();
    }

    /// Fires a chain of timers and records tags in order.
    struct TimerActor {
        fired: Vec<u64>,
    }

    impl Actor for TimerActor {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.set_timer(SimDuration::from_micros(30), 3);
            ctx.set_timer(SimDuration::from_micros(10), 1);
            ctx.set_timer(SimDuration::from_micros(20), 2);
        }

        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}

        fn on_timer(&mut self, _: &mut Ctx<'_, ()>, tag: u64) {
            self.fired.push(tag);
        }
    }

    #[test]
    fn timers_fire_in_time_order() {
        let mut net = Network::new(
            Connectivity::disconnected(1),
            vec![TimerActor { fired: Vec::new() }],
            FixedLatency::new(1),
            0,
        );
        let outcome = net.run();
        assert_eq!(outcome.timers_fired, 3);
        assert_eq!(net.node(n(0)).fired, vec![1, 2, 3]);
    }

    /// A quiescence observer that kicks off `rounds` extra rounds of work.
    struct Checkpointer {
        rounds_left: u32,
        observed: u32,
    }

    impl Actor for Checkpointer {
        type Msg = Token;

        fn on_message(&mut self, _: &mut Ctx<'_, Token>, _: NodeId, _: Token) {}

        fn observes_quiescence(&self) -> bool {
            true
        }

        fn on_quiescence(&mut self, ctx: &mut Ctx<'_, Token>) {
            self.observed += 1;
            if self.rounds_left > 0 {
                self.rounds_left -= 1;
                ctx.send(NodeId::new(1), Token(0));
            }
        }
    }

    struct Sink;
    impl Actor for Sink {
        type Msg = Token;
        fn on_message(&mut self, _: &mut Ctx<'_, Token>, _: NodeId, _: Token) {}
    }

    #[test]
    fn quiescence_observers_run_until_silent() {
        enum Either {
            Check(Checkpointer),
            Sink(Sink),
        }
        impl Actor for Either {
            type Msg = Token;
            fn on_message(&mut self, ctx: &mut Ctx<'_, Token>, from: NodeId, msg: Token) {
                match self {
                    Either::Check(c) => c.on_message(ctx, from, msg),
                    Either::Sink(s) => s.on_message(ctx, from, msg),
                }
            }
            fn observes_quiescence(&self) -> bool {
                matches!(self, Either::Check(_))
            }
            fn on_quiescence(&mut self, ctx: &mut Ctx<'_, Token>) {
                if let Either::Check(c) = self {
                    c.on_quiescence(ctx);
                }
            }
        }
        let mut net = Network::new(
            Connectivity::fully_connected(2),
            vec![
                Either::Check(Checkpointer {
                    rounds_left: 3,
                    observed: 0,
                }),
                Either::Sink(Sink),
            ],
            FixedLatency::new(5),
            0,
        );
        let outcome = net.run();
        // 3 rounds generate work, the 4th is silent and ends the run.
        assert_eq!(outcome.quiescence_rounds, 4);
        assert_eq!(outcome.messages_delivered, 3);
        match net.node(n(0)) {
            Either::Check(c) => assert_eq!(c.observed, 4),
            Either::Sink(_) => panic!("node 0 is the checkpointer"),
        }
    }

    #[test]
    fn event_budget_truncates_livelock() {
        /// Two nodes bounce a message forever.
        struct Bouncer;
        impl Actor for Bouncer {
            type Msg = Token;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Token>) {
                if ctx.id() == NodeId::new(0) {
                    ctx.send(NodeId::new(1), Token(0));
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, Token>, from: NodeId, msg: Token) {
                ctx.send(from, msg);
            }
        }
        let mut net = Network::new(
            Connectivity::fully_connected(2),
            vec![Bouncer, Bouncer],
            FixedLatency::new(1),
            0,
        )
        .with_max_events(100);
        let outcome = net.run();
        assert!(outcome.truncated);
        assert_eq!(outcome.messages_delivered, 100);
    }

    #[test]
    fn truncated_runs_resume_where_they_stopped() {
        // The ring holds one token at a time, so a spent budget always
        // leaves exactly one delivery pending; each resumed run must pick
        // it up rather than lose it.
        let mut net = ring_network(4, 8, 1).with_max_events(3);
        let delivered: Vec<(u64, bool)> = (0..4)
            .map(|_| {
                let outcome = net.run();
                (outcome.messages_delivered, outcome.truncated)
            })
            .collect();
        assert_eq!(
            delivered,
            vec![(3, true), (6, true), (8, false), (8, false)]
        );
        let mut whole = ring_network(4, 8, 1);
        let outcome = whole.run();
        assert_eq!(net.now(), outcome.final_time);
        for i in 0..4 {
            assert_eq!(net.node(n(i)).seen, whole.node(n(i)).seen);
        }
    }

    #[test]
    #[should_panic(expected = "one actor per connectivity node")]
    fn actor_count_must_match() {
        let _ = Network::new(
            Connectivity::fully_connected(3),
            vec![Sink, Sink],
            FixedLatency::new(1),
            0,
        );
    }

    #[test]
    fn externally_scheduled_timers_fire() {
        let mut net = Network::new(
            Connectivity::disconnected(2),
            vec![
                TimerActor { fired: Vec::new() },
                TimerActor { fired: Vec::new() },
            ],
            FixedLatency::new(1),
            0,
        );
        net.run();
        // First run consumed the actors' own timers; schedule fresh ones
        // externally (the harness pattern for starting execution phases).
        net.schedule_timer(n(1), SimDuration::from_micros(5), 42);
        net.schedule_timer(n(0), SimDuration::from_micros(3), 41);
        let outcome = net.run();
        assert_eq!(outcome.timers_fired, 3 + 3 + 2);
        assert_eq!(net.node(n(1)).fired.last(), Some(&42));
        assert_eq!(net.node(n(0)).fired.last(), Some(&41));
    }

    #[test]
    fn time_advances_across_runs() {
        let mut net = Network::new(
            Connectivity::disconnected(1),
            vec![TimerActor { fired: Vec::new() }],
            FixedLatency::new(1),
            0,
        );
        let first = net.run();
        net.schedule_timer(n(0), SimDuration::from_micros(100), 9);
        let second = net.run();
        assert!(second.final_time > first.final_time);
        assert_eq!(
            second.final_time - first.final_time,
            SimDuration::from_micros(100)
        );
    }

    #[test]
    fn explicit_ideal_model_is_the_default_engine() {
        let mut plain = ring_network(5, 20, 7);
        let mut ideal = ring_network(5, 20, 7);
        ideal = ideal
            .with_network(&NetModel::Ideal)
            .with_dynamics(&Dynamics::new());
        let a = plain.run();
        let b = ideal.run();
        assert_eq!(a.final_time, b.final_time);
        assert_eq!(a.messages_delivered, b.messages_delivered);
        for i in 0..5 {
            assert_eq!(plain.node(n(i)).seen, ideal.node(n(i)).seen);
        }
        assert_eq!(plain.stats().msgs_sent, ideal.stats().msgs_sent);
        assert_eq!(ideal.stats().msgs_dropped, 0);
        assert_eq!(ideal.stats().deliveries_rescheduled, 0);
    }

    #[test]
    fn constant_throughput_stretches_the_ring() {
        // 8-byte tokens at 1 MB/s add 8 µs serialization per hop on top of
        // the 10 µs latency: 8 hops × 18 µs.
        let mut net = ring_network(4, 8, 1).with_network(&NetModel::constant(1_000_000));
        let outcome = net.run();
        assert_eq!(outcome.messages_delivered, 8);
        assert_eq!(outcome.final_time, SimTime::from_micros(8 * 18));
    }

    #[test]
    fn shared_throughput_reschedules_under_engine_contention() {
        /// Node 0 sends two 40-byte messages back-to-back to node 1 on the
        /// same link; fair sharing must reschedule the first in flight.
        #[derive(Clone, Debug)]
        struct Wide;
        impl Payload for Wide {
            fn size_bytes(&self) -> usize {
                40
            }
        }
        struct Burst;
        struct Gather(Vec<SimTime>);
        enum Side {
            Burst(Burst),
            Gather(Gather),
        }
        impl Actor for Side {
            type Msg = Wide;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Wide>) {
                if matches!(self, Side::Burst(_)) {
                    ctx.send(NodeId::new(1), Wide);
                    ctx.send(NodeId::new(1), Wide);
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, Wide>, _: NodeId, _: Wide) {
                if let Side::Gather(g) = self {
                    g.0.push(ctx.now());
                }
            }
        }
        let mut net = Network::new(
            Connectivity::fully_connected(2),
            vec![Side::Burst(Burst), Side::Gather(Gather(Vec::new()))],
            FixedLatency::new(10),
            0,
        )
        .with_network(&NetModel::shared(1_000_000));
        let outcome = net.run();
        assert_eq!(outcome.messages_delivered, 2);
        // Both transfers share the link from t=0 at half rate (40 bytes
        // each → both complete at 80), then latency: delivered at 90.
        match net.node(n(1)) {
            Side::Gather(g) => {
                assert_eq!(
                    g.0,
                    vec![SimTime::from_micros(90), SimTime::from_micros(90)]
                );
            }
            Side::Burst(_) => panic!("node 1 gathers"),
        }
        assert_eq!(net.stats().deliveries_rescheduled, 1, "first send moved");
        assert_eq!(net.stats().msgs_delivered, 2);
    }

    #[test]
    fn lossy_engine_counts_drops_deterministically() {
        let run = |seed| {
            let mut net = ring_network(4, 200, seed).with_network(&NetModel::Ideal.with_loss(200));
            net.run();
            (net.stats().msgs_dropped, net.stats().msgs_delivered)
        };
        let (dropped, delivered) = run(3);
        // The ring halts at the first drop: the token is never forwarded.
        assert_eq!(dropped, 1);
        assert!(delivered < 200);
        assert_eq!(run(3), (dropped, delivered), "loss is seed-deterministic");
    }

    #[test]
    fn node_down_drops_in_flight_and_future_messages() {
        // Token ring with node 2 crashing at t=15: the token sent 0→1 at
        // t=0 arrives (t=10), 1→2 is in flight when 2 dies → lost.
        let dynamics = Dynamics::new().at(15, TopologyEvent::NodeDown(n(2)));
        let mut net = ring_network(4, 8, 1).with_dynamics(&dynamics);
        let outcome = net.run();
        assert_eq!(outcome.messages_delivered, 1);
        assert_eq!(net.stats().msgs_dropped, 1);
        assert_eq!(net.node(n(1)).seen, vec![0]);
        assert!(net.node(n(2)).seen.is_empty());
    }

    #[test]
    fn partition_and_heal_gate_the_ring() {
        // Partition {0,1} away at t=5 (token 0→1 at t=0 is in-island and
        // survives; 1→2 crosses and is lost); heal at t=50 — but the ring
        // has no retransmission, so traffic never resumes: the documented
        // liveness failure mode.
        let dynamics = Dynamics::new()
            .at(
                5,
                TopologyEvent::Partition {
                    island: vec![n(0), n(1)],
                },
            )
            .at(50, TopologyEvent::Heal);
        let mut net = ring_network(4, 8, 1).with_dynamics(&dynamics);
        let outcome = net.run();
        assert_eq!(outcome.messages_delivered, 1);
        assert_eq!(net.stats().msgs_dropped, 1);
        assert!(!outcome.truncated, "loss is not livelock");
    }

    #[test]
    fn downed_node_timers_still_fire() {
        let dynamics = Dynamics::new().at(0, TopologyEvent::NodeDown(n(0)));
        let mut net = Network::new(
            Connectivity::disconnected(1),
            vec![TimerActor { fired: Vec::new() }],
            FixedLatency::new(1),
            0,
        )
        .with_dynamics(&dynamics);
        let outcome = net.run();
        assert_eq!(
            outcome.timers_fired, 3,
            "crash loses the network, not the clock"
        );
    }

    #[test]
    fn link_cost_override_changes_delay_without_rng() {
        let dynamics = Dynamics::new().at(
            0,
            TopologyEvent::LinkCost {
                a: n(0),
                b: n(1),
                micros: 100,
            },
        );
        let mut net = ring_network(2, 2, 1).with_dynamics(&dynamics);
        let outcome = net.run();
        // Hop 0→1 takes the overridden 100 µs, hop 1→0 the same link back.
        assert_eq!(outcome.final_time, SimTime::from_micros(200));
    }

    #[test]
    fn max_queue_depth_tracks_in_flight_work() {
        let mut net = ring_network(4, 8, 1);
        net.run();
        // The ring holds one token: one in-flight event at a time (plus
        // nothing else), so the gauge reads 1.
        assert_eq!(net.stats().max_queue_depth, 1);
    }

    #[test]
    fn jitter_never_reorders_a_link() {
        /// Node 0 sends 0..40 to node 1 in one handler. With delays drawn
        /// from 5..=55 µs node 1 must see them in the order fixed latency
        /// gives: send order when the model delivers directly, and the
        /// order serialization completes in on a shared link.
        struct Burst(Vec<u64>);
        impl Actor for Burst {
            type Msg = Token;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Token>) {
                if ctx.id() == NodeId::new(0) {
                    for i in 0..40 {
                        ctx.send(NodeId::new(1), Token(i));
                    }
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Token>, _: NodeId, msg: Token) {
                self.0.push(msg.0);
            }
        }
        let seen = |model: &NetModel, jitter: u64| {
            let mut net = Network::new(
                Connectivity::fully_connected(2),
                vec![Burst(Vec::new()), Burst(Vec::new())],
                JitteredLatency::new(5, jitter),
                3,
            )
            .with_network(model);
            net.run();
            std::mem::take(&mut net.node_mut(n(1)).0)
        };
        assert_eq!(seen(&NetModel::Ideal, 50), (0..40).collect::<Vec<_>>());
        let shared = NetModel::shared(1_000_000);
        assert_eq!(seen(&shared, 50), seen(&shared, 0));
    }

    #[test]
    fn zero_latency_preserves_send_order() {
        /// Sender emits 0,1,2 to the sink; sink must see them in order
        /// (seq numbers break the time tie deterministically).
        struct Seq;
        struct Collect(Vec<u64>);
        enum Node {
            Seq(Seq),
            Collect(Collect),
        }
        impl Actor for Node {
            type Msg = Token;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Token>) {
                if matches!(self, Node::Seq(_)) {
                    for i in 0..3 {
                        ctx.send(NodeId::new(1), Token(i));
                    }
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Token>, _: NodeId, msg: Token) {
                if let Node::Collect(c) = self {
                    c.0.push(msg.0);
                }
            }
        }
        let mut net = Network::new(
            Connectivity::fully_connected(2),
            vec![Node::Seq(Seq), Node::Collect(Collect(Vec::new()))],
            FixedLatency::new(0),
            0,
        );
        net.run();
        match net.node(n(1)) {
            Node::Collect(c) => assert_eq!(c.0, vec![0, 1, 2]),
            Node::Seq(_) => panic!("node 1 collects"),
        }
    }

    /// A payload wide enough that a FIFO block holds only a few events,
    /// so short operation sequences cross block boundaries.
    type Wide = [u64; 512];

    /// Replays `ops` on an [`EventQueue`] and on a
    /// `BinaryHeap<Reverse<(SimTime, u64)>>`, requiring the same pops and
    /// the same length after every step. Op modes: 0–2 push in key order
    /// (0 repeats the newest time with a fresh `seq`), 3 pushes an earlier
    /// time, 4 pushes at an issued event's time with a fresh `seq`, 5
    /// re-pushes an issued `seq` at or after its time (a lazy `Complete`
    /// re-push), 6–7 pop.
    fn replay_against_a_heap(ops: &[(u32, u32, u32)]) -> Result<(), TestCaseError> {
        let mut queue: EventQueue<Wide> = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut issued: Vec<(SimTime, u64)> = Vec::new();
        let mut newest = (SimTime::ZERO, 0u64);
        let mut in_order = true;
        let mut next_seq = 1u64;
        for &(mode, a, b) in ops {
            if mode >= 6 {
                let popped = queue.pop().map(|event| {
                    let EventKind::Deliver { msg, .. } = event.kind else {
                        unreachable!("only deliveries are pushed")
                    };
                    prop_assert_eq!(msg[0], event.seq);
                    Ok((event.at, event.seq))
                });
                let popped = popped.transpose()?;
                prop_assert_eq!(popped, reference.pop().map(|Reverse(key)| key));
            } else {
                let fresh = next_seq;
                let key = match (mode, issued.is_empty()) {
                    (0..=2, _) | (_, true) => {
                        (newest.0 + SimDuration::from_micros(u64::from(mode)), fresh)
                    }
                    (3, false) => (
                        SimTime::from_micros(u64::from(a) % (newest.0.micros() + 1)),
                        fresh,
                    ),
                    (4, false) => (issued[a as usize % issued.len()].0, fresh),
                    (_, false) => {
                        let (at, seq) = issued[a as usize % issued.len()];
                        (at + SimDuration::from_micros(u64::from(b)), seq)
                    }
                };
                if key.1 == fresh {
                    next_seq += 1;
                }
                in_order &= key >= newest;
                newest = newest.max(key);
                issued.push(key);
                let mut msg = [0; 512];
                msg[0] = key.1;
                queue.push(Event {
                    at: key.0,
                    seq: key.1,
                    kind: EventKind::Deliver {
                        from: n(0),
                        to: n(1),
                        msg,
                    },
                });
                reference.push(Reverse(key));
            }
            prop_assert_eq!(queue.len(), reference.len());
            if in_order {
                // In-order pushes all stay in the FIFO.
                prop_assert_eq!(queue.heap.len(), 0);
            }
        }
        while let Some(Reverse(key)) = reference.pop() {
            let event = queue.pop().expect("as long as the reference");
            prop_assert_eq!((event.at, event.seq), key);
        }
        prop_assert!(queue.is_empty());
        Ok(())
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of every push kind and pops.
        #[test]
        fn event_queue_pops_like_a_binary_heap(
            ops in proptest::collection::vec((0u32..8, any::<u32>(), 0u32..4), 0..200),
        ) {
            replay_against_a_heap(&ops)?;
        }

        /// Mostly in-order pushes (the fixed-latency shape): long FIFO runs
        /// across block boundaries, with the odd out-of-order push or
        /// re-push, drained in bursts.
        #[test]
        fn event_queue_keeps_order_across_blocks(
            ops in proptest::collection::vec((0u32..16, any::<u32>(), 0u32..4), 0..300)
                .prop_map(|ops| {
                    ops.into_iter()
                        .map(|(mode, a, b)| match mode {
                            0..=8 => (mode % 3, a, b),
                            9..=11 => (mode - 6, a, b),
                            _ => (6, a, b),
                        })
                        .collect::<Vec<_>>()
                }),
        ) {
            replay_against_a_heap(&ops)?;
        }
    }

    // The proptests above rely on a few wide events filling a block.
    const _: () = assert!(EventQueue::<Wide>::BLOCK >= 2 && EventQueue::<Wide>::BLOCK <= 16);
}
