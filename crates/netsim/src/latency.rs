//! Link latency models.

use crate::time::SimDuration;
use rand::Rng;
use specfaith_core::id::NodeId;

/// Decides the delivery delay of each message.
///
/// Implementations must be deterministic given the RNG stream; the
/// simulator threads one seeded RNG through all latency draws.
pub trait LatencyModel {
    /// Delay for a message from `from` to `to`.
    fn delay<R: Rng>(&self, from: NodeId, to: NodeId, rng: &mut R) -> SimDuration;
}

/// The same fixed delay on every link.
#[derive(Clone, Copy, Debug)]
pub struct FixedLatency {
    delay: SimDuration,
}

impl FixedLatency {
    /// A fixed latency of `micros` microseconds.
    pub fn new(micros: u64) -> Self {
        FixedLatency {
            delay: SimDuration::from_micros(micros),
        }
    }
}

impl LatencyModel for FixedLatency {
    fn delay<R: Rng>(&self, _from: NodeId, _to: NodeId, _rng: &mut R) -> SimDuration {
        self.delay
    }
}

/// A base delay plus uniform jitter in `0..=jitter` microseconds.
///
/// Delays are drawn independently per message, but the simulator keeps
/// every directed link FIFO: a delivery drawn earlier than the link's
/// previous one is raised to it. (Under a throughput model a delivery is
/// scheduled when its serialization completes, so the link delivers in
/// completion order.) Jitter therefore exercises the protocols'
/// insensitivity to message ordering *across* links: only cross-link
/// races become visible.
#[derive(Clone, Copy, Debug)]
pub struct JitteredLatency {
    base: u64,
    jitter: u64,
}

impl JitteredLatency {
    /// Base delay `base` µs plus uniform jitter up to `jitter` µs.
    pub fn new(base: u64, jitter: u64) -> Self {
        JitteredLatency { base, jitter }
    }
}

impl LatencyModel for JitteredLatency {
    fn delay<R: Rng>(&self, _from: NodeId, _to: NodeId, rng: &mut R) -> SimDuration {
        SimDuration::from_micros(self.base + rng.gen_range(0..=self.jitter))
    }
}

/// A plain-data latency model: the closed enum over the models above.
///
/// Scenario configuration wants latency as a *value* (clonable,
/// comparable, buildable from config) rather than a type parameter; this
/// enum is that value, and implements [`LatencyModel`] by dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Latency {
    /// The same fixed delay on every link (see [`FixedLatency`]).
    Fixed {
        /// Delay in microseconds.
        micros: u64,
    },
    /// Base delay plus uniform jitter (see [`JitteredLatency`]).
    Jittered {
        /// Base delay in microseconds.
        base: u64,
        /// Maximum additional jitter in microseconds.
        jitter: u64,
    },
}

impl Latency {
    /// The default link delay used by the run engines: fixed 10 µs.
    pub const DEFAULT: Latency = Latency::Fixed { micros: 10 };

    /// A fixed latency of `micros` microseconds.
    pub fn fixed(micros: u64) -> Self {
        Latency::Fixed { micros }
    }

    /// Base delay plus uniform jitter in `0..=jitter` microseconds.
    pub fn jittered(base: u64, jitter: u64) -> Self {
        Latency::Jittered { base, jitter }
    }
}

impl Default for Latency {
    fn default() -> Self {
        Latency::DEFAULT
    }
}

impl LatencyModel for Latency {
    fn delay<R: Rng>(&self, from: NodeId, to: NodeId, rng: &mut R) -> SimDuration {
        match *self {
            Latency::Fixed { micros } => FixedLatency::new(micros).delay(from, to, rng),
            Latency::Jittered { base, jitter } => {
                JitteredLatency::new(base, jitter).delay(from, to, rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_is_constant() {
        let model = FixedLatency::new(25);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..5 {
            assert_eq!(
                model.delay(NodeId::new(0), NodeId::new(1), &mut rng),
                SimDuration::from_micros(25)
            );
        }
    }

    #[test]
    fn enum_dispatch_matches_concrete_models() {
        let mut rng_a = StdRng::seed_from_u64(4);
        let mut rng_b = StdRng::seed_from_u64(4);
        let concrete = JitteredLatency::new(7, 3);
        let value = Latency::jittered(7, 3);
        for _ in 0..20 {
            assert_eq!(
                concrete.delay(NodeId::new(0), NodeId::new(1), &mut rng_a),
                value.delay(NodeId::new(0), NodeId::new(1), &mut rng_b)
            );
        }
        assert_eq!(
            Latency::fixed(25).delay(NodeId::new(0), NodeId::new(1), &mut rng_a),
            SimDuration::from_micros(25)
        );
        assert_eq!(Latency::default(), Latency::Fixed { micros: 10 });
    }

    #[test]
    fn jittered_stays_in_range_and_is_seed_deterministic() {
        let model = JitteredLatency::new(10, 5);
        let draw = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..20)
                .map(|_| {
                    model
                        .delay(NodeId::new(0), NodeId::new(1), &mut rng)
                        .micros()
                })
                .collect::<Vec<_>>()
        };
        let a = draw(9);
        assert!(a.iter().all(|&d| (10..=15).contains(&d)));
        assert_eq!(a, draw(9));
    }
}
