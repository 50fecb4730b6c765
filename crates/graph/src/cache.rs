//! Memoized all-pairs lowest-cost routes: the [`RouteCache`] and the
//! [`CacheScope`] registry that owns collections of them.
//!
//! Every layer of the workspace asks the same two questions of a
//! `(topology, cost-vector)` pair — *"what is the LCP from `src` to
//! `dst`?"* and *"what is it avoiding `k`?"* (the `d_{G−k}` query behind
//! every VCG payment). Answering them with fresh Dijkstra runs per query
//! is what made the Theorem-1 deviation sweep quadratic-times-slower than
//! it needs to be: a single centralized reference check at `n = 64` issues
//! tens of thousands of single-pair queries against at most
//! `n + n·(n−1)` *distinct* trees.
//!
//! A [`RouteCache`] owns one `(topology, cost-vector)` pair and memoizes
//! every tree the pair can produce, computing each at most once (behind
//! [`OnceLock`], so concurrent sweep cells share the work).
//!
//! # Memory model
//!
//! Plain trees live in a dense per-source table (`n` lazily-filled slots —
//! one pointer-sized slot per node, filled on first query). Avoid trees —
//! of which there are `n·(n−1)` *possible* but typically only
//! `O(n · transits-per-tree)` *needed* — live in a **sparse index** keyed
//! by `(src, avoid)`: a slot exists only for pairs actually queried, so a
//! cache's footprint is proportional to the trees it has computed, never
//! to `n²`. At `n = 1024` a fully-dense table would be ~1M slots before a
//! single query; the sparse index allocates nothing until asked.
//!
//! An avoid tree stores only its *detached region*: the entries whose
//! path in the plain tree crosses the avoided node, which are the only
//! ones removing it can change (see [`repair`](crate::repair)). The rest
//! it reads from an [`Arc`] of the plain tree it was repaired from (see
//! [`AvoidTree`]). On the scale-free `n = 256` stream benchmark a region
//! averages 8.5–8.9 of 256 entries, so the ~5,500 avoid trees of a
//! 64-source reference check hold ~47k paths instead of ~1.4M.
//!
//! Both kinds of tree are held by [`Arc`], so a cache seeded from a donor
//! ([`RouteCache::seeded_from`]) can share every donor tree its one-node
//! cost delta provably leaves unchanged. The donor is only peeked for
//! this and never made to compute. In a stream, where each generation is
//! seeded from the one before, an event then pays only for the trees it
//! touches; the rest pass from generation to generation by reference.
//!
//! A region keeps the plain tree it was built on alive. A shared avoid
//! tree brings its base along, even where the new generation has
//! repaired its own plain tree for that source, and
//! [`RouteCache::detach_seed`] does not release it. The bound: besides
//! its own `n` plain trees, a cache holds each avoid tree's region and at
//! most one other plain tree per avoid tree. At worst that is the
//! full-copy form's `n` entries per avoid tree plus the regions. In
//! practice it is far less, since the avoid trees of one source share a
//! single base until that source's plain tree changes, and the ones the
//! change touches are rebuilt on the new base.
//!
//! # Scoping
//!
//! Every registry of caches is a [`CacheScope`], and every scope releases
//! eagerly: a workload cell that finishes with a cache no other cell
//! shares ([`CacheScope::release`]) drops it at once, while
//! [`CacheScope::pin`]ned caches — a sweep's honest baseline — live as
//! long as the scope and seed every one-node-delta cache registered after
//! them. Each run configuration owns a scope, sweeps and streams create
//! their own, and there is no process-wide registry.
//!
//! # Example
//!
//! ```
//! use specfaith_graph::cache::RouteCache;
//! use specfaith_graph::generators::figure1;
//!
//! let net = figure1();
//! let routes = RouteCache::new(net.topology.clone(), net.costs.clone());
//! let path = routes.path(net.x, net.z).expect("biconnected");
//! assert_eq!(path.cost().value(), 2);
//! // The detour avoiding C — the d_{G−C}(X,Z) VCG query — reuses the
//! // same cache; no tree is ever computed twice.
//! let detour = routes.path_avoiding(net.x, net.z, net.c).expect("biconnected");
//! assert_eq!(detour.cost().value(), 5);
//! ```

use crate::costs::CostVector;
use crate::lcp::lcp_tree;
use crate::path::PathMetric;
use crate::repair::{cost_change_keeps, repair_avoiding, repair_cost_change};
use crate::topology::Topology;
use specfaith_core::id::NodeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Shard count of the sparse avoid-tree index. Shards only bound lock
/// contention on the *index* (tree computation itself happens outside any
/// shard lock); 16 keeps the per-cache overhead at sixteen empty maps.
const AVOID_SHARDS: usize = 16;

/// A plain LCP tree, shared by reference: entry `dst.index()` is the
/// lowest-cost path from the tree's source to `dst`, or `None` where
/// unreachable.
pub type PlainTree = Arc<[Option<PathMetric>]>;

/// A `d_{G−avoid}` tree, stored as its detached region on top of the
/// plain tree it was [repaired](crate::repair::repair_avoiding) from.
///
/// Removing `avoid` changes only the entries whose base path crosses it
/// (see the [`repair`](crate::repair) module docs), so the tree holds the
/// base by [`Arc`] and owns just those entries, sorted by destination.
/// [`AvoidTree::path`] answers every destination exactly: from the region
/// where the base path crossed `avoid`, from the base everywhere else.
pub struct AvoidTree {
    base: PlainTree,
    /// `(dst, entry)` for every `dst` whose base path crosses the avoided
    /// node, ascending by `dst`; `None` where unreachable without it.
    region: Box<[(NodeId, Option<PathMetric>)]>,
}

impl AvoidTree {
    /// The tree `base` becomes with `region`'s entries (ascending by
    /// destination) in place of its own.
    pub(crate) fn new(base: PlainTree, region: Box<[(NodeId, Option<PathMetric>)]>) -> Self {
        debug_assert!(region.windows(2).all(|w| w[0].0 < w[1].0));
        AvoidTree { base, region }
    }

    /// The lowest-cost path to `dst` avoiding the tree's node, or `None`
    /// where no such path exists.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a node of the tree's topology.
    pub fn path(&self, dst: NodeId) -> Option<&PathMetric> {
        match self.region.binary_search_by_key(&dst, |(at, _)| *at) {
            Ok(at) => self.region[at].1.as_ref(),
            Err(_) => self.base[dst.index()].as_ref(),
        }
    }

    /// Every entry, in destination order.
    fn iter(&self) -> impl Iterator<Item = Option<&PathMetric>> + '_ {
        let mut region = self.region.iter().peekable();
        self.base.iter().enumerate().map(move |(i, entry)| {
            match region.next_if(|(dst, _)| dst.index() == i) {
                Some((_, repaired)) => repaired.as_ref(),
                None => entry.as_ref(),
            }
        })
    }

    /// Every entry, cloned into the dense form `lcp_tree_avoiding` returns.
    pub fn to_vec(&self) -> Vec<Option<PathMetric>> {
        self.iter().map(Option::<&PathMetric>::cloned).collect()
    }
}

impl std::fmt::Debug for AvoidTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A 64-bit FNV-1a fingerprint of a `(topology, cost-vector)` pair.
///
/// Used only to make registry lookup cheap; equality of the full pair is
/// re-verified on every hit, so a collision can never alias two different
/// networks onto one cache.
fn fingerprint(topo: &Topology, costs: &CostVector) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(PRIME);
        }
    };
    mix(topo.num_nodes() as u64);
    for &(a, b) in topo.edges() {
        mix(((a.raw() as u64) << 32) | b.raw() as u64);
    }
    for (_, cost) in costs.iter() {
        mix(cost.value());
    }
    h
}

/// The sparse `(src, avoid)` → tree index: per-shard maps of lazily
/// initialized slots. A slot is created on first lookup of its pair and
/// never removed while the cache lives, so memory is proportional to the
/// distinct pairs queried. The tree itself is computed outside the shard
/// lock, behind the slot's [`OnceLock`] (so two threads racing on one
/// pair still compute it once, and threads on different pairs never
/// serialize each other's Dijkstra runs).
type AvoidSlots = HashMap<u64, Arc<OnceLock<Arc<AvoidTree>>>>;
type AvoidShard = Mutex<AvoidSlots>;

struct SparseAvoidIndex {
    shards: Box<[AvoidShard]>,
    entries: AtomicUsize,
}

impl SparseAvoidIndex {
    fn new() -> Self {
        SparseAvoidIndex {
            shards: (0..AVOID_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            entries: AtomicUsize::new(0),
        }
    }

    fn shard(&self, key: u64) -> MutexGuard<'_, AvoidSlots> {
        self.shards[key as usize % self.shards.len()]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The slot for `key`, created if absent.
    fn slot(&self, key: u64) -> Arc<OnceLock<Arc<AvoidTree>>> {
        Arc::clone(self.shard(key).entry(key).or_insert_with(|| {
            self.entries.fetch_add(1, Ordering::Relaxed);
            Arc::new(OnceLock::new())
        }))
    }

    /// The tree for `key` if it is already computed. Never creates a slot.
    fn peek(&self, key: u64) -> Option<Arc<AvoidTree>> {
        self.shard(key).get(&key)?.get().cloned()
    }

    /// Number of `(src, avoid)` pairs with a slot (every queried pair,
    /// whether or not its computation has finished).
    fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }
}

/// Memoized lowest-cost routes for one `(topology, cost-vector)` pair.
///
/// Trees are computed lazily, at most once each. All methods take `&self`
/// and are safe to call from many threads at once; the values they return
/// are pure functions of the pair, so caching cannot change any result —
/// only how often Dijkstra runs.
///
/// Memory is proportional to the trees actually computed: `n` dense slots
/// for the plain per-source trees plus one sparse entry per distinct
/// `(src, avoid)` query — never the `n²` worst case (see the
/// [module docs](self) for the full memory model).
pub struct RouteCache {
    topo: Topology,
    costs: CostVector,
    fingerprint: u64,
    /// `trees[src]`: the LCP tree rooted at `src`, shared by reference so
    /// a seeded cache can keep its donor's and avoid trees can sit on it.
    trees: Vec<OnceLock<PlainTree>>,
    /// Sparse `(src, avoid)` index of `d_{G−avoid}` trees.
    avoid_trees: SparseAvoidIndex,
    /// When present, this cache's cost vector differs from `seed.base`'s at
    /// exactly one node. Trees the delta provably leaves unchanged are
    /// shared from the base cache, and other plain trees are
    /// [`repair`](crate::repair)ed from the base cache's instead of built
    /// by fresh Dijkstra. Both are exact, so seeding is invisible in every
    /// answer. Behind a mutex so [`RouteCache::detach_seed`] can drop the
    /// donor reference once the caller is done repairing (locked only at
    /// tree materialization, never per query).
    seed: Mutex<Option<CacheSeed>>,
    /// Number of tree materializations (fresh or repaired) performed so
    /// far (diagnostics for benches and tests; not part of any result).
    computed: AtomicUsize,
    /// Number of trees taken unchanged from the seed base instead.
    shared: AtomicUsize,
}

/// The donor of a seeded [`RouteCache`]: the base cache whose trees are
/// repaired against the one-node cost delta at `changed`.
struct CacheSeed {
    base: Arc<RouteCache>,
    changed: NodeId,
}

impl std::fmt::Debug for RouteCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteCache")
            .field("topo", &self.topo)
            .field("costs", &self.costs)
            .field("trees_computed", &self.trees_computed())
            .field("trees_shared", &self.trees_shared())
            .field("avoid_trees_cached", &self.avoid_trees_cached())
            .finish()
    }
}

impl RouteCache {
    /// An empty cache owning `topo` and `costs`. Construction allocates
    /// `n` empty tree slots and nothing else — no `n²` table.
    ///
    /// # Panics
    ///
    /// Panics if the cost vector's arity does not match the topology.
    pub fn new(topo: Topology, costs: CostVector) -> Self {
        assert_eq!(
            topo.num_nodes(),
            costs.len(),
            "cost vector arity must match topology"
        );
        let n = topo.num_nodes();
        let fingerprint = fingerprint(&topo, &costs);
        RouteCache {
            topo,
            costs,
            fingerprint,
            trees: (0..n).map(|_| OnceLock::new()).collect(),
            avoid_trees: SparseAvoidIndex::new(),
            seed: Mutex::new(None),
            computed: AtomicUsize::new(0),
            shared: AtomicUsize::new(0),
        }
    }

    /// A cache for `costs` **seeded** from `base`: the same topology, a
    /// cost vector differing from the base's at exactly one node, and
    /// every plain tree obtained by [`repair`](crate::repair)ing the base
    /// cache's tree against that one-node delta instead of a fresh
    /// Dijkstra. Sweep engines use this to derive each misreport cell's
    /// cache from the shared honest baseline (see [`CacheScope::pin`]).
    ///
    /// A tree the base already holds is shared by [`Arc`] instead when the
    /// delta provably cannot change it (see [`RouteCache::trees_shared`]):
    /// a streamed cost event then pays only for the trees it touches. The
    /// base is only peeked for this, never made to compute.
    ///
    /// Repair and sharing are exactly equivalent to fresh computation, so
    /// a seeded cache's answers are byte-identical to [`RouteCache::new`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `costs` does not differ from the base's vector at exactly
    /// one node (an identical vector should share the base cache itself;
    /// a multi-node delta has no single-node repair).
    pub fn seeded_from(base: &Arc<RouteCache>, costs: CostVector) -> Self {
        let changed = base
            .costs()
            .one_node_delta(&costs)
            .expect("a seeded cache differs from its base at exactly one node");
        let n = base.topo.num_nodes();
        let fingerprint = fingerprint(&base.topo, &costs);
        RouteCache {
            topo: base.topo.clone(),
            costs,
            fingerprint,
            trees: (0..n).map(|_| OnceLock::new()).collect(),
            avoid_trees: SparseAvoidIndex::new(),
            seed: Mutex::new(Some(CacheSeed {
                base: Arc::clone(base),
                changed,
            })),
            computed: AtomicUsize::new(0),
            shared: AtomicUsize::new(0),
        }
    }

    /// Whether this cache repairs its trees from a seed base
    /// ([`RouteCache::seeded_from`]) rather than running fresh Dijkstra.
    pub fn is_seeded(&self) -> bool {
        self.seed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
    }

    /// Drops the reference to the seed base. Trees already materialized
    /// keep their (repaired or shared, exactly equivalent) contents; trees
    /// not yet materialized fall back to fresh Dijkstra — still exact, just
    /// not repair-accelerated. Streaming engines detach each fixed point's
    /// cache from its donor once its reference check has materialized the
    /// trees it needs, so a long event stream holds one donor generation
    /// alive instead of an unbounded seeded-from chain.
    pub fn detach_seed(&self) {
        self.seed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
    }

    /// The topology this cache answers for.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The cost vector this cache answers for.
    pub fn costs(&self) -> &CostVector {
        &self.costs
    }

    /// The LCP tree rooted at `src`: entry `dst.index()` is the lowest-cost
    /// path `src → dst`, or `None` where unreachable. Computed on first
    /// use, borrowed thereafter.
    pub fn tree(&self, src: NodeId) -> &[Option<PathMetric>] {
        self.plain(src)
    }

    /// [`RouteCache::tree`]'s shared handle, which avoid trees hold.
    fn plain(&self, src: NodeId) -> &PlainTree {
        self.trees[src.index()].get_or_init(|| {
            let Some((base, changed)) = self.donor() else {
                self.computed.fetch_add(1, Ordering::Relaxed);
                return lcp_tree(&self.topo, &self.costs, src).into();
            };
            let donor_tree = base.trees[src.index()].get();
            if let Some(kept) = self.keep(
                &base,
                changed,
                donor_tree,
                |t, v| t[v.index()].as_ref(),
                src,
                None,
            ) {
                return kept;
            }
            // Repair the base cache's tree against the one-node cost delta:
            // exactly equivalent to the fresh run, at the cost of the
            // affected region only.
            self.computed.fetch_add(1, Ordering::Relaxed);
            repair_cost_change(
                &self.topo,
                &self.costs,
                base.tree(src),
                src,
                changed,
                base.costs().cost(changed),
            )
            .into()
        })
    }

    /// The seed base and the node its cost vector differs at, if seeded.
    /// Cloned out of the lock: materializing in the base locks the
    /// *base's* seed mutex, and the chain is acyclic by construction.
    fn donor(&self) -> Option<(Arc<RouteCache>, NodeId)> {
        self.seed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(|s| (Arc::clone(&s.base), s.changed))
    }

    /// The base's `tree` (rooted at `src`, avoiding `avoid`, read through
    /// `entry`), shared when the base holds it and the delta at `changed`
    /// provably leaves it unchanged.
    fn keep<T: ?Sized>(
        &self,
        base: &RouteCache,
        changed: NodeId,
        tree: Option<&Arc<T>>,
        entry: impl Fn(&T, NodeId) -> Option<&PathMetric>,
        src: NodeId,
        avoid: Option<NodeId>,
    ) -> Option<Arc<T>> {
        let tree = tree?;
        let kept = cost_change_keeps(
            &self.topo,
            |v| entry(tree, v),
            src,
            avoid,
            changed,
            base.costs.cost(changed),
            self.costs.cost(changed),
        );
        kept.then(|| {
            self.shared.fetch_add(1, Ordering::Relaxed);
            Arc::clone(tree)
        })
    }

    /// The LCP tree rooted at `src` in `G − avoid` — the `d_{G−k}` query
    /// behind VCG payments. One tree per `(src, avoid)` pair serves every
    /// destination; the handle is a cheap [`Arc`] clone of the cached
    /// tree, so hot paths hold it across a destination loop without
    /// re-hashing per query.
    ///
    /// Computed by [`repair`](crate::repair)ing this cache's own base tree
    /// for `src` — re-relaxing only the subtree detached by removing
    /// `avoid` — which is exactly equivalent to (and much cheaper than)
    /// the fresh `d_{G−avoid}` Dijkstra it replaced. The result stores
    /// only that subtree, on top of the base tree (see [`AvoidTree`]). A
    /// seeded cache shares the seed base's tree instead when it can (see
    /// [`RouteCache::seeded_from`]).
    ///
    /// # Panics
    ///
    /// Panics if `avoid == src`.
    pub fn tree_avoiding(&self, src: NodeId, avoid: NodeId) -> Arc<AvoidTree> {
        assert!(avoid != src, "cannot avoid the source of the LCP query");
        let key = src.index() as u64 * self.topo.num_nodes() as u64 + avoid.index() as u64;
        let slot = self.avoid_trees.slot(key);
        slot.get_or_init(|| {
            if let Some((base, changed)) = self.donor() {
                let donor_tree = base.avoid_trees.peek(key);
                if let Some(kept) = self.keep(
                    &base,
                    changed,
                    donor_tree.as_ref(),
                    AvoidTree::path,
                    src,
                    Some(avoid),
                ) {
                    return kept;
                }
            }
            let base = self.plain(src);
            self.computed.fetch_add(1, Ordering::Relaxed);
            Arc::new(repair_avoiding(&self.topo, &self.costs, base, src, avoid))
        })
        .clone()
    }

    /// The lowest-cost path `src → dst`, or `None` if unreachable,
    /// borrowed from the cached tree.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<&PathMetric> {
        self.tree(src)[dst.index()].as_ref()
    }

    /// The lowest-cost path `src → dst` avoiding `avoid` entirely, or
    /// `None` if no such path exists. Clones the one path at the edge;
    /// loops over many destinations of one `(src, avoid)` pair should
    /// hold [`RouteCache::tree_avoiding`] instead and query it.
    ///
    /// # Panics
    ///
    /// Panics if `avoid` equals `src` or `dst` (the VCG query only ever
    /// avoids intermediate nodes).
    pub fn path_avoiding(&self, src: NodeId, dst: NodeId, avoid: NodeId) -> Option<PathMetric> {
        assert!(
            avoid != dst,
            "cannot avoid the destination of the LCP query"
        );
        self.tree_avoiding(src, avoid).path(dst).cloned()
    }

    /// How many trees this cache has materialized (fresh Dijkstra runs
    /// and repairs alike). Diagnostic only: lets benches and tests verify
    /// that repeated queries hit the memo.
    pub fn trees_computed(&self) -> usize {
        self.computed.load(Ordering::Relaxed)
    }

    /// How many trees this cache took unchanged from its seed base
    /// instead of computing them (see [`RouteCache::seeded_from`]); they
    /// are not counted in [`RouteCache::trees_computed`]. Diagnostic only.
    pub fn trees_shared(&self) -> usize {
        self.shared.load(Ordering::Relaxed)
    }

    /// How many `(src, avoid)` pairs the sparse index holds slots for —
    /// the avoid-tree memory footprint in units of trees, which tests pin
    /// to the number of *distinct pairs queried* (never `n²`).
    pub fn avoid_trees_cached(&self) -> usize {
        self.avoid_trees.len()
    }
}

/// A registry of [`RouteCache`]s keyed by `(topology, cost-vector)`
/// equality: the ownership boundary for route-cache memory.
///
/// A scope is a cheap-to-clone handle (internally `Arc`-shared): run and
/// sweep engines create one per workload, thread clones of it through
/// every cell, and drop it on completion — releasing exactly the caches
/// that workload created. Lookup pre-filters by fingerprint and verifies
/// full structural equality on a match, so cached answers are *provably*
/// the answers the direct computation would give; cache construction and
/// the `(topology, costs)` clones happen **outside** the registry lock,
/// so concurrent sweep threads never serialize behind another thread's
/// allocation.
///
/// Release is eager: when a workload cell finishes with a cache no other
/// cell shares ([`CacheScope::release`]), the cache is dropped at once,
/// so peak memory tracks *concurrent* cells, not the total distinct cost
/// vectors of the workload. Caches several cells share — a
/// [`CacheScope::pin`]ned honest baseline, or any cache another cell still
/// holds — stay registered.
#[derive(Clone)]
pub struct CacheScope {
    inner: Arc<ScopeInner>,
}

struct ScopeInner {
    /// Registered caches, in no particular order.
    registry: Mutex<Vec<Arc<RouteCache>>>,
    /// Caches exempt from release (e.g. a sweep's shared honest baseline);
    /// holding the `Arc` here also keeps their refcount above the release
    /// threshold.
    pinned: Mutex<Vec<Arc<RouteCache>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// Misses answered with a cache seeded from a pinned base
    /// ([`RouteCache::seeded_from`]) instead of a cold cache.
    seeded: AtomicUsize,
    /// Misses that went cold because no pinned cache shared the topology.
    seed_no_donor: AtomicUsize,
    /// Misses that went cold although a same-topology pinned donor existed,
    /// because no donor's cost vector differed at exactly one node
    /// ([`CostVector::one_node_delta`] returned `None`).
    seed_delta_mismatch: AtomicUsize,
    /// Caches dropped by [`CacheScope::release`].
    released: AtomicUsize,
    /// High-water mark of simultaneously registered caches.
    peak: AtomicUsize,
}

impl std::fmt::Debug for CacheScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheScope")
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("released", &self.released())
            .finish()
    }
}

/// The registered cache for exactly `(topo, costs)`, if any.
fn find(
    registry: &[Arc<RouteCache>],
    print: u64,
    topo: &Topology,
    costs: &CostVector,
) -> Option<Arc<RouteCache>> {
    registry
        .iter()
        .find(|c| c.fingerprint == print && c.topo == *topo && c.costs == *costs)
        .map(Arc::clone)
}

impl CacheScope {
    /// An empty scope, releasing eagerly as described on the type — the
    /// one policy every run, sweep and stream uses.
    pub fn eager() -> Self {
        CacheScope {
            inner: Arc::new(ScopeInner {
                registry: Mutex::new(Vec::new()),
                pinned: Mutex::new(Vec::new()),
                hits: AtomicUsize::new(0),
                misses: AtomicUsize::new(0),
                seeded: AtomicUsize::new(0),
                seed_no_donor: AtomicUsize::new(0),
                seed_delta_mismatch: AtomicUsize::new(0),
                released: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
            }),
        }
    }

    fn registry(&self) -> MutexGuard<'_, Vec<Arc<RouteCache>>> {
        self.inner
            .registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn pinned(&self) -> MutexGuard<'_, Vec<Arc<RouteCache>>> {
        self.inner
            .pinned
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The cache for `(topo, costs)` in this scope: returns the
    /// registered cache when one exists (fingerprint pre-filter, then
    /// full structural equality), otherwise registers a fresh one.
    ///
    /// When a [`CacheScope::pin`]ned cache shares the topology and differs
    /// from `costs` at exactly one node — the shape of every misreport
    /// cell relative to a sweep's pinned honest baseline — the fresh cache
    /// is [seeded](RouteCache::seeded_from) from it, so its trees are
    /// repaired from the baseline's instead of rebuilt by fresh Dijkstra.
    /// Seeding never changes an answer (repair is exactly equivalent);
    /// the [`CacheScope::seeded`] counter records how often it applied.
    pub fn cache(&self, topo: &Topology, costs: &CostVector) -> Arc<RouteCache> {
        let print = fingerprint(topo, costs);
        if let Some(hit) = find(&self.registry(), print, topo, costs) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        // Miss: allocate — and deep-clone the topology and cost vector —
        // outside the lock, so sweep threads building caches for
        // *different* cost vectors do not serialize each other.
        let fresh = match self.seed_base(topo, costs) {
            Some(base) => Arc::new(RouteCache::seeded_from(&base, costs.clone())),
            None => Arc::new(RouteCache::new(topo.clone(), costs.clone())),
        };
        let mut registry = self.registry();
        // Re-check under the lock: another thread may have registered the
        // same pair while we were allocating; sharing its cache keeps the
        // work-once guarantee.
        if let Some(hit) = find(&registry, print, topo, costs) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        if fresh.is_seeded() {
            self.inner.seeded.fetch_add(1, Ordering::Relaxed);
        }
        registry.push(Arc::clone(&fresh));
        self.inner.peak.fetch_max(registry.len(), Ordering::Relaxed);
        fresh
    }

    /// The cache for `(topo, costs)`, additionally **pinned**: exempt from
    /// [`CacheScope::release`] for the scope's lifetime, and a seed base
    /// for later one-node-delta lookups. Run engines pin the cache of the
    /// true-cost declarations, which every non-misreporting cell shares;
    /// releasing it between cells would thrash it.
    pub fn pin(&self, topo: &Topology, costs: &CostVector) -> Arc<RouteCache> {
        let cache = self.cache(topo, costs);
        let mut pinned = self.pinned();
        if !pinned.iter().any(|p| Arc::ptr_eq(p, &cache)) {
            pinned.push(Arc::clone(&cache));
        }
        cache
    }

    /// Removes `cache` from the pinned set (a no-op if it was never
    /// pinned). Streaming engines roll their donor pin forward on every
    /// event — pin the new fixed point's cache, unpin (and
    /// [`CacheScope::release`]) the previous one — so a long event stream
    /// retains one pinned cache, not one per event.
    pub fn unpin(&self, cache: &Arc<RouteCache>) {
        let mut pinned = self.pinned();
        if let Some(at) = pinned.iter().position(|p| Arc::ptr_eq(p, cache)) {
            pinned.remove(at);
        }
    }

    /// Declares the caller finished with `cache`: if no other workload
    /// cell shares the cache and it is not pinned, it is dropped from the
    /// registry immediately — freeing its trees midway through the
    /// workload instead of at scope end. Never affects correctness: a
    /// released pair that is looked up again simply recomputes.
    pub fn release(&self, cache: &Arc<RouteCache>) {
        if self.pinned().iter().any(|p| Arc::ptr_eq(p, cache)) {
            return;
        }
        let mut registry = self.registry();
        // Single-use check under the registry lock: the caller's handle
        // plus the registry's account for 2 strong refs; any more means
        // another cell is still using this cache — leave it registered.
        if Arc::strong_count(cache) > 2 {
            return;
        }
        if let Some(at) = registry.iter().position(|c| Arc::ptr_eq(c, cache)) {
            registry.swap_remove(at);
            self.inner.released.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A pinned cache suitable as a seed base for `(topo, costs)`: same
    /// topology, cost vectors differing at exactly one node. Pinned
    /// caches are the long-lived, widely shared ones (a sweep's honest
    /// baseline), which is exactly the donor a misreport cell wants.
    fn seed_base(&self, topo: &Topology, costs: &CostVector) -> Option<Arc<RouteCache>> {
        let pinned = self.pinned();
        let found = pinned
            .iter()
            .find(|base| base.topo == *topo && base.costs.one_node_delta(costs).is_some())
            .map(Arc::clone);
        if found.is_none() {
            // Attribute the cold build: no candidate donor at all, or a
            // same-topology donor whose cost delta was not one-node
            // (`one_node_delta` itself reports `None` for both identical
            // and multi-node diffs, so this is where the distinction is
            // observable).
            if pinned.iter().any(|base| base.topo == *topo) {
                self.inner
                    .seed_delta_mismatch
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                self.inner.seed_no_donor.fetch_add(1, Ordering::Relaxed);
            }
        }
        found
    }

    /// Number of caches currently retained.
    pub fn len(&self) -> usize {
        self.registry().len()
    }

    /// Whether the scope retains no caches.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served by an already-registered cache.
    pub fn hits(&self) -> usize {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Lookups that registered a fresh cache. In a workload that releases
    /// each cache only after its last use, this equals the number of
    /// distinct cost vectors the workload produced — if it exceeds that,
    /// caches are being dropped and silently recomputed.
    pub fn misses(&self) -> usize {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Misses answered with a cache [seeded](RouteCache::seeded_from)
    /// from a pinned base rather than built cold — in a sweep, the number
    /// of misreport cells whose caches repaired the honest baseline's
    /// trees instead of recomputing them.
    pub fn seeded(&self) -> usize {
        self.inner.seeded.load(Ordering::Relaxed)
    }

    /// Misses built cold because no pinned cache shared the topology —
    /// "no donor cache" in seed-miss attribution. Scopes that never pin
    /// (no baseline to seed from) count every miss here.
    pub fn seed_no_donor(&self) -> usize {
        self.inner.seed_no_donor.load(Ordering::Relaxed)
    }

    /// Misses built cold although a same-topology pinned donor existed,
    /// because every donor's cost vector differed at more than one node
    /// (or not at all) — "donor found but delta not one-node" in
    /// seed-miss attribution. In a streaming run, a rising value means
    /// events have drifted multiple nodes away from the pinned fixed
    /// point and the donor pin should be rolled forward.
    pub fn seed_delta_mismatch(&self) -> usize {
        self.inner.seed_delta_mismatch.load(Ordering::Relaxed)
    }

    /// Caches dropped by [`CacheScope::release`].
    pub fn released(&self) -> usize {
        self.inner.released.load(Ordering::Relaxed)
    }

    /// High-water mark of simultaneously registered caches — the metric
    /// release exists to bound: a sweep's peak tracks its *concurrent*
    /// cells, not its total distinct cost vectors.
    pub fn peak_len(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::figure1;
    use crate::lcp::lcp_tree_avoiding;
    use rand::SeedableRng;
    use specfaith_core::money::Cost;

    #[test]
    fn answers_match_direct_trees() {
        let net = figure1();
        let cache = RouteCache::new(net.topology.clone(), net.costs.clone());
        for src in net.topology.nodes() {
            assert_eq!(
                cache.tree(src),
                &lcp_tree(&net.topology, &net.costs, src)[..],
                "tree({src})"
            );
            for avoid in net.topology.nodes() {
                if avoid == src {
                    continue;
                }
                assert_eq!(
                    cache.tree_avoiding(src, avoid).to_vec(),
                    lcp_tree_avoiding(&net.topology, &net.costs, src, Some(avoid)),
                    "tree_avoiding({src}, {avoid})"
                );
            }
        }
    }

    /// Checks that every avoid tree of `cache` stores exactly the
    /// destinations whose base path crosses the avoided node, on top of
    /// the cache's own tree for its source, and returns how many entries
    /// the regions store in all.
    fn assert_regions_are_detached_subtrees(cache: &RouteCache) -> usize {
        let topo = cache.topology();
        let mut stored = 0;
        for src in topo.nodes() {
            for k in topo.nodes().filter(|&k| k != src) {
                let tree = cache.tree_avoiding(src, k);
                let crossing: Vec<NodeId> = topo
                    .nodes()
                    .filter(|&dst| cache.path(src, dst).is_some_and(|p| p.contains(k)))
                    .collect();
                let region: Vec<NodeId> = tree.region.iter().map(|(dst, _)| *dst).collect();
                assert_eq!(region, crossing, "region of ({src}, avoid {k})");
                assert!(
                    std::ptr::eq(&tree.base[..], cache.tree(src)),
                    "({src}, avoid {k}) sits on the cache's tree for {src}"
                );
                stored += region.len();
            }
        }
        stored
    }

    #[test]
    fn avoid_trees_store_exactly_the_detached_region() {
        let net = figure1();
        let cache = RouteCache::new(net.topology.clone(), net.costs.clone());
        assert_regions_are_detached_subtrees(&cache);
        // X reaches Z over X-D-C-Z: avoiding C detaches C and Z only.
        let region: Vec<NodeId> = cache
            .tree_avoiding(net.x, net.c)
            .region
            .iter()
            .map(|(dst, _)| *dst)
            .collect();
        assert_eq!(region, [net.c, net.z]);

        let mut rng = rand::rngs::StdRng::seed_from_u64(2026);
        let n = 64;
        let topo = crate::generators::scale_free(n, 2, &mut rng);
        let costs = CostVector::random(n, 1, 20, &mut rng);
        let cache = RouteCache::new(topo, costs);
        let stored = assert_regions_are_detached_subtrees(&cache);
        // Most avoided nodes are leaves of most trees: the regions hold a
        // small fraction of the n entries per tree a full copy would.
        assert!(
            stored * 10 < n * n * (n - 1),
            "regions store {stored} of {} entries",
            n * n * (n - 1)
        );
    }

    #[test]
    fn repeated_queries_compute_each_tree_once() {
        let net = figure1();
        let cache = RouteCache::new(net.topology.clone(), net.costs.clone());
        for _ in 0..3 {
            let _ = cache.path(net.x, net.z);
            let _ = cache.path_avoiding(net.x, net.z, net.c);
        }
        assert_eq!(cache.trees_computed(), 2, "one plain tree + one avoid tree");
    }

    #[test]
    fn avoid_index_grows_with_queries_not_n_squared() {
        // The sparse-index memory contract: slots exist only for queried
        // (src, avoid) pairs. A fresh cache holds none; k distinct
        // queries hold exactly k, repeats included free.
        let net = figure1();
        let cache = RouteCache::new(net.topology.clone(), net.costs.clone());
        assert_eq!(
            cache.avoid_trees_cached(),
            0,
            "construction allocates no avoid slots"
        );
        let _ = cache.tree_avoiding(net.x, net.c);
        let _ = cache.tree_avoiding(net.x, net.c);
        assert_eq!(cache.avoid_trees_cached(), 1);
        let _ = cache.tree_avoiding(net.x, net.d);
        let _ = cache.tree_avoiding(net.z, net.c);
        assert_eq!(cache.avoid_trees_cached(), 3);
        // Each avoid tree is a repair of its source's base tree, so the
        // three distinct (src, avoid) pairs also force the two base trees
        // (sources x and z) they repair from.
        assert_eq!(
            cache.trees_computed(),
            5,
            "three repaired avoid trees + the two base trees they seed from"
        );
    }

    #[test]
    fn seeded_cache_answers_are_identical_to_cold_caches() {
        let net = figure1();
        let scope = CacheScope::eager();
        let base = scope.pin(&net.topology, &net.costs);
        assert!(!base.is_seeded(), "the pinned baseline is built cold");
        for (node, declared) in [(net.c, 5u64), (net.c, 0), (net.a, 1), (net.d, 40)] {
            let lied = net.costs.with_cost(node, Cost::new(declared));
            let seeded = scope.cache(&net.topology, &lied);
            assert!(seeded.is_seeded(), "one-node delta from the pinned base");
            let cold = RouteCache::new(net.topology.clone(), lied.clone());
            for src in net.topology.nodes() {
                assert_eq!(seeded.tree(src), cold.tree(src), "tree({src})");
                for avoid in net.topology.nodes() {
                    if avoid == src {
                        continue;
                    }
                    assert_eq!(
                        seeded.tree_avoiding(src, avoid).to_vec(),
                        cold.tree_avoiding(src, avoid).to_vec(),
                        "tree_avoiding({src}, {avoid})"
                    );
                }
            }
        }
        assert_eq!(scope.seeded(), 4, "every misreport lookup was seeded");
    }

    #[test]
    fn seeding_requires_a_pinned_one_node_delta_base() {
        let net = figure1();
        let scope = CacheScope::eager();
        // No pin yet: a one-node-delta vector still builds cold.
        let lied = net.costs.with_cost(net.c, Cost::new(5));
        let cold = scope.cache(&net.topology, &lied);
        assert!(!cold.is_seeded(), "nothing pinned to seed from");
        let _ = scope.pin(&net.topology, &net.costs);
        // Two-node deltas never seed.
        let double = lied.with_cost(net.a, Cost::new(7));
        let unseeded = scope.cache(&net.topology, &double);
        assert!(!unseeded.is_seeded(), "multi-node deltas have no repair");
        assert_eq!(scope.seeded(), 0);
    }

    #[test]
    #[should_panic(expected = "exactly one node")]
    fn seeding_from_an_identical_vector_is_rejected() {
        let net = figure1();
        let base = Arc::new(RouteCache::new(net.topology.clone(), net.costs.clone()));
        let _ = RouteCache::seeded_from(&base, net.costs.clone());
    }

    #[test]
    fn seed_misses_are_attributed_and_pins_roll_forward() {
        let net = figure1();
        let scope = CacheScope::eager();
        // First build: nothing pinned yet → "no donor".
        let honest = scope.pin(&net.topology, &net.costs);
        assert_eq!((scope.seed_no_donor(), scope.seed_delta_mismatch()), (1, 0));
        // One-node delta from the pinned donor seeds (neither counter).
        let lied = net.costs.with_cost(net.c, Cost::new(9));
        let seeded = scope.cache(&net.topology, &lied);
        assert!(seeded.is_seeded());
        assert_eq!(scope.seeded(), 1);
        assert_eq!((scope.seed_no_donor(), scope.seed_delta_mismatch()), (1, 0));
        // Two-node delta: a same-topology donor exists but cannot seed.
        let double = lied.with_cost(net.a, Cost::new(7));
        let cold = scope.cache(&net.topology, &double);
        assert!(!cold.is_seeded());
        assert_eq!((scope.seed_no_donor(), scope.seed_delta_mismatch()), (1, 1));
        // Rolling the pin forward re-enables seeding from the new base.
        scope.unpin(&honest);
        let rolled = scope.pin(&net.topology, &double);
        assert!(
            Arc::ptr_eq(&cold, &rolled),
            "pin promotes the registered cache"
        );
        let next = double.with_cost(net.c, Cost::new(2));
        drop(scope.cache(&net.topology, &next));
        assert_eq!(
            scope.seeded(),
            2,
            "one-node delta from the rolled pin seeds"
        );
        // Unpinned single-use caches release eagerly again...
        drop(cold);
        let len_before = scope.len();
        scope.release(&seeded);
        drop(seeded);
        assert_eq!(scope.len(), len_before - 1, "single-use cache released");
        // ...but a seed base stays retained while a dependent seeded cache
        // (here `next`, repaired from `rolled`) still holds it alive.
        scope.unpin(&rolled);
        scope.release(&rolled);
        assert_eq!(scope.len(), len_before - 1, "live seed base is retained");
    }

    #[test]
    fn eager_release_drops_single_use_caches_immediately() {
        let net = figure1();
        let scope = CacheScope::eager();
        let cache = scope.cache(&net.topology, &net.costs);
        assert_eq!(scope.len(), 1);
        scope.release(&cache);
        assert_eq!(scope.len(), 0, "single-use cache dropped at release");
        assert_eq!(scope.released(), 1);
        // Looking the pair up again is a fresh (correct) miss.
        let again = scope.cache(&net.topology, &net.costs);
        assert!(!Arc::ptr_eq(&cache, &again));
        assert_eq!(scope.misses(), 2);
    }

    #[test]
    fn eager_release_spares_shared_and_pinned_caches() {
        let net = figure1();
        let scope = CacheScope::eager();
        // Pinned: never released.
        let pinned = scope.pin(&net.topology, &net.costs);
        scope.release(&pinned);
        assert_eq!(scope.len(), 1, "pinned cache survives release");
        // Shared: a second outstanding handle blocks release.
        let lied = net.costs.with_cost(net.c, Cost::new(4));
        let a = scope.cache(&net.topology, &lied);
        let b = scope.cache(&net.topology, &lied);
        assert!(Arc::ptr_eq(&a, &b));
        scope.release(&a);
        assert_eq!(scope.len(), 2, "cache another cell holds is retained");
        drop(b);
        scope.release(&a);
        assert_eq!(scope.len(), 1, "last holder's release drops it");
        assert_eq!(scope.released(), 1);
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let net = figure1();
        let scope = CacheScope::eager();
        for declared in 1..=5u64 {
            let costs = net.costs.with_cost(net.c, Cost::new(declared));
            let cache = scope.cache(&net.topology, &costs);
            scope.release(&cache);
        }
        assert_eq!(scope.len(), 0, "every single-use cache released");
        assert_eq!(scope.released(), 5);
        assert_eq!(
            scope.peak_len(),
            1,
            "serial release keeps one cache live at a time"
        );
    }

    #[test]
    fn concurrent_lookups_share_one_cache_per_pair() {
        // The registry under contention: many threads interleaving
        // lookups over a handful of distinct cost vectors must end up
        // with exactly one registered cache per vector (allocation races
        // are resolved by the under-lock re-check) and consistent
        // answers throughout.
        let net = figure1();
        let scope = CacheScope::eager();
        const VECTORS: u64 = 4;
        const THREADS: usize = 8;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let scope = scope.clone();
                let net = &net;
                s.spawn(move || {
                    for round in 0..20u64 {
                        let declared = (round + t as u64) % VECTORS;
                        let costs = net.costs.with_cost(net.c, Cost::new(declared + 1));
                        let cache = scope.cache(&net.topology, &costs);
                        assert_eq!(cache.costs(), &costs, "never handed a mismatched cache");
                        let path = cache.path(net.d, net.z).expect("biconnected");
                        assert!(path.cost().value() <= 1000);
                        let _ = cache.tree_avoiding(net.x, net.c);
                    }
                });
            }
        });
        assert_eq!(
            scope.len(),
            VECTORS as usize,
            "one cache per distinct vector"
        );
        assert_eq!(
            scope.misses(),
            VECTORS as usize,
            "no duplicate registrations"
        );
        assert_eq!(
            scope.hits() + scope.misses(),
            THREADS * 20,
            "every lookup accounted"
        );
    }

    #[test]
    fn path_accessors_agree_with_tree_entries() {
        let net = figure1();
        let cache = RouteCache::new(net.topology.clone(), net.costs.clone());
        let p = cache.path(net.x, net.z).expect("biconnected");
        assert_eq!(p.nodes(), &[net.x, net.d, net.c, net.z]);
        let detour = cache
            .path_avoiding(net.x, net.z, net.c)
            .expect("biconnected");
        assert_eq!(detour.nodes(), &[net.x, net.a, net.z]);
    }

    #[test]
    fn fingerprint_tracks_cost_changes() {
        let net = figure1();
        let base = fingerprint(&net.topology, &net.costs);
        let lied = net.costs.with_cost(net.c, Cost::new(5));
        assert_ne!(base, fingerprint(&net.topology, &lied));
        assert_eq!(base, fingerprint(&net.topology, &net.costs), "stable");
    }

    #[test]
    #[should_panic(expected = "cannot avoid the source")]
    fn avoid_source_rejected() {
        let net = figure1();
        let cache = RouteCache::new(net.topology.clone(), net.costs.clone());
        let _ = cache.tree_avoiding(net.x, net.x);
    }

    #[test]
    #[should_panic(expected = "cannot avoid the destination")]
    fn avoid_destination_rejected() {
        let net = figure1();
        let cache = RouteCache::new(net.topology.clone(), net.costs.clone());
        let _ = cache.path_avoiding(net.x, net.z, net.z);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn mismatched_arity_rejected() {
        let net = figure1();
        let _ = RouteCache::new(net.topology.clone(), CostVector::uniform(2, 1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::generators::random_biconnected;
    use crate::lcp::lcp_tree_avoiding;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The satellite property: across random biconnected topologies,
        /// cost vectors, and avoid-node queries, every answer of the
        /// sparse avoid-tree index is *identical* to the direct
        /// `lcp_tree` / `lcp_tree_avoiding` computation, and the index
        /// holds exactly the pairs queried.
        #[test]
        fn cache_is_identical_to_direct_computation(
            seed in 0u64..400,
            n in 4usize..14,
            cost_hi in 1u64..25,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = random_biconnected(n, n / 2, &mut rng);
            let costs = CostVector::random(n, 0, cost_hi, &mut rng);
            let cache = RouteCache::new(topo.clone(), costs.clone());
            for src in topo.nodes() {
                let direct = lcp_tree(&topo, &costs, src);
                prop_assert_eq!(cache.tree(src), &direct[..]);
                for dst in topo.nodes() {
                    prop_assert_eq!(cache.path(src, dst), direct[dst.index()].as_ref());
                    for avoid in topo.nodes() {
                        if avoid == src || avoid == dst {
                            continue;
                        }
                        let direct_avoid =
                            lcp_tree_avoiding(&topo, &costs, src, Some(avoid));
                        prop_assert_eq!(
                            cache.path_avoiding(src, dst, avoid),
                            direct_avoid[dst.index()].clone()
                        );
                    }
                }
            }
            // Exactly the queried pairs are indexed — never more.
            prop_assert_eq!(cache.avoid_trees_cached(), n * (n - 1));
        }

        /// A scope never mixes up distinct pairs: interleaved lookups
        /// under different cost vectors stay consistent.
        #[test]
        fn scope_registry_is_collision_safe(seed in 0u64..200, n in 4usize..10) {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = random_biconnected(n, n / 2, &mut rng);
            let a = CostVector::random(n, 0, 10, &mut rng);
            let b = CostVector::random(n, 11, 20, &mut rng);
            let scope = CacheScope::eager();
            let ca = scope.cache(&topo, &a);
            let cb = scope.cache(&topo, &b);
            prop_assert_eq!(ca.costs(), &a);
            prop_assert_eq!(cb.costs(), &b);
            for src in topo.nodes() {
                let direct_a = lcp_tree(&topo, &a, src);
                let direct_b = lcp_tree(&topo, &b, src);
                for dst in topo.nodes() {
                    prop_assert_eq!(ca.path(src, dst), direct_a[dst.index()].as_ref());
                    prop_assert_eq!(cb.path(src, dst), direct_b[dst.index()].as_ref());
                }
            }
        }
    }
}
