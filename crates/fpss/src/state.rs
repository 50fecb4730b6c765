//! The per-node data of FPSS §4.1: DATA1–DATA4, with canonical bank hashes.
//!
//! Each table is laid out for its reads. DATA1 is dense by node index,
//! since every recompute costs candidate paths from it. DATA3\* groups its
//! rows per destination, sorted by transit, with each entry's identity
//! tags in an inline [`TagSet`]: the destination-scoped recompute of
//! [`crate::node::FpssCore::recompute_dsts`] diffs and installs one
//! destination's rows in a single merge, and iteration, announcements and
//! both digests walk `(dst, transit)` order, byte for byte what a flat
//! sorted map gives.
//!
//! DATA1, DATA2 and DATA3\* each memoize their canonical digest. Every
//! `&mut` method that changes a table's content clears its memo, and a
//! call that leaves the content as it was keeps it. So a streamed event,
//! or a bank checkpoint, hashes only the tables that changed since their
//! last digest. The memo is not content: it is cloned with its table and
//! ignored by equality.

use crate::msg::{PriceRow, RouteRow};
use crate::tags::TagSet;
use specfaith_core::id::NodeId;
use specfaith_core::money::{Cost, Money};
use specfaith_crypto::sha256::Digest;
use specfaith_crypto::tablehash::TableHasher;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// A table's memoized canonical digest. Every memo compares equal to
/// every other, and all print alike, so the tables can derive equality
/// and `Debug` from content.
#[derive(Clone, Default)]
struct DigestMemo(OnceLock<Digest>);

impl fmt::Debug for DigestMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("DigestMemo")
    }
}

impl DigestMemo {
    fn get_or(&self, compute: impl FnOnce() -> Digest) -> Digest {
        *self.0.get_or_init(compute)
    }

    fn clear(&mut self) {
        self.0.take();
    }
}

impl PartialEq for DigestMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for DigestMemo {}

/// \[DATA1\] Transit-cost list: this node's knowledge of declared transit
/// costs across the network, filled by the phase-1 flood.
///
/// Stored densely by node index: the list sits on the innermost loops of
/// every routing/pricing recomputation (once per candidate path node), so
/// lookups must be array reads, not tree walks. Node ids are dense
/// (`0..n`) by construction, making the representation exact.
#[derive(Clone, Debug, Default)]
pub struct TransitCostList {
    /// `costs[node.index()]`; `None` = not yet learned. May carry trailing
    /// `None`s, which never affect equality or iteration.
    costs: Vec<Option<Cost>>,
    known: usize,
    digest: DigestMemo,
}

impl TransitCostList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `origin`'s declared cost. Returns `true` when this is new
    /// information (first declaration wins; FPSS assumes a static network,
    /// so re-declarations are duplicates from the flood).
    pub fn learn(&mut self, origin: NodeId, declared: Cost) -> bool {
        let at = origin.index();
        if at >= self.costs.len() {
            self.costs.resize(at + 1, None);
        }
        if self.costs[at].is_some() {
            return false;
        }
        self.costs[at] = Some(declared);
        self.known += 1;
        self.digest.clear();
        true
    }

    /// Overwrites `origin`'s declared cost (the streaming-mode complement
    /// of [`TransitCostList::learn`]: re-declarations are *changes*, not
    /// flood duplicates). Returns `true` when the stored value changed.
    pub fn update(&mut self, origin: NodeId, declared: Cost) -> bool {
        let at = origin.index();
        if at >= self.costs.len() {
            self.costs.resize(at + 1, None);
        }
        if self.costs[at] == Some(declared) {
            return false;
        }
        if self.costs[at].is_none() {
            self.known += 1;
        }
        self.costs[at] = Some(declared);
        self.digest.clear();
        true
    }

    /// Forgets `origin`'s declared cost (node churn: a departed node's
    /// cost must become unknown again so a later [`TransitCostList::learn`]
    /// from its re-flood wins). Returns whether a cost was present.
    pub fn forget(&mut self, origin: NodeId) -> bool {
        let at = origin.index();
        match self.costs.get_mut(at) {
            Some(slot @ Some(_)) => {
                *slot = None;
                self.known -= 1;
                self.digest.clear();
                true
            }
            _ => false,
        }
    }

    /// The declared cost of `node`, if known.
    pub fn declared(&self, node: NodeId) -> Option<Cost> {
        self.costs.get(node.index()).copied().flatten()
    }

    /// Number of nodes with known costs.
    pub fn len(&self) -> usize {
        self.known
    }

    /// Whether no costs are known yet.
    pub fn is_empty(&self) -> bool {
        self.known == 0
    }

    /// Iterates `(node, declared cost)` in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Cost)> + '_ {
        self.costs
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|c| (NodeId::from_index(i), c)))
    }

    /// Sum of declared costs of the *intermediate* nodes of `path`.
    /// Returns `None` if any intermediate's cost is unknown.
    pub fn path_cost(&self, path: &[NodeId]) -> Option<Cost> {
        if path.len() <= 2 {
            return Some(Cost::ZERO);
        }
        path[1..path.len() - 1]
            .iter()
            .try_fold(Cost::ZERO, |acc, v| self.declared(*v).map(|c| acc + c))
    }

    /// The cost of the candidate route `[owner] ++ path`, whose
    /// intermediates are every `path` node except the last: what the
    /// routing update rule charges a neighbor-advertised path, costed
    /// locally (\[CHECK1\]). Returns `None` if any such cost is unknown.
    pub fn extension_cost(&self, path: &[NodeId]) -> Option<Cost> {
        if path.len() <= 1 {
            return Some(Cost::ZERO);
        }
        path[..path.len() - 1]
            .iter()
            .try_fold(Cost::ZERO, |acc, v| self.declared(*v).map(|c| acc + c))
    }

    /// Canonical hash (for completeness; the bank compares DATA2/DATA3*).
    /// Memoized until the list next changes.
    pub fn digest(&self) -> Digest {
        self.digest.get_or(|| {
            let mut h = TableHasher::new("fpss/data1");
            for (node, cost) in self.iter() {
                h.put_u32(node.raw()).put_u64(cost.value()).row_boundary();
            }
            h.finish()
        })
    }
}

impl PartialEq for TransitCostList {
    fn eq(&self, other: &Self) -> bool {
        // Trailing unlearned slots are representation, not content.
        self.known == other.known && self.iter().eq(other.iter())
    }
}

impl Eq for TransitCostList {}

/// \[DATA2\] Routing table: this node's current lowest-cost path per
/// destination.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoutingTable {
    routes: BTreeMap<NodeId, Vec<NodeId>>,
    digest: DigestMemo,
}

impl RoutingTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current path to `dst`, if any (starts at the owner, ends at
    /// `dst`).
    pub fn path(&self, dst: NodeId) -> Option<&[NodeId]> {
        self.routes.get(&dst).map(Vec::as_slice)
    }

    /// The next hop toward `dst`, if a route exists.
    pub fn next_hop(&self, dst: NodeId) -> Option<NodeId> {
        self.routes.get(&dst).and_then(|p| p.get(1)).copied()
    }

    /// Installs a route, returning `true` if the entry changed.
    pub fn install(&mut self, dst: NodeId, path: Vec<NodeId>) -> bool {
        if self.routes.get(&dst).map(Vec::as_slice) == Some(path.as_slice()) {
            return false;
        }
        self.routes.insert(dst, path);
        self.digest.clear();
        true
    }

    /// Removes the route to `dst`, returning whether one was present.
    pub fn remove(&mut self, dst: NodeId) -> bool {
        let removed = self.routes.remove(&dst).is_some();
        if removed {
            self.digest.clear();
        }
        removed
    }

    /// Number of destinations with routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Iterates `(dst, path)` in destination order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[NodeId])> + '_ {
        self.routes.iter().map(|(&d, p)| (d, p.as_slice()))
    }

    /// The table as announcement rows.
    pub fn to_rows(&self) -> Vec<RouteRow> {
        self.iter()
            .map(|(dst, path)| RouteRow {
                dst,
                path: path.to_vec(),
            })
            .collect()
    }

    /// Canonical hash compared by \[BANK1\]. Memoized until the table
    /// next changes.
    pub fn digest(&self) -> Digest {
        self.digest.get_or(|| {
            let mut h = TableHasher::new("fpss/data2");
            for (dst, path) in &self.routes {
                h.put_u32(dst.raw());
                for v in path {
                    h.put_u32(v.raw());
                }
                h.row_boundary();
            }
            h.finish()
        })
    }
}

/// One entry of the extended pricing table \[DATA3*\]: the per-packet price
/// of a transit node plus the identity tags of §4.2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PriceEntry {
    /// Per-packet VCG payment.
    pub price: Money,
    /// The neighbor(s) whose information produced this entry (union on
    /// pricing ties) — the spoof-detection extension of the paper.
    pub tags: TagSet,
}

/// One destination's pricing rows: `(transit, entry)`, sorted by transit,
/// each transit once.
type DstRows = Vec<(NodeId, PriceEntry)>;

/// \[DATA3*\] Pricing table: per `(destination, transit)` pair, the
/// per-packet payment this node owes that transit, with identity tags.
///
/// Rows are grouped per destination and sorted by transit, the shape of
/// every read: the destination-scoped recompute diffs and installs one
/// destination's rows in a single merge, and iteration and both digests
/// walk `(dst, transit)` order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PricingTable {
    /// Destinations with at least one row; none maps to an empty list.
    by_dst: BTreeMap<NodeId, DstRows>,
    /// Total rows across destinations.
    len: usize,
    digest: DigestMemo,
}

/// Appends the announcement diff of one destination, `old` → `new`:
/// each row of `new` that `old` lacks or holds differently to `changed`,
/// each transit of `old` that `new` lacks to `retracted`, both in transit
/// order.
fn diff_rows(
    dst: NodeId,
    old: &[(NodeId, PriceEntry)],
    new: &[(NodeId, PriceEntry)],
    changed: &mut Vec<PriceRow>,
    retracted: &mut Vec<(NodeId, NodeId)>,
) {
    let mut old = old.iter().peekable();
    for (transit, entry) in new {
        while let Some((gone, _)) = old.next_if(|(was, _)| was < transit) {
            retracted.push((dst, *gone));
        }
        let kept = old
            .next_if(|(was, _)| was == transit)
            .is_some_and(|(_, before)| before == entry);
        if !kept {
            changed.push(PriceRow {
                dst,
                transit: *transit,
                price: entry.price,
                tags: entry.tags.clone(),
            });
        }
    }
    retracted.extend(old.map(|(gone, _)| (dst, *gone)));
}

impl PricingTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// A table from per-destination rows, each list sorted by transit
    /// with every transit once (what [`crate::compute::price_entries_to`]
    /// returns). Empty lists are skipped.
    pub(crate) fn from_dst_rows(rows: impl IntoIterator<Item = (NodeId, DstRows)>) -> Self {
        let by_dst: BTreeMap<NodeId, DstRows> = rows
            .into_iter()
            .filter(|(_, rows)| !rows.is_empty())
            .collect();
        debug_assert!(by_dst
            .values()
            .all(|rows| rows.windows(2).all(|w| w[0].0 < w[1].0)));
        PricingTable {
            len: by_dst.values().map(Vec::len).sum(),
            by_dst,
            digest: DigestMemo::default(),
        }
    }

    /// `dst`'s rows, sorted by transit.
    fn rows(&self, dst: NodeId) -> &[(NodeId, PriceEntry)] {
        self.by_dst.get(&dst).map_or(&[], Vec::as_slice)
    }

    /// The entry for traffic to `dst` transiting `transit`.
    pub fn entry(&self, dst: NodeId, transit: NodeId) -> Option<&PriceEntry> {
        let rows = self.rows(dst);
        let at = rows.binary_search_by_key(&transit, |(k, _)| *k).ok()?;
        Some(&rows[at].1)
    }

    /// The price for `(dst, transit)`, if present.
    pub fn price(&self, dst: NodeId, transit: NodeId) -> Option<Money> {
        self.entry(dst, transit).map(|e| e.price)
    }

    /// Replaces the whole table (the recompute functions build fresh
    /// tables). Returns `(changed rows, retracted keys)` — exactly what
    /// must be announced to neighbors, each in `(dst, transit)` order.
    /// Retractions matter for the checker protocol: the announced table
    /// accumulated by checkers must track removals, or the \[BANK2\] hash
    /// comparison would flag honest nodes.
    pub fn replace(&mut self, new: PricingTable) -> (Vec<PriceRow>, Vec<(NodeId, NodeId)>) {
        let mut changed = Vec::new();
        let mut retracted = Vec::new();
        let mut old_dsts = self.by_dst.keys().copied().peekable();
        for &dst in new.by_dst.keys() {
            while let Some(gone) = old_dsts.next_if(|&was| was < dst) {
                diff_rows(gone, self.rows(gone), &[], &mut changed, &mut retracted);
            }
            old_dsts.next_if_eq(&dst);
            diff_rows(
                dst,
                self.rows(dst),
                new.rows(dst),
                &mut changed,
                &mut retracted,
            );
        }
        for gone in old_dsts {
            diff_rows(gone, self.rows(gone), &[], &mut changed, &mut retracted);
        }
        if !changed.is_empty() || !retracted.is_empty() {
            // The new table's memo, if any, is a digest of this content.
            *self = new;
        }
        (changed, retracted)
    }

    /// Replaces `dst`'s rows with `rows` (sorted by transit, each transit
    /// once), appending the announcement diff to `changed` and
    /// `retracted` exactly as [`PricingTable::replace`] would order it for
    /// this destination. Leaves the table, and its digest memo, untouched
    /// when the rows are the same.
    pub(crate) fn install_dst(
        &mut self,
        dst: NodeId,
        rows: DstRows,
        changed: &mut Vec<PriceRow>,
        retracted: &mut Vec<(NodeId, NodeId)>,
    ) {
        debug_assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        let before = (changed.len(), retracted.len());
        diff_rows(dst, self.rows(dst), &rows, changed, retracted);
        if before == (changed.len(), retracted.len()) {
            return;
        }
        self.len += rows.len();
        let old = if rows.is_empty() {
            self.by_dst.remove(&dst)
        } else {
            self.by_dst.insert(dst, rows)
        };
        self.len -= old.map_or(0, |old| old.len());
        self.digest.clear();
    }

    /// Removes an entry, returning whether it was present.
    pub fn remove(&mut self, dst: NodeId, transit: NodeId) -> bool {
        let Some(rows) = self.by_dst.get_mut(&dst) else {
            return false;
        };
        let Ok(at) = rows.binary_search_by_key(&transit, |(k, _)| *k) else {
            return false;
        };
        rows.remove(at);
        if rows.is_empty() {
            self.by_dst.remove(&dst);
        }
        self.len -= 1;
        self.digest.clear();
        true
    }

    /// Inserts a single entry (used by mirrors and tests).
    pub fn insert(&mut self, dst: NodeId, transit: NodeId, entry: PriceEntry) {
        let rows = self.by_dst.entry(dst).or_default();
        match rows.binary_search_by_key(&transit, |(k, _)| *k) {
            Ok(at) if rows[at].1 == entry => return,
            Ok(at) => rows[at].1 = entry,
            Err(at) => {
                rows.insert(at, (transit, entry));
                self.len += 1;
            }
        }
        self.digest.clear();
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates `((dst, transit), entry)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = ((NodeId, NodeId), &PriceEntry)> + '_ {
        self.by_dst
            .iter()
            .flat_map(|(&dst, rows)| rows.iter().map(move |(k, e)| ((dst, *k), e)))
    }

    /// The table as announcement rows.
    pub fn to_rows(&self) -> Vec<PriceRow> {
        self.iter()
            .map(|((dst, transit), e)| PriceRow {
                dst,
                transit,
                price: e.price,
                tags: e.tags.clone(),
            })
            .collect()
    }

    /// Canonical hash compared by \[BANK2\]. Includes the identity tags —
    /// that inclusion is what catches spoofed pricing messages (§4.3).
    /// Memoized until the table next changes.
    pub fn digest(&self) -> Digest {
        self.digest.get_or(|| {
            let mut h = TableHasher::new("fpss/data3*");
            for ((dst, transit), entry) in self.iter() {
                h.put_u32(dst.raw())
                    .put_u32(transit.raw())
                    .put_i64(entry.price.value());
                for tag in &entry.tags {
                    h.put_u32(tag.raw());
                }
                h.row_boundary();
            }
            h.finish()
        })
    }

    /// Ablation of the paper's DATA3* extension: the hash the *original*
    /// FPSS \[DATA3\] would give — prices only, no identity tags. Exists to
    /// demonstrate (in tests and EXPERIMENTS.md) that without tags in the
    /// hash, a pure tag forgery passes \[BANK2\] undetected.
    pub fn digest_without_tags(&self) -> Digest {
        let mut h = TableHasher::new("fpss/data3");
        for ((dst, transit), entry) in self.iter() {
            h.put_u32(dst.raw())
                .put_u32(transit.raw())
                .put_i64(entry.price.value());
            h.row_boundary();
        }
        h.finish()
    }
}

/// \[DATA4\] Payment ledger: amounts this node owes each transit node for
/// traffic it originated.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PaymentLedger {
    owed: BTreeMap<NodeId, Money>,
}

impl PaymentLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accrues `amount` owed to `transit`.
    pub fn accrue(&mut self, transit: NodeId, amount: Money) {
        let slot = self.owed.entry(transit).or_insert(Money::ZERO);
        *slot += amount;
    }

    /// The amount owed to `transit`.
    pub fn owed_to(&self, transit: NodeId) -> Money {
        self.owed.get(&transit).copied().unwrap_or(Money::ZERO)
    }

    /// Total owed across all transits.
    pub fn total_owed(&self) -> Money {
        self.owed.values().copied().sum()
    }

    /// Iterates `(transit, amount)` in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Money)> + '_ {
        self.owed.iter().map(|(&k, &v)| (k, v))
    }

    /// The ledger as a vector of `(transit, amount)` pairs.
    pub fn to_entries(&self) -> Vec<(NodeId, Money)> {
        self.iter().collect()
    }
}

impl fmt::Display for PaymentLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "owes ")?;
        let mut first = true;
        for (node, amount) in &self.owed {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{node}:{amount}")?;
            first = false;
        }
        if first {
            write!(f, "nothing")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn data1_first_declaration_wins() {
        let mut list = TransitCostList::new();
        assert!(list.learn(n(1), Cost::new(5)));
        assert!(!list.learn(n(1), Cost::new(9)));
        assert_eq!(list.declared(n(1)), Some(Cost::new(5)));
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn data1_update_overwrites_and_forget_unlearns() {
        let mut list = TransitCostList::new();
        assert!(list.learn(n(1), Cost::new(5)));
        // Overwrite: changes win, identical values report no change.
        assert!(list.update(n(1), Cost::new(9)));
        assert!(!list.update(n(1), Cost::new(9)));
        assert_eq!(list.declared(n(1)), Some(Cost::new(9)));
        assert_eq!(list.len(), 1);
        // Update on an unknown node learns it.
        assert!(list.update(n(3), Cost::new(2)));
        assert_eq!(list.len(), 2);
        // Forget makes the slot unknown and re-opens first-write-wins.
        assert!(list.forget(n(1)));
        assert!(!list.forget(n(1)));
        assert_eq!(list.declared(n(1)), None);
        assert_eq!(list.len(), 1);
        assert!(list.learn(n(1), Cost::new(4)));
        assert_eq!(list.declared(n(1)), Some(Cost::new(4)));
    }

    #[test]
    fn data1_path_cost_counts_intermediates_only() {
        let mut list = TransitCostList::new();
        for (id, c) in [(0, 10), (1, 2), (2, 3), (3, 10)] {
            list.learn(n(id), Cost::new(c));
        }
        assert_eq!(
            list.path_cost(&[n(0), n(1), n(2), n(3)]),
            Some(Cost::new(5))
        );
        assert_eq!(list.path_cost(&[n(0), n(3)]), Some(Cost::ZERO));
        assert_eq!(list.path_cost(&[n(0)]), Some(Cost::ZERO));
    }

    #[test]
    fn data1_path_cost_requires_known_costs() {
        let mut list = TransitCostList::new();
        list.learn(n(0), Cost::new(1));
        assert_eq!(list.path_cost(&[n(0), n(9), n(1)]), None);
    }

    #[test]
    fn data2_install_reports_changes() {
        let mut table = RoutingTable::new();
        assert!(table.install(n(1), vec![n(0), n(1)]));
        assert!(!table.install(n(1), vec![n(0), n(1)]));
        assert!(table.install(n(1), vec![n(0), n(2), n(1)]));
        assert_eq!(table.next_hop(n(1)), Some(n(2)));
    }

    #[test]
    fn data2_digest_changes_with_contents() {
        let mut a = RoutingTable::new();
        a.install(n(1), vec![n(0), n(1)]);
        let mut b = RoutingTable::new();
        b.install(n(1), vec![n(0), n(2), n(1)]);
        assert_ne!(a.digest(), b.digest());
        let mut c = RoutingTable::new();
        c.install(n(1), vec![n(0), n(1)]);
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn data3_replace_returns_changed_rows() {
        let mut table = PricingTable::new();
        let mut next = PricingTable::new();
        next.insert(
            n(1),
            n(2),
            PriceEntry {
                price: Money::new(4),
                tags: [n(3)].into_iter().collect(),
            },
        );
        let (changed, retracted) = table.replace(next.clone());
        assert_eq!(changed.len(), 1);
        assert_eq!(changed[0].price, Money::new(4));
        assert!(retracted.is_empty());
        // Replacing with identical contents reports nothing.
        let (changed, retracted) = table.replace(next);
        assert!(changed.is_empty() && retracted.is_empty());
        // Replacing with an empty table retracts the entry.
        let (changed, retracted) = table.replace(PricingTable::new());
        assert!(changed.is_empty());
        assert_eq!(retracted, vec![(n(1), n(2))]);
    }

    #[test]
    fn data3_digest_covers_tags() {
        let entry = |tags: &[u32]| PriceEntry {
            price: Money::new(4),
            tags: tags.iter().map(|&t| n(t)).collect(),
        };
        let mut a = PricingTable::new();
        a.insert(n(1), n(2), entry(&[3]));
        let mut b = PricingTable::new();
        b.insert(n(1), n(2), entry(&[4]));
        assert_ne!(a.digest(), b.digest(), "tags are part of the hash");
    }

    /// A mutation and the table it should leave, built fresh.
    type Step<T> = (fn(&mut T), T);

    /// Fills `table`'s digest memo, applies each step, and checks the
    /// result against the step's table built fresh: equal whatever either
    /// memo holds, and with the same digest.
    fn assert_memo_tracks<T: PartialEq + fmt::Debug>(
        mut table: T,
        digest: fn(&T) -> Digest,
        steps: Vec<Step<T>>,
    ) {
        for (i, (mutate, fresh)) in steps.into_iter().enumerate() {
            let _ = digest(&table);
            mutate(&mut table);
            assert_eq!(table, fresh, "step {i}: memos are not content");
            assert_eq!(digest(&table), digest(&fresh), "step {i}");
        }
    }

    fn data1(rows: &[(u32, u64)]) -> TransitCostList {
        let mut list = TransitCostList::new();
        for &(id, c) in rows {
            list.learn(n(id), Cost::new(c));
        }
        list
    }

    fn routing(rows: &[(u32, &[u32])]) -> RoutingTable {
        let mut table = RoutingTable::new();
        for &(dst, path) in rows {
            table.install(n(dst), path.iter().map(|&v| n(v)).collect());
        }
        table
    }

    fn entry(price: i64, tag: u32) -> PriceEntry {
        PriceEntry {
            price: Money::new(price),
            tags: [n(tag)].into_iter().collect(),
        }
    }

    /// A pricing table of `(dst, transit, price, tag)` rows.
    fn pricing(rows: &[(u32, u32, i64, u32)]) -> PricingTable {
        let mut table = PricingTable::new();
        for &(dst, transit, price, tag) in rows {
            table.insert(n(dst), n(transit), entry(price, tag));
        }
        table
    }

    #[test]
    fn digest_memos_track_every_mutation() {
        assert_memo_tracks(
            data1(&[(1, 5)]),
            TransitCostList::digest,
            vec![
                (
                    |l| assert!(l.learn(n(3), Cost::new(2))),
                    data1(&[(1, 5), (3, 2)]),
                ),
                (
                    |l| assert!(!l.learn(n(3), Cost::new(9))),
                    data1(&[(1, 5), (3, 2)]),
                ),
                (
                    |l| assert!(l.update(n(1), Cost::new(7))),
                    data1(&[(1, 7), (3, 2)]),
                ),
                (
                    |l| assert!(!l.update(n(1), Cost::new(7))),
                    data1(&[(1, 7), (3, 2)]),
                ),
                (|l| assert!(l.forget(n(3))), data1(&[(1, 7)])),
                (|l| assert!(!l.forget(n(3))), data1(&[(1, 7)])),
            ],
        );
        let both: &[(u32, &[u32])] = &[(1, &[0, 1]), (2, &[0, 1, 2])];
        assert_memo_tracks(
            routing(&[(1, &[0, 1])]),
            RoutingTable::digest,
            vec![
                (
                    |t| assert!(t.install(n(2), vec![n(0), n(1), n(2)])),
                    routing(both),
                ),
                (
                    |t| assert!(!t.install(n(2), vec![n(0), n(1), n(2)])),
                    routing(both),
                ),
                (
                    |t| assert!(t.install(n(2), vec![n(0), n(3), n(2)])),
                    routing(&[(1, &[0, 1]), (2, &[0, 3, 2])]),
                ),
                (|t| assert!(t.remove(n(1))), routing(&[(2, &[0, 3, 2])])),
                (|t| assert!(!t.remove(n(1))), routing(&[(2, &[0, 3, 2])])),
            ],
        );
        let two = [(1, 2, 4, 3), (5, 2, 6, 1)];
        assert_memo_tracks(
            pricing(&[(1, 2, 4, 3)]),
            PricingTable::digest,
            vec![
                (|t| t.insert(n(5), n(2), entry(6, 1)), pricing(&two)),
                (|t| t.insert(n(5), n(2), entry(6, 1)), pricing(&two)),
                (
                    |t| t.insert(n(5), n(2), entry(6, 2)),
                    pricing(&[(1, 2, 4, 3), (5, 2, 6, 2)]),
                ),
                (|t| assert!(t.remove(n(5), n(2))), pricing(&[(1, 2, 4, 3)])),
                (|t| assert!(!t.remove(n(5), n(2))), pricing(&[(1, 2, 4, 3)])),
                (
                    |t| {
                        let (changed, retracted) = t.replace(pricing(&[(1, 2, 4, 3)]));
                        assert!(changed.is_empty() && retracted.is_empty());
                    },
                    pricing(&[(1, 2, 4, 3)]),
                ),
                (
                    |t| {
                        // A replacement whose own memo is already filled.
                        let next = pricing(&[(1, 3, 9, 4)]);
                        let _ = next.digest();
                        assert_eq!(t.replace(next).1, vec![(n(1), n(2))]);
                    },
                    pricing(&[(1, 3, 9, 4)]),
                ),
                (
                    |t| {
                        let (mut changed, mut retracted) = (Vec::new(), Vec::new());
                        t.install_dst(
                            n(1),
                            pricing(&[(1, 3, 9, 4)]).rows(n(1)).to_vec(),
                            &mut changed,
                            &mut retracted,
                        );
                        assert!(changed.is_empty() && retracted.is_empty());
                    },
                    pricing(&[(1, 3, 9, 4)]),
                ),
                (
                    |t| {
                        let (mut changed, mut retracted) = (Vec::new(), Vec::new());
                        t.install_dst(n(1), Vec::new(), &mut changed, &mut retracted);
                        assert_eq!(retracted, vec![(n(1), n(3))]);
                    },
                    pricing(&[]),
                ),
                (
                    |t| {
                        let (mut changed, mut retracted) = (Vec::new(), Vec::new());
                        t.install_dst(
                            n(4),
                            vec![(n(2), entry(1, 5))],
                            &mut changed,
                            &mut retracted,
                        );
                        assert_eq!(changed.len(), 1);
                    },
                    pricing(&[(4, 2, 1, 5)]),
                ),
            ],
        );
    }

    /// A pricing table from `(dst, transit, (price, tag bitmask))` rows;
    /// a later row for the same key wins. Bitmasks over seven ids reach
    /// spilled tag sets.
    fn masked_pricing(rows: &[(u32, u32, (i64, u32))]) -> PricingTable {
        let mut table = PricingTable::new();
        for &(dst, transit, (price, mask)) in rows {
            let tags = (0..7).filter(|t| mask & (1 << t) != 0).map(n).collect();
            let entry = PriceEntry {
                price: Money::new(price),
                tags,
            };
            table.insert(n(dst), n(transit), entry);
        }
        table
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Installing a table destination by destination announces exactly
        /// what a whole-table replace announces — the same changed rows,
        /// the same retractions in the same order — and both agree with
        /// the key-by-key diff of the two tables. The result equals the
        /// new table, with the digest of a freshly built copy.
        #[test]
        fn per_destination_install_matches_whole_table_replace(
            old in proptest::collection::vec((0u32..5, 0u32..5, (0i64..3, 0u32..128)), 0..16),
            new in proptest::collection::vec((0u32..5, 0u32..5, (0i64..3, 0u32..128)), 0..16),
        ) {
            let (old, new) = (masked_pricing(&old), masked_pricing(&new));
            let expected_changed: Vec<PriceRow> = new
                .iter()
                .filter(|&((dst, transit), entry)| old.entry(dst, transit) != Some(entry))
                .map(|((dst, transit), e)| PriceRow {
                    dst,
                    transit,
                    price: e.price,
                    tags: e.tags.clone(),
                })
                .collect();
            let expected_retracted: Vec<(NodeId, NodeId)> = old
                .iter()
                .map(|(key, _)| key)
                .filter(|&(dst, transit)| new.entry(dst, transit).is_none())
                .collect();

            let mut whole = old.clone();
            let _ = whole.digest();
            let (changed, retracted) = whole.replace(new.clone());
            prop_assert_eq!(&changed, &expected_changed);
            prop_assert_eq!(&retracted, &expected_retracted);

            let mut by_dst = old.clone();
            let _ = by_dst.digest();
            let (mut changed, mut retracted) = (Vec::new(), Vec::new());
            for dst in (0..5).map(n) {
                by_dst.install_dst(dst, new.rows(dst).to_vec(), &mut changed, &mut retracted);
            }
            prop_assert_eq!(&changed, &expected_changed);
            prop_assert_eq!(&retracted, &expected_retracted);

            let fresh = masked_pricing(
                &new.iter()
                    .map(|((d, t), e)| {
                        let mask = e.tags.iter().map(|tag| 1 << tag.raw()).sum();
                        (d.raw(), t.raw(), (e.price.value(), mask))
                    })
                    .collect::<Vec<_>>(),
            );
            for table in [&whole, &by_dst] {
                prop_assert_eq!(table, &fresh);
                prop_assert_eq!(table.len(), fresh.len());
                prop_assert_eq!(table.digest(), fresh.digest());
                prop_assert_eq!(table.digest_without_tags(), fresh.digest_without_tags());
            }
        }
    }

    #[test]
    fn data4_accrues() {
        let mut ledger = PaymentLedger::new();
        ledger.accrue(n(1), Money::new(3));
        ledger.accrue(n(1), Money::new(4));
        ledger.accrue(n(2), Money::new(1));
        assert_eq!(ledger.owed_to(n(1)), Money::new(7));
        assert_eq!(ledger.total_owed(), Money::new(8));
        assert_eq!(ledger.to_entries().len(), 2);
    }

    #[test]
    fn data4_display() {
        let mut ledger = PaymentLedger::new();
        assert_eq!(ledger.to_string(), "owes nothing");
        ledger.accrue(n(1), Money::new(3));
        assert_eq!(ledger.to_string(), "owes n1:3");
    }
}
