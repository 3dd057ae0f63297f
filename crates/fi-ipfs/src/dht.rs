//! Kademlia-style distributed hash table (the routing layer of §II-A).
//!
//! Node identifiers live in the same 256-bit space as content identifiers;
//! distance is XOR. Each node keeps `k`-buckets of peers indexed by the
//! length of the shared prefix with its own id, and lookups proceed
//! iteratively: query the `α` closest known peers, learn closer ones,
//! repeat until no progress. Provider records map CIDs to the nodes that
//! announced them (`provide` → `find_providers`), which is how FileInsurer
//! retrieval locates replica holders without touching the chain.
//!
//! The simulation runs all nodes in one process: [`Dht`] owns every node's
//! routing state and executes lookups with an explicit hop budget,
//! reporting hop counts so experiments can check the O(log n) scaling.

use std::collections::{HashMap, HashSet};

use fi_crypto::{keyed_hash, Hash256};

use crate::dag::Cid;

/// A DHT node identifier.
pub type NodeId = Hash256;

/// Derives a node id from an ordinal (deterministic test networks).
pub fn node_id(ordinal: u64) -> NodeId {
    keyed_hash("dht/node-id", &[&ordinal.to_be_bytes()])
}

/// XOR distance, compared via leading-zero count of the XOR.
fn closer(target: &Hash256, a: &Hash256, b: &Hash256) -> std::cmp::Ordering {
    // More shared prefix bits = closer. Tie-break on raw bytes for total
    // order stability.
    let za = target.xor_leading_zeros(a);
    let zb = target.xor_leading_zeros(b);
    zb.cmp(&za).then_with(|| {
        let xa: Vec<u8> = target
            .as_bytes()
            .iter()
            .zip(a.as_bytes())
            .map(|(t, x)| t ^ x)
            .collect();
        let xb: Vec<u8> = target
            .as_bytes()
            .iter()
            .zip(b.as_bytes())
            .map(|(t, x)| t ^ x)
            .collect();
        xa.cmp(&xb)
    })
}

/// Per-node routing state: 256 k-buckets.
#[derive(Debug, Clone)]
struct RoutingTable {
    id: NodeId,
    buckets: Vec<Vec<NodeId>>,
    bucket_size: usize,
}

impl RoutingTable {
    fn new(id: NodeId, bucket_size: usize) -> Self {
        RoutingTable {
            id,
            buckets: vec![Vec::new(); 257],
            bucket_size,
        }
    }

    fn observe(&mut self, peer: NodeId) {
        if peer == self.id {
            return;
        }
        let bucket = self.id.xor_leading_zeros(&peer) as usize;
        let entries = &mut self.buckets[bucket];
        if let Some(pos) = entries.iter().position(|p| *p == peer) {
            // Move to front (most recently seen).
            entries.remove(pos);
            entries.insert(0, peer);
        } else if entries.len() < self.bucket_size {
            entries.insert(0, peer);
        }
        // Full bucket: Kademlia would ping the oldest; the simulation has
        // no failures at this layer, so the newcomer is dropped.
    }

    /// The `count` known peers closest to `target`.
    fn closest(&self, target: &Hash256, count: usize) -> Vec<NodeId> {
        let mut all: Vec<NodeId> = self.buckets.iter().flatten().copied().collect();
        all.sort_by(|a, b| closer(target, a, b));
        all.truncate(count);
        all
    }
}

/// Result of an iterative lookup.
#[derive(Debug, Clone)]
pub struct LookupResult {
    /// The closest nodes found, best first.
    pub closest: Vec<NodeId>,
    /// Distinct nodes queried.
    pub hops: usize,
}

/// An in-process Kademlia network.
///
/// # Example
///
/// ```
/// use fi_ipfs::dht::{Dht, node_id};
/// use fi_crypto::sha256;
///
/// let mut dht = Dht::new(20, 3);
/// for i in 0..50 {
///     dht.join(node_id(i));
/// }
/// let cid = sha256(b"content");
/// dht.provide(node_id(7), cid);
/// let found = dht.find_providers(node_id(33), cid);
/// assert!(found.providers.contains(&node_id(7)));
/// ```
#[derive(Debug)]
pub struct Dht {
    nodes: HashMap<NodeId, RoutingTable>,
    providers: HashMap<Cid, HashSet<NodeId>>,
    bucket_size: usize,
    alpha: usize,
    join_order: Vec<NodeId>,
}

/// Result of a provider lookup.
#[derive(Debug, Clone)]
pub struct ProvidersResult {
    /// Nodes advertising the CID (empty if none reachable).
    pub providers: Vec<NodeId>,
    /// Distinct nodes queried during the search.
    pub hops: usize,
}

impl Dht {
    /// Creates an empty network with bucket size `k` and lookup
    /// parallelism `alpha`.
    pub fn new(bucket_size: usize, alpha: usize) -> Self {
        assert!(bucket_size > 0 && alpha > 0);
        Dht {
            nodes: HashMap::new(),
            providers: HashMap::new(),
            bucket_size,
            alpha,
            join_order: Vec::new(),
        }
    }

    /// Number of nodes in the network.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a node, bootstrapping its routing table through a self-lookup
    /// via the earliest-joined node.
    pub fn join(&mut self, id: NodeId) {
        if self.nodes.contains_key(&id) {
            return;
        }
        let mut table = RoutingTable::new(id, self.bucket_size);
        if let Some(&bootstrap) = self.join_order.first() {
            table.observe(bootstrap);
        }
        self.nodes.insert(id, table);
        self.join_order.push(id);
        // Self-lookup populates buckets along the path, and tells the
        // queried nodes about the newcomer.
        self.lookup(id, id);
    }

    /// Removes a node (churn simulation). Its provider records vanish too.
    pub fn leave(&mut self, id: NodeId) {
        self.nodes.remove(&id);
        self.join_order.retain(|n| *n != id);
        for set in self.providers.values_mut() {
            set.remove(&id);
        }
    }

    /// Iterative `FIND_NODE` from `origin` toward `target`.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is not in the network.
    pub fn lookup(&mut self, origin: NodeId, target: Hash256) -> LookupResult {
        assert!(self.nodes.contains_key(&origin), "origin not joined");
        let mut queried: HashSet<NodeId> = HashSet::new();
        let mut learned: Vec<NodeId> = self.nodes[&origin].closest(&target, self.bucket_size);
        learned.push(origin);
        learned.sort_by(|a, b| closer(&target, a, b));

        loop {
            let to_query: Vec<NodeId> = learned
                .iter()
                .filter(|n| !queried.contains(*n) && self.nodes.contains_key(*n))
                .take(self.alpha)
                .copied()
                .collect();
            if to_query.is_empty() {
                break;
            }
            let mut progressed = false;
            for peer in to_query {
                queried.insert(peer);
                // The peer answers with its closest-known and learns about
                // the requester (standard Kademlia side effect).
                let answers = self.nodes[&peer].closest(&target, self.bucket_size);
                self.nodes
                    .get_mut(&peer)
                    .expect("peer exists")
                    .observe(origin);
                self.nodes
                    .get_mut(&origin)
                    .expect("origin exists")
                    .observe(peer);
                for a in answers {
                    if !learned.contains(&a) {
                        learned.push(a);
                        progressed = true;
                    }
                    self.nodes
                        .get_mut(&origin)
                        .expect("origin exists")
                        .observe(a);
                }
            }
            learned.sort_by(|a, b| closer(&target, a, b));
            learned.truncate(4 * self.bucket_size);
            if !progressed {
                break;
            }
        }
        learned.retain(|n| self.nodes.contains_key(n));
        learned.truncate(self.bucket_size);
        LookupResult {
            closest: learned,
            hops: queried.len(),
        }
    }

    /// Announces that `node` can serve `cid`. The record is stored on the
    /// nodes closest to the CID (as in Kademlia provider records).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the network.
    pub fn provide(&mut self, node: NodeId, cid: Cid) {
        let _ = self.lookup(node, cid); // route toward the key (populates tables)
        self.providers.entry(cid).or_default().insert(node);
    }

    /// Withdraws a provider record.
    pub fn unprovide(&mut self, node: NodeId, cid: Cid) {
        if let Some(set) = self.providers.get_mut(&cid) {
            set.remove(&node);
        }
    }

    /// Finds providers of `cid` starting from `origin`.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is not in the network.
    pub fn find_providers(&mut self, origin: NodeId, cid: Cid) -> ProvidersResult {
        let route = self.lookup(origin, cid);
        let mut providers: Vec<NodeId> = self
            .providers
            .get(&cid)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default();
        providers.retain(|n| self.nodes.contains_key(n));
        providers.sort();
        ProvidersResult {
            providers,
            hops: route.hops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_crypto::sha256;

    fn network(n: u64) -> Dht {
        let mut dht = Dht::new(8, 3);
        for i in 0..n {
            dht.join(node_id(i));
        }
        dht
    }

    #[test]
    fn lookup_finds_the_actual_closest_node() {
        let mut dht = network(64);
        let target = sha256(b"some key");
        // Ground truth: closest of all node ids.
        let mut all: Vec<NodeId> = (0..64).map(node_id).collect();
        all.sort_by(|a, b| closer(&target, a, b));
        let truth = all[0];
        let result = dht.lookup(node_id(5), target);
        assert_eq!(result.closest[0], truth, "lookup converges to closest");
    }

    #[test]
    fn lookups_scale_sublinearly() {
        let mut dht = network(256);
        let mut total_hops = 0usize;
        for i in 0..20u64 {
            let res = dht.lookup(node_id(i), sha256(&i.to_be_bytes()));
            total_hops += res.hops;
        }
        let avg = total_hops as f64 / 20.0;
        assert!(avg < 64.0, "average hops {avg} should be far below n=256");
    }

    #[test]
    fn provide_and_find() {
        let mut dht = network(50);
        let cid = sha256(b"file block");
        dht.provide(node_id(7), cid);
        dht.provide(node_id(9), cid);
        let res = dht.find_providers(node_id(33), cid);
        assert_eq!(res.providers.len(), 2);
        assert!(res.providers.contains(&node_id(7)));
        assert!(res.providers.contains(&node_id(9)));
        // Unknown CID: no providers, but the search still routed.
        let res = dht.find_providers(node_id(3), sha256(b"unknown"));
        assert!(res.providers.is_empty());
        assert!(res.hops > 0);
    }

    #[test]
    fn churn_drops_provider_records() {
        let mut dht = network(30);
        let cid = sha256(b"volatile");
        dht.provide(node_id(4), cid);
        dht.leave(node_id(4));
        let res = dht.find_providers(node_id(1), cid);
        assert!(res.providers.is_empty());
        assert_eq!(dht.len(), 29);
    }

    #[test]
    fn join_is_idempotent() {
        let mut dht = network(10);
        dht.join(node_id(3));
        assert_eq!(dht.len(), 10);
    }

    #[test]
    fn distance_ordering_is_total() {
        let t = sha256(b"t");
        let a = node_id(1);
        let b = node_id(2);
        assert_eq!(closer(&t, &a, &b), closer(&t, &b, &a).reverse());
        assert_eq!(closer(&t, &a, &a), std::cmp::Ordering::Equal);
    }
}
