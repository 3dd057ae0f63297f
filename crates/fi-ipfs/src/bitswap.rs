//! BitSwap-style block exchange (§II-A: "Nodes also provide the service of
//! retrieving files … through BitSwap protocol"; §III-E: the retrieval
//! market transfers files off-chain).
//!
//! The simulation models the essential mechanics: a client keeps a
//! *want-list* of CIDs, asks peers for wanted blocks, verifies every
//! received block against its CID (peers are untrusted), and discovers new
//! wants as branch nodes arrive. Duplicate and corrupt blocks are counted
//! — the statistics experiments use to compare retrieval strategies.

use fi_store::{block_hash, Blockstore, StoreError};

use crate::dag::{Cid, DagNode};

/// Transfer statistics of one fetch session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitswapStats {
    /// Blocks received and accepted.
    pub blocks_received: u64,
    /// Payload bytes received and accepted.
    pub bytes_received: u64,
    /// Blocks offered by peers that were already held (duplicates).
    pub duplicate_blocks: u64,
    /// Blocks rejected because their bytes did not hash to the wanted CID.
    pub corrupt_blocks: u64,
}

/// Errors from a fetch session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitswapError {
    /// No connected peer had a wanted block.
    Unavailable(Cid),
    /// A fetched block failed to decode during want-list expansion.
    Malformed(Cid),
    /// The local store failed to read or write a block.
    Store(StoreError),
}

impl std::fmt::Display for BitswapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitswapError::Unavailable(c) => write!(f, "no peer has block {c}"),
            BitswapError::Malformed(c) => write!(f, "peer sent malformed dag node {c}"),
            BitswapError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BitswapError {}

impl From<StoreError> for BitswapError {
    fn from(e: StoreError) -> Self {
        BitswapError::Store(e)
    }
}

/// Fetches the complete DAG rooted at `root` from `peers` into `local`,
/// verifying every block. Returns transfer statistics.
///
/// Peers are tried in order per block (the first peer holding the block
/// serves it); a peer whose store fails counts as not holding the block.
/// The pricing/competition dynamics of the retrieval market are modelled
/// at the `fi-net` layer; here we reproduce the data path.
///
/// # Errors
///
/// * [`BitswapError::Unavailable`] — a block exists on no peer;
/// * [`BitswapError::Malformed`] — a received block decoded to garbage;
/// * [`BitswapError::Store`] — the local store failed.
pub fn fetch_dag(
    local: &dyn Blockstore,
    peers: &[&dyn Blockstore],
    root: Cid,
) -> Result<BitswapStats, BitswapError> {
    let mut stats = BitswapStats::default();
    let mut want = vec![root];
    while let Some(cid) = want.pop() {
        let block = match local.get(&cid)? {
            Some(block) => {
                stats.duplicate_blocks += 1;
                block
            }
            None => {
                let mut served = None;
                for peer in peers {
                    if let Ok(Some(block)) = peer.get(&cid) {
                        // Verify content addressing — peers are untrusted.
                        if block_hash(&block) != cid {
                            stats.corrupt_blocks += 1;
                            continue;
                        }
                        served = Some(block);
                        break;
                    }
                }
                let block = served.ok_or(BitswapError::Unavailable(cid))?;
                stats.blocks_received += 1;
                stats.bytes_received += block.len() as u64;
                local.put(&block)?;
                block
            }
        };
        // Expand wants from branch links.
        match DagNode::decode(&block) {
            Some(DagNode::Branch(links)) => {
                for (child, _) in links {
                    if !local.has(&child)? {
                        want.push(child);
                    }
                }
            }
            Some(DagNode::Leaf(_)) => {}
            None => return Err(BitswapError::Malformed(cid)),
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{dag_cids, export_bytes, import_bytes};
    use fi_store::MemoryBlockstore;
    use std::sync::Arc;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn fetch_from_single_peer() {
        let provider = MemoryBlockstore::new();
        let data = payload(50_000);
        let root = import_bytes(&provider, &data, 1000).unwrap();
        let client = MemoryBlockstore::new();
        let stats = fetch_dag(&client, &[&provider], root).unwrap();
        assert_eq!(export_bytes(&client, root).unwrap(), data);
        assert_eq!(stats.blocks_received as usize, client.len());
        assert_eq!(stats.corrupt_blocks, 0);
    }

    #[test]
    fn fetch_striped_across_peers() {
        // Each peer holds only part of the DAG; together they cover it.
        let full = MemoryBlockstore::new();
        let data = payload(20_000);
        let root = import_bytes(&full, &data, 500).unwrap();
        let cids: Vec<Cid> = dag_cids(&full, root).unwrap();
        let peer_a = MemoryBlockstore::new();
        let peer_b = MemoryBlockstore::new();
        for (i, cid) in cids.iter().enumerate() {
            let block = full.get(cid).unwrap().unwrap();
            let peer = if i % 2 == 0 { &peer_a } else { &peer_b };
            peer.put(&block).unwrap();
        }
        let client = MemoryBlockstore::new();
        let stats = fetch_dag(&client, &[&peer_a, &peer_b], root).unwrap();
        assert_eq!(export_bytes(&client, root).unwrap(), data);
        assert_eq!(stats.blocks_received as usize, cids.len());
    }

    #[test]
    fn unavailable_block_reported() {
        let provider = MemoryBlockstore::new();
        let root = import_bytes(&provider, &payload(5_000), 500).unwrap();
        let cids = dag_cids(&provider, root).unwrap();
        let victim = *cids.last().unwrap();
        let partial = MemoryBlockstore::new();
        for cid in &cids {
            if *cid != victim {
                partial.put(&provider.get(cid).unwrap().unwrap()).unwrap();
            }
        }
        let client = MemoryBlockstore::new();
        assert_eq!(
            fetch_dag(&client, &[&partial], root),
            Err(BitswapError::Unavailable(victim))
        );
    }

    #[test]
    fn resume_counts_duplicates() {
        let provider = MemoryBlockstore::new();
        let data = payload(10_000);
        let root = import_bytes(&provider, &data, 500).unwrap();
        let client = MemoryBlockstore::new();
        fetch_dag(&client, &[&provider], root).unwrap();
        // Second fetch: everything local already.
        let stats = fetch_dag(&client, &[&provider], root).unwrap();
        assert_eq!(stats.blocks_received, 0);
        assert!(stats.duplicate_blocks > 0);
    }

    #[test]
    fn empty_file_fetch() {
        let provider = MemoryBlockstore::new();
        let root = import_bytes(&provider, &[], 100).unwrap();
        let client = MemoryBlockstore::new();
        let stats = fetch_dag(&client, &[&provider], root).unwrap();
        assert_eq!(stats.blocks_received, 1);
        assert_eq!(export_bytes(&client, root).unwrap(), Vec::<u8>::new());
    }

    /// A peer that answers every want with the same wrong bytes.
    #[derive(Debug)]
    struct LyingPeer;

    impl Blockstore for LyingPeer {
        fn get(&self, _: &Cid) -> Result<Option<Arc<[u8]>>, StoreError> {
            Ok(Some(Arc::from(&b"not the block you wanted"[..])))
        }

        fn put(&self, _: &[u8]) -> Result<Cid, StoreError> {
            Err(StoreError::Io("read-only peer".into()))
        }
    }

    #[test]
    fn corrupt_blocks_are_counted_and_taken_from_the_next_peer() {
        let provider = MemoryBlockstore::new();
        let data = payload(10_000);
        let root = import_bytes(&provider, &data, 500).unwrap();
        let blocks = dag_cids(&provider, root).unwrap().len() as u64;
        let client = MemoryBlockstore::new();
        let stats = fetch_dag(&client, &[&LyingPeer, &provider], root).unwrap();
        assert_eq!(stats.corrupt_blocks, blocks, "every lie is counted");
        assert_eq!(stats.blocks_received, blocks);
        assert_eq!(export_bytes(&client, root).unwrap(), data);
        // With no honest peer behind it, nothing is accepted.
        let alone = MemoryBlockstore::new();
        assert_eq!(
            fetch_dag(&alone, &[&LyingPeer], root),
            Err(BitswapError::Unavailable(root))
        );
        assert!(alone.is_empty());
    }
}
