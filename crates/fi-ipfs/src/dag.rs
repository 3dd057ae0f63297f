//! Merkle DAG file chunking (the Object Merkle DAG of IPFS, §II-A).
//!
//! A file is imported as leaf chunks plus a tree of branch nodes; every
//! node is a content-addressed block, so the root CID commits to the whole
//! file and any block can be integrity-checked in isolation — which is what
//! lets BitSwap fetch from untrusted peers.
//!
//! Blocks live in any [`fi_store::Blockstore`], the same block space the
//! engine's state tries use: a CID is a block's [`fi_store::block_hash`].
//!
//! Encoding (self-contained, length-prefixed):
//!
//! ```text
//! node   := kind(u8) payload
//! leaf   := 0x00 data...
//! branch := 0x01 count(u32 BE) (cid(32) size(u64 BE)) * count
//! ```

use std::sync::Arc;

use fi_crypto::Hash256;
use fi_store::{Blockstore, StoreError};

/// A content identifier: the SHA-256 digest of a block's bytes.
pub type Cid = Hash256;

/// Errors from DAG import and traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// A referenced block is missing from the store.
    MissingBlock(Cid),
    /// A block failed to decode as a DAG node.
    Malformed(Cid),
    /// The block store failed to read or write a block.
    Store(StoreError),
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::MissingBlock(c) => write!(f, "missing block {c}"),
            DagError::Malformed(c) => write!(f, "malformed dag node {c}"),
            DagError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DagError {}

impl From<StoreError> for DagError {
    fn from(e: StoreError) -> Self {
        DagError::Store(e)
    }
}

/// A decoded DAG node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagNode {
    /// A leaf chunk of file bytes.
    Leaf(Vec<u8>),
    /// A branch: ordered children with their subtree payload sizes.
    Branch(Vec<(Cid, u64)>),
}

impl DagNode {
    /// Serialises the node to its block encoding.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            DagNode::Leaf(data) => {
                let mut out = Vec::with_capacity(1 + data.len());
                out.push(0x00);
                out.extend_from_slice(data);
                out
            }
            DagNode::Branch(links) => {
                let mut out = Vec::with_capacity(1 + 4 + links.len() * 40);
                out.push(0x01);
                out.extend_from_slice(&(links.len() as u32).to_be_bytes());
                for (cid, size) in links {
                    out.extend_from_slice(cid.as_ref());
                    out.extend_from_slice(&size.to_be_bytes());
                }
                out
            }
        }
    }

    /// Decodes a block as a DAG node.
    pub fn decode(block: &[u8]) -> Option<DagNode> {
        match block.first()? {
            0x00 => Some(DagNode::Leaf(block[1..].to_vec())),
            0x01 => {
                let count = u32::from_be_bytes(block.get(1..5)?.try_into().ok()?) as usize;
                let body = block.get(5..)?;
                if body.len() != count * 40 {
                    return None;
                }
                let mut links = Vec::with_capacity(count);
                for i in 0..count {
                    let cid_bytes: [u8; 32] = body[i * 40..i * 40 + 32].try_into().ok()?;
                    let size = u64::from_be_bytes(body[i * 40 + 32..i * 40 + 40].try_into().ok()?);
                    links.push((Hash256::from_bytes(cid_bytes), size));
                }
                Some(DagNode::Branch(links))
            }
            _ => None,
        }
    }

    /// Total file bytes under this node.
    pub fn payload_size(&self) -> u64 {
        match self {
            DagNode::Leaf(d) => d.len() as u64,
            DagNode::Branch(links) => links.iter().map(|(_, s)| s).sum(),
        }
    }
}

/// Maximum children per branch node.
const FANOUT: usize = 16;

/// Imports `data` into `store` as a chunked Merkle DAG; returns the root
/// CID. `chunk_size` controls leaf granularity.
///
/// # Errors
///
/// [`DagError::Store`] when the store fails to write a block.
///
/// # Panics
///
/// Panics if `chunk_size == 0`.
pub fn import_bytes(
    store: &dyn Blockstore,
    data: &[u8],
    chunk_size: usize,
) -> Result<Cid, DagError> {
    assert!(chunk_size > 0, "chunk size must be positive");
    // Leaves; an empty file is one empty leaf.
    let chunks: Vec<&[u8]> = if data.is_empty() {
        vec![data]
    } else {
        data.chunks(chunk_size).collect()
    };
    let mut level = chunks
        .into_iter()
        .map(|chunk| {
            let cid = store.put(&DagNode::Leaf(chunk.to_vec()).encode())?;
            Ok((cid, chunk.len() as u64))
        })
        .collect::<Result<Vec<(Cid, u64)>, StoreError>>()?;
    // Branches, bottom-up.
    while level.len() > 1 {
        level = level
            .chunks(FANOUT)
            .map(|group| {
                let size = group.iter().map(|(_, s)| s).sum();
                let cid = store.put(&DagNode::Branch(group.to_vec()).encode())?;
                Ok((cid, size))
            })
            .collect::<Result<_, StoreError>>()?;
    }
    Ok(level[0].0)
}

/// The block filed under `cid`, or [`DagError::MissingBlock`].
fn block(store: &dyn Blockstore, cid: Cid) -> Result<Arc<[u8]>, DagError> {
    store.get(&cid)?.ok_or(DagError::MissingBlock(cid))
}

/// Reads a whole file back from its root CID.
///
/// # Errors
///
/// [`DagError::MissingBlock`] / [`DagError::Malformed`] on broken DAGs,
/// [`DagError::Store`] when the store fails to read a block.
pub fn export_bytes(store: &dyn Blockstore, root: Cid) -> Result<Vec<u8>, DagError> {
    let mut out = Vec::new();
    let mut stack = vec![root];
    // Depth-first, left-to-right: push children reversed.
    while let Some(cid) = stack.pop() {
        let block = block(store, cid)?;
        match DagNode::decode(&block).ok_or(DagError::Malformed(cid))? {
            DagNode::Leaf(data) => out.extend_from_slice(&data),
            DagNode::Branch(links) => {
                for (child, _) in links.into_iter().rev() {
                    stack.push(child);
                }
            }
        }
    }
    Ok(out)
}

/// Lists every CID in the DAG rooted at `root` (root first, DFS pre-order).
///
/// # Errors
///
/// Same failure modes as [`export_bytes`].
pub fn dag_cids(store: &dyn Blockstore, root: Cid) -> Result<Vec<Cid>, DagError> {
    let mut out = Vec::new();
    let mut stack = vec![root];
    while let Some(cid) = stack.pop() {
        let block = block(store, cid)?;
        out.push(cid);
        if let DagNode::Branch(links) = DagNode::decode(&block).ok_or(DagError::Malformed(cid))? {
            for (child, _) in links.into_iter().rev() {
                stack.push(child);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_store::MemoryBlockstore;

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 % 256) as u8).collect()
    }

    #[test]
    fn import_export_round_trip() {
        for n in [0usize, 1, 100, 1024, 1025, 100_000] {
            let store = MemoryBlockstore::new();
            let payload = data(n);
            let root = import_bytes(&store, &payload, 1024).unwrap();
            assert_eq!(export_bytes(&store, root).unwrap(), payload, "n={n}");
        }
    }

    #[test]
    fn deep_dag_structure() {
        // 100_000 / 100 = 1000 leaves -> ceil(1000/16)=63 -> 4 -> 1: depth 4.
        let store = MemoryBlockstore::new();
        let payload = data(100_000);
        let root = import_bytes(&store, &payload, 100).unwrap();
        let cids = dag_cids(&store, root).unwrap();
        assert!(cids.len() > 1000, "has branch nodes: {}", cids.len());
        assert_eq!(cids[0], root);
        let decoded = DagNode::decode(&store.get(&root).unwrap().unwrap()).unwrap();
        assert_eq!(decoded.payload_size(), 100_000);
    }

    #[test]
    fn identical_content_same_root() {
        let s1 = MemoryBlockstore::new();
        let s2 = MemoryBlockstore::new();
        let payload = data(5000);
        assert_eq!(
            import_bytes(&s1, &payload, 256).unwrap(),
            import_bytes(&s2, &payload, 256).unwrap()
        );
        // Different chunking yields a different root (addressing includes
        // structure).
        let s3 = MemoryBlockstore::new();
        assert_ne!(
            import_bytes(&s3, &payload, 512).unwrap(),
            import_bytes(&s1, &payload, 256).unwrap()
        );
    }

    #[test]
    fn missing_block_detected() {
        let store = MemoryBlockstore::new();
        let payload = data(10_000);
        let root = import_bytes(&store, &payload, 100).unwrap();
        // Copy every block but one leaf into a second store.
        let cids = dag_cids(&store, root).unwrap();
        let victim = *cids.last().unwrap();
        let broken = MemoryBlockstore::new();
        for cid in &cids {
            if *cid != victim {
                broken.put(&store.get(cid).unwrap().unwrap()).unwrap();
            }
        }
        assert_eq!(
            export_bytes(&broken, root),
            Err(DagError::MissingBlock(victim))
        );
    }

    #[test]
    fn malformed_node_detected() {
        let store = MemoryBlockstore::new();
        let cid = store.put(&[0x02, 1, 2, 3]).unwrap(); // unknown kind tag
        assert_eq!(export_bytes(&store, cid), Err(DagError::Malformed(cid)));
        // Truncated branch.
        let mut bad = vec![0x01];
        bad.extend_from_slice(&2u32.to_be_bytes());
        bad.extend_from_slice(&[0u8; 39]); // one byte short of a link
        let cid = store.put(&bad).unwrap();
        assert_eq!(export_bytes(&store, cid), Err(DagError::Malformed(cid)));
    }

    #[test]
    fn encode_decode_inverse() {
        let leaf = DagNode::Leaf(b"xyz".to_vec());
        assert_eq!(DagNode::decode(&leaf.encode()), Some(leaf.clone()));
        let branch = DagNode::Branch(vec![
            (fi_crypto::sha256(b"a"), 3),
            (fi_crypto::sha256(b"b"), 9),
        ]);
        assert_eq!(DagNode::decode(&branch.encode()), Some(branch.clone()));
        assert_eq!(branch.payload_size(), 12);
    }
}
