//! IPFS-style paths: named directory DAGs and path resolution.
//!
//! Paper §VI-F: *"it's easy to build and update DHTs and Merkle DAGs on
//! FileInsurer so that anyone can address files stored in FileInsurer
//! through IPFS paths."* This module supplies the directory layer:
//! immutable directory nodes map names to child CIDs; a path like
//! `/ipfs/<root-cid>/docs/paper.pdf` resolves by walking directory blocks.
//!
//! Encoding (distinct from file DAG nodes via the `0x02` kind tag):
//!
//! ```text
//! dir := 0x02 count(u32 BE) (name_len(u16 BE) name cid(32)) * count
//! ```

use std::collections::BTreeMap;

use fi_crypto::Hash256;
use fi_store::{Blockstore, StoreError};

use crate::dag::Cid;

/// A directory: an ordered map of names to child CIDs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Directory {
    entries: BTreeMap<String, Cid>,
}

/// Errors from path resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// The path does not start with `/ipfs/<cid>`.
    BadPrefix,
    /// The root CID failed to parse.
    BadCid,
    /// A referenced block is missing.
    MissingBlock(Cid),
    /// A path component does not exist in its directory.
    NotFound(String),
    /// Tried to descend *into* a file.
    NotADirectory(String),
    /// The block store failed to read a block.
    Store(StoreError),
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathError::BadPrefix => write!(f, "path must start with /ipfs/<cid>"),
            PathError::BadCid => write!(f, "unparseable root cid"),
            PathError::MissingBlock(c) => write!(f, "missing block {c}"),
            PathError::NotFound(name) => write!(f, "no entry named '{name}'"),
            PathError::NotADirectory(name) => write!(f, "'{name}' is a file, not a directory"),
            PathError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PathError {}

impl From<StoreError> for PathError {
    fn from(e: StoreError) -> Self {
        PathError::Store(e)
    }
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Adds or replaces an entry; returns `self` for chaining.
    pub fn with(mut self, name: impl Into<String>, cid: Cid) -> Self {
        self.entries.insert(name.into(), cid);
        self
    }

    /// Looks up a name.
    pub fn get(&self, name: &str) -> Option<Cid> {
        self.entries.get(name).copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Cid)> {
        self.entries.iter().map(|(n, c)| (n.as_str(), *c))
    }

    /// Serialises to a directory block.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0x02];
        out.extend_from_slice(&(self.entries.len() as u32).to_be_bytes());
        for (name, cid) in &self.entries {
            out.extend_from_slice(&(name.len() as u16).to_be_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(cid.as_ref());
        }
        out
    }

    /// Decodes a directory block (kind tag `0x02`).
    pub fn decode(block: &[u8]) -> Option<Directory> {
        if block.first() != Some(&0x02) {
            return None;
        }
        let count = u32::from_be_bytes(block.get(1..5)?.try_into().ok()?) as usize;
        let mut entries = BTreeMap::new();
        let mut at = 5usize;
        for _ in 0..count {
            let name_len = u16::from_be_bytes(block.get(at..at + 2)?.try_into().ok()?) as usize;
            at += 2;
            let name = std::str::from_utf8(block.get(at..at + name_len)?).ok()?;
            at += name_len;
            let cid_bytes: [u8; 32] = block.get(at..at + 32)?.try_into().ok()?;
            at += 32;
            entries.insert(name.to_string(), Hash256::from_bytes(cid_bytes));
        }
        if at != block.len() {
            return None;
        }
        Some(Directory { entries })
    }

    /// Stores the directory as a block; returns its CID.
    ///
    /// # Errors
    ///
    /// The store's write failure.
    pub fn store(&self, store: &dyn Blockstore) -> Result<Cid, StoreError> {
        store.put(&self.encode())
    }
}

/// Resolves an IPFS path (`/ipfs/<root-cid>/a/b/c`) to the CID it names.
///
/// Intermediate components must be directories; the final component may be
/// a file DAG or a directory.
///
/// # Errors
///
/// See [`PathError`].
pub fn resolve_path(store: &dyn Blockstore, path: &str) -> Result<Cid, PathError> {
    let rest = path.strip_prefix("/ipfs/").ok_or(PathError::BadPrefix)?;
    let mut parts = rest.split('/').filter(|p| !p.is_empty());
    let root_hex = parts.next().ok_or(PathError::BadPrefix)?;
    let mut current = Hash256::from_hex(root_hex).ok_or(PathError::BadCid)?;
    for component in parts {
        let block = store
            .get(&current)?
            .ok_or(PathError::MissingBlock(current))?;
        let dir = Directory::decode(&block)
            .ok_or_else(|| PathError::NotADirectory(component.to_string()))?;
        current = dir
            .get(component)
            .ok_or_else(|| PathError::NotFound(component.to_string()))?;
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{export_bytes, import_bytes};
    use fi_store::MemoryBlockstore;

    fn tree(store: &MemoryBlockstore) -> (Cid, Vec<u8>) {
        // /docs/paper.pdf and /media/logo.png under one root.
        let paper = b"the fileinsurer paper".to_vec();
        let paper_cid = import_bytes(store, &paper, 8).unwrap();
        let logo_cid = import_bytes(store, b"\x89PNG...", 8).unwrap();
        let docs = Directory::new().with("paper.pdf", paper_cid);
        let media = Directory::new().with("logo.png", logo_cid);
        let root = Directory::new()
            .with("docs", docs.store(store).unwrap())
            .with("media", media.store(store).unwrap());
        (root.store(store).unwrap(), paper)
    }

    #[test]
    fn encode_decode_round_trip() {
        let d = Directory::new()
            .with("a", fi_crypto::sha256(b"1"))
            .with("長い名前", fi_crypto::sha256(b"2"));
        assert_eq!(Directory::decode(&d.encode()), Some(d.clone()));
        assert_eq!(d.len(), 2);
        // File DAG decoder must reject directory blocks and vice versa.
        assert_eq!(crate::dag::DagNode::decode(&d.encode()), None);
        assert_eq!(
            Directory::decode(&crate::dag::DagNode::Leaf(vec![1]).encode()),
            None
        );
    }

    #[test]
    fn resolve_nested_path() {
        let store = MemoryBlockstore::new();
        let (root, paper) = tree(&store);
        let path = format!("/ipfs/{}/docs/paper.pdf", root.to_hex());
        let cid = resolve_path(&store, &path).unwrap();
        assert_eq!(export_bytes(&store, cid).unwrap(), paper);
        // Root itself resolves.
        assert_eq!(
            resolve_path(&store, &format!("/ipfs/{}", root.to_hex())).unwrap(),
            root
        );
    }

    #[test]
    fn resolve_error_paths() {
        let store = MemoryBlockstore::new();
        let (root, _) = tree(&store);
        let hex = root.to_hex();
        assert_eq!(
            resolve_path(&store, "/notipfs/xyz"),
            Err(PathError::BadPrefix)
        );
        assert_eq!(resolve_path(&store, "/ipfs/zz"), Err(PathError::BadCid));
        assert_eq!(
            resolve_path(&store, &format!("/ipfs/{hex}/docs/missing.txt")),
            Err(PathError::NotFound("missing.txt".into()))
        );
        assert_eq!(
            resolve_path(&store, &format!("/ipfs/{hex}/docs/paper.pdf/inside")),
            Err(PathError::NotADirectory("inside".into()))
        );
    }

    #[test]
    fn directory_updates_produce_new_cids() {
        let store = MemoryBlockstore::new();
        let f1 = import_bytes(&store, b"v1", 8).unwrap();
        let f2 = import_bytes(&store, b"v2", 8).unwrap();
        let d1 = Directory::new().with("file", f1);
        let d2 = d1.clone().with("file", f2);
        assert_ne!(d1.store(&store), d2.store(&store));
    }
}
