//! The content-addressed state commitment, end to end (DESIGN.md §15):
//!
//! * **Consensus rule** — `state_root()` is bit-identical across every
//!   `(store backend × shards × ingest threads)` combination: the
//!   blockstore is deployment configuration, and the parallel switch
//!   and ingest width only schedule work.
//! * **Pinned reads** — [`Engine::pin_state`] keeps a historical version
//!   readable through [`StateView`] after the live engine moves on, out
//!   of the engine's own trie nodes: a pin, a proof and the new side of a
//!   delta read no store, and a delta's base side reads the changed
//!   paths only.
//! * **Incremental snapshots** — `base + snapshot_delta == full restore`,
//!   byte-deterministic, with typed rejection of tampered deltas.
//! * **Light-client proofs** — [`Engine::prove_file`] verifies against
//!   the bare `state_root` and rejects every tampering mode.
//! * **Commit is not persist** — `state_root()` only hashes; the store
//!   receives exactly the versions `state_roots()` and its callers name,
//!   and an engine that persists rarely agrees at every block with one
//!   that persists always.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use std::collections::HashSet;

use fi_chain::account::{AccountId, TokenAmount};
use fi_core::drep::CrAccounting;
use fi_core::engine::{Engine, PinnedState, StateRoots, StateView};
use fi_core::ops::Op;
use fi_core::params::ProtocolParams;
use fi_core::types::{
    AllocEntry, FileDescriptor, FileId, ProtocolEvent, RemovalReason, Sector, SectorId, SectorState,
};
use fi_core::Error;
use fi_crypto::{sha256, DetRng, Hash256};
use fi_store::{Blockstore, DiskBlockstore, Hamt, MemoryBlockstore, StoreError};

const CLIENT: AccountId = AccountId(900);
const PROVIDERS: [AccountId; 3] = [AccountId(700), AccountId(701), AccountId(702)];

fn params(shards: usize, ingest_threads: usize) -> ProtocolParams {
    ProtocolParams {
        k: 3,
        delay_per_size: 6,
        avg_refresh: 6.0,
        shards,
        ingest_threads,
        ..ProtocolParams::default()
    }
}

/// A unique scratch path for a disk store (no tempfile dependency).
fn scratch(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "fi-state-commitment-{}-{tag}-{n}.log",
        std::process::id()
    ))
}

/// Deletes the scratch file when the test is done with it.
#[derive(Debug)]
struct DropFile(std::path::PathBuf);
impl Drop for DropFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Funds the client and providers and registers two sectors each.
fn setup(engine: &mut Engine, rng: &mut DetRng) {
    engine.fund(CLIENT, TokenAmount(500_000_000));
    for p in PROVIDERS {
        engine.fund(p, TokenAmount(1_000_000_000_000));
        for _ in 0..2 {
            engine
                .sector_register(p, 640 * (1 + rng.below(3)))
                .expect("registration");
        }
    }
}

/// One step of the seeded workload: an add, a round of honest provider
/// work, a discard, a sector corruption, or an advance by an amount that
/// usually lands off the block grid.
fn step(engine: &mut Engine, rng: &mut DetRng, seed: u64, step: u64) {
    match rng.below(10) {
        0..=3 => {
            let size = 1 + rng.below(40);
            let root = sha256(&(seed ^ step).to_be_bytes());
            let _ = engine.file_add(CLIENT, size, engine.params().min_value, root);
        }
        4..=6 => {
            engine.honest_providers_act();
        }
        7 => {
            let ids = engine.file_ids();
            if !ids.is_empty() {
                let f = ids[(rng.below(ids.len() as u64)) as usize];
                let _ = engine.file_discard(CLIENT, f);
            }
        }
        8 => {
            let ids = engine.sector_ids();
            if !ids.is_empty() {
                let s = ids[(rng.below(ids.len() as u64)) as usize];
                if engine.sector(s).map(|x| x.state) == Some(SectorState::Normal) {
                    engine.corrupt_sector_now(s);
                }
            }
        }
        _ => engine.advance_to(engine.now() + 10 + rng.below(150)),
    }
}

/// The same seeded workload as the sharding differential suite: every
/// stochastic choice comes from the caller's rng, so engines differing
/// only in configuration receive byte-identical op sequences.
fn drive(engine: &mut Engine, seed: u64, steps: u64) {
    let mut rng = DetRng::from_seed_label(seed, "state-commitment");
    setup(engine, &mut rng);
    for i in 0..steps {
        step(engine, &mut rng, seed, i);
    }
    engine.honest_providers_act();
    engine.advance_to(engine.now() + engine.params().proof_cycle * 2);
}

/// A blockstore of either backend that counts its `put` and `get` calls.
#[derive(Debug)]
struct CountingStore {
    inner: Box<dyn Blockstore>,
    puts: AtomicU64,
    gets: AtomicU64,
    _log: Option<DropFile>,
}

impl CountingStore {
    fn new(disk: bool, tag: &str) -> Arc<Self> {
        let (inner, log): (Box<dyn Blockstore>, _) = if disk {
            let path = scratch(tag);
            let store = DiskBlockstore::open(&path).expect("disk store");
            (Box::new(store), Some(DropFile(path)))
        } else {
            (Box::new(MemoryBlockstore::new()), None)
        };
        Arc::new(CountingStore {
            inner,
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            _log: log,
        })
    }

    fn puts(&self) -> u64 {
        self.puts.load(Ordering::Relaxed)
    }

    fn gets(&self) -> u64 {
        self.gets.load(Ordering::Relaxed)
    }
}

impl Blockstore for CountingStore {
    fn get(&self, hash: &Hash256) -> Result<Option<Arc<[u8]>>, StoreError> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.inner.get(hash)
    }

    fn put(&self, bytes: &[u8]) -> Result<Hash256, StoreError> {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.inner.put(bytes)
    }
}

/// Every file, allocation row, sector and DRep row `view` holds equals
/// the live engine's.
fn assert_reads_match(view: &impl StateView, engine: &Engine) {
    assert_eq!(view.file_ids(), engine.file_ids());
    assert_eq!(view.sector_ids(), engine.sector_ids());
    for f in engine.file_ids() {
        assert_eq!(view.file(f), engine.file(f), "descriptor mismatch at {f}");
        // Allocation rows for every configured replica index.
        let cp = engine.file(f).expect("live file").cp;
        for i in 0..cp {
            assert_eq!(view.alloc_entry(f, i), engine.alloc_entry(f, i));
        }
    }
    for s in engine.sector_ids() {
        assert_eq!(view.sector(s), engine.sector(s));
        assert_eq!(view.cr_accounting(s), engine.cr_accounting(s));
    }
}

/// The consensus rule: identical roots at every point of the
/// `(store backend × shards × ingest threads)` matrix.
#[test]
fn state_root_invariant_across_store_shards_threads() {
    let mut reference = None;
    for disk in [false, true] {
        for shards in [1usize, 4] {
            for threads in [1usize, 2] {
                let (store, _guard): (Arc<dyn Blockstore>, Option<DropFile>) = if disk {
                    let path = scratch(&format!("matrix-{shards}-{threads}"));
                    (
                        Arc::new(DiskBlockstore::open(&path).expect("disk store")),
                        Some(DropFile(path)),
                    )
                } else {
                    (Arc::new(MemoryBlockstore::new()), None)
                };
                let mut engine =
                    Engine::new_with_store(params(shards, threads), store).expect("params");
                drive(&mut engine, 42, 160);
                let cell = (engine.state_root(), engine.chain().head_hash());
                match &reference {
                    None => reference = Some(cell),
                    Some(want) => assert_eq!(
                        want, &cell,
                        "consensus diverged at disk={disk} shards={shards} threads={threads}"
                    ),
                }
            }
        }
    }
}

/// Pinned views freeze a version: reads through the pin keep answering
/// from the pinned roots while the live engine mutates past them, and a
/// fresh pin tracks the live state again.
#[test]
fn pinned_state_reads_a_frozen_version() {
    let mut engine = Engine::new(params(4, 1)).expect("params");
    drive(&mut engine, 7, 120);

    let pin = engine.pin_state();
    let files_then = engine.file_ids();
    assert_reads_match(&pin, &engine);
    assert!(pin.events().is_empty(), "pins never expose live events");

    // Move the live engine on; the pin must not move with it.
    let root_then = pin.roots().state_root;
    drive(&mut engine, 8, 60);
    assert_ne!(engine.state_root(), root_then, "workload changed state");
    assert_eq!(pin.file_ids(), files_then, "pin is frozen at its version");
    assert_eq!(
        engine.pin_state().file_ids(),
        engine.file_ids(),
        "a new pin tracks the new version"
    );

    // A pin over an empty store can't resolve its roots: typed error on
    // the try_* surface, graceful default through the trait.
    let stale = PinnedState::new(Arc::new(MemoryBlockstore::new()), *pin.roots());
    assert!(matches!(
        stale.try_file_ids(),
        Err(Error::Store(StoreError::NotFound(_)))
    ));
    assert_eq!(stale.file_ids(), Vec::new());
}

/// Everything a [`StateView`] answers over a fixed probe set — ids the
/// version holds and ids it does not — so two views, or one view at two
/// moments, compare with one `assert_eq!`.
#[derive(Debug, PartialEq)]
struct Answers {
    file_ids: Vec<FileId>,
    sector_ids: Vec<SectorId>,
    files: Vec<Option<FileDescriptor>>,
    rows: Vec<Option<AllocEntry>>,
    sectors: Vec<Option<Sector>>,
    cr: Vec<Option<CrAccounting>>,
}

const PROBE_FILES: u64 = 400;
const PROBE_SECTORS: u64 = 40;

fn answers(view: &impl StateView) -> Answers {
    let files = (0..PROBE_FILES).map(FileId);
    let sectors = (0..PROBE_SECTORS).map(SectorId);
    Answers {
        file_ids: view.file_ids(),
        sector_ids: view.sector_ids(),
        files: files.clone().map(|f| view.file(f)).collect(),
        rows: files
            .flat_map(|f| (0..4).map(move |i| (f, i)))
            .map(|(f, i)| view.alloc_entry(f, i))
            .collect(),
        sectors: sectors.clone().map(|s| view.sector(s)).collect(),
        cr: sectors.map(|s| view.cr_accounting(s)).collect(),
    }
}

/// The `try_*` surface of a pin: every probe must come back `Ok`, so the
/// trait's error-to-`None` mapping cannot be what made [`answers`] agree.
fn assert_pin_readable(pin: &PinnedState) {
    pin.try_file_ids().expect("file ids");
    pin.try_sector_ids().expect("sector ids");
    for f in (0..PROBE_FILES).map(FileId) {
        pin.try_file(f).expect("file");
        pin.try_alloc_entry(f, 0).expect("alloc row");
    }
    for s in (0..PROBE_SECTORS).map(SectorId) {
        pin.try_sector(s).expect("sector");
        pin.try_cr_accounting(s).expect("cr row");
    }
}

/// A pin *is* the tries at its version. Taken at v1, it answers every
/// read as the live engine did at v1 and as a store-only pin of the same
/// roots does — after the engine has moved three commits on (adds,
/// confirms, discards, a checkpoint), and while it is moving: a second
/// thread reads the pin during each of those commits (a barrier pairs
/// reader pass `i` with mutation `i`). The engine's copy-on-write keeps
/// the shared nodes at v1.
#[test]
fn a_pin_stays_at_its_version_while_the_engine_moves_on() {
    const MOVES: u64 = 3;
    for disk in [false, true] {
        for shards in [1usize, 8] {
            let cell = format!("disk={disk} shards={shards}");
            let store = CountingStore::new(disk, &format!("pin-{shards}"));
            let as_dyn = Arc::clone(&store) as Arc<dyn Blockstore>;
            let mut engine =
                Engine::new_with_store(params(shards, 1), as_dyn.clone()).expect("params");
            let mut rng = DetRng::from_seed_label(7, "state-commitment");
            setup(&mut engine, &mut rng);
            for block in 0..10 {
                differential_block(&mut engine, &mut rng, 7, block);
            }

            let at_v1 = answers(&engine);
            assert!(at_v1.file_ids.len() > 20, "{cell}: v1 must hold files");
            assert!(
                at_v1.file_ids.iter().all(|f| f.0 < PROBE_FILES - 100),
                "{cell}: the probe range must reach past v1 into ids added later"
            );
            let pin = engine.pin_state();
            assert_eq!(answers(&pin), at_v1, "{cell}: fresh pin");

            let turn = Barrier::new(2);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for pass in 0..MOVES {
                        assert_eq!(answers(&pin), at_v1, "{cell}: reader pass {pass}");
                        assert_pin_readable(&pin);
                        turn.wait();
                    }
                });
                for i in 0..MOVES {
                    for block in 0..2 {
                        differential_block(&mut engine, &mut rng, 7, 10 + 2 * i + block);
                    }
                    let doomed = engine.file_ids()[0];
                    engine.file_discard(CLIENT, doomed).expect("discard");
                    engine.honest_providers_act();
                    engine.advance_to(engine.now() + engine.params().block_interval);
                    if i == 1 {
                        engine.checkpoint();
                    }
                    engine.state_root();
                    turn.wait();
                }
            });

            assert_ne!(answers(&engine), at_v1, "{cell}: the engine moved on");
            assert_eq!(answers(&pin), at_v1, "{cell}: the pin did not");
            assert_eq!(answers(&pin.clone()), at_v1, "{cell}: nor does its clone");
            let from_store = PinnedState::new(as_dyn.clone(), *pin.roots());
            assert_eq!(answers(&from_store), at_v1, "{cell}: store-only pin");
            assert_pin_readable(&from_store);
            // And a pin taken now is the new version.
            assert_eq!(answers(&engine.pin_state()), answers(&engine), "{cell}");
        }
    }
}

/// Proofs are encoded from the live trie, and those are the stored
/// bytes: `prove_file`'s path equals the path a reader proves out of the
/// store alone at the same root.
#[test]
fn live_proofs_are_byte_equal_to_proofs_from_the_store() {
    for disk in [false, true] {
        for shards in [1usize, 8] {
            let store = CountingStore::new(disk, &format!("prove-{shards}"));
            let as_dyn = Arc::clone(&store) as Arc<dyn Blockstore>;
            let mut engine = Engine::new_with_store(params(shards, 1), as_dyn).expect("params");
            let mut rng = DetRng::from_seed_label(51, "state-commitment");
            setup(&mut engine, &mut rng);
            for block in 0..3 {
                for i in 0..40 {
                    step(&mut engine, &mut rng, 51, block * 40 + i);
                }
                let roots = engine.state_roots();
                let files = engine.file_ids();
                assert!(!files.is_empty(), "workload must leave live files");
                for f in files {
                    let proof = engine.prove_file(f).expect("prove");
                    let stored = Hamt::load(roots.files)
                        .prove(store.as_ref(), &f.0.to_be_bytes())
                        .expect("readable from the store")
                        .expect("file present");
                    assert_eq!(proof.path, stored, "disk={disk} shards={shards} {f}");
                    assert_eq!(proof.map_roots, roots.map_roots());
                    proof.verify(roots.state_root).expect("verify");
                }
            }
        }
    }
}

/// Adds and confirms one size-1 file per id in `ids`.
fn fill_confirmed(engine: &mut Engine, ids: std::ops::Range<u64>) {
    for i in ids {
        let root = sha256(&i.to_be_bytes());
        let f = engine
            .file_add(CLIENT, 1, engine.params().min_value, root)
            .expect("add");
        for (idx, s) in engine.pending_confirms(f) {
            engine
                .file_confirm(PROVIDERS[0], f, idx, s)
                .expect("confirm");
        }
    }
}

/// An engine on a counting store with six large sectors and `files`
/// confirmed files: state that is almost all map rows.
fn filled(disk: bool, shards: usize, files: u64, tag: &str) -> (Arc<CountingStore>, Engine) {
    let store = CountingStore::new(disk, &format!("{tag}-{shards}"));
    let as_dyn = Arc::clone(&store) as Arc<dyn Blockstore>;
    let mut engine = Engine::new_with_store(params(shards, 1), as_dyn).expect("params");
    engine.fund(CLIENT, TokenAmount(u128::MAX / 4));
    engine.fund(PROVIDERS[0], TokenAmount(u128::MAX / 4));
    for _ in 0..6 {
        engine
            .sector_register(PROVIDERS[0], 640_000)
            .expect("register");
    }
    fill_confirmed(&mut engine, 0..files);
    (store, engine)
}

/// The mechanism, in store reads. On a live engine a pin's reads and
/// `prove_file` touch no store at all, and `snapshot_delta` reads only
/// the base version's nodes along the changed paths: the same handful of
/// changed keys costs no more reads on a state ten times larger than one
/// more level per path, and a small fraction of the base's nodes (which
/// a walk of the whole base would read).
#[test]
fn pinned_reads_and_proofs_read_no_store_and_deltas_read_changed_paths() {
    const CHANGED_FILES: u64 = 4;
    // One descriptor and `k` rows per file, plus the sector and DRep rows.
    const CHANGED_KEYS: u64 = CHANGED_FILES * 4 + 2 * 6;
    let mut delta_gets = Vec::new();
    for (disk, shards, files) in [(false, 1usize, 300u64), (true, 8, 3_000)] {
        let cell = format!("disk={disk} shards={shards} files={files}");
        let (store, mut engine) = filled(disk, shards, files, "reads");
        let base_roots = engine.state_roots();
        let base_nodes = store.puts();

        // 1 000 pinned reads and 100 proofs: not one `get`.
        let live = engine.file_ids();
        let mut rng = DetRng::from_seed_label(3, "state-commitment/reads");
        let pin = engine.pin_state();
        let before = store.gets();
        for _ in 0..1_000 {
            let f = live[rng.below(live.len() as u64) as usize];
            assert_eq!(pin.try_file(f).expect("read"), engine.file(f), "{cell}");
        }
        for _ in 0..100 {
            let f = live[rng.below(live.len() as u64) as usize];
            let proof = engine.prove_file(f).expect("prove");
            proof.verify(base_roots.state_root).expect("verify");
        }
        assert_eq!(store.gets(), before, "{cell}: reads went to the store");
        drop(pin);

        // A few changed keys, then the delta against the base.
        fill_confirmed(&mut engine, files..files + CHANGED_FILES);
        let before = store.gets();
        let delta = engine.snapshot_delta(&base_roots).expect("delta");
        let gets = store.gets() - before;
        assert!(gets > 0, "{cell}: the base side is read from the store");
        assert!(
            gets <= CHANGED_KEYS * 4,
            "{cell}: {gets} gets for {CHANGED_KEYS} changed keys"
        );
        assert!(
            gets * 10 <= base_nodes,
            "{cell}: {gets} gets against a base of {base_nodes} nodes"
        );
        // Same bytes as ever: the delta still round-trips.
        assert!(delta.len() < engine.snapshot_save().len(), "{cell}");
        delta_gets.push(gets);
    }
    assert!(
        delta_gets[1] <= delta_gets[0] + CHANGED_KEYS,
        "ten times the state must not cost more than a level per changed path: {delta_gets:?}"
    );
}

/// The mechanism of a delta restore, in store calls. The follower starts
/// from its base's resident tries, so it puts the blocks the delta
/// carries and reads back, at most once each, the blocks it ships —
/// whatever the size of the base: a restore that persisted the base to
/// learn its root, or rebuilt the maps from a walk, would grow with it.
#[test]
fn a_delta_restore_costs_store_calls_by_the_delta_not_the_base() {
    const CHANGED_FILES: u64 = 4;
    const CHANGED_KEYS: u64 = CHANGED_FILES * 4 + 2 * 6;
    let mut calls = Vec::new();
    for (disk, shards, files) in [(false, 1usize, 300u64), (true, 8, 3_000)] {
        let cell = format!("disk={disk} shards={shards} files={files}");
        let (store, mut engine) = filled(disk, shards, files, "restore");
        // Cloned before the first commit: the base builds tries of its own,
        // which nothing has persisted.
        let base = engine.clone();
        let base_roots = engine.state_roots();
        fill_confirmed(&mut engine, files..files + CHANGED_FILES);
        // Persisting the new version puts exactly the nodes the base
        // version lacks — the delta's payload.
        let before = store.puts();
        let delta = engine.snapshot_delta(&base_roots).expect("delta");
        let shipped = store.puts() - before;
        assert!(
            shipped > 0 && shipped <= CHANGED_KEYS * 4,
            "{cell}: {shipped}"
        );

        let (puts, gets) = (store.puts(), store.gets());
        let restored = Engine::snapshot_restore_delta(&delta, &base).expect("delta restore");
        let (puts, gets) = (store.puts() - puts, store.gets() - gets);
        assert_eq!(restored.state_root(), engine.state_root(), "{cell}");
        assert_eq!(puts, shipped, "{cell}: puts beyond the delta's blocks");
        assert!(
            gets > 0 && gets <= shipped,
            "{cell}: {gets} gets, {shipped} blocks shipped"
        );
        calls.push(puts + gets);
    }
    assert!(
        calls[1] <= calls[0] + 2 * CHANGED_KEYS,
        "ten times the base must not cost more than a level per changed path: {calls:?}"
    );
}

/// A full restore hands back an engine whose commitment is already
/// built, at any pair of shard counts: the saver's engine, and a twin at
/// the restorer's shard count that applied the same ops and wrote the
/// snapshot. Restored, it names the saver's roots map by map before any
/// op is applied, and a proof from it verifies against the saver's root.
/// (That the restore and its first `state_root()` reach no store is
/// counted in `engine::snapshot`'s tests, which can swap the store of a
/// restored engine.)
#[test]
fn a_full_restore_is_committed_to_the_savers_roots() {
    for disk in [false, true] {
        for (saver_shards, restorer_shards) in [(1usize, 1usize), (1, 8), (8, 3)] {
            let cell = format!("disk={disk} saver={saver_shards} restorer={restorer_shards}");
            let (_, mut saver) = filled(disk, saver_shards, 300, "full");
            let (_, mut twin) = filled(disk, restorer_shards, 300, "full-twin");
            for engine in [&mut saver, &mut twin] {
                engine.file_discard(CLIENT, FileId(7)).expect("discard");
            }
            let want = saver.state_roots();

            let restored = Engine::snapshot_restore(&twin.snapshot_save()).expect("restore");
            assert_eq!(restored.params().shards, restorer_shards, "{cell}");
            assert_eq!(restored.state_root(), want.state_root, "{cell}");
            let roots = restored.state_roots();
            for (map, (got, want)) in roots.map_roots().iter().zip(want.map_roots()).enumerate() {
                assert_eq!(*got, want, "{cell}: map {map}");
            }
            assert_eq!(roots, want, "{cell}");
            for f in (0..300).step_by(37).map(FileId) {
                let proof = restored.prove_file(f).expect("prove");
                let proven = proof.verify(want.state_root).expect("verify");
                assert_eq!(Some(proven), saver.file(f), "{cell}: {f}");
            }
        }
    }
}

/// `PinnedState` over an untrusted store: a files trie whose nodes each
/// link one child from all 32 slots would make an id walk visit 32^depth
/// nodes. The second link to a node is refused, typed, before it is read.
#[test]
fn a_pin_over_a_store_linking_one_node_twice_fails_fast() {
    let store = MemoryBlockstore::new();
    let empty = Hamt::new().flush(&store).expect("memory store");
    let mut below = {
        let mut leaf = 1u32.to_be_bytes().to_vec();
        leaf.push(0); // one bucket…
        leaf.extend_from_slice(&1u32.to_be_bytes()); // …of one pair
        for field in [&7u64.to_be_bytes()[..], b"leaf"] {
            leaf.extend_from_slice(&(field.len() as u32).to_be_bytes());
            leaf.extend_from_slice(field);
        }
        store.put(&leaf).expect("memory store")
    };
    for _ in 0..16 {
        let mut node = u32::MAX.to_be_bytes().to_vec();
        for _ in 0..32 {
            node.push(1);
            node.extend_from_slice(below.as_bytes());
        }
        below = store.put(&node).expect("memory store");
    }
    let roots = StateRoots {
        state_root: empty,
        files: below,
        alloc: empty,
        discard: empty,
        sectors: below,
        cr: empty,
    };
    let pin = PinnedState::new(Arc::new(store), roots);
    let linked_twice = Error::Store(StoreError::Corrupt("trie node linked twice"));
    assert_eq!(pin.try_file_ids().unwrap_err(), linked_twice);
    assert_eq!(pin.try_sector_ids().unwrap_err(), linked_twice);
    assert!(pin.file_ids().is_empty());
}

/// `base + delta` is a full restore of the new state **in every byte** of
/// a re-saved snapshot — so no section can have been inherited from the
/// base by mistake — for either store backend, with the delta naming the
/// base's shard count or another one (rows are re-routed). The base keeps
/// answering at its own root while the result moves on (the shared tries
/// are copy-on-write), and the two restored engines stay in consensus,
/// block for block.
#[test]
fn delta_restore_equals_full_restore_in_every_byte() {
    const SEED: u64 = 61;
    for disk in [false, true] {
        for (base_shards, delta_shards) in [(1usize, 1usize), (1, 4), (8, 8), (8, 3)] {
            let cell = format!("disk={disk} base={base_shards} delta={delta_shards}");
            let tag = format!("equal-{base_shards}-{delta_shards}");
            let base_store = CountingStore::new(disk, &tag) as Arc<dyn Blockstore>;
            let mut base =
                Engine::new_with_store(params(base_shards, 1), base_store).expect("params");
            let mut server = Engine::new(params(delta_shards, 1)).expect("params");

            // The same ops take both to the base version…
            for engine in [&mut base, &mut server] {
                let mut rng = DetRng::from_seed_label(SEED, "state-commitment");
                setup(engine, &mut rng);
                for block in 0..12 {
                    differential_block(engine, &mut rng, SEED, block);
                }
                let oldest = engine.file_ids()[0];
                engine.file_discard(CLIENT, oldest).expect("discard");
            }
            let base_roots = server.state_roots();
            assert_eq!(base.state_root(), base_roots.state_root, "{cell}");
            // …and the server alone on to the new one, every map changed.
            let mut rng = DetRng::from_seed_label(SEED + 1, "state-commitment");
            for block in 12..18 {
                differential_block(&mut server, &mut rng, SEED, block);
            }
            let newest = *server.file_ids().last().expect("live files");
            server.file_discard(CLIENT, newest).expect("discard");
            server.checkpoint();
            let new_roots = server.state_roots();
            for (map, (new, old)) in new_roots
                .map_roots()
                .iter()
                .zip(base_roots.map_roots())
                .enumerate()
            {
                assert_ne!(*new, old, "{cell}: map {map} unchanged");
            }
            let delta = server.snapshot_delta(&base_roots).expect("delta");
            let full_new = server.snapshot_save();

            let base_before = (answers(&base), base.snapshot_save());
            let mut via_delta =
                Engine::snapshot_restore_delta(&delta, &base).expect("delta restore");
            let mut via_full = Engine::snapshot_restore(&full_new).expect("full restore");
            assert_eq!(via_delta.snapshot_save(), full_new, "{cell}");
            assert_eq!(via_full.snapshot_save(), full_new, "{cell}");
            assert_eq!(via_delta.state_roots(), new_roots, "{cell}");
            assert_eq!(via_delta.params().shards, delta_shards, "{cell}");
            // What a snapshot does not carry starts fresh, not as the base's.
            assert!(!base.op_log().is_empty() && via_delta.op_log().is_empty());
            assert!(via_delta.events().is_empty(), "{cell}");
            assert_eq!(via_delta.phase_times(), Default::default(), "{cell}");

            // Both reconstructions stay in consensus at every block…
            for engine in [&mut via_delta, &mut via_full] {
                engine.fund(CLIENT, TokenAmount(500_000_000));
            }
            let mut rngs = [(); 2].map(|()| DetRng::from_seed_label(SEED + 2, "state-commitment"));
            for block in 18..42 {
                for (engine, rng) in [&mut via_delta, &mut via_full].into_iter().zip(&mut rngs) {
                    differential_block(engine, rng, SEED, block);
                    engine.advance_to(engine.now() + engine.params().block_interval);
                }
                assert_eq!(
                    via_delta.state_root(),
                    via_full.state_root(),
                    "{cell} {block}"
                );
                assert_eq!(
                    via_delta.audit_root(),
                    via_full.audit_root(),
                    "{cell} {block}"
                );
                assert_eq!(
                    via_delta.chain().head_hash(),
                    via_full.chain().head_hash(),
                    "{cell} {block}"
                );
            }
            assert!(via_delta.chain().height() >= server.chain().height() + 24);

            // …and none of it reached the base.
            assert_eq!(base.state_root(), base_roots.state_root, "{cell}");
            assert_eq!(
                (answers(&base), base.snapshot_save()),
                base_before,
                "{cell}"
            );
            assert_eq!(
                answers(&PinnedState::new(base.store().clone(), base.state_roots())),
                base_before.0,
                "{cell}: the base's own tries, persisted now, still spell its version"
            );
        }
    }
}

/// The incremental-snapshot contract: restoring `base + delta` equals
/// restoring a full snapshot of the new state, bit for bit — and both
/// ends of the transport are deterministic.
#[test]
fn delta_snapshot_round_trips_against_a_base() {
    // A map-heavy base: hundreds of confirmed files, so the five state
    // trees dominate the snapshot (the scenario deltas target).
    let mut engine = Engine::new(params(4, 2)).expect("params");
    engine.fund(CLIENT, TokenAmount(u128::MAX / 4));
    engine.fund(PROVIDERS[0], TokenAmount(u128::MAX / 4));
    for _ in 0..6 {
        engine
            .sector_register(PROVIDERS[0], 64_000)
            .expect("register");
    }
    fill_confirmed(&mut engine, 0..300);
    engine.advance_to(engine.now() + engine.params().proof_cycle);
    engine.honest_providers_act();
    let full_base = engine.snapshot_save();
    let base_roots = engine.state_roots();

    // A small targeted change on top of that base. (No proof-cycle
    // advance: that would touch every descriptor's cntdown and dirty the
    // whole files tree.)
    fill_confirmed(&mut engine, 1_000..1_003);
    engine.honest_providers_act();
    assert_ne!(engine.state_root(), base_roots.state_root);

    let delta = engine.snapshot_delta(&base_roots).expect("delta");
    let delta_again = engine.snapshot_delta(&base_roots).expect("delta");
    assert_eq!(delta, delta_again, "delta encoding is deterministic");
    let full_new = engine.snapshot_save();

    // The delta must actually be incremental: only the trie nodes on the
    // changed paths ship, not the whole state.
    assert!(
        delta.len() < full_new.len(),
        "delta ({}) not smaller than full ({})",
        delta.len(),
        full_new.len()
    );

    let base = Engine::snapshot_restore(&full_base).expect("base restore");
    assert_eq!(base.state_root(), base_roots.state_root);
    let via_delta = Engine::snapshot_restore_delta(&delta, &base).expect("delta restore");
    let via_full = Engine::snapshot_restore(&full_new).expect("full restore");

    assert_eq!(via_delta.state_root(), engine.state_root());
    assert_eq!(via_delta.state_root(), via_full.state_root());
    assert_eq!(via_delta.chain().head_hash(), via_full.chain().head_hash());
    assert_eq!(via_delta.file_ids(), via_full.file_ids());
    assert_eq!(via_delta.sector_ids(), via_full.sector_ids());
    assert_eq!(
        via_delta.ledger().total_supply(),
        via_full.ledger().total_supply()
    );

    // Both reconstructions stay in consensus under further load.
    let (mut a, mut b) = (via_delta, via_full);
    drive(&mut a, 23, 40);
    drive(&mut b, 23, 40);
    assert_eq!(a.state_root(), b.state_root(), "divergence after restore");
    assert_eq!(a.chain().head_hash(), b.chain().head_hash());
}

/// Tampered or misapplied deltas fail with typed errors, never a panic
/// and never a silently wrong engine.
#[test]
fn delta_snapshot_rejects_tampering_and_wrong_bases() {
    let mut engine = Engine::new(params(2, 1)).expect("params");
    drive(&mut engine, 31, 80);
    let full_base = engine.snapshot_save();
    let base_roots = engine.state_roots();
    drive(&mut engine, 32, 40);
    let delta = engine.snapshot_delta(&base_roots).expect("delta");

    let base = Engine::snapshot_restore(&full_base).expect("base restore");

    // Applying the delta to the wrong base is caught by the recorded
    // base root before anything is decoded.
    let mut wrong_base = Engine::new(params(2, 1)).expect("params");
    drive(&mut wrong_base, 99, 40);
    assert!(matches!(
        Engine::snapshot_restore_delta(&delta, &wrong_base),
        Err(Error::Snapshot(_))
    ));

    // Truncation and bit flips anywhere in the envelope are rejected.
    assert!(Engine::snapshot_restore_delta(&delta[..delta.len() - 40], &base).is_err());
    for pos in (0..delta.len()).step_by(delta.len() / 37 + 1) {
        let mut bad = delta.clone();
        bad[pos] ^= 0x40;
        assert!(
            Engine::snapshot_restore_delta(&bad, &base).is_err(),
            "bit flip at {pos} must not restore"
        );
    }

    // The unmodified delta still applies after all that.
    let restored = Engine::snapshot_restore_delta(&delta, &base).expect("delta restore");
    assert_eq!(restored.state_root(), engine.state_root());
}

/// Light-client proofs: a file descriptor verifies offline against the
/// bare `state_root`; every tampering mode is rejected.
#[test]
fn state_proofs_verify_and_reject_tampering() {
    let mut engine = Engine::new(params(4, 1)).expect("params");
    drive(&mut engine, 51, 120);
    let root = engine.state_root();
    let files = engine.file_ids();
    assert!(!files.is_empty(), "workload must leave live files");

    for &f in &files {
        let proof = engine.prove_file(f).expect("prove");
        let desc = proof.verify(root).expect("verify");
        assert_eq!(desc.id, f);
        assert_eq!(Some(desc), engine.file(f), "proven descriptor is live");
    }

    // Absent files are not provable.
    let absent = fi_core::types::FileId(u64::MAX);
    assert!(matches!(
        engine.prove_file(absent),
        Err(Error::Engine(fi_core::EngineError::UnknownFile(_)))
    ));

    let proof = engine.prove_file(files[0]).expect("prove");

    // Wrong trusted root.
    assert!(proof.verify(sha256(b"not the root")).is_err());

    // Header tampering: every scalar is committed.
    let mut bad = proof.clone();
    bad.header.total_supply ^= 1;
    assert!(bad.verify(root).is_err());
    let mut bad = proof.clone();
    bad.header.audit_root = sha256(b"forged audit root");
    assert!(bad.verify(root).is_err());

    // Map-root tampering (swap the files root for the sectors root).
    let mut bad = proof.clone();
    bad.map_roots.swap(0, 3);
    assert!(bad.verify(root).is_err());

    // Claiming a different file id fails even with an honest path.
    let mut bad = proof.clone();
    bad.file = fi_core::types::FileId(files[0].0 + 1_000_000);
    assert!(bad.verify(root).is_err());

    // Path tampering: truncation, padding, bit flips in every node.
    let mut bad = proof.clone();
    bad.path.pop();
    assert!(bad.verify(root).is_err() || bad.path.is_empty());
    let mut bad = proof.clone();
    bad.path.push(vec![0u8; 4]);
    assert!(bad.verify(root).is_err());
    for node in 0..proof.path.len() {
        for pos in (0..proof.path[node].len()).step_by(11) {
            let mut bad = proof.clone();
            bad.path[node][pos] ^= 0x01;
            assert!(
                bad.verify(root).is_err(),
                "flip in path node {node} byte {pos} must not verify"
            );
        }
    }
}

/// One block of the differential workload below, identical for every
/// engine given the same `rng` state.
fn differential_block(engine: &mut Engine, rng: &mut DetRng, seed: u64, block: u64) {
    // The workload corrupts sectors; keep capacity coming so files keep
    // being placed, lost and compensated.
    if block.is_multiple_of(4) {
        let owner = PROVIDERS[(block / 4 % 3) as usize];
        engine.sector_register(owner, 6_400).expect("registration");
    }
    // Enough small files that the tries grow levels.
    for i in 0..6 {
        let root = sha256(&(block << 8 | i).to_be_bytes());
        let _ = engine.file_add(CLIENT, 1 + i % 3, engine.params().min_value, root);
    }
    for i in 0..3 {
        step(engine, rng, seed, block * 3 + i);
    }
}

/// Commit is not persist, differentially. A reference engine persists
/// (`state_roots()`) every block; in every `(store × shards × threads)`
/// cell an engine fed the same ops names only `state_root()` per block
/// and persists every fifth. They agree on the root at every block;
/// every persisted version reads back in full through a fresh pin over
/// the store alone; a delta between two persisted versions — with four
/// roots in between that were only ever hashed — round-trips; and
/// persisting through a clone seals the nodes it shares with the
/// original, not copies of them.
#[test]
fn lazy_and_eager_persistence_agree_at_every_block() {
    const SEED: u64 = 77;
    const BLOCKS: u64 = 30;
    const PERSIST_EVERY: u64 = 5;
    let as_dyn = |s: &Arc<CountingStore>| Arc::clone(s) as Arc<dyn Blockstore>;

    let eager_store = CountingStore::new(false, "eager");
    let mut eager = Engine::new_with_store(params(1, 1), as_dyn(&eager_store)).expect("params");
    let mut rng = DetRng::from_seed_label(SEED, "state-commitment");
    setup(&mut eager, &mut rng);
    let mut reference = Vec::new();
    for block in 0..BLOCKS {
        differential_block(&mut eager, &mut rng, SEED, block);
        reference.push((eager.state_roots(), eager.chain().head_hash()));
    }

    for disk in [false, true] {
        for shards in [1usize, 4] {
            for threads in [1usize, 2] {
                let cell = format!("disk={disk} shards={shards} threads={threads}");
                let store = CountingStore::new(disk, &format!("lazy-{shards}-{threads}"));
                let mut lazy = Engine::new_with_store(params(shards, threads), as_dyn(&store))
                    .expect("params");
                let mut rng = DetRng::from_seed_label(SEED, "state-commitment");
                setup(&mut lazy, &mut rng);

                // (roots, file ids, full snapshot) at each persisted block.
                let mut persisted: Vec<(StateRoots, Vec<FileId>, Vec<u8>)> = Vec::new();
                for (block, (want, head)) in (0..BLOCKS).zip(&reference) {
                    differential_block(&mut lazy, &mut rng, SEED, block);
                    assert_eq!(lazy.chain().head_hash(), *head, "{cell} block {block}");
                    if block % PERSIST_EVERY != PERSIST_EVERY - 1 {
                        let before = store.puts();
                        assert_eq!(lazy.state_root(), want.state_root, "{cell} block {block}");
                        assert_eq!(store.puts(), before, "state_root() wrote to the store");
                        continue;
                    }
                    let roots = lazy.state_roots();
                    assert_eq!(roots, *want, "{cell} block {block}");
                    let pin = PinnedState::new(as_dyn(&store), roots);
                    assert_reads_match(&pin, &lazy);
                    if let Some((base_roots, _, base_full)) = persisted.last() {
                        let delta = lazy.snapshot_delta(base_roots).expect("delta");
                        let base = Engine::snapshot_restore(base_full).expect("base restore");
                        let restored =
                            Engine::snapshot_restore_delta(&delta, &base).expect("delta restore");
                        assert_eq!(restored.state_root(), roots.state_root, "{cell}");
                        assert_eq!(restored.chain().head_hash(), *head);
                        assert_eq!(restored.file_ids(), lazy.file_ids());
                    }
                    persisted.push((roots, lazy.file_ids(), lazy.snapshot_save()));
                }
                assert!(
                    store.puts() < eager_store.puts(),
                    "{cell}: lazy wrote no less"
                );
                // Every persisted version is still there, frozen.
                for (roots, files, _) in &persisted {
                    assert_eq!(&PinnedState::new(as_dyn(&store), *roots).file_ids(), files);
                }

                // A clone persists what it shares with the original in
                // place: the original then finds nothing left to write.
                assert!(!lazy.file_ids().is_empty(), "{cell}: no file left to audit");
                lazy.advance_to(lazy.now() + lazy.params().proof_cycle);
                lazy.state_root();
                let clone = lazy.clone();
                let before = store.puts();
                let clone_roots = clone.state_roots();
                let wrote = store.puts() - before;
                assert!(wrote > 0, "{cell}: the proof cycle changed every file");
                assert_eq!(lazy.state_roots(), clone_roots);
                assert_eq!(
                    store.puts() - before,
                    wrote,
                    "{cell}: the original re-put what its clone had persisted"
                );
            }
        }
    }
}

/// What the store holds is what was named. Blocks of `apply_batch` +
/// `state_root()` add nothing to it; a checkpoint adds exactly the nodes
/// reachable from the checkpointed roots that it did not already hold —
/// and so none of the versions superseded in between.
#[test]
fn the_store_grows_only_by_the_versions_that_are_named() {
    let store = Arc::new(MemoryBlockstore::new());
    // The empty map's node, so `diff_new_nodes` against it lists a whole tree.
    let empty = Hamt::new().flush(store.as_ref()).expect("memory store");
    let nodes_of = |roots: &StateRoots| -> HashSet<Hash256> {
        let mut nodes = HashSet::from([empty]);
        for root in roots.map_roots() {
            let tree = Hamt::load(root)
                .diff_new_nodes(store.as_ref(), &Hamt::load(empty))
                .expect("persisted tree");
            nodes.extend(tree.into_iter().map(|(hash, _)| hash));
        }
        nodes
    };

    let as_dyn = Arc::clone(&store) as Arc<dyn Blockstore>;
    let mut engine = Engine::new_with_store(params(4, 2), as_dyn).expect("params");
    engine.fund(CLIENT, TokenAmount(u128::MAX / 4));
    engine.fund(PROVIDERS[0], TokenAmount(u128::MAX / 4));
    for _ in 0..6 {
        engine
            .sector_register(PROVIDERS[0], 64_000)
            .expect("register");
    }
    let adds = |engine: &Engine, ids: std::ops::Range<u64>| -> Vec<Op> {
        ids.map(|i| Op::FileAdd {
            client: CLIENT,
            size: 1 + i % 5,
            value: engine.params().min_value,
            merkle_root: sha256(&i.to_be_bytes()),
        })
        .collect()
    };
    let fill = adds(&engine, 0..300);
    assert!(engine.apply_batch(fill).iter().all(Result::is_ok));
    engine.honest_providers_act();
    engine.advance_to(engine.now() + engine.params().proof_cycle);
    assert_eq!(
        store.len(),
        1,
        "the fill and its sealed blocks wrote nothing"
    );
    engine.checkpoint();
    let first = nodes_of(&engine.state_roots());
    assert_eq!(store.len(), first.len());
    assert!(
        first.len() > 50,
        "three hundred files make multi-level trees"
    );

    let mut roots_seen = HashSet::new();
    for block in 0..12u64 {
        let mut ops = adds(&engine, 1_000 + block * 8..1_008 + block * 8);
        ops.push(Op::AdvanceTo {
            target: engine.now() + 35,
        });
        engine.apply_batch(ops);
        engine.honest_providers_act();
        roots_seen.insert(engine.state_root());
        assert_eq!(store.len(), first.len(), "block {block} wrote to the store");
    }
    assert_eq!(roots_seen.len(), 12, "every block was a new version");

    engine.checkpoint();
    let second = nodes_of(&engine.state_roots());
    assert!(second.difference(&first).count() > 0);
    assert_eq!(store.len(), first.union(&second).count());
}

// Height, head hash and state root of `off_boundary_advances_…`'s
// workload, taken from the commit before advances skipped unused roots.
// The head was re-pinned when op, receipt and event digests moved to
// their canonical binary encodings, and again when blocks began to seal
// after the tasks due at their boundary (the height and root moved
// neither time: state is untouched by either).
const GOLDEN_HEIGHT: u64 = 79;
const GOLDEN_HEAD: &str = "27cefae5f5057ea5b326d71556b3f89f021103a1fa57b4f3f226d2a6ea821fcd";
const GOLDEN_ROOT: &str = "2c302c884ffc3c9de3a59c24e72a36ae46f290d3ba906ee9dbcea218b4878835";

/// Advances that stop inside a block's interval fold no root into
/// anything, so the engine computes none for them — unobservably: an
/// engine asked for `state_root()` before every step seals the same
/// blocks.
#[test]
fn off_boundary_advances_seal_the_same_blocks() {
    let run = |root_every_step: bool| {
        let mut engine = Engine::new(params(1, 1)).expect("params");
        let mut rng = DetRng::from_seed_label(11, "state-commitment");
        setup(&mut engine, &mut rng);
        let mut off_grid = 0;
        for i in 0..150 {
            if root_every_step {
                engine.state_root();
            }
            step(&mut engine, &mut rng, 11, i);
            off_grid += u32::from(!engine.now().is_multiple_of(engine.params().block_interval));
        }
        assert!(off_grid > 50, "the workload must stop inside intervals");
        // The head hash commits to every sealed block.
        let chain = engine.chain();
        (chain.height(), chain.head_hash(), engine.state_root())
    };
    let (height, head, root) = run(false);
    assert_eq!((height, head, root), run(true));
    assert_eq!(height, GOLDEN_HEIGHT);
    assert_eq!(head.to_hex(), GOLDEN_HEAD);
    assert_eq!(root.to_hex(), GOLDEN_ROOT);
}

/// A block commits to the state its interval ends in: the tasks due at
/// its boundary run before it seals. A `CheckAlloc` due exactly at a
/// boundary drops its unconfirmed file inside that block — the open block
/// after the advance holds none of its events — and the root and head
/// there are those of an engine that names a root at every tick.
#[test]
fn tasks_due_at_a_boundary_land_in_its_block() {
    const SIZE: u64 = 5;
    let run = |root_every_tick: bool| {
        let mut engine = Engine::new(params(1, 1)).expect("params");
        let mut rng = DetRng::from_seed_label(12, "state-commitment");
        setup(&mut engine, &mut rng);
        let min_value = engine.params().min_value;
        let file = engine
            .file_add(CLIENT, SIZE, min_value, sha256(b"never confirmed"))
            .expect("add");
        let boundary = engine.params().transfer_window(SIZE);
        let interval = engine.params().block_interval;
        assert!(boundary.is_multiple_of(interval), "due at a boundary");
        engine.take_events();
        for target in 1..=boundary {
            if root_every_tick {
                engine.state_root();
            }
            assert!(
                engine.file(file).is_some(),
                "nothing is due before {boundary}"
            );
            engine.advance_to(target);
        }
        let removal = ProtocolEvent::FileRemoved {
            file,
            reason: RemovalReason::UploadFailed,
        };
        assert!(engine.take_events().contains(&removal), "the task ran");
        let chain = engine.chain();
        assert!(chain.open_events().is_empty(), "its events sealed");
        let sealed = chain.last_block().expect("sealed");
        assert_eq!(
            (sealed.height, sealed.timestamp),
            (boundary / interval, boundary)
        );
        (chain.head_hash(), engine.state_root())
    };
    assert_eq!(run(false), run(true));
}

/// A state commit merges its dirty keys on the worker pool from 2 048
/// keys up and inline below. Three engines take the same ops: one with
/// four ingest threads, so its pool has at least four workers and its
/// large commits run pooled on any host; one with one, whose large
/// commits run pooled only on a host of two or more cores; and one that
/// commits every 64 ops, so every commit it makes stays inline. The first
/// commit carries every row of 700 confirmed files, the next the
/// discards of half of them among 350 new files, then an audit removes
/// the discarded files. Roots, map roots and a delta round trip agree.
#[test]
fn pooled_and_inline_commits_give_the_same_roots() {
    let run = |ingest_threads: usize, commit_every: Option<u64>| {
        let mut engine = Engine::new(params(2, ingest_threads)).expect("params");
        engine.fund(CLIENT, TokenAmount(u128::MAX / 4));
        engine.fund(PROVIDERS[0], TokenAmount(u128::MAX / 4));
        for _ in 0..6 {
            engine
                .sector_register(PROVIDERS[0], 640_000)
                .expect("register");
        }
        let mut ops = 0u64;
        let mut op = |engine: &Engine| {
            ops += 1;
            if commit_every.is_some_and(|n| ops.is_multiple_of(n)) {
                engine.state_root();
            }
        };
        for i in 0..700 {
            fill_confirmed(&mut engine, i..i + 1);
            op(&engine);
        }
        let base = engine.state_roots();
        let full_base = engine.snapshot_save();
        for (n, file) in engine.file_ids().into_iter().step_by(2).enumerate() {
            engine.file_discard(CLIENT, file).expect("discard");
            op(&engine);
            fill_confirmed(&mut engine, 1_000 + n as u64..1_001 + n as u64);
            op(&engine);
        }
        let discarded = engine.state_roots();
        engine.honest_providers_act();
        engine.advance_to(engine.now() + engine.params().proof_cycle * 2);
        assert!(engine.file_ids().len() < 1_000, "discarded files removed");
        let roots = engine.state_roots();
        // The delta restore's own root check is a commit of every key the
        // delta changed: pooled or inline as the saver's engine was.
        let delta = engine.snapshot_delta(&base).expect("delta");
        let base_engine = Engine::snapshot_restore(&full_base).expect("base restore");
        let restored = Engine::snapshot_restore_delta(&delta, &base_engine).expect("restore");
        assert_eq!(restored.state_roots(), roots);
        ((base, discarded, roots), delta)
    };
    // A delta carries the saver's parameters: compare the roots across
    // ingest widths, and the bytes too at one width.
    let (pooled, one_thread) = (run(4, None), run(1, None));
    assert_eq!(pooled.0, one_thread.0);
    assert_eq!(run(1, Some(64)), one_thread);
}
