//! `ingest_mix`: the client-facing control plane at 50 000 live files.
//!
//! One engine (1 shard, 1 thread, memory store, `k = 3`, 64 sectors over 8
//! providers) whose files were added uniformly over one proof cycle of 500
//! blocks, so every block of the cycle has its own `Auto_CheckProof`
//! deadline. Each measured block is one `apply_batch` of adds, the
//! previous block's confirms, a rotating slice of storage proofs (every
//! live replica once per cycle), gets and discards on random live files,
//! and `AdvanceTo(+10)` last — a closed loop driven by one thread that
//! reacts to the receipts of the block before.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use fi_chain::account::AccountId;
use fi_core::engine::{Engine, StateView};
use fi_core::ops::{Op, Receipt};
use fi_core::params::ProtocolParams;
use fi_core::types::{FileId, FileState, SectorId};
use fi_crypto::DetRng;
use fi_store::Blockstore;

use super::{
    apply_counted, confirms_for, engine_given, file_add, Pass, Plan, Prepared, ReplayCounts,
    CLIENT, DEEP_POCKETS,
};
use crate::store::CountingStore;
use crate::trace::Tracer;

/// Sizes of the workload; the defaults are the benchmark, tests shrink it.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// Live files after the prefill.
    pub files: u64,
    /// Blocks per proof cycle (10 ticks each).
    pub cycle_blocks: u64,
    /// Adds, gets and discards per measured block.
    pub adds: usize,
    pub gets: usize,
    pub discards: usize,
    /// Measured blocks per requested second (≈10 ms a block on the 2-core
    /// container once the heap is warm, about twice that on a cold one).
    pub blocks_per_second: u64,
    /// `take_events()` + `checkpoint()` every this many blocks.
    pub checkpoint_every: u64,
}

impl Default for Shape {
    fn default() -> Self {
        Shape {
            files: 50_000,
            cycle_blocks: 500,
            adds: 32,
            gets: 32,
            discards: 32,
            blocks_per_second: 60,
            checkpoint_every: 64,
        }
    }
}

const K: u32 = 3;
const SECTORS: u64 = 64;
const PROVIDERS: u64 = 8;
const BLOCK_TICKS: u64 = 10;
const AUDIT_PATH_LEN: u32 = 8;

/// The clients and providers of the network, as one deterministic model:
/// it remembers which files are live and whose proofs are due, and turns
/// the engine's receipts into the next block's ops.
pub struct Network {
    seed: u64,
    rng: DetRng,
    /// Files the client may still get or discard.
    live: Vec<FileId>,
    /// Proof rotation: the front `len / cycle_blocks` files prove each
    /// block and go to the back, so every replica proves once per cycle.
    ring: VecDeque<FileId>,
    /// Files added by the previous block, awaiting their confirms.
    unconfirmed: Vec<FileId>,
    adds_issued: u64,
    cycle_blocks: u64,
    pub attempted: u64,
    pub failed: u64,
}

fn owner_of(sector: SectorId) -> AccountId {
    AccountId(700 + sector.0 % PROVIDERS)
}

impl Network {
    pub fn new(seed: u64, cycle_blocks: u64) -> Self {
        Network {
            seed,
            rng: DetRng::from_seed_label(seed, "benchmark/ingest_mix"),
            live: Vec::new(),
            ring: VecDeque::new(),
            unconfirmed: Vec::new(),
            adds_issued: 0,
            cycle_blocks,
            attempted: 0,
            failed: 0,
        }
    }

    pub fn live_files(&self) -> u64 {
        self.live.len() as u64
    }

    /// The next block's ops, without the closing `AdvanceTo`.
    pub fn next_block(
        &mut self,
        engine: &Engine,
        adds: usize,
        gets: usize,
        discards: usize,
        prove: bool,
    ) -> Vec<Op> {
        let min_value = engine.params().min_value;
        let mut ops = Vec::new();
        for _ in 0..adds {
            let size = 1 + self.rng.below(4);
            ops.push(file_add(self.seed, self.adds_issued, size, min_value));
            self.adds_issued += 1;
        }
        for file in std::mem::take(&mut self.unconfirmed) {
            ops.extend(confirms_for(engine, file, owner_of));
            self.live.push(file);
            self.ring.push_back(file);
        }
        if prove {
            for _ in 0..self.ring.len().div_ceil(self.cycle_blocks as usize) {
                let Some(file) = self.ring.pop_front() else {
                    break;
                };
                // Discarded files leave the rotation once the engine has
                // removed them at their `Auto_CheckProof`.
                let Some(descriptor) = engine.file(file) else {
                    continue;
                };
                for index in 0..descriptor.cp {
                    if let Some(sector) = engine.alloc_entry(file, index).and_then(|e| e.prev) {
                        ops.push(Op::FileProve {
                            caller: owner_of(sector),
                            file,
                            index,
                            sector,
                        });
                    }
                }
                self.ring.push_back(file);
            }
        }
        for _ in 0..gets.min(self.live.len()) {
            let file = self.live[self.rng.index(self.live.len())];
            ops.push(Op::FileGet {
                caller: CLIENT,
                file,
            });
        }
        for _ in 0..discards.min(self.live.len()) {
            let at = self.rng.index(self.live.len());
            let file = self.live.swap_remove(at);
            ops.push(Op::FileDiscard {
                caller: CLIENT,
                file,
            });
        }
        ops
    }

    /// Takes in a block's outcomes: new files await their confirms.
    pub fn absorb(&mut self, receipts: &[Option<Receipt>]) {
        for receipt in receipts.iter().flatten() {
            if let Receipt::FileAdded { file, .. } = receipt {
                self.unconfirmed.push(*file);
            }
        }
    }
}

pub struct Ready {
    shape: Shape,
    plan: Plan,
    engine: Engine,
    store: Arc<CountingStore>,
    network: Network,
}

/// Builds the engine and prefills it: `files / cycle_blocks` adds per
/// block for one whole cycle, each block confirming the previous block's
/// adds, then one settling block for the last confirms.
pub fn setup(shape: &Shape, plan: Plan, timed_store: bool) -> Result<Ready, String> {
    let cycle = shape.cycle_blocks * BLOCK_TICKS;
    let params = ProtocolParams {
        k: K,
        proof_cycle: cycle,
        proof_due: 2 * cycle,
        proof_deadline: 4 * cycle,
        avg_refresh: 1e9,
        // Transfer windows of 2..8 blocks: the confirms sent one block
        // after an add always make it, and every deadline stays on a block
        // boundary (one distinct deadline per block of the cycle).
        delay_per_size: 2 * BLOCK_TICKS,
        block_interval: BLOCK_TICKS,
        audit_path_len: AUDIT_PATH_LEN,
        shards: 1,
        ingest_threads: 1,
        seed: plan.seed,
        ..ProtocolParams::default()
    };
    let store = CountingStore::memory(timed_store);
    let mut engine = Engine::new_with_store(params, Arc::clone(&store) as Arc<dyn Blockstore>)
        .map_err(|e| format!("ingest_mix parameters: {e}"))?;
    engine.fund(CLIENT, DEEP_POCKETS);
    for p in 0..PROVIDERS {
        engine.fund(AccountId(700 + p), DEEP_POCKETS);
    }
    // Room for four times the steady-state replica volume (mean size 2.5),
    // so capacity-weighted sampling almost never collides.
    let capacity = (4 * shape.files * 5 / 2 * u64::from(K) / SECTORS).div_ceil(64) * 64;
    for s in 0..SECTORS {
        let sector = engine
            .sector_register(owner_of(SectorId(s)), capacity)
            .map_err(|e| format!("sector registration: {e}"))?;
        debug_assert_eq!(sector, SectorId(s));
    }

    let mut network = Network::new(plan.seed, shape.cycle_blocks);
    let per_block = (shape.files / shape.cycle_blocks) as usize;
    for block in 0..=shape.cycle_blocks {
        let adds = if block < shape.cycle_blocks {
            per_block
        } else {
            0
        };
        let mut ops = network.next_block(&engine, adds, 0, 0, false);
        ops.push(Op::AdvanceTo {
            target: engine.now() + BLOCK_TICKS,
        });
        let receipts = apply_counted(
            &mut engine,
            ops,
            &mut network.attempted,
            &mut network.failed,
        );
        network.absorb(&receipts);
    }
    if network.failed > 0 || network.live_files() != per_block as u64 * shape.cycle_blocks {
        return Err(format!(
            "ingest_mix prefill: {} of {} ops failed, {} files live",
            network.failed,
            network.attempted,
            network.live_files()
        ));
    }
    let _ = engine.state_root();
    engine.take_events();
    engine.checkpoint();
    Ok(Ready {
        shape: shape.clone(),
        plan,
        engine,
        store,
        network,
    })
}

impl Prepared for Ready {
    fn fingerprint(&self) -> String {
        self.engine.state_root().to_hex()
    }

    fn measure(self: Box<Self>, tracer: &mut Tracer) -> Result<Pass, String> {
        let Ready {
            shape,
            plan,
            mut engine,
            store,
            mut network,
        } = *self;
        let blocks = (plan.seconds * shape.blocks_per_second).max(1);
        let target_live = network.live_files();
        let stats_before = engine.stats();
        let store_before = store.counts();
        engine.reset_phase_times();
        network.attempted = 0;
        network.failed = 0;
        let mut steps_ms = Vec::with_capacity(blocks as usize);
        let mut live_range = (target_live, target_live);
        let mut adds_committed = 0u64;

        let started = Instant::now();
        for block in 0..blocks {
            tracer.set_step(block);
            let open = tracer.enter("gen");
            let mut ops = network.next_block(&engine, shape.adds, shape.gets, shape.discards, true);
            let advance = Op::AdvanceTo {
                target: engine.now() + BLOCK_TICKS,
            };
            tracer.exit(open, ops.len() as u64 + 1);

            let step = Instant::now();
            let receipts = if tracer.enabled() {
                // Traced: the advance goes in as its own `apply`, so the
                // ingest and advance spans separate. Same ops, same order —
                // the roots must match the untraced pass.
                let n = ops.len() as u64;
                let open = tracer.enter("engine.apply_batch");
                let receipts = apply_counted(
                    &mut engine,
                    ops,
                    &mut network.attempted,
                    &mut network.failed,
                );
                tracer.exit(open, n);
                network.attempted += 1;
                let open = tracer.enter("engine.advance");
                if engine.apply(advance).is_err() {
                    network.failed += 1;
                }
                tracer.exit(open, 1);
                receipts
            } else {
                ops.push(advance);
                apply_counted(
                    &mut engine,
                    ops,
                    &mut network.attempted,
                    &mut network.failed,
                )
            };
            let open = tracer.enter("engine.state_root");
            std::hint::black_box(engine.state_root());
            tracer.exit(open, 1);
            steps_ms.push(step.elapsed().as_secs_f64() * 1e3);

            network.absorb(&receipts);
            adds_committed += network.unconfirmed.len() as u64;
            if (block + 1) % shape.checkpoint_every == 0 {
                let open = tracer.enter("engine.take_events");
                let events = engine.take_events();
                tracer.exit(open, events.len() as u64);
                let open = tracer.enter("engine.checkpoint");
                engine.checkpoint();
                tracer.exit(open, 1);
            }
            // Files between add and confirm count as live too.
            let live = network.live_files() + network.unconfirmed.len() as u64;
            live_range = (live_range.0.min(live), live_range.1.max(live));
        }
        let wall_s = started.elapsed().as_secs_f64();

        // Health gates: the numbers must describe a working network.
        let slack = target_live / 20;
        if live_range.0 + slack < target_live || live_range.1 > target_live + slack {
            return Err(format!(
                "ingest_mix: live files ranged {live_range:?}, outside ±5 % of {target_live}"
            ));
        }
        if network.failed * 20 > network.attempted {
            return Err(format!(
                "ingest_mix: {} of {} ops failed (> 5 %)",
                network.failed, network.attempted
            ));
        }
        let stats = engine.stats();
        if stats.punishments > stats_before.punishments || stats.sectors_corrupted > 0 {
            return Err(format!(
                "ingest_mix: honest providers were punished ({} punishments, {} sectors corrupted)",
                stats.punishments - stats_before.punishments,
                stats.sectors_corrupted
            ));
        }
        // The model and the engine agree on which files are live.
        let engine_live = engine
            .file_ids()
            .into_iter()
            .filter(|&id| {
                engine
                    .file(id)
                    .is_some_and(|f| f.state != FileState::Discarded)
            })
            .count() as u64;
        let model_live = network.live_files() + network.unconfirmed.len() as u64;
        if engine_live != model_live {
            return Err(format!(
                "ingest_mix: engine holds {engine_live} live files, the model {model_live}"
            ));
        }

        let given = engine_given(&engine, &stats_before, &store, &store_before, engine_live);
        let audited = stats.proofs_audited - stats_before.proofs_audited;
        let accepted = stats.proofs_accepted - stats_before.proofs_accepted;
        let files_audited = audited / u64::from(K);
        let files_total = engine.state_header().files_len;
        let replay = ReplayCounts {
            pending_tasks: engine.pending_task_count() as u64,
            deadlines: shape.cycle_blocks,
            pop_steps: blocks,
            tasks_per_pop: (files_audited + adds_committed) / blocks,
            sampler_draws: adds_committed * u64::from(K),
            // Files, their replica rows, and the sector and DRep rows.
            map_keys: files_total * u64::from(1 + K) + 2 * SECTORS,
            commits: blocks,
            // Confirms and proofs dirty one row each, an add its file and
            // rows, an audited or discarded file its descriptor.
            dirty_per_commit: (accepted
                + adds_committed * u64::from(1 + 2 * K)
                + files_audited
                + blocks * shape.discards as u64)
                / blocks,
            path_walks: audited + accepted,
            path_len: u64::from(AUDIT_PATH_LEN),
            mempool_txs: 0,
        };
        Ok(Pass {
            wall_s,
            ops_per_s: network.attempted as f64 / wall_s,
            steps_ms,
            attempted: network.attempted,
            failed: network.failed,
            fingerprint: format!(
                "state={} audit={} head={} ops={} failed={}",
                engine.state_root().to_hex(),
                engine.audit_root().to_hex(),
                engine.chain().head_hash().to_hex(),
                network.attempted,
                network.failed
            ),
            home: super::Given::new(),
            given,
            replay,
            engine_cell: (1, 1),
            store_backend: store.backend_name(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_crypto::sha256;

    fn small() -> Shape {
        Shape {
            files: 400,
            cycle_blocks: 20,
            adds: 4,
            gets: 4,
            discards: 4,
            blocks_per_second: 30,
            checkpoint_every: 8,
        }
    }

    /// Digest of the op stream a seed generates, block by block.
    fn op_stream_digest(seed: u64) -> (String, String) {
        let plan = Plan { seed, seconds: 1 };
        let ready = setup(&small(), plan, false).expect("prefill");
        let Ready {
            mut engine,
            mut network,
            ..
        } = ready;
        let mut text = String::new();
        for _ in 0..30 {
            let mut ops = network.next_block(&engine, 4, 4, 4, true);
            ops.push(Op::AdvanceTo {
                target: engine.now() + BLOCK_TICKS,
            });
            text.push_str(&format!("{ops:?}\n"));
            let (mut a, mut f) = (0, 0);
            let receipts = apply_counted(&mut engine, ops, &mut a, &mut f);
            assert_eq!(f, 0, "the generator emits no failing op");
            network.absorb(&receipts);
        }
        (
            sha256(text.as_bytes()).to_hex(),
            engine.state_root().to_hex(),
        )
    }

    #[test]
    fn same_seed_generates_the_same_ops_and_root() {
        assert_eq!(op_stream_digest(7), op_stream_digest(7));
    }

    #[test]
    fn different_seeds_generate_different_ops() {
        assert_ne!(op_stream_digest(7).0, op_stream_digest(8).0);
    }

    #[test]
    fn traced_and_untraced_passes_agree_and_stay_healthy() {
        let plan = Plan {
            seed: 3,
            seconds: 2,
        };
        let untraced = Box::new(setup(&small(), plan, false).unwrap())
            .measure(&mut Tracer::new(false))
            .expect("healthy run");
        let mut tracer = Tracer::new(true);
        let traced = Box::new(setup(&small(), plan, true).unwrap())
            .measure(&mut tracer)
            .expect("healthy run");
        assert_eq!(untraced.fingerprint, traced.fingerprint);
        assert_eq!(untraced.failed, 0);
        assert_eq!(untraced.steps_ms.len(), 60);
        assert_eq!(tracer.calls("engine.advance"), 60);
        assert_eq!(
            tracer.count("engine.apply_batch") + tracer.calls("engine.advance"),
            traced.attempted
        );
    }
}
