//! `state_sync`: joining from a root, and reading at one.
//!
//! One engine (1 shard × 1 thread) on a `DiskBlockstore`, filled with the
//! same 100 000-file state as `audit_cycle`. Each measured round the
//! server mutates (adds + confirms, discards, one block-sealing advance), follower A
//! restores the previous full snapshot and replays the op-log suffix to
//! the live root, the server checkpoints and saves a full and a delta
//! snapshot, follower B applies the delta to the previous state, and a
//! reader pins the state, looks up random files and builds and verifies
//! inclusion proofs. The same `fi-store` / `statemap` layer as
//! `ingest_mix`, used for reads and rebuilds instead of writes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fi_core::engine::{Engine, StateRoots, StateView};
use fi_core::ops::{Op, Receipt};
use fi_core::types::FileId;
use fi_crypto::DetRng;

use super::{
    apply_counted, batch_fill, confirms_for, engine_given, file_add, out_dir, BatchFill, Given,
    Pass, Plan, Prepared, ReplayCounts, CLIENT,
};
use crate::stats::median;
use crate::store::CountingStore;
use crate::trace::Tracer;

#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    pub files: u64,
    /// Files added (and confirmed) and files discarded per round.
    pub adds: u64,
    pub discards: u64,
    /// Pinned `try_file` lookups and proofs built + verified per round.
    pub reads: u64,
    pub proofs: u64,
    /// Measured rounds per ten requested seconds (≈1.5 s a round on the
    /// 2-core container).
    pub rounds_per_ten_seconds: u64,
}

impl Default for Shape {
    fn default() -> Self {
        Shape {
            files: 100_000,
            adds: 1_000,
            discards: 500,
            reads: 20_000,
            proofs: 2_000,
            rounds_per_ten_seconds: 6,
        }
    }
}

pub struct Ready {
    shape: Shape,
    plan: Plan,
    fill: BatchFill,
    live: Vec<FileId>,
    /// The snapshot and roots followers already hold.
    prev_full: Vec<u8>,
    prev_roots: StateRoots,
}

/// Distinguishes the logs of the several set-ups one process makes.
static LOGS_OPENED: AtomicU64 = AtomicU64::new(0);

pub fn setup(shape: &Shape, plan: Plan, timed_store: bool) -> Result<Ready, String> {
    let log = out_dir().join("tmp").join(format!(
        "state-sync-{}-{}.log",
        std::process::id(),
        LOGS_OPENED.fetch_add(1, Ordering::Relaxed)
    ));
    let store = CountingStore::disk(log, timed_store).map_err(|e| format!("disk store: {e}"))?;
    let rounds = rounds(shape, plan);
    let mut fill = batch_fill(shape.files, rounds * shape.adds, 1, 1, plan.seed, store)?;
    let live = fill.engine.file_ids();
    fill.engine.take_events();
    fill.engine.checkpoint();
    let prev_roots = fill.engine.state_roots();
    let prev_full = fill.engine.snapshot_save();
    Ok(Ready {
        shape: shape.clone(),
        plan,
        fill,
        live,
        prev_full,
        prev_roots,
    })
}

fn rounds(shape: &Shape, plan: Plan) -> u64 {
    (plan.seconds * shape.rounds_per_ten_seconds / 10).max(1)
}

impl Prepared for Ready {
    fn fingerprint(&self) -> String {
        self.prev_roots.state_root.to_hex()
    }

    fn measure(self: Box<Self>, tracer: &mut Tracer) -> Result<Pass, String> {
        let Ready {
            shape,
            plan,
            mut fill,
            mut live,
            mut prev_full,
            mut prev_roots,
        } = *self;
        let rounds = rounds(&shape, plan);
        let store = Arc::clone(&fill.store);
        let provider = fill.provider;
        let min_value = fill.engine.params().min_value;
        let mut rng = DetRng::from_seed_label(plan.seed, "benchmark/state_sync");
        let stats_before = fill.engine.stats();
        let store_before = store.counts();
        fill.engine.reset_phase_times();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut steps_ms = Vec::new();
        let (mut full_s, mut delta_s, mut save_ms) = (Vec::new(), Vec::new(), Vec::new());
        let (mut read_ops, mut read_s) = (0u64, 0f64);
        let (mut full_bytes, mut delta_bytes) = (0usize, 0usize);

        let started = Instant::now();
        for round in 0..rounds {
            tracer.set_step(round);
            let step = Instant::now();
            let engine = &mut fill.engine;

            // Server: one block of adds, one of confirms + discards + the
            // advance that finalises the placements.
            let open = tracer.enter("gen");
            let adds: Vec<Op> = (0..shape.adds)
                .map(|i| file_add(plan.seed, fill.next_counter + i, 1, min_value))
                .collect();
            fill.next_counter += shape.adds;
            tracer.exit(open, shape.adds);
            let open = tracer.enter("engine.apply_batch");
            let receipts = apply_counted(engine, adds, &mut attempted, &mut failed);
            tracer.exit(open, shape.adds);
            let open = tracer.enter("gen");
            let mut ops = Vec::new();
            for receipt in receipts.into_iter().flatten() {
                if let Receipt::FileAdded { file, .. } = receipt {
                    ops.extend(confirms_for(engine, file, |_| provider));
                    live.push(file);
                }
            }
            for _ in 0..shape.discards {
                let file = live.swap_remove(rng.index(live.len()));
                ops.push(Op::FileDiscard {
                    caller: CLIENT,
                    file,
                });
            }
            ops.push(Op::AdvanceTo {
                target: engine.now() + engine.params().block_interval,
            });
            let n = ops.len() as u64;
            tracer.exit(open, n);
            let open = tracer.enter("engine.apply_batch");
            apply_counted(engine, ops, &mut attempted, &mut failed);
            tracer.exit(open, n);
            let open = tracer.enter("engine.state_root");
            let live_root = engine.state_root();
            tracer.exit(open, 1);

            // Follower A: the previous full snapshot plus the op-log
            // suffix since its checkpoint.
            let suffix = engine.op_log();
            let checkpoint = engine
                .last_checkpoint()
                .ok_or("state_sync: the server lost its checkpoint")?;
            attempted += 2;
            let sync = Instant::now();
            let outer = tracer.enter("sync.full");
            let open = tracer.enter("snapshot.restore");
            let base = Engine::snapshot_restore(&prev_full)
                .map_err(|e| format!("state_sync: full restore failed: {e}"))?;
            tracer.exit(open, prev_full.len() as u64);
            let open = tracer.enter("engine.replay_from");
            let follower_a = Engine::replay_from(&base, checkpoint, suffix)
                .map_err(|e| format!("state_sync: replay_from failed: {e}"))?;
            tracer.exit(open, suffix.len() as u64);
            let root_a = follower_a.state_root();
            tracer.exit(outer, 1);
            full_s.push(sync.elapsed().as_secs_f64());
            let open = tracer.enter("harness.drop");
            drop(follower_a);
            tracer.exit(open, 1);
            if root_a != live_root {
                return Err(format!(
                    "state_sync: round {round}: restore + replay reached {}, live root is {}",
                    root_a.to_hex(),
                    live_root.to_hex()
                ));
            }

            // Server: checkpoint + full snapshot (this stalls a serving
            // validator), then the delta against what followers hold.
            let save = Instant::now();
            let outer = tracer.enter("snapshot.save");
            let open = tracer.enter("engine.checkpoint");
            engine.checkpoint();
            tracer.exit(open, 1);
            let full = engine.snapshot_save();
            tracer.exit(outer, full.len() as u64);
            save_ms.push(save.elapsed().as_secs_f64() * 1e3);
            attempted += 1;
            let open = tracer.enter("snapshot.delta_save");
            let delta = engine
                .snapshot_delta(&prev_roots)
                .map_err(|e| format!("state_sync: delta save failed: {e}"))?;
            tracer.exit(open, delta.len() as u64);

            // Follower B: already at the previous state, applies the delta.
            attempted += 1;
            let sync = Instant::now();
            let outer = tracer.enter("sync.delta");
            let open = tracer.enter("snapshot.delta_restore");
            let follower_b = Engine::snapshot_restore_delta(&delta, &base)
                .map_err(|e| format!("state_sync: delta restore failed: {e}"))?;
            tracer.exit(open, delta.len() as u64);
            let root_b = follower_b.state_root();
            tracer.exit(outer, 1);
            delta_s.push(sync.elapsed().as_secs_f64());
            let open = tracer.enter("harness.drop");
            drop((follower_b, base));
            tracer.exit(open, 2);
            if root_b != live_root {
                return Err(format!(
                    "state_sync: round {round}: delta restore reached {}, live root is {}",
                    root_b.to_hex(),
                    live_root.to_hex()
                ));
            }

            // Reader: pinned lookups, then proofs built and verified.
            let reading = Instant::now();
            let open = tracer.enter("view.pin_state");
            let pinned = engine.pin_state();
            tracer.exit(open, 1);
            let open = tracer.enter("view.try_file");
            for _ in 0..shape.reads {
                let file = live[rng.index(live.len())];
                match pinned.try_file(file) {
                    Ok(Some(descriptor)) if descriptor.id == file => {}
                    other => {
                        return Err(format!(
                            "state_sync: pinned read of {file:?} returned {other:?}"
                        ))
                    }
                }
            }
            tracer.exit(open, shape.reads);
            let open = tracer.enter("view.prove_file");
            let mut proofs = Vec::with_capacity(shape.proofs as usize);
            for _ in 0..shape.proofs {
                let file = live[rng.index(live.len())];
                proofs.push(
                    engine
                        .prove_file(file)
                        .map_err(|e| format!("state_sync: prove_file({file:?}) failed: {e}"))?,
                );
            }
            tracer.exit(open, shape.proofs);
            let open = tracer.enter("proof.verify");
            for proof in &proofs {
                let proven = proof
                    .verify(live_root)
                    .map_err(|e| format!("state_sync: a StateProof did not verify: {e}"))?;
                if proven.id != proof.file {
                    return Err("state_sync: a StateProof proved the wrong file".into());
                }
            }
            tracer.exit(open, shape.proofs);
            read_s += reading.elapsed().as_secs_f64();
            read_ops += shape.reads + shape.proofs;
            attempted += shape.reads + shape.proofs;

            full_bytes = full.len();
            delta_bytes = delta.len();
            let open = tracer.enter("harness.drop");
            drop((proofs, pinned, delta));
            prev_full = full;
            tracer.exit(open, 1);
            let open = tracer.enter("engine.state_root");
            prev_roots = engine.state_roots();
            tracer.exit(open, 1);
            steps_ms.push(step.elapsed().as_secs_f64() * 1e3);
        }
        let wall_s = started.elapsed().as_secs_f64();

        if failed > 0 {
            return Err(format!("state_sync: {failed} of {attempted} ops failed"));
        }
        let engine = &fill.engine;
        let live_files = live.len() as u64;
        let home = Given::from([
            ("sync_full_s", median(&full_s)),
            ("sync_delta_s", median(&delta_s)),
            ("snapshot_save_ms", median(&save_ms)),
            (
                "snapshot_bytes_per_file",
                full_bytes as f64 / engine.state_header().files_len as f64,
            ),
            (
                "delta_over_full_bytes",
                delta_bytes as f64 / full_bytes as f64,
            ),
        ]);
        let stats = engine.stats();
        let audited = stats.proofs_audited - stats_before.proofs_audited;
        let accepted = stats.proofs_accepted - stats_before.proofs_accepted;
        let replay = ReplayCounts {
            // Only a round's `Auto_CheckAlloc`s come due; the 100k audit
            // tasks sit a proof cycle away and never fire here.
            pending_tasks: shape.adds,
            deadlines: 1,
            pop_steps: rounds,
            tasks_per_pop: shape.adds,
            sampler_draws: rounds * shape.adds,
            map_keys: 2 * engine.state_header().files_len + 128,
            commits: rounds,
            dirty_per_commit: 3 * shape.adds + shape.discards,
            path_walks: audited + accepted,
            path_len: u64::from(engine.params().audit_path_len),
            mempool_txs: 0,
        };
        Ok(Pass {
            wall_s,
            ops_per_s: read_ops as f64 / read_s,
            steps_ms,
            attempted,
            failed,
            fingerprint: format!(
                "state={} audit={} head={} ops={attempted} failed={failed} full={full_bytes} delta={delta_bytes}",
                engine.state_root().to_hex(),
                engine.audit_root().to_hex(),
                engine.chain().head_hash().to_hex(),
            ),
            home,
            given: engine_given(engine, &stats_before, &store, &store_before, live_files),
            replay,
            engine_cell: (1, 1),
            store_backend: store.backend_name(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_rounds_sync_to_the_live_root_and_repeat_exactly() {
        let shape = Shape {
            files: 2_000,
            adds: 50,
            discards: 20,
            reads: 200,
            proofs: 40,
            rounds_per_ten_seconds: 10,
        };
        let plan = Plan {
            seed: 9,
            seconds: 3,
        };
        let run = |traced: bool| {
            let mut tracer = Tracer::new(traced);
            let pass = Box::new(setup(&shape, plan, traced).unwrap())
                .measure(&mut tracer)
                .expect("every follower reaches the live root");
            (pass, tracer)
        };
        let (untraced, _) = run(false);
        let (traced, tracer) = run(true);
        assert_eq!(untraced.fingerprint, traced.fingerprint);
        assert_eq!(untraced.steps_ms.len(), 3);
        assert_eq!(untraced.failed, 0);
        assert!(untraced.home["delta_over_full_bytes"] < 1.0);
        assert!(untraced.home["sync_full_s"] > 0.0 && untraced.home["sync_delta_s"] > 0.0);
        assert_eq!(tracer.count("view.try_file"), 600);
        assert_eq!(tracer.calls("snapshot.delta_restore"), 3);
        assert!(
            traced.given["store.get_calls"] > 0.0,
            "reads go through the disk store"
        );
        assert_eq!(untraced.store_backend, "disk");
    }
}
