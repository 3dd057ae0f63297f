//! `audit_cycle`: the validator-facing steady state at 100 000 files.
//!
//! One engine (4 shards × 2 ingest threads, memory store, `k = 1`,
//! `audit_path_len` 64) whose files were all added at time 0, so each
//! proof cycle has one bucket of 100 000 audit tasks. Per measured cycle
//! the provider's 100 000 `File_Prove`s arrive as `apply_batch` blocks of
//! 4 096 ops, then one `AdvanceTo(+cycle)` audits every replica. The only
//! workload where `shards > 1` and the worker pool run.

use std::sync::Arc;
use std::time::Instant;

use fi_core::engine::Engine;
use fi_core::ops::Op;
use fi_sim::harness::held_replica_candidates;

use super::{
    apply_counted, batch_fill, engine_given, BatchFill, Pass, Plan, Prepared, ReplayCounts,
    BATCH_BLOCK_OPS, BATCH_CYCLE,
};
use crate::store::CountingStore;
use crate::trace::Tracer;

#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    pub files: u64,
    /// Measured proof cycles per ten requested seconds (≈1.8 s a cycle on
    /// the 2-core container).
    pub cycles_per_ten_seconds: u64,
}

impl Default for Shape {
    fn default() -> Self {
        Shape {
            files: 100_000,
            cycles_per_ten_seconds: 5,
        }
    }
}

/// The engine cell: the widest the 2-core container can feed.
const SHARDS: usize = 4;
const INGEST_THREADS: usize = 2;

pub struct Ready {
    shape: Shape,
    plan: Plan,
    fill: BatchFill,
}

pub fn setup(shape: &Shape, plan: Plan, timed_store: bool) -> Result<Ready, String> {
    let mut fill = batch_fill(
        shape.files,
        0,
        SHARDS,
        INGEST_THREADS,
        plan.seed,
        CountingStore::memory(timed_store),
    )?;
    let _ = fill.engine.state_root();
    fill.engine.take_events();
    fill.engine.checkpoint();
    Ok(Ready {
        shape: shape.clone(),
        plan,
        fill,
    })
}

/// One `File_Prove` per held replica, in file-id order.
fn proofs_due(engine: &Engine, fill: &BatchFill) -> Vec<Op> {
    held_replica_candidates(engine)
        .into_iter()
        .map(|(file, index, sector)| Op::FileProve {
            caller: fill.provider,
            file,
            index,
            sector,
        })
        .collect()
}

impl Prepared for Ready {
    fn fingerprint(&self) -> String {
        self.fill.engine.state_root().to_hex()
    }

    fn measure(self: Box<Self>, tracer: &mut Tracer) -> Result<Pass, String> {
        let Ready {
            shape,
            plan,
            mut fill,
        } = *self;
        let cycles = (plan.seconds * shape.cycles_per_ten_seconds / 10).max(1);
        let store = Arc::clone(&fill.store);
        let stats_before = fill.engine.stats();
        let store_before = store.counts();
        fill.engine.reset_phase_times();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut steps_ms = Vec::new();

        let started = Instant::now();
        let mut blocks = 0u64;
        for cycle in 0..cycles {
            tracer.set_step(cycle);
            // A step is one whole audit round: the cycle's proofs in, every
            // replica audited, the root out.
            let step = Instant::now();
            let open = tracer.enter("gen");
            let proofs = proofs_due(&fill.engine, &fill);
            tracer.exit(open, proofs.len() as u64);

            for block in proofs.chunks(BATCH_BLOCK_OPS) {
                blocks += 1;
                let open = tracer.enter("engine.apply_batch");
                apply_counted(
                    &mut fill.engine,
                    block.to_vec(),
                    &mut attempted,
                    &mut failed,
                );
                tracer.exit(open, block.len() as u64);
                let open = tracer.enter("engine.state_root");
                std::hint::black_box(fill.engine.state_root());
                tracer.exit(open, 1);
            }

            let audited_before = fill.engine.stats().proofs_audited;
            blocks += 1;
            let open = tracer.enter("engine.advance");
            attempted += 1;
            let advance = Op::AdvanceTo {
                target: fill.engine.now() + BATCH_CYCLE,
            };
            if fill.engine.apply(advance).is_err() {
                failed += 1;
            }
            tracer.exit(open, 1);
            let open = tracer.enter("engine.state_root");
            std::hint::black_box(fill.engine.state_root());
            tracer.exit(open, 1);
            steps_ms.push(step.elapsed().as_secs_f64() * 1e3);

            let audited = fill.engine.stats().proofs_audited - audited_before;
            if audited != shape.files {
                return Err(format!(
                    "audit_cycle: cycle {cycle} audited {audited} replicas, expected {}",
                    shape.files
                ));
            }
            // A validator truncates its op log once a cycle.
            let open = tracer.enter("engine.take_events");
            let events = fill.engine.take_events();
            tracer.exit(open, events.len() as u64);
            let open = tracer.enter("engine.checkpoint");
            fill.engine.checkpoint();
            tracer.exit(open, 1);
        }
        let wall_s = started.elapsed().as_secs_f64();

        let engine = &fill.engine;
        let stats = engine.stats();
        if failed > 0 || stats.punishments > 0 || stats.sectors_corrupted > 0 {
            return Err(format!(
                "audit_cycle: {failed} of {attempted} ops failed, {} punishments, {} sectors corrupted",
                stats.punishments, stats.sectors_corrupted
            ));
        }
        let audited = stats.proofs_audited - stats_before.proofs_audited;
        let accepted = stats.proofs_accepted - stats_before.proofs_accepted;
        let path_len = u64::from(engine.params().audit_path_len);
        let replay = ReplayCounts {
            pending_tasks: engine.pending_task_count() as u64,
            deadlines: 1,
            pop_steps: cycles,
            tasks_per_pop: shape.files,
            sampler_draws: 0,
            map_keys: 2 * shape.files + 128,
            // A commit per proof block (its replica rows) and one per
            // advance (every descriptor's countdown).
            commits: blocks,
            dirty_per_commit: (accepted + audited) / blocks,
            path_walks: audited + accepted,
            path_len,
            mempool_txs: 0,
        };
        Ok(Pass {
            wall_s,
            ops_per_s: audited as f64 / wall_s,
            steps_ms,
            attempted,
            failed,
            fingerprint: format!(
                "state={} audit={} head={} ops={attempted} failed={failed}",
                engine.state_root().to_hex(),
                engine.audit_root().to_hex(),
                engine.chain().head_hash().to_hex(),
            ),
            home: super::Given::new(),
            given: engine_given(engine, &stats_before, &store, &store_before, shape.files),
            replay,
            engine_cell: (SHARDS, INGEST_THREADS),
            store_backend: store.backend_name(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cycles_audit_every_replica_and_repeat_exactly() {
        let shape = Shape {
            files: 3_000,
            cycles_per_ten_seconds: 10,
        };
        let plan = Plan {
            seed: 5,
            seconds: 2,
        };
        let run = |traced: bool| {
            let mut tracer = Tracer::new(traced);
            let pass = Box::new(setup(&shape, plan, traced).unwrap())
                .measure(&mut tracer)
                .expect("healthy cycles");
            (pass, tracer)
        };
        let (untraced, _) = run(false);
        let (traced, tracer) = run(true);
        assert_eq!(untraced.fingerprint, traced.fingerprint);
        assert_eq!(untraced.failed, 0);
        // Two cycles of one 3 000-op proof block plus one advance each.
        assert_eq!(untraced.steps_ms.len(), 2);
        assert_eq!(untraced.attempted, 2 * 3_001);
        assert_eq!(tracer.count("engine.apply_batch"), 6_000);
        assert_eq!(traced.given["engine.stats.proofs_audited"], 6_000.0);
        assert_eq!(traced.replay.path_walks, 12_000);
    }
}
