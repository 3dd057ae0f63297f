//! `node_cluster`: everything above `Engine`, under faults.
//!
//! Five validators on mixed replay modes plus the chain-watching client
//! driver in one simulated world: validator↔validator links lose 5 % of
//! messages, client links are lossless, the slot leader crashes every 120
//! slots for 2 slots, a two-validator minority is partitioned off once and
//! healed, and a cold joiner syncs from a snapshot two thirds in. A run
//! is three such clusters, seeded differently, one after the other. Each
//! world is stepped one slot at a time so per-slot wall time is visible;
//! a step of the latency metrics is one 20-slot proof-sweep period.
//!
//! `fi-node` is configured through its public configuration only; see the
//! README for why each value differs from `WorkloadConfig::default()`.

use std::time::Instant;

use fi_core::engine::Engine;
use fi_core::ops::Op;
use fi_crypto::{DetRng, Hash256};
use fi_net::link::LinkModel;
use fi_net::world::World;
use fi_node::chaos::{digest_chaos, FaultSchedule};
use fi_node::{
    build_cluster, cluster_for_spec, cluster_horizon, schedule_fault_script, ClusterConfig,
    ClusterReports, NodeMsg,
};
use fi_sim::robustness::NetworkRobustnessSpec;

use super::{Given, Pass, Plan, Prepared, ReplayCounts};
use crate::trace::Tracer;

#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// Independent clusters run one after the other. What a cluster costs
    /// depends on which leaders its seed crashes and how the forks fall;
    /// three clusters per run average a good part of that out.
    pub clusters: u64,
    /// Slots each cluster runs during set-up, before its first measured
    /// slot.
    pub warm_slots: u64,
    /// Measured slots per cluster per requested second (≈6 ms a slot on
    /// the 2-core container, growing with height).
    pub slots_per_second: u64,
    /// Files each client adds, one every second slot.
    pub files: u64,
    pub crash_every: u64,
}

impl Default for Shape {
    fn default() -> Self {
        Shape {
            clusters: 3,
            warm_slots: 100,
            slots_per_second: 40,
            files: 120,
            crash_every: 120,
        }
    }
}

const VALIDATORS: usize = 5;
/// Message loss on validator↔validator links.
const LOSS: f64 = 0.05;
/// The providers sweep their proofs twice per 40-slot proof cycle.
const PROVE_EVERY_SLOTS: u64 = 20;

/// One built, fault-scheduled and warmed-up cluster.
struct Cluster {
    cfg: ClusterConfig,
    spec: NetworkRobustnessSpec,
    world: World<NodeMsg>,
    reports: ClusterReports,
    faults: FaultSchedule,
}

pub struct Ready {
    shape: Shape,
    clusters: Vec<Cluster>,
}

fn configure(shape: &Shape, seed: u64, seconds: u64) -> (ClusterConfig, NetworkRobustnessSpec) {
    let slots = shape.warm_slots + seconds * shape.slots_per_second;
    let spec = NetworkRobustnessSpec {
        validators: VALIDATORS,
        slots,
        loss: LOSS,
        crash_every: shape.crash_every,
        crash_for_slots: 2,
        partition_at_slot: slots / 3,
        heal_at_slot: slots / 3 + 20,
        minority: vec![3, 4],
        // No sector-fault injections: this workload measures the node
        // pipeline, not the §V insurance scenarios.
        fail_sectors_at_slot: 0,
        corrupt_sectors_at_slot: 0,
        repair_at_slot: 0,
    };
    let mut cfg = cluster_for_spec(seed, &spec);
    cfg.injections.clear();
    cfg.workload.lazy_providers.clear();
    // Links fast enough that a leader's block beats the first fallback
    // rank's skip timeout, so a slot normally has one block.
    cfg.link = LinkModel {
        base_latency: 2,
        ticks_per_byte: 0.0005,
        max_jitter: 2,
        loss: LOSS,
    };
    cfg.skip_timeout = 6;
    cfg.sync_every = 5;
    // Four proof cycles of 40 slots before a missing proof is punished,
    // eight before it corrupts the sector: one-shot tx forwarding over
    // lossy links stalls an account's nonce stream for tens of slots.
    cfg.params.avg_refresh = 1e9;
    cfg.params.proof_cycle = 400;
    cfg.params.proof_due = 1_600;
    cfg.params.proof_deadline = 3_200;
    cfg.params.delay_per_size = 100;
    cfg.params.tombstone_retention_blocks = 4;
    for (_, capacities) in &mut cfg.providers {
        for capacity in capacities {
            *capacity *= 16;
        }
    }
    cfg.workload.max_files = shape.files;
    cfg.workload.add_every_slots = 2;
    cfg.workload.prove_every_slots = PROVE_EVERY_SLOTS;
    cfg.record_op_log = true;
    cfg.cold_join_at = Some(slots * 2 / 3 * cfg.params.block_interval);
    (cfg, spec)
}

pub fn setup(shape: &Shape, plan: Plan) -> Result<Ready, String> {
    let mut seeds = DetRng::from_seed_label(plan.seed, "benchmark/node_cluster");
    let clusters = (0..shape.clusters)
        .map(|_| {
            let (cfg, spec) = configure(shape, seeds.next_u64(), plan.seconds);
            let (mut world, reports) = build_cluster(&cfg);
            let client = cfg.client_node();
            let lossless = LinkModel {
                loss: 0.0,
                ..cfg.link
            };
            for validator in 0..VALIDATORS {
                world.set_link_between(client, validator, lossless);
                // The joiner asks the next validator every 20 ticks until a
                // snapshot arrives. Every validator that serves one
                // truncates its op log (which the output checks replay) and
                // from then on broadcasts its blocks to the joiner. On these
                // lossless links the snapshot takes two or three requests'
                // time to arrive: enough broadcasters for the joiner to keep
                // up, and validators left with their whole log.
                if let Some(watcher) = cfg.watcher_node() {
                    world.set_link_between(watcher, validator, lossless);
                }
            }
            let faults = schedule_fault_script(&mut world, &cfg, &spec);
            world.run_until(shape.warm_slots * cfg.params.block_interval);
            Cluster {
                cfg,
                spec,
                world,
                reports,
                faults,
            }
        })
        .collect();
    Ok(Ready {
        shape: shape.clone(),
        clusters,
    })
}

fn hex(hash: Option<Hash256>) -> String {
    hash.map_or_else(|| "none".into(), |h| h.to_hex())
}

/// What one cluster's measured section came to.
struct Measured {
    wall_s: f64,
    slots_ms: Vec<f64>,
    /// Txs committed ok on the agreed chain after set-up, and since genesis.
    committed_measured: u64,
    committed: u64,
    submitted: u64,
    blocks: u64,
    recovery_max: u64,
    fingerprint: String,
    /// Counters of this cluster; summed over the clusters of a run.
    counts: Given,
}

impl Cluster {
    fn measure(self, shape: &Shape, index: u64, tracer: &mut Tracer) -> Result<Measured, String> {
        let Cluster {
            cfg,
            spec,
            mut world,
            reports,
            faults,
        } = self;
        let interval = cfg.params.block_interval;
        let horizon = cluster_horizon(&cfg);
        let warm_time = shape.warm_slots * interval;
        let warm_height = reports.validators[0].borrow().final_height;
        let sent_before = world.messages_sent();
        let mut slots_ms = Vec::new();

        let started = Instant::now();
        let mut slot = shape.warm_slots;
        while slot * interval < horizon {
            slot += 1;
            tracer.set_step(index * 1_000_000 + slot);
            let step = Instant::now();
            let open = tracer.enter("node.run");
            let events = world.run_until((slot * interval).min(horizon));
            tracer.exit(open, events);
            slots_ms.push(step.elapsed().as_secs_f64() * 1e3);
        }
        let wall_s = started.elapsed().as_secs_f64();

        // Output checks: one chain, every validator on it.
        let outcome = digest_chaos(&cfg, &spec, &world, &reports, &faults);
        if !outcome.converged {
            return Err("node_cluster: validators ended on different chains".into());
        }
        // The cold joiner must have synced a snapshot; whether it then kept
        // up is counted, not required, per cluster: in about one cluster in
        // fifty the branch it was served from is reorged away and it stays
        // at its join height (re-delivered known blocks keep resetting the
        // orphan streak that would make it re-join).
        let joiner_caught_up = match &reports.watcher {
            Some(watcher) => {
                let watcher = watcher.borrow();
                if watcher.joined_at_height.is_none() {
                    return Err("node_cluster: the cold joiner never synced a snapshot".into());
                }
                watcher.final_state_root == outcome.state_root
                    && watcher.final_height == outcome.height
            }
            None => false,
        };
        let recoveries: Vec<Option<u64>> = outcome
            .crash_recoveries
            .iter()
            .chain(&outcome.heal_recoveries)
            .map(|&(_, heights)| heights)
            .collect();
        let Some(recovery_max) = recoveries
            .iter()
            .copied()
            .collect::<Option<Vec<u64>>>()
            .map(|hs| hs.into_iter().max().unwrap_or(0))
        else {
            return Err(
                "node_cluster: a crashed or partitioned validator never reconverged".into(),
            );
        };

        // An independent replay of the agreed op log must land on the
        // agreed root; it also yields the final engine's counters.
        // (A validator that served the cold joiner checkpointed its log
        // away; the joiner asks validator 0 first, so look from the end.)
        let full_log = reports
            .validators
            .iter()
            .rev()
            .map(|r| r.borrow())
            .find(|r| r.snapshots_taken == 0)
            .ok_or("node_cluster: every validator truncated its op log serving joins")?;
        let replayed = Engine::replay(cfg.params.clone(), &full_log.final_op_log)
            .map_err(|e| format!("node_cluster: op-log replay: {e}"))?;
        if Some(replayed.state_root()) != outcome.state_root {
            return Err("node_cluster: replaying the agreed op log gives another root".into());
        }
        let stats = replayed.stats();
        let client = reports.client.borrow();
        let txs = |from: u64| {
            full_log
                .final_op_log
                .iter()
                .filter(move |r| r.at >= from && !matches!(r.op, Op::AdvanceTo { .. }))
        };
        let committed_measured = txs(warm_time).filter(|r| r.ok).count() as u64;
        let committed = txs(0)
            .filter(|r| r.ok && !matches!(r.op, Op::Fund { .. } | Op::SectorRegister { .. }))
            .count() as u64;
        let files_stored = txs(0)
            .filter(|r| r.ok && matches!(r.op, Op::FileAdd { .. }))
            .count() as u64;

        // Health gates: a working network, not a collapsing one.
        if stats.sectors_corrupted > 0 || stats.files_lost > 0 {
            return Err(format!(
                "node_cluster: {} sectors corrupted, {} files lost",
                stats.sectors_corrupted, stats.files_lost
            ));
        }
        if outcome.final_files * 5 < files_stored * 4 {
            return Err(format!(
                "node_cluster: {} of {files_stored} stored files are live at the end (< 80 %)",
                outcome.final_files
            ));
        }

        let blocks = outcome.height - warm_height;
        let quarter = slots_ms.len() / 4;
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let sum = |f: &dyn Fn(&fi_node::ValidatorReport) -> u64| -> f64 {
            reports
                .validators
                .iter()
                .map(|r| f(&r.borrow()))
                .sum::<u64>() as f64
        };
        let pool = full_log.final_mempool.clone().unwrap_or_default();
        let counts = Given::from([
            ("node.run.ms_per_slot_q1", mean(&slots_ms[..quarter])),
            (
                "node.run.ms_per_slot_q4",
                mean(&slots_ms[slots_ms.len() - quarter..]),
            ),
            ("mempool.admitted", pool.admitted as f64),
            ("mempool.rejected_nonce", pool.rejected_nonce as f64),
            ("mempool.rejected_duplicate", pool.rejected_duplicate as f64),
            ("mempool.selected", pool.selected as f64),
            ("validator.blocks_proposed", sum(&|r| r.blocks_proposed)),
            ("validator.reorgs", sum(&|r| r.reorgs)),
            ("validator.verify_failures", sum(&|r| r.verify_failures)),
            ("validator.restarts", sum(&|r| r.restarts)),
            ("validator.joins_served", sum(&|r| r.joins_served)),
            ("validator.snapshots_taken", sum(&|r| r.snapshots_taken)),
            (
                "validator.joiners_caught_up",
                f64::from(u8::from(joiner_caught_up)),
            ),
            ("client.txs_submitted", client.txs_submitted as f64),
            ("client.txs_given_up", client.txs_given_up as f64),
            ("node.final_files", outcome.final_files as f64),
            ("engine.stats.proofs_accepted", stats.proofs_accepted as f64),
            ("engine.stats.proofs_audited", stats.proofs_audited as f64),
            ("engine.stats.punishments", stats.punishments as f64),
            (
                "net.messages_sent",
                (world.messages_sent() - sent_before) as f64,
            ),
            ("net.messages_lost", world.messages_lost() as f64),
            ("net.fault_drops", world.fault_drops() as f64),
        ]);
        Ok(Measured {
            wall_s,
            slots_ms,
            committed_measured,
            committed,
            submitted: client.txs_submitted,
            blocks,
            recovery_max,
            fingerprint: format!(
                "height={} head={} state={} submitted={} committed={committed} recoveries={recoveries:?} joins={}",
                outcome.height,
                hex(outcome.head),
                hex(outcome.state_root),
                client.txs_submitted,
                sum(&|r| r.joins_served),
            ),
            counts,
        })
    }
}

impl Prepared for Ready {
    fn fingerprint(&self) -> String {
        self.clusters
            .iter()
            .map(|c| {
                let v0 = c.reports.validators[0].borrow();
                format!("height={} head={}", v0.final_height, hex(v0.final_head))
            })
            .collect::<Vec<_>>()
            .join(" | ")
    }

    fn measure(self: Box<Self>, tracer: &mut Tracer) -> Result<Pass, String> {
        let Ready { shape, clusters } = *self;
        let cell = clusters.first().map_or((1, 1), |c| {
            (c.cfg.params.shards, c.cfg.params.ingest_threads)
        });
        let measured = (0u64..)
            .zip(clusters)
            .map(|(index, cluster)| cluster.measure(&shape, index, tracer))
            .collect::<Result<Vec<Measured>, String>>()?;

        let total = |f: &dyn Fn(&Measured) -> u64| measured.iter().map(f).sum::<u64>();
        if measured
            .iter()
            .all(|m| m.counts["validator.joiners_caught_up"] == 0.0)
        {
            return Err("node_cluster: no cold joiner caught up with its cluster".into());
        }
        let wall_s: f64 = measured.iter().map(|m| m.wall_s).sum();
        let attempted = total(&|m| m.submitted);
        let failed = attempted.saturating_sub(total(&|m| m.committed));
        if failed * 4 > attempted {
            return Err(format!(
                "node_cluster: {failed} of {attempted} submitted txs never committed (> 25 %)"
            ));
        }
        // A step is one proof-sweep period of one cluster, so every step
        // carries exactly one sweep.
        let steps_ms: Vec<f64> = measured
            .iter()
            .flat_map(|m| m.slots_ms.chunks(PROVE_EVERY_SLOTS as usize))
            .map(|period| period.iter().sum())
            .collect();
        // Counters add up over the clusters; the two per-slot means are
        // averaged.
        let mut given = Given::new();
        for m in &measured {
            for (name, value) in &m.counts {
                *given.entry(name).or_insert(0.0) += value;
            }
        }
        for name in ["node.run.ms_per_slot_q1", "node.run.ms_per_slot_q4"] {
            if let Some(value) = given.get_mut(name) {
                *value /= measured.len().max(1) as f64;
            }
        }
        let blocks = total(&|m| m.blocks);
        given.insert(
            "net.messages_per_block",
            given["net.messages_sent"] / blocks.max(1) as f64,
        );
        let home = Given::from([
            ("blocks_per_s", blocks as f64 / wall_s),
            (
                "recovery_heights_max",
                measured.iter().map(|m| m.recovery_max).max().unwrap_or(0) as f64,
            ),
        ]);
        Ok(Pass {
            wall_s,
            ops_per_s: total(&|m| m.committed_measured) as f64 / wall_s,
            steps_ms,
            attempted,
            failed,
            fingerprint: measured
                .iter()
                .map(|m| m.fingerprint.as_str())
                .collect::<Vec<_>>()
                .join(" | "),
            home,
            replay: ReplayCounts {
                mempool_txs: given["mempool.admitted"] as u64,
                ..ReplayCounts::default()
            },
            given,
            engine_cell: cell,
            store_backend: "memory",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cluster_converges_and_repeats_exactly() {
        let shape = Shape {
            clusters: 2,
            warm_slots: 20,
            slots_per_second: 60,
            files: 12,
            crash_every: 50,
        };
        let plan = Plan {
            seed: 4,
            seconds: 3,
        };
        let run = || {
            Box::new(setup(&shape, plan).unwrap())
                .measure(&mut Tracer::new(false))
                .expect("one chain, healthy network")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.fingerprint, b.fingerprint);
        // Per cluster 180 measured slots plus the 40-slot drain, in
        // 20-slot steps.
        assert_eq!(a.steps_ms.len(), 22);
        assert!(a.home["blocks_per_s"] > 0.0);
        assert!(
            a.given["validator.restarts"] >= 6.0,
            "leaders crashed and came back"
        );
        assert!(
            a.given["validator.joins_served"] >= 2.0,
            "both cold joiners were served"
        );
        assert!(a.given["validator.joiners_caught_up"] >= 1.0);
        assert!(a.attempted > a.failed);
    }
}
