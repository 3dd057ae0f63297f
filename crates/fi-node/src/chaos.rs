//! Spec-driven chaos harness: turns a plain-data
//! [`NetworkRobustnessSpec`] into a running cluster with its fault
//! script scheduled, and digests the run into the recovery metrics the
//! acceptance gate checks (`tests/fault_recovery.rs` asserts on them).
//!
//! The §V fault model rides along as consensus-side injections:
//! `FailSector` (silent loss, discovered when the audit cycle hits the
//! proof deadline), `CorruptSector` (immediate detection, deposit
//! confiscated) and `ForceDiscard` + re-add repair — plus one *lazy*
//! provider whose proofs the workload withholds, so its sectors lapse
//! the honest way. The genesis capacity is sized so the script is
//! survivable: files must always find `k` distinct live sectors to
//! reschedule onto, or the scenario would measure extinction instead of
//! recovery.

use fi_chain::account::AccountId;
use fi_core::ops::Op;
use fi_core::types::{FileId, SectorId};
use fi_crypto::Hash256;
use fi_net::sim::SimTime;
use fi_net::world::World;

use crate::cluster::{
    build_cluster, cluster_horizon, genesis_engine, ClusterConfig, ClusterReports,
};
use crate::node::NodeMsg;

/// The fault script a networked robustness run executes. Times are in
/// slots; the harness converts via its block interval.
#[derive(Debug, Clone)]
pub struct NetworkRobustnessSpec {
    /// Validator count (the paper-level acceptance bar runs 5).
    pub validators: usize,
    /// Slots of block production.
    pub slots: u64,
    /// Per-message loss probability on every link.
    pub loss: f64,
    /// Crash the slot's scheduled leader every this many slots
    /// (0 disables crashes).
    pub crash_every: u64,
    /// Each crash lasts this many slots.
    pub crash_for_slots: u64,
    /// Cut the minority group off at this slot (0 disables the
    /// partition).
    pub partition_at_slot: u64,
    /// Heal the partition at this slot.
    pub heal_at_slot: u64,
    /// Validator indices on the minority side of the partition.
    pub minority: Vec<usize>,
    /// Inject mass `FailSector` faults at this slot.
    pub fail_sectors_at_slot: u64,
    /// Inject `CorruptSector` faults at this slot.
    pub corrupt_sectors_at_slot: u64,
    /// Inject the `ForceDiscard` + re-add repair at this slot.
    pub repair_at_slot: u64,
}

impl NetworkRobustnessSpec {
    /// The acceptance-bar script: 5 validators, 12% loss, a leader crash
    /// every `crash_every` slots, one partition/heal cycle, and the §V
    /// injections spread through the run.
    pub fn acceptance(slots: u64, crash_every: u64) -> Self {
        NetworkRobustnessSpec {
            validators: 5,
            slots,
            loss: 0.12,
            crash_every,
            crash_for_slots: 2,
            partition_at_slot: slots / 3,
            heal_at_slot: slots / 3 + slots / 6,
            minority: vec![3, 4],
            fail_sectors_at_slot: slots / 4,
            corrupt_sectors_at_slot: slots / 2,
            repair_at_slot: 2 * slots / 3,
        }
    }
}

/// Heights-to-reconvergence after a fault clears at virtual time
/// `event`: how many heights past its frozen head a node adopted before
/// it was demonstrably back on the canonical chain.
///
/// `heads` is the node's head-adoption log — `(time, height, hash)` per
/// fork-choice move, chronological; `canonical` is the final best chain
/// as `(height, hash)` pairs (every converged node reports the same
/// one). Let `h₀` be the node's head height at `event` (its last
/// adoption at or before that time). The node has *reconverged* at its
/// first adoption after `event` whose `(height, hash)` lies on
/// `canonical` with `height ≥ h₀`; the metric is that height minus
/// `h₀` — 0 means the frozen head was already canonical and nothing
/// newer existed yet. `None` means the log never shows reconvergence
/// (the acceptance gate fails on it).
pub fn heights_to_reconvergence(
    heads: &[(u64, u64, Hash256)],
    canonical: &[(u64, Hash256)],
    event: u64,
) -> Option<u64> {
    let canonical: std::collections::HashSet<&(u64, Hash256)> = canonical.iter().collect();
    let h0 = heads
        .iter()
        .take_while(|(t, _, _)| *t <= event)
        .last()
        .map(|(_, h, _)| *h)
        .unwrap_or(0);
    heads
        .iter()
        .filter(|(t, _, _)| *t >= event)
        .find(|(_, h, hash)| *h >= h0 && canonical.contains(&(*h, *hash)))
        .map(|(_, h, _)| h - h0)
}

/// Sectors owned by `account` at genesis, in deterministic id order
/// (the injection script addresses sectors through this).
pub fn sectors_of(cfg: &ClusterConfig, account: AccountId) -> Vec<SectorId> {
    let (_, sector_owner) = genesis_engine(&cfg.params, &cfg.providers, cfg.client);
    let mut sectors: Vec<SectorId> = sector_owner
        .iter()
        .filter(|(_, owner)| **owner == account)
        .map(|(sector, _)| *sector)
        .collect();
    sectors.sort();
    sectors
}

/// A 5-validator cluster configured from a [`NetworkRobustnessSpec`]:
/// the spec's loss rate, a lazy provider (702) whose
/// proofs the workload withholds, and the §V fault injections — mass
/// `FailSector` on provider 703, one `CorruptSector` on 700, and the
/// `ForceDiscard` repair of the two earliest workload files.
pub fn cluster_for_spec(seed: u64, spec: &NetworkRobustnessSpec) -> ClusterConfig {
    let mut cfg = ClusterConfig::small(seed, spec.slots);
    assert_eq!(spec.validators, 5, "the acceptance scenario runs 5");
    cfg.validators = spec.validators;
    // The client's replica view lags the chain by network latency, and
    // under compound faults a confirm can take several slots of failover
    // to commit, so the transfer window (`delay_per_size × file size`)
    // needs generous headroom or uploads fail spuriously.
    cfg.params.delay_per_size = 60;
    cfg.link = fi_net::link::LinkModel {
        base_latency: 5,
        ticks_per_byte: 0.001,
        max_jitter: 8,
        loss: spec.loss,
    };
    // Enough genesis capacity that the fault script is survivable: the
    // lazy provider's sectors get confiscated by the audit, the mass
    // failure kills 703's, and the corruption kills one of 700's.
    cfg.providers = vec![
        (AccountId(700), vec![640, 640, 640]),
        (AccountId(701), vec![1_280, 640]),
        (AccountId(702), vec![640, 640]),
        (AccountId(703), vec![640, 640, 640]),
        (AccountId(704), vec![1_280]),
    ];
    cfg.workload.lazy_providers = vec![AccountId(702)];

    let failed_sectors = sectors_of(&cfg, AccountId(703));
    let honest_sectors = sectors_of(&cfg, AccountId(700));
    assert!(!failed_sectors.is_empty() && !honest_sectors.is_empty());
    let mut injections: Vec<(u64, Op)> = Vec::new();
    for &sector in &failed_sectors {
        injections.push((spec.fail_sectors_at_slot, Op::FailSector { sector }));
    }
    injections.push((
        spec.corrupt_sectors_at_slot,
        Op::CorruptSector {
            sector: honest_sectors[0],
        },
    ));
    // Repair: the earliest workload files are force-discarded so the
    // client can re-add into the surviving capacity (workload file ids
    // allocate sequentially from 0, so these exist well before 2/3 run).
    for file in 0..2 {
        injections.push((spec.repair_at_slot, Op::ForceDiscard { file: FileId(file) }));
    }
    cfg.injections = injections;
    cfg
}

/// When the scheduled faults *clear* — the events recovery latency is
/// measured from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    /// `(crashed validator, restart time)` per scheduled leader crash.
    pub crash_clears: Vec<(usize, SimTime)>,
    /// When the partition heals, if one was scheduled.
    pub heal_at: Option<SimTime>,
}

/// Schedules the spec's crash and partition windows on a built world:
/// every `crash_every` slots the slot's scheduled leader crashes just
/// before its proposal timer fires, and the minority group is cut off
/// for the spec's partition window.
pub fn schedule_fault_script(
    world: &mut World<NodeMsg>,
    cfg: &ClusterConfig,
    spec: &NetworkRobustnessSpec,
) -> FaultSchedule {
    let interval = cfg.params.block_interval;
    let schedule = cfg.schedule();
    let mut crash_clears = Vec::new();
    if spec.crash_every > 0 {
        let mut slot = spec.crash_every;
        while slot < spec.slots {
            let leader = schedule.leader(slot, 0).expect("slot has a leader");
            let at = (slot * interval).saturating_sub(1);
            let until = at + spec.crash_for_slots * interval;
            world.schedule_crash(leader, at, until);
            crash_clears.push((leader, until));
            slot += spec.crash_every;
        }
    }
    let heal_at = if spec.partition_at_slot > 0 && spec.partition_at_slot < spec.heal_at_slot {
        let at = spec.partition_at_slot * interval;
        let until = spec.heal_at_slot * interval;
        world.schedule_partition(&spec.minority, at, until);
        Some(until)
    } else {
        None
    };
    FaultSchedule {
        crash_clears,
        heal_at,
    }
}

/// Everything a chaos run is judged on. Fully deterministic for a given
/// `(seed, spec)` — the determinism test compares two outcomes wholesale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosOutcome {
    /// Every validator ended bit-identical (height, head hash, state
    /// root, receipt root).
    pub converged: bool,
    /// Agreed final height (validator 0's, meaningful when `converged`).
    pub height: u64,
    /// Agreed final head hash.
    pub head: Option<Hash256>,
    /// Agreed final state root.
    pub state_root: Option<Hash256>,
    /// Per crash: `(validator, heights-to-reconvergence after its
    /// restart)` — `None` means its head log never rejoined the
    /// canonical chain (an acceptance failure).
    pub crash_recoveries: Vec<(usize, Option<u64>)>,
    /// Per minority validator: heights-to-reconvergence after the heal.
    pub heal_recoveries: Vec<(usize, Option<u64>)>,
    /// Crash/restart cycles the world executed.
    pub restarts: u64,
    /// Messages dropped by crash/partition windows (not link loss).
    pub fault_drops: u64,
    /// Messages dropped by link loss.
    pub messages_lost: u64,
    /// Fault injections in the script.
    pub injections_scripted: u64,
    /// Injection inclusions across all proposers (≥ scripted once every
    /// injection committed; losing siblings can push it higher).
    pub injections_included: u64,
    /// Live files at the final state — the workload survived the script.
    pub final_files: u64,
    /// Blocks proposed per validator (leadership actually rotated).
    pub blocks_proposed: Vec<u64>,
}

/// Runs the full scenario: build the cluster for the spec, schedule the
/// fault script, run to the drain horizon, digest the reports.
pub fn run_chaos(seed: u64, spec: &NetworkRobustnessSpec) -> ChaosOutcome {
    let cfg = cluster_for_spec(seed, spec);
    let (mut world, reports) = build_cluster(&cfg);
    let schedule = schedule_fault_script(&mut world, &cfg, spec);
    world.run_until(cluster_horizon(&cfg));
    digest_chaos(&cfg, spec, &world, &reports, &schedule)
}

/// Digests a finished run into a [`ChaosOutcome`] (exposed separately so
/// harnesses that build/schedule by hand can reuse the metric).
pub fn digest_chaos(
    cfg: &ClusterConfig,
    spec: &NetworkRobustnessSpec,
    world: &World<NodeMsg>,
    reports: &ClusterReports,
    schedule: &FaultSchedule,
) -> ChaosOutcome {
    let reference = reports.validators[0].borrow();
    let height = reference.final_height;
    let head = reference.final_head;
    let state_root = reference.final_state_root;
    let receipts = reference.final_receipt_root;
    let canonical = reference.final_chain.clone();
    let final_files = reference.final_files;
    drop(reference);
    let converged = reports.validators.iter().all(|r| {
        let r = r.borrow();
        r.final_height == height
            && r.final_head == head
            && r.final_state_root == state_root
            && r.final_receipt_root == receipts
    });

    let latency = |node: usize, event: SimTime| {
        let report = reports.validators[node].borrow();
        heights_to_reconvergence(&report.heads, &canonical, event)
    };
    let crash_recoveries = schedule
        .crash_clears
        .iter()
        .map(|&(node, until)| (node, latency(node, until)))
        .collect();
    let heal_recoveries = schedule
        .heal_at
        .map(|until| {
            spec.minority
                .iter()
                .map(|&node| (node, latency(node, until)))
                .collect()
        })
        .unwrap_or_default();

    ChaosOutcome {
        converged,
        height,
        head,
        state_root,
        crash_recoveries,
        heal_recoveries,
        restarts: world.restarts(),
        fault_drops: world.fault_drops(),
        messages_lost: world.messages_lost(),
        injections_scripted: cfg.injections.len() as u64,
        injections_included: reports
            .validators
            .iter()
            .map(|r| r.borrow().injections_included)
            .sum(),
        final_files,
        blocks_proposed: reports
            .validators
            .iter()
            .map(|r| r.borrow().blocks_proposed)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconvergence_counts_heights_past_the_frozen_head() {
        let h = |n: u64| fi_crypto::sha256(&n.to_be_bytes());
        // Canonical chain 1..=6; the node froze at height 2 (canonical),
        // came back at t=100, briefly adopted an off-chain block at
        // height 3, then rejoined the canonical chain at height 4.
        let canonical: Vec<(u64, Hash256)> = (1..=6).map(|i| (i, h(i))).collect();
        let heads = vec![
            (10, 1, h(1)),
            (20, 2, h(2)),
            (100, 3, h(99)), // stale branch, not canonical
            (110, 4, h(4)),
            (120, 5, h(5)),
        ];
        assert_eq!(heights_to_reconvergence(&heads, &canonical, 90), Some(2));
        // An event before any adoption measures from height 0.
        assert_eq!(heights_to_reconvergence(&heads, &canonical, 0), Some(1));
        // A node that never rejoins reports None.
        let lost = vec![(10, 1, h(1)), (100, 2, h(77))];
        assert_eq!(heights_to_reconvergence(&lost, &canonical, 50), None);
    }

    #[test]
    fn acceptance_spec_orders_its_fault_windows() {
        let spec = NetworkRobustnessSpec::acceptance(60, 8);
        assert_eq!(spec.validators, 5);
        assert!(spec.partition_at_slot < spec.heal_at_slot);
        assert!(spec.heal_at_slot < spec.slots);
        assert!(spec.fail_sectors_at_slot < spec.repair_at_slot);
        assert!(spec.minority.len() < spec.validators.div_ceil(2));
    }
}
