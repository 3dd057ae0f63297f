//! §V robustness scenarios re-driven through the networked pipeline:
//! lazy providers withholding proofs, mass `FailSector`/`CorruptSector`
//! injection, and `ForceDiscard` repair — all while the transport drops
//! 12% of messages, the scheduled leader crashes every K slots, and the
//! cluster suffers one partition/heal cycle.
//!
//! The acceptance bar: every surviving node ends bit-identical
//! (`state_root`, head hash, receipt root at the final height), and every
//! fault has a finite recovery latency — measured in heights past the
//! frozen head via [`fi_sim::robustness::heights_to_reconvergence`]. The
//! harness itself lives in `fi_node::chaos`.
//!
//! Knobs (the CI chaos matrix drives both):
//! - `FI_NODE_TEST_SEED` offsets every world seed.
//! - `FI_CHAOS_CRASH_EVERY` sets K, the leader-crash period in slots
//!   (default 6; `0` disables crashes).

use fi_crypto::Hash256;
use fi_node::{
    build_cluster, cluster_for_spec, cluster_horizon, run_chaos, schedule_fault_script,
    ClusterReports,
};
use fi_sim::robustness::{heights_to_reconvergence, NetworkRobustnessSpec};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(default)
}

/// Base seed, offset by the CI matrix's `FI_NODE_TEST_SEED`.
fn seed(base: u64) -> u64 {
    base + 1_000 * env_u64("FI_NODE_TEST_SEED", 0)
}

/// Leader-crash period in slots (0 disables crashes).
fn crash_every() -> u64 {
    env_u64("FI_CHAOS_CRASH_EVERY", 6)
}

/// Asserts every validator ended on one bit-identical chain, returning
/// the agreed `(height, head)`.
fn assert_converged(reports: &ClusterReports) -> (u64, Hash256) {
    let reference = reports.validators[0].borrow();
    let height = reference.final_height;
    let head = reference.final_head.expect("validator 0 has a head");
    let root = reference.final_state_root.expect("validator 0 finished");
    let receipts = reference.final_receipt_root;
    drop(reference);
    for (i, report) in reports.validators.iter().enumerate() {
        let report = report.borrow();
        assert_eq!(report.final_height, height, "validator {i} height");
        assert_eq!(report.final_head, Some(head), "validator {i} head hash");
        assert_eq!(
            report.final_state_root,
            Some(root),
            "validator {i} state root"
        );
        assert_eq!(
            report.final_receipt_root, receipts,
            "validator {i} receipt root"
        );
    }
    (height, head)
}

#[test]
fn five_node_acceptance_scenario_converges_under_compound_faults() {
    let slots = 120;
    let spec = NetworkRobustnessSpec::acceptance(slots, crash_every());
    let outcome = run_chaos(seed(0xFA17), &spec);

    assert!(outcome.converged, "survivors bit-identical: {outcome:?}");
    // Production kept going: compound faults cost skipped slots, not
    // liveness.
    assert!(
        outcome.height >= slots / 2,
        "chain stalled: height {} of {slots}",
        outcome.height
    );
    // Every fault actually happened, and every fault recovered.
    assert!(outcome.fault_drops > 0, "partition/crashes dropped traffic");
    if let Some(scheduled) = (slots - 1).checked_div(spec.crash_every) {
        assert!(
            outcome.restarts >= 1 && outcome.restarts <= scheduled,
            "restarts {} outside 1..={scheduled}",
            outcome.restarts
        );
        assert!(!outcome.crash_recoveries.is_empty());
        for &(node, latency) in &outcome.crash_recoveries {
            assert!(
                latency.is_some(),
                "validator {node} never reconverged after its crash cleared"
            );
        }
    }
    assert!(!outcome.heal_recoveries.is_empty(), "heal was scheduled");
    for &(node, latency) in &outcome.heal_recoveries {
        assert!(
            latency.is_some(),
            "minority validator {node} never reconverged after the heal"
        );
    }
    // The §V injections entered the chain (rotating leaders dedup
    // through `op_committed`, so the sum can exceed the script length
    // only via losing siblings).
    assert!(
        outcome.injections_included >= outcome.injections_scripted,
        "all {} fail/corrupt/repair injections proposed at least once, got {}",
        outcome.injections_scripted,
        outcome.injections_included
    );
    // The workload outlived the repair script: files exist at the end.
    assert!(outcome.final_files > 0, "no live files survived");
    // Leadership rotated through the survivors.
    assert!(
        outcome.blocks_proposed.iter().filter(|&&p| p > 0).count() >= 2,
        "proposals spread across validators: {:?}",
        outcome.blocks_proposed
    );
}

#[test]
fn leader_crash_costs_a_skip_not_liveness() {
    let slots = 60;
    let mut spec = NetworkRobustnessSpec::acceptance(slots, 0);
    spec.loss = 0.05;
    spec.partition_at_slot = 0; // no partition in this scenario
    let cfg = {
        let mut cfg = cluster_for_spec(seed(0xC4A5), &spec);
        cfg.injections.clear();
        cfg.workload.lazy_providers.clear();
        cfg
    };
    let (mut world, reports) = build_cluster(&cfg);
    // One surgical crash: the scheduled leader of slot 10, for 2 slots.
    let interval = cfg.params.block_interval;
    let victim = cfg.schedule().leader(10, 0).expect("slot 10 has a leader");
    let until = (10 * interval - 1) + 2 * interval;
    world.schedule_crash(victim, 10 * interval - 1, until);
    world.run_until(cluster_horizon(&cfg));

    let (height, _) = assert_converged(&reports);
    assert_eq!(world.restarts(), 1);
    assert!(
        height >= slots - 4,
        "a single crash costs at most a few slots: height {height} of {slots}"
    );
    // The victim's own log shows it back on the canonical chain.
    let canonical = reports.validators[0].borrow().final_chain.clone();
    let victim_report = reports.validators[victim].borrow();
    assert!(
        heights_to_reconvergence(&victim_report.heads, &canonical, until).is_some(),
        "crashed leader reconverged"
    );
    // Fallback ranks filled slots while the victim was down, so
    // leadership still spread across the set.
    let others: u64 = reports
        .validators
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != victim)
        .map(|(_, r)| r.borrow().blocks_proposed)
        .sum();
    assert!(others > 0, "someone other than the victim proposed");
}

#[test]
fn partition_minority_rejoins_via_fork_choice() {
    let slots = 90;
    let mut spec = NetworkRobustnessSpec::acceptance(slots, 0); // no crashes
    spec.loss = 0.08;
    let cfg = {
        let mut cfg = cluster_for_spec(seed(0x9A27), &spec);
        cfg.injections.clear();
        cfg
    };
    let (mut world, reports) = build_cluster(&cfg);
    let schedule = schedule_fault_script(&mut world, &cfg, &spec);
    let heal = schedule.heal_at.expect("spec schedules a partition");
    assert!(schedule.crash_clears.is_empty());
    world.run_until(cluster_horizon(&cfg));

    assert_converged(&reports);
    assert!(
        world.fault_drops() > 0,
        "the partition dropped cross-group traffic"
    );
    let canonical = reports.validators[0].borrow().final_chain.clone();
    for &node in &spec.minority {
        let report = reports.validators[node].borrow();
        let latency = heights_to_reconvergence(&report.heads, &canonical, heal);
        assert!(
            latency.is_some(),
            "minority validator {node} reconverged after the heal"
        );
    }
}

#[test]
fn recovery_latency_is_deterministic_for_a_seed() {
    let slots = 60;
    let spec = NetworkRobustnessSpec::acceptance(slots, crash_every());
    let a = run_chaos(seed(0xD27E), &spec);
    let b = run_chaos(seed(0xD27E), &spec);
    assert!(a.converged);
    assert_eq!(a, b, "same seed, same spec, same outcome bit-for-bit");
}
