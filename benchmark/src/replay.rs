//! Layer replays: one layer driven alone through its public API with the
//! work counts a pass just produced.
//!
//! A replay's wall time divided by the pass's wall time is that layer's
//! `share`. It is an *estimate* — the layer runs with warm caches and none
//! of the engine's bookkeeping around it — and is labelled as one
//! everywhere it is printed. Exact attribution needs spans inside the
//! program, which this benchmark deliberately does not add.

use std::time::Instant;

use fi_chain::account::{AccountId, Ledger, TokenAmount};
use fi_chain::gas::GasSchedule;
use fi_chain::tasks::{Scheduler, SchedulerKind};
use fi_core::ops::Op;
use fi_core::params::ProtocolParams;
use fi_core::sampler::WeightedSampler;
use fi_core::types::FileId;
use fi_crypto::hash::KeyedDomain;
use fi_crypto::DetRng;
use fi_node::{Mempool, Tx};
use fi_store::{Hamt, MemoryBlockstore};

use crate::workloads::{Given, ReplayCounts};

const BLOCK_TICKS: u64 = 10;

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The pending-task population against a bare `Scheduler<u64>`: tasks
/// spread over `deadlines` distinct block-aligned times, and per popping
/// step the engine's `next_time` → `pop_due` loop with every popped task
/// rescheduled one cycle out. Returns `(ms, tasks popped)`.
pub fn scheduler(c: &ReplayCounts) -> (f64, u64) {
    if c.pending_tasks == 0 || c.pop_steps == 0 {
        return (0.0, 0);
    }
    let cycle = c.deadlines * BLOCK_TICKS;
    let mut sched: Scheduler<u64> = Scheduler::new(SchedulerKind::Wheel, BLOCK_TICKS);
    for task in 0..c.pending_tasks {
        sched.schedule((1 + task % c.deadlines) * BLOCK_TICKS, task);
    }
    // With one deadline per step a step advances one block; with a single
    // shared deadline it advances a whole cycle.
    let step_ticks = if c.deadlines > 1 { BLOCK_TICKS } else { cycle };
    let start = Instant::now();
    let mut popped = 0u64;
    for step in 1..=c.pop_steps {
        let target = step * step_ticks;
        while let Some(time) = sched.next_time() {
            if time > target {
                break;
            }
            for (due, task) in sched.pop_due(time) {
                sched.schedule(due + cycle, task);
                popped += 1;
            }
        }
    }
    (ms_since(start), popped)
}

/// `draws` capacity-weighted draws from a 64-sector sampler.
pub fn sampler(c: &ReplayCounts, seed: u64) -> f64 {
    if c.sampler_draws == 0 {
        return 0.0;
    }
    let mut sampler: WeightedSampler<u64> = WeightedSampler::new();
    for sector in 0..64 {
        sampler.insert(sector, 64 * (100 + sector));
    }
    let mut rng = DetRng::from_seed_label(seed, "benchmark/replay/sampler");
    let start = Instant::now();
    for _ in 0..c.sampler_draws {
        std::hint::black_box(sampler.sample(&mut rng));
    }
    ms_since(start)
}

/// `commits` rounds of `dirty_per_commit` × `Hamt::set` plus one `flush`
/// on a tree of `map_keys` keys (built before the clock starts).
pub fn hamt(c: &ReplayCounts, seed: u64) -> f64 {
    if c.map_keys == 0 || c.commits == 0 {
        return 0.0;
    }
    let store = MemoryBlockstore::new();
    let mut tree = Hamt::new();
    let ok = "memory blockstore cannot fail";
    for key in 0..c.map_keys {
        tree.set(&store, &key.to_be_bytes(), &[0u8; 48]).expect(ok);
    }
    tree.flush(&store).expect(ok);
    let mut rng = DetRng::from_seed_label(seed, "benchmark/replay/hamt");
    let start = Instant::now();
    for commit in 0..c.commits {
        for _ in 0..c.dirty_per_commit {
            let key = rng.below(c.map_keys);
            let mut value = [0u8; 48];
            value[..8].copy_from_slice(&commit.to_be_bytes());
            tree.set(&store, &key.to_be_bytes(), &value).expect(ok);
        }
        std::hint::black_box(tree.flush(&store).expect(ok));
    }
    ms_since(start)
}

/// `path_walks` lanes walked `path_len` nodes deep through
/// `KeyedDomain::hash_many`, in tiles of 4 096 lanes. Returns
/// `(ms, hashes)`.
pub fn pathwalk(c: &ReplayCounts) -> (f64, u64) {
    if c.path_walks == 0 {
        return (0.0, 0);
    }
    const TILE: u64 = 4_096;
    let domain = KeyedDomain::new("benchmark/replay/pathwalk");
    let start = Instant::now();
    let mut done = 0u64;
    while done < c.path_walks {
        let lanes = TILE.min(c.path_walks - done);
        let mut nodes: Vec<[u8; 32]> = (done..done + lanes)
            .map(|lane| {
                let mut leaf = [0u8; 32];
                leaf[..8].copy_from_slice(&lane.to_be_bytes());
                leaf
            })
            .collect();
        for level in 0..c.path_len as u32 {
            let level = level.to_be_bytes();
            let parts: Vec<[&[u8]; 2]> = nodes.iter().map(|n| [&n[..], &level[..]]).collect();
            let refs: Vec<&[&[u8]]> = parts.iter().map(|p| &p[..]).collect();
            let hashed = domain.hash_many(&refs);
            nodes = hashed.into_iter().map(|h| h.into_bytes()).collect();
        }
        std::hint::black_box(&nodes);
        done += lanes;
    }
    (ms_since(start), c.path_walks * c.path_len)
}

/// `mempool_txs` admissions (six accounts, contiguous nonces, distinct
/// ops) and their fee-ordered selection into blocks, in waves that fit
/// the pool.
pub fn mempool(c: &ReplayCounts, seed: u64) -> f64 {
    if c.mempool_txs == 0 {
        return 0.0;
    }
    const ACCOUNTS: u64 = 6;
    let params = ProtocolParams::default();
    let wave = (params.mempool_cap / 2) as u64;
    let mut ledger = Ledger::new();
    for account in 0..ACCOUNTS {
        ledger.mint(AccountId(900 + account), TokenAmount(1 << 60));
    }
    let mut pool = Mempool::new(params, GasSchedule::default());
    let mut rng = DetRng::from_seed_label(seed, "benchmark/replay/mempool");
    let start = Instant::now();
    let mut submitted = 0u64;
    while submitted < c.mempool_txs {
        for _ in 0..wave.min(c.mempool_txs - submitted) {
            let from = AccountId(900 + submitted % ACCOUNTS);
            let tx = Tx {
                from,
                nonce: submitted / ACCOUNTS,
                fee: TokenAmount(1 + u128::from(rng.below(1_000))),
                op: Op::FileGet {
                    caller: from,
                    file: FileId(submitted),
                },
            };
            pool.admit(tx, &ledger)
                .expect("a funded account's next nonce is admitted");
            submitted += 1;
        }
        while !pool.is_empty() {
            let (picked, _gas) = pool.select_block();
            assert!(!picked.is_empty(), "a non-empty pool selects something");
            std::hint::black_box(picked);
        }
    }
    ms_since(start)
}

/// Runs every replay for one pass and returns the per-layer values.
pub fn all(c: &ReplayCounts, seed: u64, pass_wall_s: f64) -> Given {
    let share = |ms: f64| ms / (pass_wall_s * 1e3);
    let (scheduler_ms, popped) = scheduler(c);
    let sampler_ms = sampler(c, seed);
    let hamt_ms = hamt(c, seed);
    let (pathwalk_ms, hashes) = pathwalk(c);
    let mempool_ms = mempool(c, seed);
    Given::from([
        ("scheduler.replay_ms", scheduler_ms),
        ("scheduler.share", share(scheduler_ms)),
        ("scheduler.tasks_popped", popped as f64),
        ("sampler.replay_ms", sampler_ms),
        ("sampler.share", share(sampler_ms)),
        ("hamt.replay_ms", hamt_ms),
        ("hamt.share", share(hamt_ms)),
        ("pathwalk.replay_ms", pathwalk_ms),
        ("pathwalk.share", share(pathwalk_ms)),
        ("pathwalk.hashes", hashes as f64),
        ("mempool.replay_ms", mempool_ms),
        ("mempool.share", share(mempool_ms)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_do_the_counted_work() {
        let counts = ReplayCounts {
            pending_tasks: 1_000,
            deadlines: 50,
            pop_steps: 100,
            tasks_per_pop: 20,
            sampler_draws: 500,
            map_keys: 2_000,
            commits: 10,
            dirty_per_commit: 30,
            path_walks: 5_000,
            path_len: 8,
            mempool_txs: 10_000,
        };
        let (_, popped) = scheduler(&counts);
        assert_eq!(
            popped,
            1_000 * 2,
            "every task fires once per 50-block cycle"
        );
        let (_, hashes) = pathwalk(&counts);
        assert_eq!(hashes, 40_000);
        let given = all(&counts, 1, 1.0);
        assert!(given.values().all(|v| v.is_finite() && *v >= 0.0));
        assert!(given["mempool.replay_ms"] > 0.0 && given["hamt.replay_ms"] > 0.0);
    }

    #[test]
    fn empty_counts_replay_nothing() {
        let given = all(&ReplayCounts::default(), 1, 1.0);
        assert!(given.values().all(|v| *v == 0.0));
    }
}
