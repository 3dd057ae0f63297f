//! Full-protocol scenario harness: drives an `fi-core` [`Engine`] with
//! configurable provider behaviours over simulated time (the Fig. 3
//! timelines, with faults).
//!
//! Providers follow a [`ProviderBehavior`]: honest ones confirm transfers
//! and submit proofs each cycle; lazy ones skip proofs with some
//! probability (earning punishments); failing ones go dark at a set time
//! (exercising the `ProofDeadline` → confiscation → compensation path).
//!
//! Every engine action the harness takes goes through the typed
//! transaction layer — the per-sweep confirm and proof batches through the
//! pipelined `Engine::apply_batch` ingest path, the rest through the
//! `Engine::apply` wrappers — so whole scenario runs — faults,
//! punishments, compensation included — are replayable from the op log via
//! `Engine::replay` (asserted in the tests below).
//!
//! [`ProtocolParams::shards`] above 1 turns the engine's parallel paths
//! on; scenario outcomes are the same either way (asserted below), so
//! scenarios can drive either configuration.

use fi_chain::account::{AccountId, TokenAmount};
use fi_core::engine::{pending_confirm_candidates, Engine, StateView};
use fi_core::ops::Op;
use fi_core::params::ProtocolParams;
use fi_core::types::{FileId, SectorId};
use fi_crypto::{sha256, DetRng};

/// Re-exported from its home in `fi_core::engine` for `benchmark/`'s
/// `audit_cycle` import; goes when `benchmark/` switches its imports
/// (ROADMAP item 1).
pub use fi_core::engine::held_replica_candidates;

/// How a provider behaves over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProviderBehavior {
    /// Confirms and proves promptly, forever.
    Honest,
    /// Skips each proof round with probability `skip_prob`.
    Lazy {
        /// Probability of skipping a given proof round.
        skip_prob: f64,
    },
    /// Honest until `at`, then permanently dark (disk failure).
    FailsAt {
        /// Failure time.
        at: u64,
    },
}

/// One provider in the scenario.
#[derive(Debug, Clone)]
pub struct ProviderSpec {
    /// Ledger account.
    pub account: AccountId,
    /// Sector capacities to register.
    pub sectors: Vec<u64>,
    /// Behaviour.
    pub behavior: ProviderBehavior,
}

/// A scripted protocol scenario.
#[derive(Debug)]
pub struct Scenario {
    /// The engine under test.
    pub engine: Engine,
    providers: Vec<(ProviderSpec, Vec<SectorId>)>,
    rng: DetRng,
    /// Action cadence (ticks between provider action sweeps).
    step: u64,
}

impl Scenario {
    /// Builds a scenario: registers every provider's sectors and funds the
    /// given client account.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters or if a registration fails.
    pub fn new(params: ProtocolParams, providers: Vec<ProviderSpec>, client: AccountId) -> Self {
        let step = (params.proof_cycle / 2).max(1);
        let seed = params.seed;
        let mut engine = Engine::new(params).expect("valid parameters");
        engine.fund(client, TokenAmount(1_000_000_000));
        let mut registered = Vec::new();
        for spec in providers {
            engine.fund(spec.account, TokenAmount(1_000_000_000_000));
            let mut ids = Vec::new();
            for &capacity in &spec.sectors {
                ids.push(
                    engine
                        .sector_register(spec.account, capacity)
                        .expect("registration succeeds"),
                );
            }
            registered.push((spec, ids));
        }
        Scenario {
            engine,
            providers: registered,
            rng: DetRng::from_seed_label(seed, "scenario"),
            step,
        }
    }

    /// Stores a file owned by `client`; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the add is rejected.
    pub fn add_file(&mut self, client: AccountId, size: u64, value: TokenAmount) -> FileId {
        let root = sha256(format!("scenario-file-{}", self.engine.now()).as_bytes());
        self.engine
            .file_add(client, size, value, root)
            .expect("file add accepted")
    }

    /// Runs until `until`, sweeping provider actions every half proof
    /// cycle according to their behaviours.
    pub fn run_until(&mut self, until: u64) {
        while self.engine.now() < until {
            self.act_providers();
            let next = (self.engine.now() + self.step).min(until);
            self.engine.advance_to(next);
        }
        self.act_providers();
    }

    fn act_providers(&mut self) {
        let now = self.engine.now();
        // Confirms: every live provider confirms pending transfers to its
        // sectors (failing/dark providers don't). The whole sweep goes
        // through the batch ingest path as one batch, bit-identical to
        // one-by-one application.
        let confirms: Vec<Op> = pending_confirm_candidates(&self.engine)
            .into_iter()
            .filter_map(|(f, i, s)| {
                let (spec, _) = self.providers.iter().find(|(_, ids)| ids.contains(&s))?;
                if self.is_dark(spec.behavior, now) {
                    return None;
                }
                Some(Op::FileConfirm {
                    caller: spec.account,
                    file: f,
                    index: i,
                    sector: s,
                })
            })
            .collect();
        self.engine.apply_batch(confirms);
        // Proofs — likewise one batch.
        let held: Vec<(FileId, u32, SectorId, AccountId, ProviderBehavior)> =
            held_replica_candidates(&self.engine)
                .into_iter()
                .filter_map(|(f, i, s)| {
                    let (spec, _) = self.providers.iter().find(|(_, ids)| ids.contains(&s))?;
                    Some((f, i, s, spec.account, spec.behavior))
                })
                .collect();
        let mut proofs = Vec::with_capacity(held.len());
        for (f, i, s, account, behavior) in held {
            if self.is_dark(behavior, now) {
                continue;
            }
            if let ProviderBehavior::Lazy { skip_prob } = behavior {
                if self.rng.bernoulli(skip_prob) {
                    continue;
                }
            }
            proofs.push(Op::FileProve {
                caller: account,
                file: f,
                index: i,
                sector: s,
            });
        }
        self.engine.apply_batch(proofs);
        // Propagate physical failures into the engine (so honest helpers
        // and File_Get treat them correctly).
        let failing: Vec<SectorId> = self
            .providers
            .iter()
            .filter(|(spec, _)| self.is_dark(spec.behavior, now))
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect();
        for s in failing {
            if let Some(sector) = self.engine.sector(s) {
                if !sector.physically_failed {
                    self.engine.fail_sector_silently(s);
                }
            }
        }
    }

    fn is_dark(&self, behavior: ProviderBehavior, now: u64) -> bool {
        matches!(behavior, ProviderBehavior::FailsAt { at } if now >= at)
    }

    /// Sector ids registered for provider `idx` (insertion order).
    pub fn sectors_of(&self, idx: usize) -> &[SectorId] {
        &self.providers[idx].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_core::types::{ProtocolEvent, RemovalReason};

    const CLIENT: AccountId = AccountId(900);

    fn params(k: u32) -> ProtocolParams {
        ProtocolParams {
            k,
            delay_per_size: 6,
            avg_refresh: 6.0,
            ..ProtocolParams::default()
        }
    }

    #[test]
    fn honest_network_keeps_files_forever() {
        let mut scenario = Scenario::new(
            params(3),
            vec![
                ProviderSpec {
                    account: AccountId(700),
                    sectors: vec![640, 640],
                    behavior: ProviderBehavior::Honest,
                },
                ProviderSpec {
                    account: AccountId(701),
                    sectors: vec![1280],
                    behavior: ProviderBehavior::Honest,
                },
            ],
            CLIENT,
        );
        let f = scenario.add_file(CLIENT, 16, TokenAmount(1_000));
        scenario.run_until(5_000);
        assert!(scenario.engine.file(f).is_some());
        assert_eq!(scenario.engine.stats().files_lost, 0);
    }

    #[test]
    fn total_provider_failure_triggers_compensation() {
        let mut scenario = Scenario::new(
            params(2),
            vec![ProviderSpec {
                account: AccountId(700),
                sectors: vec![640, 640],
                behavior: ProviderBehavior::FailsAt { at: 500 },
            }],
            CLIENT,
        );
        let f = scenario.add_file(CLIENT, 16, TokenAmount(1_000));
        scenario.run_until(2_000);
        assert!(scenario.engine.file(f).is_none());
        assert_eq!(scenario.engine.stats().files_lost, 1);
        assert_eq!(
            scenario.engine.stats().compensation_paid,
            TokenAmount(1_000),
            "full compensation"
        );
        assert!(scenario.engine.events().iter().any(|e| matches!(
            e,
            ProtocolEvent::FileRemoved {
                reason: RemovalReason::Lost,
                ..
            }
        )));
    }

    #[test]
    fn lazy_provider_gets_punished_but_file_survives() {
        let mut scenario = Scenario::new(
            params(3),
            vec![
                ProviderSpec {
                    account: AccountId(700),
                    sectors: vec![640],
                    behavior: ProviderBehavior::Lazy { skip_prob: 0.7 },
                },
                ProviderSpec {
                    account: AccountId(701),
                    sectors: vec![640, 640],
                    behavior: ProviderBehavior::Honest,
                },
            ],
            CLIENT,
        );
        let f = scenario.add_file(CLIENT, 16, TokenAmount(1_000));
        scenario.run_until(4_000);
        assert!(
            scenario.engine.stats().punishments > 0,
            "lazy proofs punished: {:?}",
            scenario.engine.stats()
        );
        assert!(scenario.engine.file(f).is_some(), "file survives laziness");
    }

    /// The harness drives everything through `Engine::apply`, so a whole
    /// scenario — faults, punishments, compensation included — replays
    /// from its op log to the identical state and chain head.
    #[test]
    fn scenario_runs_are_replayable_from_op_log() {
        let p = params(3);
        let mut scenario = Scenario::new(
            p.clone(),
            vec![
                ProviderSpec {
                    account: AccountId(700),
                    sectors: vec![640],
                    behavior: ProviderBehavior::FailsAt { at: 700 },
                },
                ProviderSpec {
                    account: AccountId(701),
                    sectors: vec![640, 1280],
                    behavior: ProviderBehavior::Honest,
                },
            ],
            CLIENT,
        );
        scenario.add_file(CLIENT, 16, TokenAmount(1_000));
        scenario.run_until(2_500);
        let replayed = Engine::replay(p, scenario.engine.op_log()).expect("params valid");
        assert_eq!(replayed.state_root(), scenario.engine.state_root());
        assert_eq!(
            replayed.chain().head_hash(),
            scenario.engine.chain().head_hash()
        );
        // Replay re-executes op by op, so execution-strategy counters
        // (batch staging) may differ from the batched original; consensus
        // counters must not.
        assert_eq!(
            replayed.stats().consensus(),
            scenario.engine.stats().consensus()
        );
    }

    /// A full scenario — lazy and failing providers, punishments,
    /// compensation — reaches bit-identical consensus state at any shard
    /// count: the parallel paths it switches on are a performance knob,
    /// not a consensus parameter.
    #[test]
    fn scenario_outcomes_are_shard_count_invariant() {
        let run = |shards: usize| {
            let mut p = params(3);
            p.shards = shards;
            let mut scenario = Scenario::new(
                p,
                vec![
                    ProviderSpec {
                        account: AccountId(700),
                        sectors: vec![640],
                        behavior: ProviderBehavior::Lazy { skip_prob: 0.5 },
                    },
                    ProviderSpec {
                        account: AccountId(701),
                        sectors: vec![640, 1280],
                        behavior: ProviderBehavior::FailsAt { at: 1_200 },
                    },
                    ProviderSpec {
                        account: AccountId(702),
                        sectors: vec![640, 640],
                        behavior: ProviderBehavior::Honest,
                    },
                ],
                CLIENT,
            );
            for i in 0..6 {
                scenario.add_file(CLIENT, 8 + i, TokenAmount(1_000));
            }
            scenario.run_until(3_000);
            scenario.engine
        };
        let one = run(1);
        for shards in [4usize, 8] {
            let sharded = run(shards);
            assert_eq!(one.state_root(), sharded.state_root());
            assert_eq!(one.chain().head_hash(), sharded.chain().head_hash());
            assert_eq!(one.stats().consensus(), sharded.stats().consensus());
            assert_eq!(one.file_ids(), sharded.file_ids());
        }
    }

    #[test]
    fn partial_failure_keeps_file_alive_via_survivors() {
        let mut scenario = Scenario::new(
            params(3),
            vec![
                ProviderSpec {
                    account: AccountId(700),
                    sectors: vec![640],
                    behavior: ProviderBehavior::FailsAt { at: 300 },
                },
                ProviderSpec {
                    account: AccountId(701),
                    sectors: vec![640, 640, 640],
                    behavior: ProviderBehavior::Honest,
                },
            ],
            CLIENT,
        );
        let f = scenario.add_file(CLIENT, 16, TokenAmount(1_000));
        scenario.run_until(3_000);
        // The failing provider's sector is corrupted, its deposit gone…
        let failed = scenario.sectors_of(0)[0];
        let sector = scenario.engine.sector(failed).unwrap();
        assert_eq!(sector.state, fi_core::types::SectorState::Corrupted);
        // …but unless every replica sat there, the file lives.
        if scenario.engine.stats().files_lost == 0 {
            assert!(scenario.engine.file(f).is_some());
        }
    }
}
