//! Cluster assembly: identical genesis engines, N beacon-rotated
//! validators, a workload driver, and (optionally) a cold-start watcher,
//! wired into one `fi_net::World`.
//!
//! Every online-from-genesis node builds its own copy of the same genesis
//! engine (funding + sector registrations applied through the typed op
//! layer), so consensus equality across nodes is meaningful from slot 1.
//! The cold-start watcher deliberately builds nothing: it syncs from a
//! validator's on-demand snapshot mid-run.
//!
//! Node layout is deterministic and part of the harness contract — fault
//! schedules in tests address nodes by it: validators occupy indices
//! `0..N-1` (in [`ProposerSchedule`] registration order), the client
//! driver is node `N`, and the watcher (when configured) node `N + 1`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use fi_chain::account::{AccountId, TokenAmount};
use fi_core::engine::Engine;
use fi_core::ops::Op;
use fi_core::params::ProtocolParams;
use fi_core::types::SectorId;
use fi_crypto::RandomBeacon;
use fi_net::link::LinkModel;
use fi_net::sim::SimTime;
use fi_net::world::World;

use crate::client::{ClientDriver, ClientReport, WorkloadConfig};
use crate::node::{ConsensusConfig, NodeMsg, NodeStart, Validator, ValidatorReport};
use crate::schedule::ProposerSchedule;

/// Everything needed to assemble one simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Protocol parameters shared by every engine.
    pub params: ProtocolParams,
    /// Provider accounts and the sector capacities each registers at
    /// genesis.
    pub providers: Vec<(AccountId, Vec<u64>)>,
    /// The client account adding/reading/discarding files.
    pub client: AccountId,
    /// The link model every node pair shares (per-link overrides go
    /// through [`World::set_link_between`] on the built world).
    pub link: LinkModel,
    /// World seed: link draws, the workload rng, **and** the proposer
    /// beacon — one seed determines the whole run.
    pub seed: u64,
    /// Slots the cluster produces before validators go quiet (anti-entropy
    /// continues through the drain margin).
    pub slots: u64,
    /// Extra wait per fallback rank before it fills a slot the scheduled
    /// leader left empty.
    pub skip_timeout: SimTime,
    /// Ticks between anti-entropy status exchanges.
    pub sync_every: SimTime,
    /// Fallback ranks per slot (clamped to the validator count).
    pub max_ranks: usize,
    /// Genesis validator count.
    pub validators: usize,
    /// Keep full op logs on head engines (for replay-equivalence tests).
    pub record_op_log: bool,
    /// When set, a watcher node cold-starts at this time and syncs from a
    /// validator's snapshot.
    pub cold_join_at: Option<SimTime>,
    /// Workload shape for the client driver.
    pub workload: WorkloadConfig,
    /// Consensus-side `(due slot, op)` injections, handed to every
    /// validator and included once by whichever node leads first (the §V
    /// fault scripts — `FailSector`, `CorruptSector`, `ForceDiscard` —
    /// enter the chain through these).
    pub injections: Vec<(u64, Op)>,
}

impl ClusterConfig {
    /// A small, fast default: 3 validators, lossy links, no watcher.
    pub fn small(seed: u64, slots: u64) -> Self {
        let params = ProtocolParams {
            k: 3,
            ..ProtocolParams::default()
        };
        let interval = params.block_interval;
        ClusterConfig {
            params,
            providers: vec![
                (AccountId(700), vec![640, 640]),
                (AccountId(701), vec![1_280]),
                (AccountId(702), vec![640, 640, 640]),
            ],
            client: AccountId(900),
            link: LinkModel::lossy(0.1),
            seed,
            slots,
            skip_timeout: (interval / 3).max(2),
            sync_every: (interval / 2).max(2),
            max_ranks: 3,
            validators: 3,
            record_op_log: false,
            cold_join_at: None,
            workload: WorkloadConfig::default(),
            injections: Vec::new(),
        }
    }

    /// The deterministic proposer schedule this configuration induces.
    pub fn schedule(&self) -> ProposerSchedule {
        ProposerSchedule::new(
            RandomBeacon::new(self.seed),
            (0..self.validators).collect(),
            self.max_ranks,
        )
    }

    /// Node index of the client driver (validators fill `0..client`).
    pub fn client_node(&self) -> usize {
        self.validators
    }

    /// Node index of the cold-start watcher, when configured.
    pub fn watcher_node(&self) -> Option<usize> {
        self.cold_join_at.map(|_| self.validators + 1)
    }
}

/// Shared result handles for every node of a built cluster (the world owns
/// the boxed processes; results surface through these).
pub struct ClusterReports {
    /// One record per genesis validator, in node-index order.
    pub validators: Vec<Rc<RefCell<ValidatorReport>>>,
    /// The workload driver's submission counters.
    pub client: Rc<RefCell<ClientReport>>,
    /// The cold-start watcher's record, when configured.
    pub watcher: Option<Rc<RefCell<ValidatorReport>>>,
}

/// Builds the shared genesis: every provider funded and its sectors
/// registered, the client funded — all through the typed op layer so the
/// resulting engines are bit-identical across nodes. Returns the engine
/// and the sector→owner map the workload driver acts from.
///
/// # Panics
///
/// Panics on invalid parameters or a failed registration (genesis is
/// scripted; failure is a configuration bug).
pub fn genesis_engine(
    params: &ProtocolParams,
    providers: &[(AccountId, Vec<u64>)],
    client: AccountId,
) -> (Engine, HashMap<SectorId, AccountId>) {
    let mut engine = Engine::new(params.clone()).expect("valid parameters");
    engine.fund(client, TokenAmount(1_000_000_000));
    let mut sector_owner = HashMap::new();
    for (account, capacities) in providers {
        engine.fund(*account, TokenAmount(1_000_000_000_000));
        for &capacity in capacities {
            let sector = engine
                .sector_register(*account, capacity)
                .expect("genesis registration succeeds");
            sector_owner.insert(sector, *account);
        }
    }
    (engine, sector_owner)
}

/// Assembles the world in the layout documented at the module top:
/// validators `0..N-1`, client `N`, watcher `N + 1`. Schedule faults on
/// the returned [`World`] before running it.
///
/// # Panics
///
/// Panics when `validators` is zero.
pub fn build_cluster(cfg: &ClusterConfig) -> (World<NodeMsg>, ClusterReports) {
    assert!(cfg.validators > 0, "a cluster needs validators");
    let mut world = World::new(cfg.link, cfg.seed);
    let (genesis, sector_owner) = genesis_engine(&cfg.params, &cfg.providers, cfg.client);
    let schedule = cfg.schedule();
    let consensus = ConsensusConfig {
        block_interval: cfg.params.block_interval,
        skip_timeout: cfg.skip_timeout.max(2),
        sync_every: cfg.sync_every.max(2),
        slots_total: cfg.slots,
        record_op_log: cfg.record_op_log,
        join_retry: 20,
    };

    let validator_count = cfg.validators;
    let client_idx = cfg.client_node();

    let validator_reports: Vec<Rc<RefCell<ValidatorReport>>> = (0..validator_count)
        .map(|_| Rc::new(RefCell::new(ValidatorReport::default())))
        .collect();
    for (me, report) in validator_reports.iter().enumerate() {
        let peers: Vec<usize> = (0..validator_count).filter(|&p| p != me).collect();
        // Proposals reach every other validator and the client's replica;
        // status exchanges stay validator-to-validator.
        let mut broadcast = peers.clone();
        broadcast.push(client_idx);
        let validator = Validator::new(
            me,
            NodeStart::Genesis(Box::new(genesis.clone())),
            schedule.clone(),
            consensus.clone(),
            broadcast,
            peers,
            cfg.injections.clone(),
            Rc::clone(report),
        );
        assert_eq!(world.add(validator), me);
    }

    let client_report = Rc::new(RefCell::new(ClientReport::default()));
    let client = ClientDriver::new(
        genesis,
        schedule.clone(),
        sector_owner,
        cfg.client,
        cfg.seed,
        cfg.sync_every.max(2),
        cfg.workload.clone(),
        Rc::clone(&client_report),
    );
    assert_eq!(world.add(client), client_idx);

    let watcher = cfg.cold_join_at.map(|wake_at| {
        let report = Rc::new(RefCell::new(ValidatorReport::default()));
        let watcher = Validator::new(
            client_idx + 1,
            NodeStart::ColdJoin { wake_at },
            schedule.clone(),
            consensus.clone(),
            Vec::new(),
            (0..validator_count).collect(),
            Vec::new(),
            Rc::clone(&report),
        );
        assert_eq!(world.add(watcher), client_idx + 1);
        report
    });

    (
        world,
        ClusterReports {
            validators: validator_reports,
            client: client_report,
            watcher,
        },
    )
}

/// Runs a built cluster to completion: `slots` of production plus a drain
/// margin for skip timeouts, retransmissions, and post-fault anti-entropy
/// reconvergence, returning the world for inspection.
pub fn run_cluster(cfg: &ClusterConfig) -> (World<NodeMsg>, ClusterReports) {
    let (mut world, reports) = build_cluster(cfg);
    world.run_until(cluster_horizon(cfg));
    (world, reports)
}

/// The virtual-time horizon [`run_cluster`] drains to.
pub fn cluster_horizon(cfg: &ClusterConfig) -> SimTime {
    (cfg.slots + 40) * cfg.params.block_interval
}
