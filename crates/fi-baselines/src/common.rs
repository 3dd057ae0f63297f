//! Shared substrate for the baseline comparison: network/workload specs,
//! placements, adversaries, and loss evaluation.

use std::collections::HashSet;

use fi_crypto::DetRng;

/// A storage node (sector-level granularity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Capacity in size units.
    pub capacity: u64,
    /// The physical entity operating this node. Distinct logical nodes with
    /// the same entity model a Sybil attack: corrupting the entity corrupts
    /// all of them at the capacity cost of only the largest.
    pub entity: usize,
}

/// The network: a list of nodes.
#[derive(Debug, Clone, Default)]
pub struct NetworkSpec {
    /// All logical nodes.
    pub nodes: Vec<NodeSpec>,
}

impl NetworkSpec {
    /// A network of `n` honest nodes of equal `capacity` (entity == index).
    pub fn uniform(n: usize, capacity: u64) -> Self {
        NetworkSpec {
            nodes: (0..n)
                .map(|i| NodeSpec {
                    capacity,
                    entity: i,
                })
                .collect(),
        }
    }

    /// Total capacity.
    pub fn total_capacity(&self) -> u64 {
        self.nodes.iter().map(|n| n.capacity).sum()
    }
}

/// A file in the workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileSpec {
    /// Size in size units.
    pub size: u64,
    /// Declared value (drives replica counts and compensation).
    pub value: f64,
}

/// Where a workload landed.
#[derive(Debug, Clone)]
pub struct Placement {
    /// `locations[f]` — node indices holding pieces of file `f`
    /// (duplicates allowed where a protocol allows them).
    pub locations: Vec<Vec<usize>>,
    /// `survivors_needed[f]` — minimum number of live pieces for file `f`
    /// to survive (1 for replication, `data_shards` for erasure coding).
    pub survivors_needed: Vec<u32>,
}

impl Placement {
    /// Is file `f` still recoverable given the corrupted node set?
    pub fn survives(&self, f: usize, corrupted: &HashSet<usize>) -> bool {
        let live = self.locations[f]
            .iter()
            .filter(|n| !corrupted.contains(n))
            .count() as u32;
        live >= self.survivors_needed[f]
    }
}

/// Adversary corruption strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdversaryStrategy {
    /// Corrupt uniformly random nodes until the capacity budget is spent.
    Random,
    /// Corrupt nodes in decreasing capacity order (biggest first).
    LargestFirst,
    /// Greedy file-killer: repeatedly corrupt the node with the highest
    /// "kill pressure" per unit capacity, where a node's pressure is
    /// `Σ value_f / live_f` over the file pieces it holds (`live_f` = the
    /// file's current live piece surplus). Far stronger than random; probes
    /// the robustness bound from below.
    GreedyKill,
}

impl AdversaryStrategy {
    /// All strategies, for sweeps.
    pub const ALL: [AdversaryStrategy; 3] = [
        AdversaryStrategy::Random,
        AdversaryStrategy::LargestFirst,
        AdversaryStrategy::GreedyKill,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            AdversaryStrategy::Random => "random",
            AdversaryStrategy::LargestFirst => "largest-first",
            AdversaryStrategy::GreedyKill => "greedy-kill",
        }
    }
}

/// Chooses a set of nodes to corrupt whose total capacity does not exceed
/// `lambda` of the network capacity (the adversary ability assumption,
/// §V-A). Sybil structure is honoured: corrupting any node of an entity
/// corrupts all of that entity's nodes, at the capacity cost of the sum of
/// that entity's node capacities **once** (the Sybil cheat: one disk backs
/// them all, so the adversary destroys many logical nodes per physical
/// machine).
pub fn corrupt_nodes(
    net: &NetworkSpec,
    placement: &Placement,
    files: &[FileSpec],
    lambda: f64,
    strategy: AdversaryStrategy,
    sybil_collapse: bool,
    rng: &mut DetRng,
) -> HashSet<usize> {
    let budget = (net.total_capacity() as f64 * lambda) as i128;
    // Entity groups.
    let mut entity_nodes: std::collections::HashMap<usize, Vec<usize>> =
        std::collections::HashMap::new();
    for (i, n) in net.nodes.iter().enumerate() {
        entity_nodes.entry(n.entity).or_default().push(i);
    }
    // Cost of corrupting a node: with sybil_collapse, corrupting one node
    // of an entity yields the whole entity for the capacity of one physical
    // store (the max logical node backed by it).
    let entity_cost = |e: usize| -> i128 {
        let nodes = &entity_nodes[&e];
        if sybil_collapse {
            nodes
                .iter()
                .map(|&i| net.nodes[i].capacity as i128)
                .max()
                .unwrap_or(0)
        } else {
            nodes.iter().map(|&i| net.nodes[i].capacity as i128).sum()
        }
    };

    let mut corrupted: HashSet<usize> = HashSet::new();
    let mut spent: i128 = 0;
    let mut entities: Vec<usize> = {
        let mut v: Vec<usize> = entity_nodes.keys().copied().collect();
        v.sort_unstable();
        v
    };

    match strategy {
        AdversaryStrategy::Random => {
            rng.shuffle(&mut entities);
            for e in entities {
                let cost = entity_cost(e);
                if spent + cost <= budget {
                    spent += cost;
                    corrupted.extend(entity_nodes[&e].iter().copied());
                }
            }
        }
        AdversaryStrategy::LargestFirst => {
            entities.sort_by_key(|&e| std::cmp::Reverse(entity_cost(e)));
            for e in entities {
                let cost = entity_cost(e);
                if spent + cost <= budget {
                    spent += cost;
                    corrupted.extend(entity_nodes[&e].iter().copied());
                }
            }
        }
        AdversaryStrategy::GreedyKill => {
            // Track live piece counts per file; recompute entity pressure
            // each round.
            let mut live: Vec<i64> = placement.locations.iter().map(|l| l.len() as i64).collect();
            // files held per node.
            let mut node_files: Vec<Vec<usize>> = vec![Vec::new(); net.nodes.len()];
            for (f, locs) in placement.locations.iter().enumerate() {
                for &n in locs {
                    node_files[n].push(f);
                }
            }
            // Scanned in ascending entity order under a strict `>`, so the
            // lowest entity id wins a tie and a sweep is reproducible.
            let mut remaining = entities;
            loop {
                let mut best: Option<(f64, usize)> = None;
                for (i, &e) in remaining.iter().enumerate() {
                    let cost = entity_cost(e);
                    if spent + cost > budget || cost == 0 {
                        continue;
                    }
                    let mut pressure = 0.0;
                    for &n in &entity_nodes[&e] {
                        for &f in &node_files[n] {
                            let surplus = live[f] - placement.survivors_needed[f] as i64 + 1;
                            if surplus > 0 {
                                pressure += files[f].value / surplus as f64;
                            }
                        }
                    }
                    let score = pressure / cost as f64;
                    if best.map(|(s, _)| score > s).unwrap_or(true) {
                        best = Some((score, i));
                    }
                }
                let Some((_, i)) = best else { break };
                let e = remaining.remove(i);
                spent += entity_cost(e);
                for &n in &entity_nodes[&e] {
                    if corrupted.insert(n) {
                        for &f in &node_files[n] {
                            live[f] -= 1;
                        }
                    }
                }
            }
        }
    }
    corrupted
}

/// The outcome of a corruption event.
#[derive(Debug, Clone, PartialEq)]
pub struct LossReport {
    /// Total workload value.
    pub total_value: f64,
    /// Value of unrecoverable files.
    pub lost_value: f64,
    /// Number of unrecoverable files.
    pub lost_files: usize,
    /// Capacity actually corrupted (≤ λ·total by construction).
    pub corrupted_capacity: u64,
    /// Number of corrupted logical nodes.
    pub corrupted_nodes: usize,
}

impl LossReport {
    /// `γ_lost` — lost value over total value.
    pub fn gamma_lost(&self) -> f64 {
        if self.total_value == 0.0 {
            0.0
        } else {
            self.lost_value / self.total_value
        }
    }
}

/// Evaluates which files die when `corrupted` nodes fail.
pub fn evaluate_loss(
    net: &NetworkSpec,
    placement: &Placement,
    files: &[FileSpec],
    corrupted: &HashSet<usize>,
) -> LossReport {
    let mut lost_value = 0.0;
    let mut lost_files = 0;
    for (f, spec) in files.iter().enumerate() {
        if !placement.survives(f, corrupted) {
            lost_value += spec.value;
            lost_files += 1;
        }
    }
    LossReport {
        total_value: files.iter().map(|f| f.value).sum(),
        lost_value,
        lost_files,
        corrupted_capacity: corrupted.iter().map(|&n| net.nodes[n].capacity).sum(),
        corrupted_nodes: corrupted.len(),
    }
}

/// Samples `count` node indices i.i.d. proportional to capacity (the
/// `RandomSector()` primitive at placement granularity). Shared by the
/// FileInsurer and Arweave models.
pub fn sample_capacity_weighted(net: &NetworkSpec, count: usize, rng: &mut DetRng) -> Vec<usize> {
    // Static prefix-sum table; placement is one-shot so no Fenwick needed.
    let mut prefix: Vec<u64> = Vec::with_capacity(net.nodes.len());
    let mut acc = 0u64;
    for n in &net.nodes {
        acc += n.capacity;
        prefix.push(acc);
    }
    let total = acc;
    (0..count)
        .map(|_| {
            let t = rng.below(total);
            prefix.partition_point(|&p| p <= t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_placement() -> (NetworkSpec, Vec<FileSpec>, Placement) {
        let net = NetworkSpec::uniform(4, 100);
        let files = vec![
            FileSpec {
                size: 1,
                value: 10.0,
            },
            FileSpec {
                size: 1,
                value: 20.0,
            },
        ];
        let placement = Placement {
            locations: vec![vec![0, 1], vec![2, 3]],
            survivors_needed: vec![1, 2],
        };
        (net, files, placement)
    }

    #[test]
    fn survives_thresholds() {
        let (_, _, p) = simple_placement();
        let none: HashSet<usize> = HashSet::new();
        assert!(p.survives(0, &none));
        assert!(p.survives(1, &none));
        // File 0 is replication (needs 1): survives one loss.
        assert!(p.survives(0, &HashSet::from([0])));
        assert!(!p.survives(0, &HashSet::from([0, 1])));
        // File 1 is erasure needing 2 of 2: dies on any loss.
        assert!(!p.survives(1, &HashSet::from([2])));
    }

    #[test]
    fn evaluate_loss_accounting() {
        let (net, files, p) = simple_placement();
        let report = evaluate_loss(&net, &p, &files, &HashSet::from([2]));
        assert_eq!(report.lost_files, 1);
        assert_eq!(report.lost_value, 20.0);
        assert_eq!(report.total_value, 30.0);
        assert!((report.gamma_lost() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.corrupted_capacity, 100);
    }

    #[test]
    fn adversary_respects_budget() {
        let net = NetworkSpec::uniform(100, 64);
        let files: Vec<FileSpec> = (0..50)
            .map(|_| FileSpec {
                size: 4,
                value: 1.0,
            })
            .collect();
        let mut rng = DetRng::from_seed_label(51, "adv");
        let placement = Placement {
            locations: files
                .iter()
                .map(|_| sample_capacity_weighted(&net, 3, &mut rng))
                .collect(),
            survivors_needed: vec![1; files.len()],
        };
        for strategy in AdversaryStrategy::ALL {
            for lambda in [0.1, 0.5, 0.9] {
                let corrupted =
                    corrupt_nodes(&net, &placement, &files, lambda, strategy, false, &mut rng);
                let cap: u64 = corrupted.iter().map(|&n| net.nodes[n].capacity).sum();
                assert!(
                    cap as f64 <= lambda * net.total_capacity() as f64 + 1e-9,
                    "{strategy:?} λ={lambda}: {cap}"
                );
            }
        }
    }

    #[test]
    fn greedy_kills_more_than_random() {
        // Greedy should destroy at least as much value as random at the
        // same budget (statistically; fixed seed makes this deterministic).
        let net = NetworkSpec::uniform(60, 64);
        let mut rng = DetRng::from_seed_label(52, "greedy");
        let files: Vec<FileSpec> = (0..200)
            .map(|_| FileSpec {
                size: 2,
                value: 1.0,
            })
            .collect();
        let placement = Placement {
            locations: files
                .iter()
                .map(|_| sample_capacity_weighted(&net, 3, &mut rng))
                .collect(),
            survivors_needed: vec![1; files.len()],
        };
        let mut rng_a = DetRng::from_seed_label(53, "a");
        let mut rng_b = DetRng::from_seed_label(53, "b");
        let random = corrupt_nodes(
            &net,
            &placement,
            &files,
            0.5,
            AdversaryStrategy::Random,
            false,
            &mut rng_a,
        );
        let greedy = corrupt_nodes(
            &net,
            &placement,
            &files,
            0.5,
            AdversaryStrategy::GreedyKill,
            false,
            &mut rng_b,
        );
        let loss_random = evaluate_loss(&net, &placement, &files, &random);
        let loss_greedy = evaluate_loss(&net, &placement, &files, &greedy);
        assert!(
            loss_greedy.lost_value >= loss_random.lost_value,
            "greedy {} < random {}",
            loss_greedy.lost_value,
            loss_random.lost_value
        );
    }

    #[test]
    fn greedy_kill_breaks_ties_by_lowest_entity() {
        // Two entities with identical holdings and a budget for one: the
        // scores tie, so entity 0 must be chosen, on every call.
        let net = NetworkSpec::uniform(2, 64);
        let files = vec![
            FileSpec {
                size: 1,
                value: 1.0,
            };
            2
        ];
        let placement = Placement {
            locations: vec![vec![0], vec![1]],
            survivors_needed: vec![1, 1],
        };
        for _ in 0..16 {
            let mut rng = DetRng::from_seed_label(55, "tie");
            let corrupted = corrupt_nodes(
                &net,
                &placement,
                &files,
                0.5,
                AdversaryStrategy::GreedyKill,
                false,
                &mut rng,
            );
            assert_eq!(corrupted, HashSet::from([0]));
        }
    }

    #[test]
    fn sybil_collapse_cheapens_corruption() {
        // 10 logical nodes backed by one entity: with collapse, corrupting
        // the entity costs one node's capacity but kills all ten.
        let net = NetworkSpec {
            nodes: (0..10)
                .map(|_| NodeSpec {
                    capacity: 64,
                    entity: 0,
                })
                .collect(),
        };
        let files = vec![FileSpec {
            size: 1,
            value: 1.0,
        }];
        let placement = Placement {
            locations: vec![vec![0, 5, 9]],
            survivors_needed: vec![1],
        };
        let mut rng = DetRng::from_seed_label(54, "sybil");
        // Budget = 0.15 of 640 = 96 ≥ one node (64) but < total (640).
        let corrupted = corrupt_nodes(
            &net,
            &placement,
            &files,
            0.15,
            AdversaryStrategy::LargestFirst,
            true,
            &mut rng,
        );
        assert_eq!(corrupted.len(), 10, "whole entity corrupted");
        assert!(!placement.survives(0, &corrupted));
        // In an honest network (distinct entities) the same budget buys a
        // single node.
        let honest_net = NetworkSpec::uniform(10, 64);
        let honest = corrupt_nodes(
            &honest_net,
            &placement,
            &files,
            0.15,
            AdversaryStrategy::LargestFirst,
            false,
            &mut rng,
        );
        assert_eq!(honest.len(), 1);
    }

    #[test]
    fn capacity_weighted_sampling_is_proportional() {
        let net = NetworkSpec {
            nodes: vec![
                NodeSpec {
                    capacity: 10,
                    entity: 0,
                },
                NodeSpec {
                    capacity: 90,
                    entity: 1,
                },
            ],
        };
        let mut rng = DetRng::from_seed_label(55, "cw");
        let samples = sample_capacity_weighted(&net, 50_000, &mut rng);
        let big = samples.iter().filter(|&&n| n == 1).count();
        let frac = big as f64 / samples.len() as f64;
        assert!((frac - 0.9).abs() < 0.01, "frac {frac}");
    }
}
