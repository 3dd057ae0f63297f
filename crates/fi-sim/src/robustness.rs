//! Theorem 3 experiment: measured `γ_lost` versus the analytic bound.
//!
//! Setup mirroring §V-B.3: `Nv` files of value `minValue`, each stored as
//! `k` i.i.d. capacity-proportional replicas over `Ns` equal sectors. An
//! adversary corrupts sectors totalling `λ` of capacity under each
//! strategy of [`fi_baselines::AdversaryStrategy`]; we measure the ratio
//! of lost value and compare against
//! [`fi_analysis::theorems::theorem3_gamma_lost_bound`].
//!
//! The theorem quantifies over *all* corruption patterns; the greedy
//! adversary probes the bound from below. The headline row reproduces the
//! paper's example: `k = 20`, `λ = 0.5` ⇒ measured losses are *zero* at
//! any feasible simulation scale (expected lost files `Nv·2^-20`), far
//! inside the ≤ 0.1% claim.

use fi_analysis::theorems::{theorem3_gamma_lost_bound, RobustnessParams, SECURITY_PARAMETER};
use fi_baselines::fileinsurer::FileInsurerModel;
use fi_baselines::{
    corrupt_nodes, evaluate_loss, AdversaryStrategy, DsnModel, FileSpec, NetworkSpec,
};
use fi_crypto::DetRng;

use crate::report::{sci, TextTable};
use crate::Scale;

/// Re-exported from its home in `fi_node::chaos` for `benchmark/`'s
/// `node_cluster` import; goes when `benchmark/` switches its imports
/// (ROADMAP item 1).
pub use fi_node::chaos::NetworkRobustnessSpec;

/// One experiment row.
#[derive(Debug, Clone)]
pub struct RobustnessRow {
    /// Replication parameter `k`.
    pub k: u32,
    /// Corrupted capacity fraction.
    pub lambda: f64,
    /// Adversary strategy.
    pub strategy: AdversaryStrategy,
    /// Measured lost-value ratio.
    pub gamma_lost: f64,
    /// Theorem 3 bound at these parameters.
    pub bound: f64,
    /// Lost file count.
    pub lost_files: usize,
    /// Total file count.
    pub total_files: usize,
}

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct RobustnessConfig {
    /// Sector count `Ns`.
    pub ns: usize,
    /// File count `Nv` (all at `minValue`).
    pub nv: usize,
    /// `capPara` used for the bound's third term.
    pub cap_para: f64,
    /// Value fill ratio `γm_v` for the bound.
    pub gamma_m_v: f64,
    /// RNG seed.
    pub seed: u64,
}

impl RobustnessConfig {
    /// Scale-dependent defaults. `Paper` pushes `Ns`/`Nv` an order of
    /// magnitude up; the full 1e6-sector example is analytic-only (the
    /// bound is evaluated, the Monte-Carlo at that scale adds nothing —
    /// measured losses are identically zero long before).
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Paper => RobustnessConfig {
                ns: 5_000,
                nv: 50_000,
                cap_para: 1_000.0,
                gamma_m_v: 0.005,
                seed: 0x0B0B,
            },
            Scale::Default => RobustnessConfig {
                ns: 800,
                nv: 8_000,
                cap_para: 1_000.0,
                gamma_m_v: 0.005,
                seed: 0x0B0B,
            },
        }
    }
}

/// Runs the sweep over `k ∈ ks`, `λ ∈ lambdas`, all adversary strategies.
pub fn run_sweep(config: &RobustnessConfig, ks: &[u32], lambdas: &[f64]) -> Vec<RobustnessRow> {
    let mut rows = Vec::new();
    let net = NetworkSpec::uniform(config.ns, 64);
    let files: Vec<FileSpec> = (0..config.nv)
        .map(|_| FileSpec {
            size: 1,
            value: 1.0,
        })
        .collect();
    for &k in ks {
        let model = FileInsurerModel::new(k, 0.0046);
        let mut rng = DetRng::from_seed_label(config.seed, &format!("place/k{k}"));
        let placement = model.place(&net, &files, &mut rng);
        for &lambda in lambdas {
            for strategy in AdversaryStrategy::ALL {
                let mut adv_rng = DetRng::from_seed_label(
                    config.seed,
                    &format!("adv/k{k}/l{lambda}/{}", strategy.label()),
                );
                let corrupted = corrupt_nodes(
                    &net,
                    &placement,
                    &files,
                    lambda,
                    strategy,
                    false,
                    &mut adv_rng,
                );
                let report = evaluate_loss(&net, &placement, &files, &corrupted);
                let params = RobustnessParams {
                    n_s: config.ns as f64,
                    k: k as f64,
                    cap_para: config.cap_para,
                    lambda,
                    c: SECURITY_PARAMETER,
                };
                rows.push(RobustnessRow {
                    k,
                    lambda,
                    strategy,
                    gamma_lost: report.gamma_lost(),
                    bound: theorem3_gamma_lost_bound(&params, config.gamma_m_v).min(1.0),
                    lost_files: report.lost_files,
                    total_files: files.len(),
                });
            }
        }
    }
    rows
}

/// The paper's §V-B.3 headline: `k=20, λ=0.5` under every adversary.
pub fn run_headline(config: &RobustnessConfig) -> Vec<RobustnessRow> {
    run_sweep(config, &[20], &[0.5])
}

/// Renders sweep rows.
pub fn render(rows: &[RobustnessRow]) -> String {
    let mut table = TextTable::new(vec![
        "k",
        "lambda",
        "adversary",
        "lost files",
        "gamma_lost (measured)",
        "Thm-3 bound",
        "holds",
    ]);
    for r in rows {
        table.row(vec![
            r.k.to_string(),
            format!("{:.2}", r.lambda),
            r.strategy.label().to_string(),
            format!("{}/{}", r.lost_files, r.total_files),
            sci(r.gamma_lost),
            sci(r.bound),
            if r.gamma_lost <= r.bound + 1e-12 {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RobustnessConfig {
        RobustnessConfig {
            ns: 200,
            nv: 2_000,
            cap_para: 1_000.0,
            gamma_m_v: 0.005,
            seed: 7,
        }
    }

    #[test]
    fn headline_no_losses_at_k20_half_corruption() {
        let rows = run_headline(&tiny());
        assert_eq!(rows.len(), AdversaryStrategy::ALL.len());
        for r in &rows {
            assert_eq!(r.lost_files, 0, "{:?}: {} lost", r.strategy, r.lost_files);
            assert!(r.gamma_lost <= r.bound);
        }
    }

    #[test]
    fn small_k_large_lambda_does_lose_files() {
        // Sanity that the experiment *can* observe losses: k=2, λ=0.6.
        let rows = run_sweep(&tiny(), &[2], &[0.6]);
        let greedy = rows
            .iter()
            .find(|r| r.strategy == AdversaryStrategy::GreedyKill)
            .unwrap();
        assert!(greedy.lost_files > 0, "greedy should kill some k=2 files");
    }

    #[test]
    fn gamma_lost_monotone_in_lambda_for_random() {
        let rows = run_sweep(&tiny(), &[3], &[0.3, 0.6, 0.9]);
        let random: Vec<&RobustnessRow> = rows
            .iter()
            .filter(|r| r.strategy == AdversaryStrategy::Random)
            .collect();
        assert!(random[0].gamma_lost <= random[1].gamma_lost + 1e-9);
        assert!(random[1].gamma_lost <= random[2].gamma_lost + 1e-9);
    }

    #[test]
    fn render_marks_bound_violations() {
        let rows = vec![RobustnessRow {
            k: 2,
            lambda: 0.5,
            strategy: AdversaryStrategy::Random,
            gamma_lost: 0.9,
            bound: 0.5,
            lost_files: 9,
            total_files: 10,
        }];
        assert!(render(&rows).contains("NO"));
    }
}
