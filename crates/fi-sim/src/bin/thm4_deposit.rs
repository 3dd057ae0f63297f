//! Verifies Theorem 4: the deposit ratio sufficient for full compensation.

use fi_sim::deposit::{paper_example_bound, render, run_sweep};
use fi_sim::robustness::RobustnessConfig;
use fi_sim::Scale;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args(&args);
    let config = RobustnessConfig::for_scale(scale);
    println!(
        "{}",
        fi_sim::banner(
            "Theorem 4 — deposit ratio for full compensation",
            "FileInsurer (ICDCS'22), Theorem 4 / §V-B.4"
        )
    );
    println!(
        "paper example: k=20, Ns=1e6, capPara=1e3, lambda=0.5 => gamma_deposit = {:.4}\n",
        paper_example_bound()
    );
    let rows = run_sweep(&config, &[4, 10, 20], &[0.1, 0.3, 0.5, 0.7]);
    println!("{}", render(&rows));
    println!("expected shape: 'covered' = yes everywhere (the bound always dominates the");
    println!("empirically required ratio); required ratios shrink rapidly with k.");
}
