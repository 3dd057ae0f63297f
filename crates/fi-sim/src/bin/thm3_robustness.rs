//! Verifies Theorem 3: robustness (gamma_lost vs the analytic bound).

use fi_sim::robustness::{render, run_headline, run_sweep, RobustnessConfig};
use fi_sim::Scale;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args(&args);
    let config = RobustnessConfig::for_scale(scale);
    println!(
        "{}",
        fi_sim::banner(
            "Theorem 3 — provable robustness",
            "FileInsurer (ICDCS'22), Theorem 3 / §V-B.3"
        )
    );
    println!(
        "Ns={} sectors, Nv={} minValue files, capPara={}, gamma_m_v={}\n",
        config.ns, config.nv, config.cap_para, config.gamma_m_v
    );

    println!("headline (paper example): k=20, lambda=0.5 — 'no more than 0.1% of value lost'");
    println!("{}", render(&run_headline(&config)));

    println!("sweep: k x lambda x adversary");
    let rows = run_sweep(&config, &[4, 10, 20], &[0.1, 0.3, 0.5, 0.7]);
    println!("{}", render(&rows));
    println!("expected shape: measured gamma_lost <= bound everywhere; losses only at");
    println!("small k / large lambda; k=20 rows lose nothing at any adversary.");
}
