//! Verifies Theorem 1: capacity scalability of FileInsurer.

use fi_sim::scalability::{render, run_all, ScalabilityConfig};

fn main() {
    println!(
        "{}",
        fi_sim::banner(
            "Theorem 1 — capacity scalability",
            "FileInsurer (ICDCS'22), Theorem 1 / §V-B.1"
        )
    );
    let config = ScalabilityConfig::default();
    println!(
        "Ns={} sectors x minCapacity={}, k={}, capPara={}\n",
        config.ns, config.min_capacity, config.k, config.cap_para
    );
    let rows = run_all(&config);
    println!("{}", render(&rows));
    println!("expected shape: measured/predicted ~ 1.0; binding restriction switches");
    println!("between 'capacity' and 'value' with the workload's r1/r2 balance.");
}
