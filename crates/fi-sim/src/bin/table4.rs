//! Regenerates Table IV: comparison of DSN protocols (measured).

use fi_sim::table4::{render, run, Table4Config};
use fi_sim::Scale;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args(&args);
    println!(
        "{}",
        fi_sim::banner(
            "Table IV — comparison of DSN protocols",
            "FileInsurer (ICDCS'22), Table IV / §V-C"
        )
    );
    let config = Table4Config::for_scale(scale);
    println!(
        "network: {} nodes, {} files, k={}, greedy adversary at lambda={}\n",
        config.ns, config.nv, config.k, config.lambda
    );
    let rows = run(&config);
    println!("{}", render(&rows));
}
