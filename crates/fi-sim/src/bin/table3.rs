//! Regenerates Table III: maximum capacity usage of sectors.

use fi_sim::table3::{render, run_table3};
use fi_sim::Scale;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args(&args);
    println!(
        "{}",
        fi_sim::banner(
            "Table III — maximum capacity usage of sectors",
            "FileInsurer (ICDCS'22), Table III / §V-B.2"
        )
    );
    if scale == Scale::Default {
        println!("scaled mode: Ncp capped at 1e6, 20 realloc rounds, 10x refresh multiplier\n");
    }
    let results = run_table3(scale);
    println!("{}", render(&results));
    println!("paper reference values (top block, [1] column): 0.525 0.571 0.538 0.591 0.540 0.589 0.541 0.591");
    println!("expected shape: values in [0.50, 0.65]; larger Ns at fixed Ncp => larger max usage.");
}
