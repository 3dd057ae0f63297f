//! Verifies Theorem 2: collision probability bound.

use fi_sim::collision::{render, run};
use fi_sim::Scale;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = Scale::from_args(&args);
    let (ns, trials) = match scale {
        Scale::Paper => (200, 2_000),
        Scale::Default => (100, 400),
    };
    println!(
        "{}",
        fi_sim::banner(
            "Theorem 2 — collision probability",
            "FileInsurer (ICDCS'22), Theorem 2 / §V-B.2"
        )
    );
    println!("equal-size files filling half of total capacity; event: freeCap <= capacity/8\n");
    let rows = run(&[8, 12, 16, 24, 32, 48, 64, 96, 128], ns, trials, 0x7112);
    println!("{}", render(&rows));
}
