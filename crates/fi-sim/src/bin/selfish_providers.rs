//! §VI-E experiment: refreshing defeats selfish storage providers.

use fi_sim::selfish::render_comparison;

fn main() {
    println!(
        "{}",
        fi_sim::banner(
            "Selfish storage providers vs the refresh mechanism",
            "FileInsurer (ICDCS'22), §VI-E"
        )
    );
    println!("20000 files, 500 sectors, k=3 replicas, 50 refresh epochs\n");
    println!("{}", render_comparison(20_000, 500, 3, 50, 0x5E1F));
    println!("expected shape: with static placement, alpha^k of files are *permanently*");
    println!("controlled by selfish providers; with refresh, permanent capture vanishes");
    println!("while the transient per-epoch capture stays at the memoryless alpha^k.");
}
