//! Design-choice ablations from DESIGN.md §5: refresh pacing and
//! value-level subnets.

use fi_sim::ablation::{render_pacing, subnet_replicas};

fn main() {
    println!(
        "{}",
        fi_sim::banner(
            "Ablations — refresh pacing and value-level subnets",
            "FileInsurer (ICDCS'22), Fig. 7 (SampleExp) and §VI-D"
        )
    );
    println!("refresh pacing (2000 files, mean period 200 ticks, transfer 10 ticks):\n");
    println!("{}", render_pacing(2_000, 0xAB1A));

    println!("value-level subnets (5000 files, Zipf-like values, k=10, 3 levels):\n");
    let out = subnet_replicas(5_000, 10, 3, 0xAB1B);
    println!("  replicas without subnets: {}", out.replicas_flat);
    println!("  replicas with subnets:    {}", out.replicas_subnets);
    println!(
        "  saving: {:.1}x",
        out.replicas_flat as f64 / out.replicas_subnets as f64
    );
}
