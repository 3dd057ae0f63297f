//! Extensions beyond the core protocol: value-level subnetworks (§VI-D)
//! and the §VII reputation open problem, prototyped.
//!
//! Run with `cargo run --example reputation_and_subnets`.

use fileinsurer::prelude::*;
use fileinsurer::reputation::{ReputationBook, ReputationParams};
use fileinsurer::subnet::SubnetRouter;

fn main() {
    // ---- §VI-D: value-level subnetworks --------------------------------
    println!("== value-level subnetworks (§VI-D) ==");
    let base = ProtocolParams {
        k: 4,
        ..ProtocolParams::default()
    };
    let mut router = SubnetRouter::new(base, 3, 10).unwrap();
    let provider = AccountId(100);
    let client = AccountId(200);
    for level in 0..router.level_count() {
        let engine = router.level_mut(level);
        engine.fund(provider, TokenAmount(u128::MAX / 8));
        engine.fund(client, TokenAmount(10_000_000_000));
        engine.sector_register(provider, 6_400).unwrap();
        println!("  level {level}: minValue = {}", engine.params().min_value);
    }
    for value in [1_000u128, 25_000, 3_000_000] {
        let (without, with) = router.replica_saving(TokenAmount(value));
        let id = router
            .file_add(client, 8, TokenAmount(value), sha256(&value.to_be_bytes()))
            .unwrap();
        println!(
            "  file of value {value:>9}: level {}, {} replicas (flat design would need {})",
            id.level,
            router.level(id.level).file(id.file).unwrap().cp,
            without.max(with)
        );
    }

    // ---- §VII: reputation prototype -------------------------------------
    println!("\n== provider reputation (§VII open problem) ==");
    let mut book = ReputationBook::new(ReputationParams::default());
    let reliable = AccountId(1);
    let flaky = AccountId(2);
    for round in 0..25 {
        book.record_proof(reliable);
        if round % 3 == 0 {
            book.record_miss(flaky);
        } else {
            book.record_proof(flaky);
        }
    }
    println!(
        "  reliable provider: score {:>7.2}, capacity factor {:.2}",
        book.score(reliable),
        book.factor(reliable)
    );
    println!(
        "  flaky provider:    score {:>7.2}, capacity factor {:.2}",
        book.score(flaky),
        book.factor(flaky)
    );
    println!(
        "  a 640-unit sector weighs {} vs {} in RandomSector()",
        book.weighted_capacity(reliable, 640),
        book.weighted_capacity(flaky, 640)
    );
    println!("\nreputation shifts placement away from unreliable providers while");
    println!("never excluding them (clamped factor), preserving the i.i.d. analysis.");
}
