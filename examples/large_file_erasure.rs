//! Extremely large files via erasure segmentation — paper §VI-C.
//!
//! Run with `cargo run --example large_file_erasure`.
//!
//! A file larger than `sizeLimit` cannot be stored whole (it would break
//! storage randomness), so it is Reed–Solomon-segmented: each segment is
//! stored as an individual file of value `2·value/segments`, and the
//! original is recoverable from any half of the segments. We store the
//! segments, destroy almost half the network, and reassemble.

use fileinsurer::prelude::*;
use fileinsurer::segment::{reassemble_file, segment_file};

fn main() {
    let params = ProtocolParams {
        k: 3,
        size_limit: 32,
        delay_per_size: 2,
        ..ProtocolParams::default()
    };
    let size_limit = params.size_limit;

    let mut net = Engine::new(params.clone()).expect("valid parameters");
    let client = AccountId(200);
    net.fund(client, TokenAmount(100_000_000));
    let mut sectors = Vec::new();
    for i in 0..12u64 {
        let provider = AccountId(100 + i);
        net.fund(provider, TokenAmount(1_000_000_000));
        sectors.push(net.sector_register(provider, 640).unwrap());
    }

    // A 300-unit "film archive" — almost 10x the 32-unit size limit.
    let payload: Vec<u8> = (0..300u32).map(|i| (i * 31 % 251) as u8).collect();
    let value = TokenAmount(10_000);
    println!(
        "file of size {} exceeds sizeLimit {} -> the engine refuses it:",
        payload.len(),
        size_limit
    );
    let err = net
        .file_add(client, payload.len() as u64, value, sha256(&payload))
        .unwrap_err();
    println!("  {err}\n");

    // §VI-C: segment it. 300/32 -> 10 data shards + 10 parity shards,
    // encoded in place in one flat buffer.
    let segmented = segment_file(&payload, value, &params).expect("needs segmentation");
    println!(
        "segmented into {} pieces of <= {} units, each insured at {} \
         (2·value/k rounded up to a minValue multiple)",
        segmented.segment_count(),
        size_limit,
        segmented.segment_value
    );

    // Store every segment as an ordinary file (borrowed straight from the
    // flat buffer — no per-segment copies).
    let mut ids = Vec::new();
    for seg in segmented.segments() {
        let id = net
            .file_add(
                client,
                seg.len() as u64,
                segmented.segment_value,
                sha256(seg),
            )
            .unwrap();
        ids.push(id);
    }
    net.honest_providers_act();
    net.advance_to(net.now() + 80);
    let stored = ids.iter().filter(|id| net.file(**id).is_some()).count();
    println!("stored {stored}/{} segments on the network\n", ids.len());

    // Catastrophe: 5 of 12 sectors die.
    println!("!! corrupting 5 of 12 sectors !!");
    for &sid in sectors.iter().take(5) {
        net.corrupt_sector_now(sid);
    }
    for _ in 0..6 {
        net.honest_providers_act();
        net.advance_to(net.now() + net.params().proof_cycle);
    }

    // Which segments survive? (A segment survives while any replica does.)
    let received: Vec<Option<&[u8]>> = ids
        .iter()
        .zip(segmented.segments())
        .map(|(id, seg)| net.file(*id).map(|_| seg))
        .collect();
    let alive = received.iter().filter(|r| r.is_some()).count();
    println!(
        "{alive}/{} segments survive; {} lost and compensated at {} each",
        ids.len(),
        ids.len() - alive,
        segmented.segment_value
    );

    match reassemble_file(&segmented, &received) {
        Ok(recovered) => {
            assert_eq!(recovered, payload);
            println!("\nfile fully reassembled from surviving segments — §VI-C works.");
        }
        Err(e) => {
            let payout = net.stats().compensation_paid;
            println!(
                "\nfile unrecoverable ({e}); insurance paid {payout} >= declared value {value}"
            );
        }
    }
}
