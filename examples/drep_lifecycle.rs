//! Dynamic Replication (DRep) lifecycle — paper Fig. 2, live.
//!
//! Run with `cargo run --example drep_lifecycle`.
//!
//! A sector is registered full of Capacity Replicas (CRs); files displace
//! CRs; removing files regenerates CRs bit-identically; and every byte the
//! sector claims — files *and* CRs — answers WindowPoSt challenges.

use fi_porep::post::{derive_challenges, WindowPost};
use fi_porep::seal::{ReplicaId, SealedReplica};
use fileinsurer::materialized::MaterializedSector;
use fileinsurer::prelude::*;

fn show(sector: &MaterializedSector, label: &str) {
    let acct = sector.accounting();
    println!(
        "{label:<28} CRs={} file-bytes={} unsealed={} (invariant: unsealed < CR size: {})",
        acct.cr_count(),
        acct.file_bytes(),
        acct.unsealed(),
        acct.invariant_holds()
    );
}

fn main() {
    let tag = sha256(b"sector-42");
    // Fig. 2(a): capacity 600, CR size 100 -> six CRs.
    let mut sector = MaterializedSector::register(tag, 600, 100);
    show(&sector, "registered (Fig. 2a)");
    println!(
        "  on-chain CR commitments: {}",
        sector
            .cr_commitments()
            .iter()
            .map(|c| c.to_hex()[..8].to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );

    // Fig. 2(b): two files arrive (200 + 170 bytes).
    let file_a: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
    let file_b: Vec<u8> = (0..170u32).map(|i| (i % 13) as u8).collect();
    let rid_a = ReplicaId::derive(&sha256(&file_a), &tag, 0);
    let rid_b = ReplicaId::derive(&sha256(&file_b), &tag, 1);
    let handle_a = sector.store_file(SealedReplica::seal(&file_a, rid_a));
    let handle_b = sector.store_file(SealedReplica::seal(&file_b, rid_b));
    show(&sector, "two files stored (Fig. 2b)");

    // Every claimed byte is provable: beacon challenges against all CRs
    // and both file replicas.
    let beacon = sha256(b"round-7");
    let mut proven = 0;
    for cr in sector.crs() {
        let ch = derive_challenges(&beacon, &cr.comm_r(), 2, cr.replica().chunk_count());
        assert!(WindowPost::respond(cr.replica(), &ch).verify(&cr.comm_r(), &ch));
        proven += 1;
    }
    for handle in [handle_a, handle_b] {
        let rep = sector.file(handle).unwrap();
        let ch = derive_challenges(&beacon, &rep.comm_r(), 2, rep.chunk_count());
        assert!(WindowPost::respond(rep, &ch).verify(&rep.comm_r(), &ch));
        proven += 1;
    }
    println!("  WindowPoSt: {proven} commitments answered beacon challenges");

    // Fig. 2(c): the 170-byte file leaves; CRs regenerate from nothing.
    let removed = sector.remove_file(handle_b);
    assert_eq!(removed.unseal(), file_b);
    show(&sector, "file removed (Fig. 2c)");
    println!(
        "  CRs regenerated so far: {}",
        sector.accounting().total_regenerated()
    );

    // The headline economics of DRep: moving a file costs transfer +
    // re-seal, NOT a full sector re-proof.
    let costs = fi_porep::CostModel::default();
    println!(
        "\nDRep vs naive re-sealing for a 1 MiB file in a 64 GiB sector:\n  \
         drep move: {:>14.0} cost units\n  naive re-seal: {:>10.0} cost units ({}x)",
        costs.drep_move(1 << 20),
        costs.naive_sector_reseal(64 << 30),
        (costs.naive_sector_reseal(64 << 30) / costs.drep_move(1 << 20)) as u64
    );
}
