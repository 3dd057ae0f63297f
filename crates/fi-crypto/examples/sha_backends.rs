//! Prints the SHA-256 backends detected on this host, comma-joined, and the
//! active one — CI records the line so a runner without AVX-512 or SHA-NI
//! shows which kernels its test run did not exercise.

use fi_crypto::sha256::{active_backend, available_backends};

fn main() {
    let names: Vec<&str> = available_backends().iter().map(|b| b.name()).collect();
    println!("{} (active: {})", names.join(","), active_backend().name());
}
