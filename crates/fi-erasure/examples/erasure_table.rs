//! Prints the flat-buffer fast path measured against the frozen seed
//! implementation (`fi_erasure::reference`) on fixed encode and
//! reconstruct cases, and exits non-zero if the two headline speedups
//! fall below their bars: ≥ 5x encode at (8,8)/64 KiB and ≥ 10x
//! single-erasure reconstruct.
//!
//! Usage: `cargo run --release -q -p fi-erasure --example erasure_table`
//!
//! Encode is compared end to end: both sides pay the payload split and
//! the shard-buffer allocation, not just the parity kernel.

use std::hint::black_box;
use std::time::Instant;

use fi_erasure::reference::RefReedSolomon;
use fi_erasure::ReedSolomon;

/// One kibibyte.
const KIB: usize = 1024;
/// One mebibyte.
const MIB: usize = 1024 * 1024;

/// Timed calls per fast-path case (after one warm-up).
const REPS: usize = 30;
/// Timed calls per seed-reference case: the seed path is too slow for
/// [`REPS`].
const SEED_REPS: usize = 10;

/// Encode cases as `(data, parity, bytes)`: the paper's half-loss (8,8)
/// point at 64 KiB is the headline; 1 MiB and 16 MiB probe cache-miss
/// behaviour on segment-scale payloads. The seed reference is timed up
/// to 1 MiB only.
const ENCODE: &[(usize, usize, usize)] = &[
    (8, 8, 64 * KIB),
    (4, 2, 64 * KIB),
    (16, 16, 64 * KIB),
    (8, 8, MIB),
    (8, 8, 16 * MIB),
];

/// Reconstruct cases as `(data, parity, bytes, pattern label)`.
const RECONSTRUCT: &[(usize, usize, usize, &str)] = &[
    (8, 8, 64 * KIB, "single-data"),
    (8, 8, 64 * KIB, "single-parity"),
    (8, 8, 64 * KIB, "all-data"),
    (16, 16, 64 * KIB, "single-data"),
];

/// Deterministic payload (byte `i` = `i·131 mod 256`).
fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 131 % 256) as u8).collect()
}

/// The shard indices a named erasure pattern loses, for a code with
/// `data` data shards (parity shards follow them).
///
/// # Panics
///
/// Panics when the label names no pattern (a case-table bug).
fn pattern(data: usize, label: &str) -> Vec<usize> {
    match label {
        "single-data" => vec![0],
        "single-parity" => vec![data],
        "all-data" => (0..data).collect(),
        _ => panic!("unknown erasure pattern {label}"),
    }
}

/// Median seconds per call over `reps` timed calls (after one warm-up).
fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

struct Row {
    name: String,
    bytes: usize,
    /// Median seconds of the seed reference, if measured.
    seed_s: Option<f64>,
    /// Median seconds of the fast path.
    fast_s: f64,
}

impl Row {
    fn speedup(&self) -> Option<f64> {
        self.seed_s.map(|s| s / self.fast_s)
    }
}

fn encode_row(data: usize, parity: usize, bytes: usize) -> Row {
    let rs = ReedSolomon::new(data, parity).unwrap();
    let buf = payload(bytes);
    let reps = if bytes > MIB { 5 } else { REPS };
    let fast_s = time_median(reps, || {
        black_box(rs.encode_bytes_flat(&buf));
    });
    let seed_s = (bytes <= MIB).then(|| {
        let seed_rs = RefReedSolomon::new(data, parity);
        time_median(SEED_REPS, || {
            black_box(seed_rs.encode_bytes(&buf));
        })
    });
    Row {
        name: format!("encode/{data}+{parity}/{}KiB", bytes / KIB),
        bytes,
        seed_s,
        fast_s,
    }
}

fn reconstruct_row(data: usize, parity: usize, bytes: usize, label: &str) -> Row {
    let rs = ReedSolomon::new(data, parity).unwrap();
    let encoded = rs.encode_bytes_flat(&payload(bytes));
    let mut present = vec![true; data + parity];
    for i in pattern(data, label) {
        present[i] = false;
    }

    let mut set = encoded.clone();
    let fast_s = time_median(REPS, || {
        rs.reconstruct_into(black_box(&mut set), &present).unwrap()
    });

    let seed_rs = RefReedSolomon::new(data, parity);
    let got: Vec<Option<Vec<u8>>> = encoded
        .iter()
        .enumerate()
        .map(|(i, s)| present[i].then(|| s.to_vec()))
        .collect();
    let seed_s = time_median(SEED_REPS, || {
        black_box(seed_rs.reconstruct(&got));
    });

    Row {
        name: format!("reconstruct/{data}+{parity}/{}KiB/{label}", bytes / KIB),
        bytes,
        seed_s: Some(seed_s),
        fast_s,
    }
}

fn main() {
    let rows: Vec<Row> = ENCODE
        .iter()
        .map(|&(d, p, b)| encode_row(d, p, b))
        .chain(
            RECONSTRUCT
                .iter()
                .map(|&(d, p, b, label)| reconstruct_row(d, p, b, label)),
        )
        .collect();

    println!("fi-erasure flat-buffer fast path vs the frozen seed reference (medians)\n");
    println!(
        "{:<36} {:>10} {:>10} {:>9} {:>10}",
        "case", "seed ms", "fast ms", "speedup", "fast MiB/s"
    );
    for row in &rows {
        let dash = || "-".to_string();
        println!(
            "{:<36} {:>10} {:>10.4} {:>9} {:>10.1}",
            row.name,
            row.seed_s.map_or_else(dash, |s| format!("{:.4}", s * 1e3)),
            row.fast_s * 1e3,
            row.speedup().map_or_else(dash, |x| format!("{x:.1}x")),
            row.bytes as f64 / MIB as f64 / row.fast_s,
        );
    }

    let speedup = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .and_then(Row::speedup)
            .expect("headline case is measured against the seed")
    };
    let enc = speedup("encode/8+8/64KiB");
    let rec = speedup("reconstruct/8+8/64KiB/single-data");
    println!("\nheadline: encode(8,8)/64KiB {enc:.1}x, single-erasure reconstruct {rec:.1}x");
    assert!(enc >= 5.0, "encode speedup {enc:.2}x fell below the 5x bar");
    assert!(
        rec >= 10.0,
        "reconstruct speedup {rec:.2}x fell below the 10x bar"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_deterministic_and_nontrivial() {
        assert_eq!(payload(4), payload(4));
        assert_eq!(payload(3), vec![0, 131, 6]);
    }

    #[test]
    fn patterns_stay_within_bounds() {
        for &(data, parity, _, label) in RECONSTRUCT {
            let erased = pattern(data, label);
            assert!(!erased.is_empty(), "{label}");
            assert!(erased.iter().all(|&i| i < data + parity), "{label}");
            assert!(erased.len() <= parity, "{label}: more erasures than parity");
        }
        assert_eq!(pattern(8, "single-data"), vec![0]);
        assert_eq!(pattern(8, "single-parity"), vec![8]);
    }
}
