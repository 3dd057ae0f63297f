//! Frozen scalar reference implementation of the erasure path.
//!
//! This module is a faithful snapshot of the **seed** implementation before
//! the flat-buffer/table-accelerated overhaul: log/antilog scalar
//! multiplication with a per-byte zero branch, cloning `encode`, and a
//! `reconstruct` that re-derives *every* parity shard. It exists for two
//! reasons and must not be "optimised":
//!
//! 1. **Differential testing** — `tests/differential.rs` pins the fast path
//!    byte-for-byte against this code across random payloads, coefficients,
//!    and erasure patterns.
//! 2. **Honest benchmarking** — `examples/erasure_table.rs` measures
//!    speedups against this code rather than asserting them.
//!
//! It deliberately rebuilds its own private tables so a bug in the shared
//! [`crate::Gf256`] tables cannot cancel out of the comparison.

/// Seed-style GF(2^8) with private log/antilog tables.
pub struct RefGf256 {
    exp: [u8; 512],
    log: [u16; 256],
}

impl Default for RefGf256 {
    fn default() -> Self {
        Self::new()
    }
}

fn slow_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let hi = a & 0x80 != 0;
        a <<= 1;
        if hi {
            a ^= 0x1B;
        }
        b >>= 1;
    }
    acc
}

impl RefGf256 {
    /// Builds the tables (seed construction, generator 0x03).
    pub fn new() -> Self {
        let mut exp = [0u8; 512];
        let mut log = [0u16; 256];
        let mut x = 1u8;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x;
            log[x as usize] = i as u16;
            x = slow_mul(x, 0x03);
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        RefGf256 { exp, log }
    }

    /// Scalar multiplication via log/antilog, with the zero branch.
    #[inline(always)]
    pub fn mul(&self, a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize]
        }
    }

    /// Multiplicative inverse.
    pub fn inv(&self, a: u8) -> u8 {
        assert!(a != 0, "zero has no inverse in GF(256)");
        self.exp[255 - self.log[a as usize] as usize]
    }

    /// The seed inner loop: per-byte, two lookups plus a branch.
    pub fn mul_acc(&self, dst: &mut [u8], src: &[u8], coeff: u8) {
        assert_eq!(dst.len(), src.len(), "length mismatch");
        if coeff == 0 {
            return;
        }
        if coeff == 1 {
            for (d, s) in dst.iter_mut().zip(src) {
                *d ^= s;
            }
            return;
        }
        let log_c = self.log[coeff as usize] as usize;
        for (d, s) in dst.iter_mut().zip(src) {
            if *s != 0 {
                *d ^= self.exp[log_c + self.log[*s as usize] as usize];
            }
        }
    }
}

/// Seed-style systematic Reed–Solomon (clone-heavy, full re-encode on
/// reconstruct).
pub struct RefReedSolomon {
    data: usize,
    parity: usize,
    gf: RefGf256,
    /// `(data+parity) × data`, row-major.
    encode_matrix: Vec<u8>,
}

impl RefReedSolomon {
    /// Builds the seed Vandermonde-derived systematic matrix.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (`data == 0`, `parity == 0`, or
    /// `data + parity > 255`); the reference exists only for valid codes.
    pub fn new(data: usize, parity: usize) -> Self {
        assert!(
            data > 0 && parity > 0 && data + parity <= 255,
            "bad parameters"
        );
        let gf = RefGf256::new();
        let total = data + parity;
        let mut vand = vec![0u8; total * data];
        for (r, point) in (1..=total as u32).enumerate() {
            let mut p = 1u8;
            for c in 0..data {
                vand[r * data + c] = p;
                p = gf.mul(p, point as u8);
            }
        }
        let top: Vec<u8> = vand[..data * data].to_vec();
        let top_inv = invert(&gf, &top, data);
        // encode_matrix = vand × top_inv.
        let mut m = vec![0u8; total * data];
        for i in 0..total {
            for k in 0..data {
                let a = vand[i * data + k];
                if a == 0 {
                    continue;
                }
                for j in 0..data {
                    m[i * data + j] ^= gf.mul(a, top_inv[k * data + j]);
                }
            }
        }
        RefReedSolomon {
            data,
            parity,
            gf,
            encode_matrix: m,
        }
    }

    /// Seed `encode`: clones the data shards, `to_vec`s each matrix row.
    pub fn encode(&self, data_shards: &[Vec<u8>]) -> Vec<Vec<u8>> {
        assert_eq!(data_shards.len(), self.data, "shard arity");
        let len = data_shards[0].len();
        let mut out: Vec<Vec<u8>> = data_shards.to_vec();
        for p in 0..self.parity {
            let row = self.encode_matrix
                [(self.data + p) * self.data..(self.data + p + 1) * self.data]
                .to_vec();
            let mut shard = vec![0u8; len];
            for (c, &coeff) in row.iter().enumerate() {
                self.gf.mul_acc(&mut shard, &data_shards[c], coeff);
            }
            out.push(shard);
        }
        out
    }

    /// Seed `encode_bytes`: per-byte div/mod payload split, then `encode`.
    pub fn encode_bytes(&self, payload: &[u8]) -> Vec<Vec<u8>> {
        let shard_len = payload.len().div_ceil(self.data).max(1);
        let mut data_shards = vec![vec![0u8; shard_len]; self.data];
        for (i, &b) in payload.iter().enumerate() {
            data_shards[i / shard_len][i % shard_len] = b;
        }
        self.encode(&data_shards)
    }

    /// Seed `reconstruct`: decodes the data shards (cloning when all are
    /// present), then re-encodes **all** parity regardless of what was lost.
    ///
    /// # Panics
    ///
    /// Panics when fewer than `data` shards are present; the reference is
    /// only exercised on recoverable patterns.
    pub fn reconstruct(&self, shards: &[Option<Vec<u8>>]) -> Vec<Vec<u8>> {
        assert_eq!(shards.len(), self.data + self.parity, "shard arity");
        let available: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_some()).collect();
        assert!(available.len() >= self.data, "not enough shards");
        let len = shards[available[0]].as_ref().unwrap().len();

        let data_present = (0..self.data).all(|i| shards[i].is_some());
        let data_shards: Vec<Vec<u8>> = if data_present {
            (0..self.data)
                .map(|i| shards[i].as_ref().unwrap().clone())
                .collect()
        } else {
            let chosen = &available[..self.data];
            let mut sub = vec![0u8; self.data * self.data];
            for (r, &shard_idx) in chosen.iter().enumerate() {
                for c in 0..self.data {
                    sub[r * self.data + c] = self.encode_matrix[shard_idx * self.data + c];
                }
            }
            let inv = invert(&self.gf, &sub, self.data);
            (0..self.data)
                .map(|d| {
                    let mut shard = vec![0u8; len];
                    for (r, &shard_idx) in chosen.iter().enumerate() {
                        let coeff = inv[d * self.data + r];
                        self.gf
                            .mul_acc(&mut shard, shards[shard_idx].as_ref().unwrap(), coeff);
                    }
                    shard
                })
                .collect()
        };

        self.encode(&data_shards)
    }
}

/// Gauss–Jordan inversion of an `n × n` row-major matrix (seed algorithm).
fn invert(gf: &RefGf256, m: &[u8], n: usize) -> Vec<u8> {
    let mut a = m.to_vec();
    let mut inv = vec![0u8; n * n];
    for i in 0..n {
        inv[i * n + i] = 1;
    }
    for col in 0..n {
        let pivot = (col..n)
            .find(|&r| a[r * n + col] != 0)
            .expect("reference matrix is invertible");
        if pivot != col {
            for j in 0..n {
                a.swap(col * n + j, pivot * n + j);
                inv.swap(col * n + j, pivot * n + j);
            }
        }
        let p_inv = gf.inv(a[col * n + col]);
        for j in 0..n {
            a[col * n + j] = gf.mul(a[col * n + j], p_inv);
            inv[col * n + j] = gf.mul(inv[col * n + j], p_inv);
        }
        for r in 0..n {
            if r == col {
                continue;
            }
            let factor = a[r * n + col];
            if factor == 0 {
                continue;
            }
            for j in 0..n {
                let v = gf.mul(factor, a[col * n + j]);
                a[r * n + j] ^= v;
                let v = gf.mul(factor, inv[col * n + j]);
                inv[r * n + j] ^= v;
            }
        }
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_round_trips() {
        let rs = RefReedSolomon::new(4, 3);
        let payload: Vec<u8> = (0..57).map(|i| (i * 31 % 251) as u8).collect();
        let encoded = rs.encode_bytes(&payload);
        assert_eq!(encoded.len(), 7);
        let mut got: Vec<Option<Vec<u8>>> = encoded.iter().cloned().map(Some).collect();
        got[0] = None;
        got[2] = None;
        got[5] = None;
        let rec = rs.reconstruct(&got);
        assert_eq!(rec, encoded);
    }
}
