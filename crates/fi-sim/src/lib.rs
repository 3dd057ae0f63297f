//! Experiment harness: regenerates every table and figure of the
//! FileInsurer paper.
//!
//! | Module | Regenerates | Paper reference |
//! |---|---|---|
//! | [`table3`] | max sector capacity-usage under reallocation & refresh | Table III |
//! | [`table4`] | protocol comparison (measured, not just claimed) | Table IV |
//! | [`robustness`] | γ_lost vs the Theorem 3 bound across λ, k, adversaries | Thm 3, §V-B.3 |
//! | [`deposit`] | empirical deposit ratio vs the Theorem 4 bound | Thm 4, §V-B.4 |
//! | [`collision`] | collision probability vs the Theorem 2 bound | Thm 2, §V-B.2 |
//! | [`scalability`] | storable size vs the Theorem 1 capacity formula | Thm 1, §V-B.1 |
//! | [`harness`] | full-protocol timeline scenarios (Fig. 3) over `fi-core` | Fig. 3 |
//! | [`report`] | text/markdown table rendering shared by the binaries | — |
//!
//! `src/bin/` has one binary per table or theorem — `table3`, `table4`,
//! `thm1_scalability` … `thm4_deposit`, `ablations`, `selfish_providers`
//! — each printing the regenerated rows next to the paper's claims
//! (`cargo run --release -q -p fi-sim --bin thm3_robustness`). They are
//! seeded and deterministic: two runs print the same bytes.
//!
//! Every experiment takes an explicit seed and a [`Scale`] knob: `Paper`
//! reproduces the paper's grid verbatim (hours of CPU at the top rows);
//! `Default` scales row sizes down while preserving every qualitative
//! comparison (documented per-experiment in EXPERIMENTS.md).

pub mod ablation;
pub mod collision;
pub mod deposit;
pub mod harness;
pub mod report;
pub mod robustness;
pub mod scalability;
pub mod selfish;
pub mod table3;
pub mod table4;
pub mod workload;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-friendly: minutes of CPU, every qualitative shape preserved.
    Default,
    /// The paper's exact grid (Table III's top rows reach `Ncp = 1e8` ×
    /// 100 rounds — expect hours and gigabytes).
    Paper,
}

impl Scale {
    /// Parses `--full` style flags.
    pub fn from_args(args: &[String]) -> Scale {
        if args.iter().any(|a| a == "--full" || a == "--paper") {
            Scale::Paper
        } else {
            Scale::Default
        }
    }
}

/// Shared banner printed by the experiment binaries.
pub fn banner(title: &str, paper_ref: &str) -> String {
    format!(
        "== {title} ==\nreproduces: {paper_ref}\n(seeded, deterministic; pass --full for paper-scale grids)\n"
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn banner_contains_title() {
        let b = super::banner("Table III", "FileInsurer Table III");
        assert!(b.contains("Table III"));
        assert!(b.contains("--full"));
    }
}
