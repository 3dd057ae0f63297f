//! Analytic companion to the FileInsurer paper: closed-form theorem bounds,
//! probability helpers, distribution samplers and summary statistics.
//!
//! Every experiment in `fi-sim` compares a *measured* quantity against the
//! paper's *analytic* bound; this crate hosts the analytic side:
//!
//! * [`theorems`] — Theorems 1–4 as executable formulas,
//! * [`prob`] — KL divergence, Chernoff tail bounds, log-binomial (Stirling),
//! * [`dist`] — the five Table III file-size distributions,
//! * [`stats`] — mean/variance/quantiles/histograms for result reporting.

#![forbid(unsafe_code)]

pub mod dist;
pub mod prob;
pub mod stats;
pub mod theorems;

pub use dist::SizeDistribution;
pub use stats::Summary;
