//! Discrete-event network simulator.
//!
//! FileInsurer's protocol has hard timing constraints — transfer windows
//! (`DelayPerSize × size`), proof cycles, due/deadline windows — and its
//! liveness arguments (e.g. §III-D: a successor provider can fetch the raw
//! file elsewhere when the predecessor stalls) are *network* properties.
//! This crate provides the testbed those arguments are exercised on:
//!
//! * [`sim`] — a deterministic event queue with virtual time (stable FIFO
//!   order among simultaneous events);
//! * [`link`] — latency/bandwidth/loss link models with deterministic
//!   jitter;
//! * [`world`] — a process framework: nodes implement [`world::Process`],
//!   exchange typed messages through the link model, and set timers.
//!
//! The FileInsurer-specific actors (providers, clients driving a
//! `fi-core::Engine`) live in `fi-sim::harness`; this crate is protocol
//! agnostic.
//!
//! # Example: two nodes ping-pong
//!
//! ```
//! use fi_net::world::{Process, Ctx, World};
//! use fi_net::link::LinkModel;
//!
//! struct Pinger { got: u32 }
//! impl Process<u32> for Pinger {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
//!         if ctx.me() == 0 { ctx.send(1, 0, 8); } // ping node 1, 8 bytes
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: usize, msg: u32) {
//!         self.got += 1;
//!         if msg < 3 { ctx.send(from, msg + 1, 8); }
//!     }
//! }
//!
//! let mut world = World::new(LinkModel::lan(), 7);
//! world.add(Pinger { got: 0 });
//! world.add(Pinger { got: 0 });
//! world.run_until(1_000);
//! assert!(world.now() > 0);
//! ```

#![forbid(unsafe_code)]

pub mod link;
pub mod sim;
pub mod world;

pub use link::LinkModel;
pub use sim::Simulator;
pub use world::{Ctx, Process, Retransmitter, RetryEvent, World};
