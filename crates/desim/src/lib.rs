//! Discrete-event simulation kernel used by the NePSim-style NPU model.
//!
//! This crate provides the small, reusable pieces that any cycle-level or
//! transaction-level architecture simulator needs:
//!
//! * [`SimTime`] — integer picosecond simulated time with saturating
//!   arithmetic and conversions to/from engineering units,
//! * [`Frequency`] — clock frequencies with exact cycle/time conversions,
//! * [`EventQueue`] — a deterministic future-event list (ties broken in
//!   reservation order, so simulations are reproducible), with [`Key`]s
//!   that reserve a pop-order slot now and queue an event in it later,
//! * [`stats`] — streaming statistics (counters, online mean/variance,
//!   fixed-bin histograms, time-weighted averages),
//! * [`rng`] — seeded random-number helpers so every experiment is
//!   reproducible from a single `u64` seed.
//!
//! # Example
//!
//! ```
//! use desim::{EventQueue, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick, Tock }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_ns(10), Ev::Tock);
//! q.schedule(SimTime::from_ns(5), Ev::Tick);
//!
//! let (t, ev) = q.pop().expect("queue is non-empty");
//! assert_eq!(t, SimTime::from_ns(5));
//! assert_eq!(ev, Ev::Tick);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod queue;
pub mod rng;
pub mod stats;
mod time;

pub use obs::KernelCounters;
pub use queue::{EventQueue, Key};
pub use time::{Frequency, SimTime};
