#![warn(missing_docs)]

//! Deterministic discrete-event simulation engine.
//!
//! This crate provides the timing substrate that every other component of the
//! CHATS simulator is built on:
//!
//! * [`Cycle`] — a strongly-typed simulation timestamp,
//! * [`EventQueue`] — a priority queue of events with *stable* tie-breaking,
//!   so that two runs with the same seed produce bit-identical schedules,
//! * [`SimRng`] — a small, seedable random-number generator wrapper,
//! * [`schedule`] — the decision-point vocabulary schedule exploration
//!   (`chats-check`) uses to perturb and replay interleavings,
//! * [`config`] — the Table-I style machine description shared by the
//!   memory hierarchy, interconnect and core models.
//!
//! # Example
//!
//! ```
//! use chats_sim::{Cycle, EventQueue};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(Cycle(10), "late");
//! q.push(Cycle(5), "early");
//! q.push(Cycle(5), "early-too, but pushed second");
//!
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t, e), (Cycle(5), "early"));
//! ```

pub mod config;
pub mod event;
pub mod rng;
pub mod schedule;

pub use config::{CoreConfig, MemoryConfig, NocConfig, SystemConfig};
pub use event::{Cycle, EventQueue};
pub use rng::SimRng;
pub use schedule::{DecisionKind, DecisionPoint, DecisionRecord};
