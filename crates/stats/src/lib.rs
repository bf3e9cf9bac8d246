#![warn(missing_docs)]

//! Statistics, means and table rendering.
//!
//! The timing machine fills a [`RunStats`] per simulation; the figure
//! renderers in `chats-runner` normalize collections of them into the
//! paper's tables, average them with the helpers in [`summary`] and
//! render them with [`table::Table`].

pub mod hist;
pub mod run;
pub mod summary;
pub mod table;

pub use hist::Histogram;
pub use run::{RunStats, TxOutcomeCounts};
pub use summary::{amean, gmean};
pub use table::Table;
