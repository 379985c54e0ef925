//! # dcfb-frontend
//!
//! Frontend building blocks shared by the baseline core and every
//! prefetcher in the DCFB reproduction:
//!
//! * [`Btb`] — a conventional PC-indexed, set-associative branch target
//!   buffer (the paper's proposal deliberately keeps this unmodified),
//! * [`ShotgunBtb`] — Shotgun's split U-BTB / C-BTB / RIB organization
//!   with call/return footprints,
//! * [`Tage`] — a TAGE conditional-direction predictor (Table III),
//! * [`ReturnAddressStack`] — return-target prediction,
//! * [`Ftq`] — the fetch target queue decoupling branch prediction from
//!   instruction fetch,
//! * [`Predecoder`] — block pre-decoding, the mechanism behind both the
//!   Dis prefetcher's target extraction and Confluence-style BTB
//!   prefilling, including the variable-length-ISA path that consumes
//!   branch footprints,
//! * [`BranchStore`] — the per-run dense store of every block's
//!   pre-decoded branches, handed out as `Copy` [`BranchSpan`]s: how
//!   the simulator serves those pre-decodes (checked against
//!   [`Predecoder`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch_store;
pub mod btb;
pub mod ftq;
pub mod predecoder;
pub mod ras;
pub mod shotgun_btb;
pub mod tage;

pub use branch_store::{BranchSpan, BranchStore};
pub use btb::{BranchClass, Btb, BtbConfig, BtbEntry, BtbStats};
pub use ftq::{Ftq, FtqEntry};
pub use predecoder::{PredecodedBlock, Predecoder};
pub use ras::ReturnAddressStack;
pub use shotgun_btb::{ShotgunBtb, ShotgunBtbConfig, ShotgunBtbStats, UBtbEntry};
pub use tage::{Tage, TageConfig};
