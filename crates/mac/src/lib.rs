//! # aqua-mac
//!
//! Carrier-sense MAC for AquaModem (§2.4 of the paper):
//!
//! - [`carrier`]: waveform-level energy detection — 80 ms averages of
//!   1–4 kHz band power against a noise-calibrated threshold.
//! - [`netsim`]: multi-transmitter simulation reproducing the Fig. 19
//!   collision experiments (with/without carrier sense, random backoff in
//!   packet-duration multiples), run on the event-driven core.
//! - [`budget`]: link-budget gain matrices derived from the channel model,
//!   feeding the MAC simulator.
//! - [`ocean`]: the event-driven ocean-scale simulator — the engine behind
//!   [`netsim`], bit-identical on small dense configs to a slot-stepped
//!   test oracle (the oracle-equivalence contract), and behind the
//!   10 000-node `repro ocean` deployments.
//!
//! Preamble-detection-based carrier sense and RTS/CTS-style feedback
//! preambles, which the paper lists as improvements in §2.4, remain
//! unimplemented, as in the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod carrier;
pub mod netsim;
pub mod ocean;

pub use carrier::{band_energy, calibrate_threshold, CarrierSense};
pub use netsim::{collision_stats, simulate, MacConfig, MacResult};
