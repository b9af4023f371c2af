//! Discrete-event timing simulator for the HyperTEE SoC.
//!
//! The paper evaluates HyperTEE on a Synopsys HAPS-80 FPGA carrying BOOM
//! (out-of-order) computing-subsystem cores and Rocket/BOOM enclave-management
//! cores (Table III). No FPGA is available to this reproduction, so this crate
//! provides the timing substrate instead:
//!
//! * [`clock`] — cycle bookkeeping and CS/EMS clock-domain conversion
//!   (2.5 GHz CS, 750 MHz EMS per §VII-E).
//! * [`config`] — the Table III core configurations (CS 8-wide OoO; EMS
//!   *weak* / *medium* / *strong*) and SoC-level configuration.
//! * [`latency`] — the calibration book: every cycle cost the models charge,
//!   each annotated with the paper number it was anchored to, including the
//!   EMS crypto engine (Table III rates) and its software fallback (Table IV).
//! * [`engine`] — a small generic discrete-event kernel.
//! * [`queueing`] — the multi-server primitive-request queue used for the
//!   Fig. 6 SLO study.
//! * [`perf`] — the analytic core-performance model that turns workload
//!   profiles plus an execution environment into cycle counts (Figs. 7–11).
//! * [`area`] — the ASIC area model behind Table V.
//! * [`noc`] — a 2D-mesh XY-routed NoC hop model.
//! * [`rng`] — splitmix64 streams for seeded, shard-decorrelated randomness.
//! * [`stats`] — summary statistics and percentile helpers.
//!
//! Functional behaviour (real page tables, real encryption) lives in the
//! sibling crates; this crate only ever deals in *cycles*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod clock;
pub mod config;
pub mod engine;
pub mod latency;
pub mod noc;
pub mod perf;
pub mod queueing;
pub mod rng;
pub mod stats;
