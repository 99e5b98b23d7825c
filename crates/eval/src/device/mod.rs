//! The Camazotz tracking-platform model behind Table II and `bqs info`.
//!
//! The paper's motivating hardware (§III-A) is the Camazotz collar: a TI
//! CC430F5137 SoC with **32 KB ROM and 4 KB RAM**, **1 MB external flash**,
//! a ublox MAX6 GPS, solar-charged Li-ion power, and a 900 MHz short-range
//! radio for offloading at congregation areas. Those constraints are the
//! whole reason BQS exists, so this module models them explicitly:
//!
//! * [`camazotz`] — the platform constants and sampling schedule;
//! * [`storage`] — the 12-byte GPS record codec and a flash-budget
//!   accountant;
//! * [`operational`] — the Table II estimator: how many days the tracker
//!   runs before the GPS budget fills, as a function of compression rate;
//! * [`memory`] — a working-set probe that verifies the FBQS constant-space
//!   claim (≤ 32 significant points + no buffer) against the 4 KB RAM
//!   budget;
//! * [`offload`] — an event-driven base-station contact simulation that
//!   turns the steady-state Table II estimate into a loss/no-loss check
//!   against realistic congregation-area contact schedules.

pub mod camazotz;
pub mod memory;
pub mod offload;
pub mod operational;
pub mod storage;

pub use camazotz::CamazotzSpec;
pub use memory::{probe_working_set, WorkingSetReport};
pub use offload::{simulate_offload, OffloadReport};
pub use operational::{estimate_operational_days, OperationalModel};
pub use storage::{FlashStorage, SampleCodec, StorageError, GPS_RECORD_BYTES};
