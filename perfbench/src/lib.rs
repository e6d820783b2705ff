//! The MSPastry simulator benchmark: named workloads, an untraced timed run
//! for the end-to-end metrics, and a separately traced copy of the run loop
//! for the per-layer ledger. `run.py` next to this crate drives it; see
//! `README.md` there.

pub mod ledger;
pub mod measure;
pub mod traced;
pub mod workloads;
