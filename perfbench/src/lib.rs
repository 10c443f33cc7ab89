//! End-to-end validation benchmark for the BonXai workspace.
//!
//! The library half generates the seeded workload inputs and their
//! expected answers ([`gen`]) and defines the file formats that carry
//! them to the measured process ([`codec`]). The `bonxai-perfbench`
//! binary times the public entry points on those files; `run.py` builds
//! and drives it. See `perfbench/README.md`.

pub mod codec;
pub mod gen;
