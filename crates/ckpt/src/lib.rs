//! Persistent on-disk checkpoint store: warm once, replay many configs.
//!
//! The SMARTS rate is bounded by functional warming (`S_FW`), and a
//! [`smarts_core::UnitCheckpoint`] lets one warming pass serve many
//! detailed replays — but only for as long as something holds it. This
//! crate persists the checkpoints to disk so the warming pass is
//! paid **once per (benchmark, sampling design, warm geometry)** and
//! amortized across every later experiment that only changes the
//! detailed-machine core (widths, window, FUs, store buffer): the
//! TurboSMARTS checkpoint direction, with the delta-encoding the ROADMAP
//! flags as the open footprint item.
//!
//! The format is hand-rolled and dependency-free (the workspace builds
//! offline — no serde/bincode):
//!
//! * a header carrying the one format version ([`FORMAT_VERSION`]; any
//!   other is refused), the frontend's [`IsaId`] tag, and a
//!   [`warm_fingerprint`] of the functional-warming geometry (caches,
//!   TLBs, predictor, memory latency), so a store warmed for a
//!   different machine is rejected with a typed
//!   [`CkptError::FingerprintMismatch`] before any record is read;
//! * one record per sampling unit, holding the unit's
//!   [`smarts_core::UnitCheckpoint`] flattened to word streams and
//!   **delta-encoded against the previous unit's state** with zigzag
//!   varints and run-length-collapsed zero runs — consecutive units
//!   share almost all of their warm state and memory pages, so the
//!   store is far smaller than the resident checkpoints;
//! * a CRC-32 per record and over the header, so corruption is
//!   localized: an opened store keeps every intact prefix record and
//!   reports [`CkptError::Corrupted`] / [`CkptError::Truncated`] for
//!   the rest instead of failing wholesale.
//!
//! [`CkptWriter`] appends records as a warming pass emits checkpoints
//! (persisting overlaps warming) and finishes with an **index footer**
//! recording every record's offset. [`MappedStore`] is the one reader:
//! it opens the file zero-copy (memory-mapped, records located via the
//! footer, or by a frame scan when the footer is damaged) and hands out
//! borrowed [`FlatCheckpointRef`] records that [`StoreCursor`]s decode
//! lazily, so a replay's residency is O(one checkpoint per worker)
//! instead of O(units). `smarts-exec` writes through the one and
//! replays through the other; that is what `smarts --save-checkpoints`
//! / `--from-checkpoints` use.
//!
//! # Examples
//!
//! ```
//! use smarts_ckpt::{CkptWriter, IsaId, MappedStore, StoreMeta};
//! use smarts_core::{SamplingParams, SmartsSim, Warming};
//! use smarts_isa::BuiltinIsa;
//! use smarts_uarch::MachineConfig;
//! use smarts_workloads::find;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sim = SmartsSim::new(MachineConfig::eight_way());
//! let bench = find("loopy-1").unwrap().scaled(0.02);
//! let params = SamplingParams::for_sample_size(
//!     bench.approx_len(), 1000, 2000, Warming::Functional, 5, 0)?;
//! let path = std::env::temp_dir().join("smarts-doc-example.ckpt");
//!
//! // Warm once, persisting each unit checkpoint as it is reached.
//! let meta = StoreMeta {
//!     params,
//!     benchmark: bench.name().to_string(),
//!     scale: 0.02,
//!     isa: IsaId::Builtin,
//! };
//! let mut writer = CkptWriter::create(&path, sim.config(), &meta)?;
//! sim.stream_checkpoints(bench.load(), &params, |checkpoint| {
//!     writer.append(&checkpoint).is_ok()
//! })?;
//! let summary = writer.finish()?;
//!
//! // Replay later — any machine sharing the warm geometry may open it.
//! let store = MappedStore::open(&path, sim.config())?;
//! assert!(store.damage().is_none());
//! assert_eq!(store.len() as u64, summary.records);
//! let mut cursor = store.cursor();
//! for index in 0..store.len() {
//!     // Each worker rolls its own cursor; a replay rebuilds the unit.
//!     let _checkpoint = cursor.flat_at(index)?.rebuild_isa::<BuiltinIsa>(sim.config())?;
//! }
//! # std::fs::remove_file(&path).ok();
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the mmap module scopes `allow` onto the
// few declared-libc calls it needs; everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod error;
mod flat;
mod lazy;
mod mmap;
mod store;

pub use error::CkptError;
pub use flat::{FlatCheckpoint, FlatCheckpointRef};
pub use lazy::{MappedStore, RecordSpan, StoreCursor};
pub use store::{
    check_fingerprint, read_store_meta, warm_fingerprint, CkptWriter, StoreMeta, WriteSummary,
    FORMAT_VERSION, INDEX_MAGIC, MAGIC,
};

// Re-exported so store consumers can name the frontend recorded in a
// [`StoreMeta`] without depending on `smarts-isa` directly.
pub use smarts_isa::IsaId;
