//! Crash-safe durability for long-running eotora controllers.
//!
//! The DPP controller is stateful across slots — the virtual queue, the
//! warm-start workspace, and the sanitizer's last-known-good `β_t` all
//! carry the long-run energy-budget guarantee — so a process crash loses
//! not just a run but the budget accounting itself. This crate provides
//! the two on-disk artifacts that make a run resumable, plus the framing
//! and integrity machinery they share:
//!
//! * [`snapshot`] — a versioned, self-describing, CRC-checked snapshot
//!   file written atomically (temp file + fsync + rename), with strict
//!   magic/schema/version validation on load. The payload is opaque bytes;
//!   `eotora-sim` stores the serialized controller state in it.
//! * [`journal`] — an append-only write-ahead slot journal: one
//!   length+CRC-framed record per completed slot, size-based segment
//!   rotation, a configurable [`journal::FsyncPolicy`], and a reader that
//!   silently drops a torn final frame (a crash mid-append) while turning
//!   any *mid-log* corruption into a typed [`DurabilityError`].
//! * [`frame`] — the binary codec for the per-slot [`frame::SlotRecord`]
//!   payload (inputs digest, decision digest, `C_t`, `Q_t`, per-stage
//!   timings), bit-exact for every `f64` it carries.
//! * [`crc`] — the CRC-32 (IEEE) implementation everything above shares.
//!
//! Nothing in this crate panics on corrupt input: every failure mode is a
//! [`DurabilityError`] variant, enforced by the crate-wide lint wall below
//! and the proptests under `tests/`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod crc;
mod error;
pub mod frame;
pub mod journal;
pub mod snapshot;

pub use crc::crc32;
pub use error::DurabilityError;
pub use frame::SlotRecord;
pub use journal::{
    open_for_append_after, read_journal, DetachedSync, FsyncPolicy, JournalReadback, JournalWriter,
    DEFAULT_SEGMENT_BYTES, MAX_FRAME_BYTES,
};
pub use snapshot::{read_snapshot, write_atomic, write_snapshot, SNAPSHOT_VERSION};
