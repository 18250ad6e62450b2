//! Append-only write-ahead slot journal with checksummed framing.
//!
//! A journal is a directory of segment files `journal-000000.log`,
//! `journal-000001.log`, … Each segment holds a sequence of frames:
//!
//! ```text
//! len   u32 LE   payload length (≤ MAX_FRAME_BYTES)
//! crc   u32 LE   CRC-32 (IEEE) of the payload
//! payload bytes
//! ```
//!
//! Writers append one frame per completed slot, rotating to a new segment
//! once the current one exceeds [`DEFAULT_SEGMENT_BYTES`] (configurable),
//! and fsync according to an [`FsyncPolicy`].
//!
//! # Recovery semantics
//!
//! A crash mid-append can only damage the *tail* of the *last* segment —
//! frames are written with a single `write_all` and earlier segments are
//! closed. The reader therefore distinguishes:
//!
//! * **Torn tail** — the final frame of the final segment is incomplete
//!   (header truncated, payload shorter than declared, or checksum
//!   mismatch with nothing after it): the frame is silently dropped and
//!   counted in [`JournalReadback::torn_frames_dropped`]. The run resumes.
//! * **Mid-log corruption** — a bad frame with valid data after it, a
//!   declared length above [`MAX_FRAME_BYTES`] (impossible for a torn
//!   write of a sane frame), or a truncated non-final segment: typed
//!   [`DurabilityError::CorruptFrame`]. Everything after the damage would
//!   be misaligned, so the read fails loudly instead of guessing.
//!
//! One caveat is inherent to length-prefixed framing: a bit flip *inside a
//! stored length field* near the tail can make the final frame appear to
//! extend past EOF, which is indistinguishable from a torn write. The
//! reader then recovers fewer frames than were written — never silently
//! wrong ones — and the resume layer catches the shortfall against the
//! snapshot ([`DurabilityError::JournalBehindSnapshot`]).

use std::fs;
use std::io::{Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::str::FromStr;

use crate::crc::crc32;
use crate::error::DurabilityError;

/// Default segment-rotation threshold (8 MiB).
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// Hard upper bound on one frame's payload. Nothing the runner journals
/// comes near this; a declared length above it is corruption, not a torn
/// write.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

const FRAME_HEADER_BYTES: u64 = 8;

/// When the journal writer forces data to stable storage.
///
/// Trade-off: `EverySlot` bounds loss to zero completed slots but puts an
/// fsync on the per-slot critical path; `EveryK` amortizes that cost and
/// bounds loss to at most `k − 1` slots past the last snapshot; `Os` defers
/// entirely to the page cache (fastest, loss bounded only by the OS
/// writeback interval). A snapshot write always forces a sync first,
/// whatever the policy, preserving the invariant *snapshot at slot S ⇒
/// journal durable through frame S*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended frame.
    EverySlot,
    /// `fsync` after every `k`-th appended frame.
    EveryK(u32),
    /// Never `fsync` from the writer; the OS flushes when it pleases.
    Os,
}

impl Default for FsyncPolicy {
    /// `EveryK(16)` — the measured-overhead default the bench guard pins.
    fn default() -> Self {
        Self::EveryK(16)
    }
}

impl FromStr for FsyncPolicy {
    type Err = String;

    /// Parses `"every-slot"`, `"os"`, or `"every-K"` (e.g. `"every-16"`).
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "every-slot" => Ok(Self::EverySlot),
            "os" => Ok(Self::Os),
            _ => match s.strip_prefix("every-").and_then(|k| k.parse::<u32>().ok()) {
                Some(k) if k > 0 => Ok(Self::EveryK(k)),
                _ => Err(format!(
                    "unknown fsync policy `{s}` (expected `every-slot`, `every-K`, or `os`)"
                )),
            },
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EverySlot => write!(f, "every-slot"),
            Self::EveryK(k) => write!(f, "every-{k}"),
            Self::Os => write!(f, "os"),
        }
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("journal-{index:06}.log"))
}

/// Lists the journal segments in `dir`, sorted by index.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, DurabilityError> {
    let mut segments = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| DurabilityError::io(dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| DurabilityError::io(dir, &e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(index) = name
            .strip_prefix("journal-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            segments.push((index, entry.path()));
        }
    }
    segments.sort_by_key(|&(index, _)| index);
    Ok(segments)
}

/// One frame located inside a segment during a scan.
struct ScannedFrame {
    /// Byte offset of the frame header within the segment.
    offset: u64,
    payload: Vec<u8>,
}

/// How a segment's valid prefix ends.
enum TailError {
    /// Consistent with a crash mid-append: the bytes after the last valid
    /// frame do not reach EOF as a complete frame (truncated header, sane
    /// length extending past EOF, or a checksum failure on a frame that is
    /// the very last thing in the file). Recoverable if this is the final
    /// segment.
    Torn(String),
    /// Cannot come from a torn write no matter where it sits: a declared
    /// length above [`MAX_FRAME_BYTES`], or a checksum failure with more
    /// bytes after the frame.
    Hard(String),
}

/// Outcome of scanning one segment's bytes.
struct SegmentScan {
    frames: Vec<ScannedFrame>,
    tail_error: Option<TailError>,
    /// Offset where the valid prefix ends.
    valid_end: u64,
}

fn scan_segment(bytes: &[u8]) -> SegmentScan {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    loop {
        if pos == bytes.len() {
            return SegmentScan { frames, tail_error: None, valid_end: pos as u64 };
        }
        let start = pos;
        if bytes.len() - pos < FRAME_HEADER_BYTES as usize {
            return SegmentScan {
                frames,
                tail_error: Some(TailError::Torn(format!(
                    "truncated frame header ({} byte(s) at offset {start})",
                    bytes.len() - pos
                ))),
                valid_end: start as u64,
            };
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]]);
        let expected_crc =
            u32::from_le_bytes([bytes[pos + 4], bytes[pos + 5], bytes[pos + 6], bytes[pos + 7]]);
        pos += FRAME_HEADER_BYTES as usize;
        if len > MAX_FRAME_BYTES {
            // Larger than anything a writer ever produces: corruption of
            // the length field, not a torn write.
            return SegmentScan {
                frames,
                tail_error: Some(TailError::Hard(format!(
                    "frame at offset {start} declares {len} bytes (> MAX_FRAME_BYTES)"
                ))),
                valid_end: start as u64,
            };
        }
        let len = len as usize;
        if bytes.len() - pos < len {
            return SegmentScan {
                frames,
                tail_error: Some(TailError::Torn(format!(
                    "frame at offset {start} declares {len} byte(s) but only {} remain",
                    bytes.len() - pos
                ))),
                valid_end: start as u64,
            };
        }
        let payload = &bytes[pos..pos + len];
        let actual_crc = crc32(payload);
        if actual_crc != expected_crc {
            let reason = format!(
                "frame at offset {start} checksum mismatch \
                 (expected {expected_crc:#010x}, got {actual_crc:#010x})"
            );
            // A torn write damages only the last frame written; a bad
            // checksum with further bytes behind it is mid-log corruption
            // even inside the final segment.
            let tail_error = if pos + len == bytes.len() {
                TailError::Torn(reason)
            } else {
                TailError::Hard(reason)
            };
            return SegmentScan { frames, tail_error: Some(tail_error), valid_end: start as u64 };
        }
        pos += len;
        frames.push(ScannedFrame { offset: start as u64, payload: payload.to_vec() });
    }
}

/// All recoverable frames of a journal, in append order.
#[derive(Debug)]
pub struct JournalReadback {
    /// Frame payloads, oldest first.
    pub frames: Vec<Vec<u8>>,
    /// Torn frames dropped from the tail of the final segment (0 or 1 per
    /// crash; a length-field flip near the tail can hide subsequent frames
    /// behind one reported drop — see the module docs).
    pub torn_frames_dropped: u64,
}

/// Reads every frame from the journal in `dir`.
///
/// Torn tails recover silently (counted); mid-log corruption — a bad frame
/// anywhere except the very tail of the final segment — is a typed error.
pub fn read_journal(dir: &Path) -> Result<JournalReadback, DurabilityError> {
    let segments = list_segments(dir)?;
    let mut frames = Vec::new();
    let mut torn = 0u64;
    let last = segments.len().saturating_sub(1);
    for (pos, (_, path)) in segments.iter().enumerate() {
        let bytes = fs::read(path).map_err(|e| DurabilityError::io(path, &e))?;
        let scan = scan_segment(&bytes);
        let frame_base = frames.len() as u64;
        match scan.tail_error {
            None => {}
            Some(TailError::Torn(_)) if pos == last => torn += 1,
            // Bad bytes in a non-final segment, or damage that no torn
            // append can produce, cannot be crash fallout: fail loudly.
            Some(TailError::Torn(reason)) | Some(TailError::Hard(reason)) => {
                let qualifier = if pos != last { " (non-final segment)" } else { "" };
                return Err(DurabilityError::CorruptFrame {
                    segment: path.display().to_string(),
                    frame: frame_base + scan.frames.len() as u64,
                    reason: format!("{reason}{qualifier}"),
                });
            }
        }
        frames.extend(scan.frames.into_iter().map(|f| f.payload));
    }
    Ok(JournalReadback { frames, torn_frames_dropped: torn })
}

/// Truncates the journal in `dir` to its first `keep` frames and opens a
/// writer positioned to append frame `keep` next.
///
/// Used on resume: frames past the snapshot slot are re-executed, so the
/// stale suffix (including any torn tail) is cut at a frame boundary —
/// later segments are deleted first, then the boundary segment is
/// truncated, so a crash mid-way leaves a journal this same call repairs
/// again on the next resume.
///
/// Fails with [`DurabilityError::JournalBehindSnapshot`] if fewer than
/// `keep` valid frames exist.
pub fn open_for_append_after(
    dir: &Path,
    keep: u64,
    policy: FsyncPolicy,
    max_segment_bytes: u64,
) -> Result<JournalWriter, DurabilityError> {
    let segments = list_segments(dir)?;
    // Locate the boundary: the segment and byte offset where frame `keep`
    // would begin.
    let mut remaining = keep;
    let mut boundary: Option<(usize, u64)> = None; // (segment position, byte offset)
    let mut total_valid = 0u64;
    let mut scans = Vec::with_capacity(segments.len());
    for (_, path) in &segments {
        let bytes = fs::read(path).map_err(|e| DurabilityError::io(path, &e))?;
        let scan = scan_segment(&bytes);
        total_valid += scan.frames.len() as u64;
        scans.push(scan);
    }
    if total_valid < keep {
        return Err(DurabilityError::JournalBehindSnapshot {
            snapshot_slots: keep,
            journal_frames: total_valid,
        });
    }
    for (pos, scan) in scans.iter().enumerate() {
        let in_segment = scan.frames.len() as u64;
        if remaining < in_segment {
            let offset = scan.frames[remaining as usize].offset;
            boundary = Some((pos, offset));
            break;
        }
        remaining -= in_segment;
        if remaining == 0 {
            // Frame `keep` starts right after this segment's valid prefix
            // (cutting any torn tail too).
            boundary = Some((pos, scan.valid_end));
            break;
        }
    }
    let (boundary_pos, boundary_offset) = match boundary {
        Some(b) => b,
        // keep == 0 with no segments at all: start a fresh journal.
        None => {
            return JournalWriter::create(dir, policy, max_segment_bytes);
        }
    };

    // Delete later segments first: a crash between steps leaves extra
    // frames that the *next* resume (same snapshot) truncates again.
    for (_, path) in segments.iter().skip(boundary_pos + 1) {
        fs::remove_file(path).map_err(|e| DurabilityError::io(path, &e))?;
    }
    let (seg_index, seg_path) = (segments[boundary_pos].0, segments[boundary_pos].1.clone());
    let mut file = fs::OpenOptions::new()
        .write(true)
        .open(&seg_path)
        .map_err(|e| DurabilityError::io(&seg_path, &e))?;
    file.set_len(boundary_offset).map_err(|e| DurabilityError::io(&seg_path, &e))?;
    file.seek(std::io::SeekFrom::Start(boundary_offset))
        .map_err(|e| DurabilityError::io(&seg_path, &e))?;
    file.sync_all().map_err(|e| DurabilityError::io(&seg_path, &e))?;
    Ok(JournalWriter {
        dir: dir.to_path_buf(),
        policy,
        max_segment_bytes,
        file,
        seg_path,
        seg_index,
        seg_bytes: boundary_offset,
        frames: keep,
        durable: keep,
        last_sync_nanos: None,
    })
}

/// A journal sync detached from its [`JournalWriter`], to run on another
/// thread: a handle on the segment being appended to and the frame count
/// it covers. Obtained from [`JournalWriter::detach_sync`]; once
/// [`run`](Self::run) returns, report its frame count back with
/// [`JournalWriter::mark_durable`].
#[derive(Debug)]
pub struct DetachedSync {
    file: fs::File,
    path: PathBuf,
    frames: u64,
}

impl DetachedSync {
    /// Forces every frame appended before the detach to stable storage.
    /// Returns the journal frame count now durable and the `sync_data`
    /// duration in nanoseconds.
    ///
    /// Frames in segments the writer has since rotated away from are
    /// covered too: rotation syncs the segment it closes.
    pub fn run(self) -> Result<(u64, u64), DurabilityError> {
        let start = std::time::Instant::now();
        self.file.sync_data().map_err(|e| DurabilityError::io(&self.path, &e))?;
        Ok((self.frames, u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)))
    }
}

/// Appends checksummed frames to the journal in `dir`.
#[derive(Debug)]
pub struct JournalWriter {
    dir: PathBuf,
    policy: FsyncPolicy,
    max_segment_bytes: u64,
    file: fs::File,
    seg_path: PathBuf,
    seg_index: u64,
    seg_bytes: u64,
    /// Frames in the journal, those kept on reopen included.
    frames: u64,
    /// Frames known to be on stable storage; `frames - durable` drives
    /// `EveryK`. A detached sync still running does not count until it is
    /// reported through [`mark_durable`](Self::mark_durable).
    durable: u64,
    /// Wall-clock duration of the most recent `sync_data`, if one has run
    /// since the last [`take_last_sync_nanos`](Self::take_last_sync_nanos).
    last_sync_nanos: Option<u64>,
}

impl JournalWriter {
    /// Opens a fresh journal in `dir` (which must hold no segments yet),
    /// starting at segment 0.
    pub fn create(
        dir: &Path,
        policy: FsyncPolicy,
        max_segment_bytes: u64,
    ) -> Result<Self, DurabilityError> {
        fs::create_dir_all(dir).map_err(|e| DurabilityError::io(dir, &e))?;
        if let Some((_, existing)) = list_segments(dir)?.first() {
            return Err(DurabilityError::InvalidConfig {
                reason: format!(
                    "journal directory {} already holds segments (first: {}); \
                     resume it instead of starting fresh",
                    dir.display(),
                    existing.display()
                ),
            });
        }
        let seg_path = segment_path(dir, 0);
        let file = fs::File::create(&seg_path).map_err(|e| DurabilityError::io(&seg_path, &e))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            policy,
            max_segment_bytes,
            file,
            seg_path,
            seg_index: 0,
            seg_bytes: 0,
            frames: 0,
            durable: 0,
            last_sync_nanos: None,
        })
    }

    fn rotate(&mut self) -> Result<(), DurabilityError> {
        // Close out the current segment durably before opening the next;
        // after rotation the old segment is never written again, which is
        // what lets the reader treat non-final segments as complete.
        self.file.sync_all().map_err(|e| DurabilityError::io(&self.seg_path, &e))?;
        self.durable = self.frames;
        self.seg_index += 1;
        self.seg_path = segment_path(&self.dir, self.seg_index);
        self.file = fs::File::create(&self.seg_path)
            .map_err(|e| DurabilityError::io(&self.seg_path, &e))?;
        self.seg_bytes = 0;
        Ok(())
    }

    /// Appends one frame. The whole frame (header + payload) goes out in a
    /// single `write_all`, so a crash can only tear the final frame.
    ///
    /// Fails with [`DurabilityError::InvalidConfig`] if `payload` exceeds
    /// [`MAX_FRAME_BYTES`].
    pub fn append(&mut self, payload: &[u8]) -> Result<(), DurabilityError> {
        if payload.len() as u64 > MAX_FRAME_BYTES as u64 {
            return Err(DurabilityError::InvalidConfig {
                reason: format!(
                    "frame payload of {} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})",
                    payload.len()
                ),
            });
        }
        let frame_bytes = FRAME_HEADER_BYTES + payload.len() as u64;
        if self.seg_bytes > 0 && self.seg_bytes + frame_bytes > self.max_segment_bytes {
            self.rotate()?;
        }
        let mut frame = Vec::with_capacity(frame_bytes as usize);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame).map_err(|e| DurabilityError::io(&self.seg_path, &e))?;
        self.seg_bytes += frame_bytes;
        self.frames += 1;
        match self.policy {
            FsyncPolicy::EverySlot => self.sync()?,
            FsyncPolicy::EveryK(k) => {
                if self.frames - self.durable >= u64::from(k) {
                    self.sync()?;
                }
            }
            FsyncPolicy::Os => {}
        }
        Ok(())
    }

    /// Forces everything appended so far to stable storage, regardless of
    /// policy.
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        let start = std::time::Instant::now();
        self.file.sync_data().map_err(|e| DurabilityError::io(&self.seg_path, &e))?;
        self.durable = self.frames;
        self.last_sync_nanos = Some(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        Ok(())
    }

    /// Duration of the most recent [`sync`](Self::sync) in nanoseconds, if
    /// one has run since the previous call. Consumed by the simulation
    /// runner to surface fsync latency as a telemetry span without the
    /// journal knowing about recorders.
    pub fn take_last_sync_nanos(&mut self) -> Option<u64> {
        self.last_sync_nanos.take()
    }

    /// A sync of everything appended so far that another thread can run
    /// (the snapshot writer does, before each snapshot lands). Until its
    /// outcome comes back through [`mark_durable`](Self::mark_durable),
    /// its frames still count as not durable, so `EveryK` keeps its bound
    /// of at most `k − 1` frames not known durable.
    pub fn detach_sync(&self) -> Result<DetachedSync, DurabilityError> {
        let file = self.file.try_clone().map_err(|e| DurabilityError::io(&self.seg_path, &e))?;
        Ok(DetachedSync { file, path: self.seg_path.clone(), frames: self.frames })
    }

    /// Records that a [`DetachedSync`] made the first `frames` frames
    /// durable.
    pub fn mark_durable(&mut self, frames: u64) {
        self.durable = self.durable.max(frames.min(self.frames));
    }

    /// Segments written so far (current index + 1).
    pub fn segments(&self) -> u64 {
        self.seg_index + 1
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("eotora-journal-{}-{tag}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("frame-{i}-{}", "x".repeat(i % 7)).into_bytes()).collect()
    }

    #[test]
    fn every_k_counts_a_detached_sync_in_flight_as_not_durable() {
        let dir = temp_dir("detached");
        let mut w =
            JournalWriter::create(&dir, FsyncPolicy::EveryK(4), DEFAULT_SEGMENT_BYTES).unwrap();
        for p in payloads(3) {
            w.append(&p).unwrap();
        }
        assert_eq!(w.take_last_sync_nanos(), None);
        let detached = w.detach_sync().unwrap();
        // The detached sync has not reported back: the fourth frame is the
        // fourth not known durable, so `append` syncs in line.
        w.append(b"fourth").unwrap();
        assert!(w.take_last_sync_nanos().is_some());
        let (frames, _) = detached.run().unwrap();
        assert_eq!(frames, 3);
        w.mark_durable(frames);
        for p in payloads(3) {
            w.append(&p).unwrap();
        }
        assert_eq!(w.take_last_sync_nanos(), None, "a stale report must not lower the count");
        // Reported before the next appends, it resets the count from 3.
        let detached = w.detach_sync().unwrap();
        w.mark_durable(detached.run().unwrap().0);
        for p in payloads(3) {
            w.append(&p).unwrap();
        }
        assert_eq!(w.take_last_sync_nanos(), None);
        w.append(b"eleventh").unwrap();
        assert!(w.take_last_sync_nanos().is_some());
        assert_eq!(read_journal(&dir).unwrap().frames.len(), 11);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_and_read_back_in_order() {
        let dir = temp_dir("roundtrip");
        let frames = payloads(20);
        let mut w =
            JournalWriter::create(&dir, FsyncPolicy::default(), DEFAULT_SEGMENT_BYTES).unwrap();
        for p in &frames {
            w.append(p).unwrap();
        }
        w.sync().unwrap();
        let rb = read_journal(&dir).unwrap();
        assert_eq!(rb.frames, frames);
        assert_eq!(rb.torn_frames_dropped, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_splits_into_segments_and_reads_across_them() {
        let dir = temp_dir("rotation");
        let frames = payloads(50);
        // Tiny segments: force many rotations.
        let mut w = JournalWriter::create(&dir, FsyncPolicy::Os, 64).unwrap();
        for p in &frames {
            w.append(p).unwrap();
        }
        w.sync().unwrap();
        assert!(w.segments() > 3, "expected rotation, got {} segment(s)", w.segments());
        let rb = read_journal(&dir).unwrap();
        assert_eq!(rb.frames, frames);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_silently_and_counted() {
        let dir = temp_dir("torn");
        let frames = payloads(8);
        let mut w =
            JournalWriter::create(&dir, FsyncPolicy::EverySlot, DEFAULT_SEGMENT_BYTES).unwrap();
        for p in &frames {
            w.append(p).unwrap();
        }
        drop(w);
        // Tear 3 bytes off the single segment: the final frame is torn.
        let seg = segment_path(&dir, 0);
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
        let rb = read_journal(&dir).unwrap();
        assert_eq!(rb.frames, frames[..7].to_vec());
        assert_eq!(rb.torn_frames_dropped, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error() {
        let dir = temp_dir("midlog");
        let frames = payloads(10);
        let mut w =
            JournalWriter::create(&dir, FsyncPolicy::EverySlot, DEFAULT_SEGMENT_BYTES).unwrap();
        for p in &frames {
            w.append(p).unwrap();
        }
        drop(w);
        // Flip a payload byte in the middle of the log (frame 2's payload).
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).unwrap();
        let offset = (0..2).map(|i| 8 + frames[i].len()).sum::<usize>() + 8 + 1;
        bytes[offset] ^= 0x01;
        fs::write(&seg, &bytes).unwrap();
        match read_journal(&dir) {
            Err(DurabilityError::CorruptFrame { frame, .. }) => assert_eq!(frame, 2),
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_in_a_non_final_segment_is_a_typed_error() {
        let dir = temp_dir("nonfinal");
        let frames = payloads(30);
        let mut w = JournalWriter::create(&dir, FsyncPolicy::Os, 128).unwrap();
        for p in &frames {
            w.append(p).unwrap();
        }
        w.sync().unwrap();
        assert!(w.segments() >= 3);
        // Tear the tail of the FIRST segment — not recoverable.
        let seg = segment_path(&dir, 0);
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 2]).unwrap();
        assert!(matches!(read_journal(&dir), Err(DurabilityError::CorruptFrame { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_then_continue_appending() {
        let dir = temp_dir("truncate");
        let frames = payloads(40);
        let mut w = JournalWriter::create(&dir, FsyncPolicy::Os, 96).unwrap();
        for p in &frames {
            w.append(p).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        // Keep the first 17 frames, then append 5 fresh ones.
        let mut w = open_for_append_after(&dir, 17, FsyncPolicy::Os, 96).unwrap();
        let fresh = payloads(5);
        for p in &fresh {
            w.append(p).unwrap();
        }
        w.sync().unwrap();
        let rb = read_journal(&dir).unwrap();
        let mut expected = frames[..17].to_vec();
        expected.extend(fresh);
        assert_eq!(rb.frames, expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_past_available_frames_fails_typed() {
        let dir = temp_dir("behind");
        let frames = payloads(5);
        let mut w =
            JournalWriter::create(&dir, FsyncPolicy::EverySlot, DEFAULT_SEGMENT_BYTES).unwrap();
        for p in &frames {
            w.append(p).unwrap();
        }
        drop(w);
        match open_for_append_after(&dir, 9, FsyncPolicy::Os, DEFAULT_SEGMENT_BYTES) {
            Err(DurabilityError::JournalBehindSnapshot { snapshot_slots, journal_frames }) => {
                assert_eq!(snapshot_slots, 9);
                assert_eq!(journal_frames, 5);
            }
            other => panic!("expected JournalBehindSnapshot, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_cuts_a_torn_tail_too() {
        let dir = temp_dir("truncate-torn");
        let frames = payloads(10);
        let mut w =
            JournalWriter::create(&dir, FsyncPolicy::EverySlot, DEFAULT_SEGMENT_BYTES).unwrap();
        for p in &frames {
            w.append(p).unwrap();
        }
        drop(w);
        let seg = segment_path(&dir, 0);
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 1]).unwrap();
        // 9 intact frames remain; keep 8, the torn 10th disappears.
        let mut w = open_for_append_after(&dir, 8, FsyncPolicy::Os, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append(b"new-frame").unwrap();
        w.sync().unwrap();
        let rb = read_journal(&dir).unwrap();
        assert_eq!(rb.frames.len(), 9);
        assert_eq!(rb.frames[..8], frames[..8]);
        assert_eq!(rb.frames[8], b"new-frame");
        assert_eq!(rb.torn_frames_dropped, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policy_parses_and_displays() {
        assert_eq!("every-slot".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::EverySlot);
        assert_eq!("os".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Os);
        assert_eq!("every-16".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::EveryK(16));
        assert!("every-0".parse::<FsyncPolicy>().is_err());
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
        assert_eq!(FsyncPolicy::EveryK(4).to_string(), "every-4");
        assert_eq!(FsyncPolicy::default(), FsyncPolicy::EveryK(16));
    }

    #[test]
    fn create_refuses_a_dir_with_segments() {
        let dir = temp_dir("busy");
        let mut w = JournalWriter::create(&dir, FsyncPolicy::Os, DEFAULT_SEGMENT_BYTES).unwrap();
        w.append(b"x").unwrap();
        drop(w);
        assert!(matches!(
            JournalWriter::create(&dir, FsyncPolicy::Os, DEFAULT_SEGMENT_BYTES),
            Err(DurabilityError::InvalidConfig { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let dir = temp_dir("oversize");
        let mut w = JournalWriter::create(&dir, FsyncPolicy::Os, DEFAULT_SEGMENT_BYTES).unwrap();
        let huge = vec![0u8; MAX_FRAME_BYTES as usize + 1];
        assert!(matches!(w.append(&huge), Err(DurabilityError::InvalidConfig { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }
}
