//! Versioned on-disk snapshots of the serving state.
//!
//! A snapshot captures the live [`FragmentLog`] *and* the
//! [`QueryFragmentGraph`] built from it, so a restarted service resumes
//! serving log-informed translations immediately — no re-parse and no QFG
//! rebuild of a potentially multi-million-entry log.
//!
//! # Format (version 4)
//!
//! ```text
//! TEMPLAR-SNAPSHOT v4 obscurity=NoConstOp [watermark=N] sections=K\n
//! [len u32 LE][crc32 u32 LE][name_len u16 LE][name][payload]   ← section 0
//! [len u32 LE][crc32 u32 LE][name_len u16 LE][name][payload]   ← section 1
//! …                                                            ← section K-1
//! ```
//!
//! The body is `K` independent *sections*, each framed exactly like a WAL
//! record (`len` counts the body after the 8-byte frame header; the CRC —
//! the same [`crate::wal::crc32`] — covers `name_len + name + payload`).
//! The payload of every section is one `serde::Value` in the tagged binary
//! encoding of [`templar_api::binary`] — the codec the wire protocol already
//! hardens against hostile frames (typed truncation, a depth bound, bounded
//! preallocation).  Sections appear in a fixed order:
//!
//! | section             | payload                                          |
//! |---------------------|--------------------------------------------------|
//! | `meta`              | obscurity, log length, log chunk count, query count |
//! | `qfg/fragments`     | the full interner table, dead slots as `null`    |
//! | `log/0` … `log/c-1` | chunks of ≤ [`LOG_SECTION_CHUNK`] log entries    |
//! | `qfg/occurrences`   | the raw `n_v` column, 0 for dead slots           |
//! | `qfg/adjacency`     | the compacted CSR baseline (offsets/neighbors/counts) |
//! | `qfg/runs`          | pending tiered delta runs, mutable delta last    |
//!
//! A log entry is the ascending slot ids, in `qfg/fragments`, of its
//! query's distinct fragments — what the graph uses the log for — so an
//! entry costs a handful of bytes instead of a serialized SQL AST.  Ids are
//! sound on disk because a live entry pins each of its fragments'
//! occurrence counts at ≥ 1, so those slots are live and never recycled
//! while the entry exists; the writer returns [`SnapshotError::Corrupt`] if
//! a logged fragment has no live id.  The fragment table precedes the log,
//! so the reader resolves each chunk while streaming.  It rejects as
//! [`SnapshotError::Corrupt`] an id beyond the table or naming a dead slot,
//! an entry whose ids are not strictly ascending, per-slot tallies over the
//! log that disagree with `qfg/occurrences`, and an entry count that differs
//! from `meta.log_len` or from the graph's query count.
//!
//! The writer streams one section at a time and serializes the graph
//! *as-is* (no clone, no forced compaction — pending tiered runs survive a
//! snapshot verbatim); the reader validates section by section, so a torn
//! or bit-flipped section is caught by length/CRC checks before any
//! decoding, and no declared length is allocated before it is checked
//! against the bytes left in the file.
//!
//! **Migration:** versions 1–3 (which stored every logged query as a SQL
//! AST in JSON) are rejected with [`SnapshotError::UnsupportedVersion`].
//! To re-create a snapshot: if the write-ahead journal still holds the full
//! history, delete the old snapshot and let
//! [`TemplarService::recover`](crate::TemplarService::recover) replay the
//! journal; otherwise start a service from the SQL log with
//! [`TemplarService::spawn`](crate::TemplarService::spawn) and save a new
//! snapshot.
//!
//! The header carries everything needed to *reject* a snapshot before
//! touching the (potentially large) body:
//!
//! * the magic string guards against feeding an arbitrary file in,
//! * the version gates format evolution,
//! * the obscurity level must match the configuration the service runs at —
//!   QFG counts produced at one obscurity level are meaningless at another,
//!   so a mismatch is a hard error rather than a silent accuracy bug,
//! * `sections=K` lets the reader detect a tail truncated on a section
//!   boundary (fewer sections than promised is corruption, not EOF).
//!
//! Structural damage below the framing layer (truncated CSR columns,
//! occurrence inconsistencies, duplicate interned fragments, negative
//! pending nets) is caught by [`QueryFragmentGraph::from_sections`]
//! validation and surfaces as [`SnapshotError::Corrupt`].
//!
//! The header may additionally carry `watermark=N` — the highest write-ahead
//! journal sequence number the snapshot covers (see [`crate::wal`]).
//! Recovery loads the snapshot and replays only the journal records above
//! the watermark.  Snapshots written outside the durable path omit the
//! token; readers treat that as watermark 0.
//!
//! Writes go through a *uniquely named* sibling temp file (pid + a
//! process-wide counter, so concurrent saves — even of targets sharing a
//! file stem, like `mas.v1` / `mas.v2` — never collide), are fsynced, and
//! land with an atomic rename followed by a parent-directory fsync.  A crash
//! mid-write can never leave a truncated snapshot at the target path, and a
//! power loss after the rename cannot resurrect the old file under the new
//! name.

use crate::error::SnapshotError;
use crate::storage::{FsStorage, Storage};
use crate::wal::crc32;
use serde::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use templar_api::binary::{decode_value, encode_value};
use templar_core::{FragmentLog, Obscurity, QueryFragment, QueryFragmentGraph};

/// First token of every snapshot file.
pub const SNAPSHOT_MAGIC: &str = "TEMPLAR-SNAPSHOT";
/// The format version this build writes, and the only one it reads.
pub const SNAPSHOT_VERSION: u32 = 4;
/// Log entries per `log/<i>` section: bounds how much of the log a
/// streaming reader or writer holds decoded at any moment.
pub const LOG_SECTION_CHUNK: usize = 4096;

/// Bytes of framing per section: `len: u32` + `crc32: u32`.
const SECTION_FRAME_HEADER: usize = 8;
/// Largest section body a reader will buffer (1 GiB), on top of the bound
/// by the bytes left in the file.
const MAX_SECTION_BYTES: u32 = 1 << 30;
/// Longest header line a reader will scan for the newline terminator.
const MAX_HEADER_BYTES: u64 = 4096;
/// Sections besides the log chunks: `meta` and the four `qfg/*`.
const FIXED_SECTIONS: u64 = 5;

/// The deserialized content of a snapshot file.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The query log at capture time.
    pub log: FragmentLog,
    /// The Query Fragment Graph over that log.
    pub qfg: QueryFragmentGraph,
}

/// Serialize the serving state to `path` (atomic replace, format v4).
/// Returns the total bytes written (header + all framed sections).
pub fn write_snapshot(
    path: &Path,
    log: &FragmentLog,
    qfg: &QueryFragmentGraph,
) -> Result<u64, SnapshotError> {
    write_snapshot_with_watermark(path, log, qfg, None)
}

/// Serialize the serving state to `path`, optionally recording the journal
/// sequence number the snapshot covers (the recovery watermark).  Returns
/// the total bytes written so callers can surface snapshot size as a metric
/// without a second `stat`.
pub fn write_snapshot_with_watermark(
    path: &Path,
    log: &FragmentLog,
    qfg: &QueryFragmentGraph,
    watermark: Option<u64>,
) -> Result<u64, SnapshotError> {
    write_snapshot_with(&FsStorage, path, log, qfg, watermark)
}

/// [`write_snapshot_with_watermark`] over an explicit [`Storage`] (fault
/// injection in tests; [`FsStorage`] in production).
pub fn write_snapshot_with(
    storage: &dyn Storage,
    path: &Path,
    log: &FragmentLog,
    qfg: &QueryFragmentGraph,
    watermark: Option<u64>,
) -> Result<u64, SnapshotError> {
    if log.obscurity() != qfg.obscurity() {
        return Err(SnapshotError::ObscurityMismatch {
            expected: qfg.obscurity(),
            found: log.obscurity(),
        });
    }
    let log_chunks = log.len().div_ceil(LOG_SECTION_CHUNK);
    let sections = FIXED_SECTIONS + log_chunks as u64;
    let mut header = format!(
        "{SNAPSHOT_MAGIC} v{SNAPSHOT_VERSION} obscurity={}",
        qfg.obscurity().name()
    );
    if let Some(watermark) = watermark {
        header.push_str(&format!(" watermark={watermark}"));
    }
    header.push_str(&format!(" sections={sections}\n"));
    // A unique sibling temp name per write: `path.with_extension("tmp")`
    // would collide for concurrent saves of targets sharing a stem
    // (`mas.v1` / `mas.v2` both map to `mas.tmp`) — one writer's rename
    // would then publish the other's half-written bytes.
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            SnapshotError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "snapshot path has no file name",
            ))
        })?
        .to_string_lossy()
        .into_owned();
    let tmp = parent.join(format!(
        ".{file_name}.{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| -> Result<u64, SnapshotError> {
        let file = storage.create(&tmp)?;
        let mut out = BufWriter::new(file);
        let mut bytes = header.len() as u64;
        out.write_all(header.as_bytes())?;
        // Stream one section at a time: each `write_section` encodes its
        // payload, frames it, and drops it before the next is built — the
        // writer never materializes the whole body (or a clone of the
        // graph; the columns serialize as-is, pending runs included).
        let meta = Value::Map(vec![
            (
                "obscurity".to_string(),
                Value::Str(qfg.obscurity().name().to_string()),
            ),
            ("log_len".to_string(), Value::U64(log.len() as u64)),
            ("log_chunks".to_string(), Value::U64(log_chunks as u64)),
            (
                "query_count".to_string(),
                Value::U64(qfg.query_count() as u64),
            ),
        ]);
        bytes += write_section(&mut out, "meta", &meta)?;
        bytes += write_section(&mut out, "qfg/fragments", &qfg.fragments_section())?;
        for chunk in 0..log_chunks {
            let first = chunk * LOG_SECTION_CHUNK;
            let entries = log
                .entries()
                .range(first..log.len().min(first + LOG_SECTION_CHUNK));
            let payload = log_chunk(qfg, first, entries)?;
            bytes += write_section(&mut out, &format!("log/{chunk}"), &payload)?;
        }
        bytes += write_section(&mut out, "qfg/occurrences", &qfg.occurrences_section())?;
        bytes += write_section(&mut out, "qfg/adjacency", &qfg.adjacency_section())?;
        bytes += write_section(&mut out, "qfg/runs", &qfg.runs_section())?;
        let mut file = out
            .into_inner()
            .map_err(|e| SnapshotError::Io(e.into_error()))?;
        // The bytes must be durable *before* the rename publishes the
        // name, or a power loss could leave a valid name over garbage.
        file.sync_all()?;
        drop(file);
        storage.rename(&tmp, path)?;
        // And the rename itself must be durable: fsync the directory entry.
        storage.sync_dir(&parent)?;
        Ok(bytes)
    })();
    if result.is_err() {
        storage.remove_file(&tmp).ok();
    }
    result
}

/// One `log/<i>` payload: per entry, the ascending slot ids of its
/// fragments in `qfg/fragments`.  `first` is the index of the chunk's
/// first entry, for the error message.
fn log_chunk<'a>(
    qfg: &QueryFragmentGraph,
    first: usize,
    entries: impl Iterator<Item = &'a Arc<[QueryFragment]>>,
) -> Result<Value, SnapshotError> {
    entries
        .enumerate()
        .map(|(i, entry)| {
            let mut ids = entry
                .iter()
                .map(|fragment| {
                    qfg.lookup(fragment)
                        .map(|id| id.index() as u64)
                        .ok_or_else(|| {
                            SnapshotError::Corrupt(format!(
                                "log entry {} names fragment {fragment}, which has no live id \
                                 in the graph",
                                first + i
                            ))
                        })
                })
                .collect::<Result<Vec<u64>, _>>()?;
            ids.sort_unstable();
            Ok(Value::Seq(ids.into_iter().map(Value::U64).collect()))
        })
        .collect::<Result<Vec<Value>, _>>()
        .map(Value::Seq)
}

/// Frame one section: `[len][crc][name_len][name][payload]`, CRC over
/// everything after the 8-byte frame header.  Returns the framed size.
fn write_section(out: &mut impl Write, name: &str, payload: &Value) -> Result<u64, SnapshotError> {
    let mut body = Vec::with_capacity(2 + name.len());
    body.extend_from_slice(&(name.len() as u16).to_le_bytes());
    body.extend_from_slice(name.as_bytes());
    encode_value(payload, &mut body);
    if body.len() as u64 > MAX_SECTION_BYTES as u64 {
        return Err(SnapshotError::Corrupt(format!(
            "section `{name}` exceeds the {MAX_SECTION_BYTES}-byte frame limit"
        )));
    }
    out.write_all(&(body.len() as u32).to_le_bytes())?;
    out.write_all(&crc32(&body).to_le_bytes())?;
    out.write_all(&body)?;
    Ok((SECTION_FRAME_HEADER + body.len()) as u64)
}

/// The section stream of a snapshot body, tracking how many bytes of the
/// file remain so no declared length is allocated beyond them.
struct Sections<R> {
    reader: R,
    remaining: u64,
}

impl<R: Read> Sections<R> {
    /// Read one framed section: validates the length against the bytes
    /// left in the file and the CRC before decoding the payload, so torn or
    /// bit-flipped sections surface as [`SnapshotError::Corrupt`] without
    /// any decoding work — and a damaged length cannot drive a giant
    /// allocation.
    fn next(&mut self) -> Result<(String, Value), SnapshotError> {
        let mut frame = [0u8; SECTION_FRAME_HEADER];
        self.reader.read_exact(&mut frame).map_err(eof_is_torn)?;
        self.remaining = self.remaining.saturating_sub(SECTION_FRAME_HEADER as u64);
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
        let stored_crc = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
        if !(2..=MAX_SECTION_BYTES).contains(&len) {
            return Err(SnapshotError::Corrupt(format!(
                "section frame length {len} out of range"
            )));
        }
        if u64::from(len) > self.remaining {
            return Err(SnapshotError::Corrupt(format!(
                "torn snapshot: section frame claims {len} bytes, {} remain in the file",
                self.remaining
            )));
        }
        self.remaining -= u64::from(len);
        let mut body = vec![0u8; len as usize];
        self.reader.read_exact(&mut body).map_err(eof_is_torn)?;
        if crc32(&body) != stored_crc {
            return Err(SnapshotError::Corrupt("section CRC mismatch".to_string()));
        }
        let name_len = u16::from_le_bytes([body[0], body[1]]) as usize;
        if 2 + name_len > body.len() {
            return Err(SnapshotError::Corrupt(
                "section name overruns its frame".to_string(),
            ));
        }
        let name = std::str::from_utf8(&body[2..2 + name_len])
            .map_err(|_| SnapshotError::Corrupt("section name is not UTF-8".to_string()))?
            .to_string();
        let value = decode_value(&body[2 + name_len..])
            .map_err(|e| SnapshotError::Corrupt(format!("section `{name}`: {e}")))?;
        Ok((name, value))
    }

    /// The next section, which must be named `want`.
    fn expect(&mut self, want: &str) -> Result<Value, SnapshotError> {
        let (name, payload) = self.next()?;
        if name != want {
            return Err(SnapshotError::Corrupt(format!(
                "expected section `{want}`, found `{name}`"
            )));
        }
        Ok(payload)
    }
}

/// A short read inside a section frame is a torn snapshot, not an I/O fault
/// of this process.
fn eof_is_torn(e: std::io::Error) -> SnapshotError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        SnapshotError::Corrupt("torn snapshot: section frame truncated".to_string())
    } else {
        SnapshotError::Io(e)
    }
}

/// Read and validate a snapshot, rejecting wrong magic, any version but
/// [`SNAPSHOT_VERSION`] and — crucially — snapshots captured at a different
/// obscurity level than `expected`.
pub fn read_snapshot(path: &Path, expected: Obscurity) -> Result<Snapshot, SnapshotError> {
    read_snapshot_with_watermark(path, expected).map(|(snapshot, _)| snapshot)
}

/// [`read_snapshot`], additionally returning the journal watermark recorded
/// in the header (0 when the snapshot was written outside the durable path).
pub fn read_snapshot_with_watermark(
    path: &Path,
    expected: Obscurity,
) -> Result<(Snapshot, u64), SnapshotError> {
    read_snapshot_from(&FsStorage, path, expected)
}

/// [`read_snapshot_with_watermark`] over an explicit [`Storage`].
pub fn read_snapshot_from(
    storage: &dyn Storage,
    path: &Path,
    expected: Obscurity,
) -> Result<(Snapshot, u64), SnapshotError> {
    let file = storage.open_read(path)?;
    let file_len = storage.file_len(path)?;
    let mut reader = BufReader::new(file);
    let mut line = Vec::new();
    (&mut reader)
        .take(MAX_HEADER_BYTES)
        .read_until(b'\n', &mut line)?;
    if line.last() != Some(&b'\n') {
        return Err(SnapshotError::BadMagic);
    }
    let header_len = line.len() as u64;
    line.pop();
    let header = std::str::from_utf8(&line).map_err(|_| SnapshotError::BadMagic)?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some(SNAPSHOT_MAGIC) {
        return Err(SnapshotError::BadMagic);
    }
    let version = parts
        .next()
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or(SnapshotError::BadMagic)?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let obscurity = parts
        .next()
        .and_then(|v| v.strip_prefix("obscurity="))
        .and_then(parse_obscurity)
        .ok_or_else(|| SnapshotError::Corrupt("missing obscurity in header".to_string()))?;
    if obscurity != expected {
        return Err(SnapshotError::ObscurityMismatch {
            expected,
            found: obscurity,
        });
    }
    // Optional trailing tokens.  A malformed value is corruption — e.g.
    // recovering with watermark 0 would double-apply every journaled entry.
    let mut watermark = 0u64;
    let mut sections: Option<u64> = None;
    for token in parts {
        if let Some(v) = token.strip_prefix("watermark=") {
            watermark = v.parse::<u64>().map_err(|_| {
                SnapshotError::Corrupt(format!("unparsable header token `{token}`"))
            })?;
        } else if let Some(v) = token.strip_prefix("sections=") {
            sections = Some(v.parse::<u64>().map_err(|_| {
                SnapshotError::Corrupt(format!("unparsable header token `{token}`"))
            })?);
        } else {
            return Err(SnapshotError::Corrupt(format!(
                "unparsable header token `{token}`"
            )));
        }
    }
    let sections = sections
        .ok_or_else(|| SnapshotError::Corrupt("header is missing its section count".to_string()))?;
    let mut body = Sections {
        reader,
        remaining: file_len.saturating_sub(header_len),
    };
    let snapshot = read_body(&mut body, sections, obscurity)?;
    Ok((snapshot, watermark))
}

/// Decode the sectioned body: sections arrive in the fixed order the writer
/// produces, each CRC-validated before decoding, with the section count
/// cross-checked against the header and the `meta` section, log chunks
/// resolved against the fragment table as they stream in, and a
/// trailing-garbage probe after the final section.
fn read_body(
    body: &mut Sections<impl Read>,
    sections: u64,
    obscurity: Obscurity,
) -> Result<Snapshot, SnapshotError> {
    let corrupt = SnapshotError::Corrupt;
    let meta = body.expect("meta")?;
    let meta_fields = meta
        .as_map()
        .ok_or_else(|| corrupt("meta section is not a map".to_string()))?;
    let meta_field = |key: &str| meta_fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let meta_u64 = |key: &str| -> Result<u64, SnapshotError> {
        meta_field(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| corrupt(format!("meta section is missing `{key}`")))
    };
    // The header line is outside any CRC; the meta section repeats the
    // obscurity *inside* one, so a flipped header byte cannot silently
    // serve counts captured at another level.
    if meta_field("obscurity").and_then(Value::as_str) != Some(obscurity.name()) {
        return Err(corrupt("body obscurity disagrees with header".to_string()));
    }
    let log_len = meta_u64("log_len")?;
    let log_chunks = meta_u64("log_chunks")?;
    let query_count = meta_u64("query_count")?;
    if log_chunks.checked_add(FIXED_SECTIONS) != Some(sections) {
        return Err(corrupt(format!(
            "header promises {sections} sections but meta implies {FIXED_SECTIONS} + {log_chunks}"
        )));
    }
    if log_len != query_count {
        return Err(corrupt(format!(
            "meta promises {log_len} log entries but a graph of {query_count} queries"
        )));
    }
    let table =
        QueryFragmentGraph::fragment_table(&body.expect("qfg/fragments")?).map_err(corrupt)?;
    let mut log = FragmentLog::new(obscurity);
    // How many entries name each slot: must equal `qfg/occurrences`.
    let mut tally = vec![0u64; table.len()];
    // Entries with the same fragment set share one allocation.
    let mut shared: HashMap<Vec<u32>, Arc<[QueryFragment]>> = HashMap::new();
    for chunk in 0..log_chunks {
        let payload = body.expect(&format!("log/{chunk}"))?;
        let entries = payload
            .as_seq()
            .ok_or_else(|| corrupt(format!("log chunk {chunk} is not a sequence")))?;
        for entry in entries {
            let n = log.len();
            if n as u64 == log_len {
                return Err(corrupt(format!(
                    "log sections hold more than the {log_len} entries meta promises"
                )));
            }
            let ids = entry
                .as_seq()
                .ok_or_else(|| corrupt(format!("log entry {n} is not a sequence")))?;
            let mut slots: Vec<u32> = Vec::with_capacity(ids.len().min(table.len()));
            for id in ids {
                let slot = id
                    .as_u64()
                    .ok_or_else(|| corrupt(format!("log entry {n} holds a non-integer id")))?;
                let live = usize::try_from(slot)
                    .ok()
                    .and_then(|s| table.get(s))
                    .ok_or_else(|| {
                        corrupt(format!(
                            "log entry {n} names slot {slot}, beyond the {}-slot fragment table",
                            table.len()
                        ))
                    })?;
                if live.is_none() {
                    return Err(corrupt(format!(
                        "log entry {n} names dead fragment slot {slot}"
                    )));
                }
                if slots.last().is_some_and(|&prev| u64::from(prev) >= slot) {
                    return Err(corrupt(format!(
                        "log entry {n} ids are not strictly ascending"
                    )));
                }
                slots.push(slot as u32);
            }
            for &slot in &slots {
                tally[slot as usize] += 1;
            }
            let fragments = match shared.get(&slots) {
                Some(fragments) => Arc::clone(fragments),
                None => {
                    let mut fragments: Vec<QueryFragment> = slots
                        .iter()
                        .filter_map(|&slot| table[slot as usize].clone())
                        .collect();
                    fragments.sort_unstable();
                    let fragments: Arc<[QueryFragment]> = fragments.into();
                    shared.insert(slots, Arc::clone(&fragments));
                    fragments
                }
            };
            log.push_fragments(fragments);
        }
    }
    if log.len() as u64 != log_len {
        return Err(corrupt(format!(
            "log sections hold {} entries, meta promises {log_len}",
            log.len()
        )));
    }
    let occurrences = body.expect("qfg/occurrences")?;
    let adjacency = body.expect("qfg/adjacency")?;
    let runs = body.expect("qfg/runs")?;
    let mut probe = [0u8; 1];
    if body.reader.read(&mut probe)? != 0 {
        return Err(corrupt(
            "trailing bytes after the final section".to_string(),
        ));
    }
    let qfg = QueryFragmentGraph::from_sections(
        obscurity,
        query_count,
        table,
        &occurrences,
        &adjacency,
        &runs,
    )
    .map_err(corrupt)?;
    // Log ids never name a dead slot, so comparing the live slots covers
    // every slot.
    for (fragment, id) in qfg.interner().live() {
        let (logged, counted) = (tally[id.index()], qfg.occurrences_by_id(id));
        if logged != counted {
            return Err(corrupt(format!(
                "{logged} log entries name fragment {fragment}, but qfg/occurrences counts \
                 {counted}"
            )));
        }
    }
    Ok(Snapshot { log, qfg })
}

fn parse_obscurity(name: &str) -> Option<Obscurity> {
    Obscurity::ALL.into_iter().find(|o| o.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;
    use templar_core::QueryLog;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("templar-snap-test-{}-{name}", std::process::id()));
        p
    }

    fn sample_state(obscurity: Obscurity) -> (FragmentLog, QueryFragmentGraph) {
        let (log, skipped) = QueryLog::from_sql([
            "SELECT p.title FROM publication p WHERE p.year > 2000",
            "SELECT p.title FROM publication p, journal j WHERE j.name = 'TKDE' AND p.jid = j.jid",
            "SELECT j.name FROM journal j",
        ]);
        assert_eq!(skipped, 0);
        let qfg = QueryFragmentGraph::build(&log, obscurity);
        (FragmentLog::from_log(&log, obscurity), qfg)
    }

    #[test]
    fn round_trip_preserves_log_and_counts() {
        let (log, qfg) = sample_state(Obscurity::NoConstOp);
        let path = temp_path("roundtrip");
        let bytes = write_snapshot(&path, &log, &qfg).unwrap();
        assert_eq!(
            bytes,
            fs::metadata(&path).unwrap().len(),
            "the writer's byte count must match the file on disk"
        );
        let snapshot = read_snapshot(&path, Obscurity::NoConstOp).unwrap();
        assert_eq!(snapshot.log, log);
        assert_eq!(snapshot.qfg, qfg);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn round_trip_preserves_pending_runs_without_compacting() {
        // The writer serializes pending tiered runs verbatim, so a snapshot taken
        // mid-churn restores with the same pending work.
        let (log, mut qfg) = sample_state(Obscurity::NoConstOp);
        let mut log = log;
        let (extra, _) = QueryLog::from_sql([
            "SELECT p.year FROM publication p",
            "SELECT p.title FROM publication p WHERE p.year > 2011",
        ]);
        for query in extra.queries() {
            log.push(query.clone());
            qfg.ingest(query);
        }
        assert!(!qfg.is_compacted());
        let pending = qfg.pending_delta_len();
        assert!(pending > 0);
        let path = temp_path("pending-runs");
        write_snapshot(&path, &log, &qfg).unwrap();
        let snapshot = read_snapshot(&path, Obscurity::NoConstOp).unwrap();
        assert_eq!(snapshot.qfg, qfg);
        assert!(!snapshot.qfg.is_compacted());
        assert_eq!(snapshot.qfg.pending_delta_len(), pending);
        fs::remove_file(&path).ok();
    }

    /// Regression: the old writer derived its temp file with
    /// `path.with_extension("tmp")`, so two snapshot targets sharing a file
    /// stem (`mas.v1` / `mas.v2`) raced on the *same* `mas.tmp` — one save
    /// could publish the other's half-written bytes.  The unique sibling
    /// temp name makes concurrent saves of stem-sharing targets safe.
    #[test]
    fn concurrent_saves_sharing_a_stem_do_not_collide() {
        let (log_a, qfg_a) = sample_state(Obscurity::NoConstOp);
        let (extra, _) = QueryLog::from_sql(["SELECT p.year FROM publication p"]);
        let mut log_b = log_a.clone();
        let mut qfg_b = qfg_a.clone();
        log_b.push(extra.queries()[0].clone());
        qfg_b.ingest(&extra.queries()[0]);

        let dir =
            std::env::temp_dir().join(format!("templar-snap-concurrent-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path_a = dir.join("mas.v1");
        let path_b = dir.join("mas.v2");
        assert_eq!(
            path_a.with_extension("tmp"),
            path_b.with_extension("tmp"),
            "the regression needs targets whose naive temp paths collide"
        );

        std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                for _ in 0..20 {
                    write_snapshot(&path_a, &log_a, &qfg_a).unwrap();
                }
            });
            let b = scope.spawn(|| {
                for _ in 0..20 {
                    write_snapshot(&path_b, &log_b, &qfg_b).unwrap();
                }
            });
            a.join().unwrap();
            b.join().unwrap();
        });

        // Each target holds its own writer's state, not the sibling's.
        let snap_a = read_snapshot(&path_a, Obscurity::NoConstOp).unwrap();
        let snap_b = read_snapshot(&path_b, Obscurity::NoConstOp).unwrap();
        assert_eq!(snap_a.log, log_a);
        assert_eq!(snap_a.qfg, qfg_a);
        assert_eq!(snap_b.log, log_b);
        assert_eq!(snap_b.qfg, qfg_b);
        // No temp litter survives a successful save.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watermark_round_trips_and_defaults_to_zero() {
        let (log, qfg) = sample_state(Obscurity::NoConstOp);
        let path = temp_path("watermark");
        write_snapshot_with_watermark(&path, &log, &qfg, Some(42)).unwrap();
        let text = fs::read(&path).unwrap();
        assert!(
            text.starts_with(b"TEMPLAR-SNAPSHOT v4 obscurity=NoConstOp watermark=42 sections=6\n")
        );
        let (snapshot, watermark) =
            read_snapshot_with_watermark(&path, Obscurity::NoConstOp).unwrap();
        assert_eq!(watermark, 42);
        assert_eq!(snapshot.log, log);
        // The plain reader still accepts a watermarked snapshot.
        assert_eq!(read_snapshot(&path, Obscurity::NoConstOp).unwrap().qfg, qfg);
        // And a plain snapshot reads back with watermark 0.
        write_snapshot(&path, &log, &qfg).unwrap();
        let (_, watermark) = read_snapshot_with_watermark(&path, Obscurity::NoConstOp).unwrap();
        assert_eq!(watermark, 0);
        // A mangled watermark token is corruption, not silently 0.
        fs::write(
            &path,
            "TEMPLAR-SNAPSHOT v4 obscurity=NoConstOp watermark=banana sections=6\n",
        )
        .unwrap();
        assert!(matches!(
            read_snapshot_with_watermark(&path, Obscurity::NoConstOp),
            Err(SnapshotError::Corrupt(_))
        ));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn written_snapshots_carry_the_v4_header() {
        let (log, qfg) = sample_state(Obscurity::NoConstOp);
        let path = temp_path("v4header");
        write_snapshot(&path, &log, &qfg).unwrap();
        let text = fs::read(&path).unwrap();
        assert!(text.starts_with(b"TEMPLAR-SNAPSHOT v4 obscurity=NoConstOp sections=6\n"));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn obscurity_mismatch_is_rejected() {
        let (log, qfg) = sample_state(Obscurity::NoConst);
        let path = temp_path("mismatch");
        write_snapshot(&path, &log, &qfg).unwrap();
        match read_snapshot(&path, Obscurity::NoConstOp) {
            Err(SnapshotError::ObscurityMismatch { expected, found }) => {
                assert_eq!(expected, Obscurity::NoConstOp);
                assert_eq!(found, Obscurity::NoConst);
            }
            other => panic!("expected ObscurityMismatch, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_and_bad_version_are_rejected() {
        let path = temp_path("magic");
        fs::write(&path, "NOT-A-SNAPSHOT v2 obscurity=Full\n{}").unwrap();
        assert!(matches!(
            read_snapshot(&path, Obscurity::Full),
            Err(SnapshotError::BadMagic)
        ));
        fs::write(&path, "TEMPLAR-SNAPSHOT v99 obscurity=Full\n{}").unwrap();
        assert!(matches!(
            read_snapshot(&path, Obscurity::Full),
            Err(SnapshotError::UnsupportedVersion { found: 99, .. })
        ));
        fs::write(&path, "TEMPLAR-SNAPSHOT v0 obscurity=Full\n{}").unwrap();
        assert!(matches!(
            read_snapshot(&path, Obscurity::Full),
            Err(SnapshotError::UnsupportedVersion { found: 0, .. })
        ));
        // The retired formats are rejected, not migrated.
        for (retired, header) in [
            (1, "TEMPLAR-SNAPSHOT v1 obscurity=Full\n{}"),
            (2, "TEMPLAR-SNAPSHOT v2 obscurity=Full\n{}"),
            (3, "TEMPLAR-SNAPSHOT v3 obscurity=Full sections=6\n"),
        ] {
            fs::write(&path, header).unwrap();
            match read_snapshot(&path, Obscurity::Full) {
                Err(SnapshotError::UnsupportedVersion { found, supported }) => {
                    assert_eq!((found, supported), (retired, SNAPSHOT_VERSION));
                }
                other => panic!("v{retired}: expected UnsupportedVersion, got {other:?}"),
            }
        }
        // A header with no newline within the scan bound is not a snapshot.
        fs::write(&path, "TEMPLAR-SNAPSHOT v4 obscurity=Full sections=6").unwrap();
        assert!(matches!(
            read_snapshot(&path, Obscurity::Full),
            Err(SnapshotError::BadMagic)
        ));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_body_is_rejected() {
        let path = temp_path("corrupt");
        fs::write(
            &path,
            "TEMPLAR-SNAPSHOT v4 obscurity=NoConstOp sections=6\n{this is not a section",
        )
        .unwrap();
        assert!(matches!(
            read_snapshot(&path, Obscurity::NoConstOp),
            Err(SnapshotError::Corrupt(_))
        ));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let path = temp_path("corrupt-header");
        // Version present but obscurity mangled.
        fs::write(&path, "TEMPLAR-SNAPSHOT v4 obscurity=Sideways sections=6\n").unwrap();
        assert!(matches!(
            read_snapshot(&path, Obscurity::NoConstOp),
            Err(SnapshotError::Corrupt(_))
        ));
        // Obscurity field missing entirely.
        fs::write(&path, "TEMPLAR-SNAPSHOT v4\n").unwrap();
        assert!(matches!(
            read_snapshot(&path, Obscurity::NoConstOp),
            Err(SnapshotError::Corrupt(_))
        ));
        // A header without its section count cannot be read.
        fs::write(&path, "TEMPLAR-SNAPSHOT v4 obscurity=NoConstOp\n").unwrap();
        assert!(matches!(
            read_snapshot(&path, Obscurity::NoConstOp),
            Err(SnapshotError::Corrupt(_))
        ));
        fs::remove_file(&path).ok();
    }

    /// Frame one section around a raw payload, with a valid CRC.
    fn frame(name: &str, payload: &[u8]) -> Vec<u8> {
        let mut body = (name.len() as u16).to_le_bytes().to_vec();
        body.extend_from_slice(name.as_bytes());
        body.extend_from_slice(payload);
        let mut framed = (body.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&crc32(&body).to_le_bytes());
        framed.extend_from_slice(&body);
        framed
    }

    /// Split a snapshot into its header line and its decoded sections.
    fn split_sections(bytes: &[u8]) -> (Vec<u8>, Vec<(String, Value)>) {
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let mut body = Sections {
            reader: &bytes[header_end..],
            remaining: (bytes.len() - header_end) as u64,
        };
        let mut sections = Vec::new();
        while body.remaining > 0 {
            sections.push(body.next().unwrap());
        }
        (bytes[..header_end].to_vec(), sections)
    }

    /// Reassemble a snapshot from a header and sections, each re-framed
    /// with a valid CRC — so a tampered payload reaches the decoder.
    fn join_sections(header: &[u8], sections: &[(String, Value)]) -> Vec<u8> {
        let mut bytes = header.to_vec();
        for (name, payload) in sections {
            let mut encoded = Vec::new();
            encode_value(payload, &mut encoded);
            bytes.extend(frame(name, &encoded));
        }
        bytes
    }

    fn section_mut<'a>(sections: &'a mut [(String, Value)], name: &str) -> &'a mut Value {
        &mut sections.iter_mut().find(|(n, _)| n == name).unwrap().1
    }

    #[test]
    fn truncated_csr_is_rejected_as_corrupt() {
        let (log, qfg) = sample_state(Obscurity::NoConstOp);
        let path = temp_path("truncated-csr");
        write_snapshot(&path, &log, &qfg).unwrap();
        // Drop one entry from the counts column: offsets now promise more
        // edges than the columns hold.
        let (header, mut sections) = split_sections(&fs::read(&path).unwrap());
        let Value::Map(fields) = &mut section_mut(&mut sections, "qfg/adjacency") else {
            panic!("adjacency section is a map")
        };
        let Some((_, Value::Seq(counts))) = fields.iter_mut().find(|(k, _)| k == "counts") else {
            panic!("counts column present")
        };
        counts.pop();
        fs::write(&path, join_sections(&header, &sections)).unwrap();
        match read_snapshot(&path, Obscurity::NoConstOp) {
            Err(SnapshotError::Corrupt(detail)) => {
                assert!(detail.contains("truncated CSR"), "detail was: {detail}")
            }
            other => panic!("expected Corrupt for a truncated CSR, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    /// Walk the section frames of a snapshot, returning the byte offset
    /// where each section ends (the first offset is the end of the header).
    fn section_boundaries(bytes: &[u8]) -> Vec<usize> {
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let mut boundaries = vec![header_end];
        let mut at = header_end;
        while at + SECTION_FRAME_HEADER <= bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            at += SECTION_FRAME_HEADER + len;
            boundaries.push(at);
        }
        assert_eq!(at, bytes.len(), "walker must land exactly on EOF");
        boundaries
    }

    /// The snapshot-section analogue of the WAL torn-write matrix: a crash
    /// that leaves a prefix of the temp file — cut exactly on a section
    /// boundary or anywhere inside a frame — must never load as a valid
    /// snapshot.  (In production the atomic rename already hides torn temp
    /// files; this pins the reader's own defense in depth.)
    #[test]
    fn torn_sections_are_rejected_at_every_boundary() {
        let (log, qfg) = sample_state(Obscurity::NoConstOp);
        let path = temp_path("torn-sections");
        write_snapshot_with_watermark(&path, &log, &qfg, Some(7)).unwrap();
        let bytes = fs::read(&path).unwrap();
        let boundaries = section_boundaries(&bytes);
        assert_eq!(boundaries.len(), 7, "6 sections + the header boundary");
        let torn = temp_path("torn-sections-cut");
        let mut cuts: Vec<usize> = Vec::new();
        for &b in &boundaries[..boundaries.len() - 1] {
            // On the boundary, mid-frame-header, and mid-body.
            cuts.extend([b, b + 3, b + SECTION_FRAME_HEADER + 1]);
        }
        for cut in cuts {
            fs::write(&torn, &bytes[..cut]).unwrap();
            match read_snapshot(&torn, Obscurity::NoConstOp) {
                Err(SnapshotError::Corrupt(_)) => {}
                other => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
            }
        }
        // A single flipped payload bit is caught by the section CRC.
        let mut flipped = bytes.clone();
        let target = boundaries[1] + SECTION_FRAME_HEADER + 4;
        flipped[target] ^= 0x01;
        fs::write(&torn, &flipped).unwrap();
        match read_snapshot(&torn, Obscurity::NoConstOp) {
            Err(SnapshotError::Corrupt(detail)) => {
                assert!(detail.contains("CRC"), "detail was: {detail}")
            }
            other => panic!("expected a CRC failure, got {other:?}"),
        }
        // Trailing garbage after the last section is corruption too.
        let mut extended = bytes.clone();
        extended.push(0);
        fs::write(&torn, &extended).unwrap();
        assert!(matches!(
            read_snapshot(&torn, Obscurity::NoConstOp),
            Err(SnapshotError::Corrupt(_))
        ));
        // And the pristine bytes still load.
        fs::write(&torn, &bytes).unwrap();
        read_snapshot(&torn, Obscurity::NoConstOp).unwrap();
        fs::remove_file(&path).ok();
        fs::remove_file(&torn).ok();
    }

    /// Write-side torn matrix for the sectioned snapshot: crash the
    /// storage at a dense sweep of cumulative byte budgets (covering every
    /// section boundary of the write stream) and at every non-write fault
    /// site (temp-file create, fsync, rename, directory fsync).  An
    /// interrupted overwrite must never be observable: the previously
    /// published snapshot keeps loading byte-identically, and once the
    /// fault clears the overwrite succeeds.
    #[test]
    fn write_crash_matrix_preserves_the_published_snapshot() {
        use crate::storage::{FaultRule, FaultyStorage, StorageOp};

        let (log_a, qfg_a) = sample_state(Obscurity::NoConstOp);
        let mut log_b = log_a.clone();
        let mut qfg_b = qfg_a.clone();
        let (extra, _) = QueryLog::from_sql([
            "SELECT p.year FROM publication p",
            "SELECT p.title FROM publication p WHERE p.year > 2011",
        ]);
        for query in extra.queries() {
            log_b.push(query.clone());
            qfg_b.ingest(query);
        }

        let dir =
            std::env::temp_dir().join(format!("templar-snap-crash-matrix-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.templar");
        write_snapshot_with(&FsStorage, &path, &log_a, &qfg_a, Some(7)).unwrap();
        let published = fs::read(&path).unwrap();

        // Enumerate the fault surface of one clean overwrite, then restore
        // the published bytes.
        let counting = FaultyStorage::new();
        write_snapshot_with(counting.as_ref(), &path, &log_b, &qfg_b, Some(9)).unwrap();
        let total = counting.bytes_written();
        assert!(total > 0);
        fs::write(&path, &published).unwrap();

        let assert_published_intact = |case: &str| {
            assert_eq!(
                fs::read(&path).unwrap(),
                published,
                "{case}: a failed overwrite must leave the published snapshot byte-identical"
            );
            let (snapshot, watermark) = read_snapshot_with_watermark(&path, Obscurity::NoConstOp)
                .unwrap_or_else(|e| panic!("{case}: published snapshot unreadable: {e}"));
            assert_eq!(snapshot.log, log_a, "{case}");
            assert_eq!(snapshot.qfg, qfg_a, "{case}");
            assert_eq!(watermark, 7, "{case}");
        };

        // Byte-budget sweep: a crash inside any write — section headers,
        // section bodies, the final footer — with a torn prefix persisted.
        let budgets = (0..total).step_by(7).chain([total.saturating_sub(1)]);
        for budget in budgets {
            let case = format!("byte budget {budget}/{total}");
            let storage = FaultyStorage::new();
            storage.crash_after_write_bytes(budget);
            write_snapshot_with(storage.as_ref(), &path, &log_b, &qfg_b, Some(9))
                .expect_err("an interrupted write must report failure");
            assert_published_intact(&case);
            // The disk comes back: the overwrite must go through whole.
            storage.clear();
            write_snapshot_with(storage.as_ref(), &path, &log_b, &qfg_b, Some(9))
                .unwrap_or_else(|e| panic!("{case}: healed overwrite failed: {e}"));
            let (snapshot, watermark) =
                read_snapshot_with_watermark(&path, Obscurity::NoConstOp).unwrap();
            assert_eq!(
                snapshot.log, log_b,
                "{case}: healed snapshot must be the new state"
            );
            assert_eq!(watermark, 9, "{case}");
            fs::write(&path, &published).unwrap();
        }

        // Operation matrix: fail each create/fsync/rename/dir-sync site.  A
        // fault *before* the rename must leave the old snapshot untouched; a
        // fault *after* it (the directory fsync) legitimately leaves the new
        // one published but reported non-durable — the invariant in every
        // case is that the target parses as a *valid* snapshot that is
        // exactly the old state or exactly the new one, never a blend.
        for op in [
            StorageOp::Create,
            StorageOp::Write,
            StorageOp::SyncData,
            StorageOp::SyncAll,
            StorageOp::SetLen,
            StorageOp::Rename,
            StorageOp::SyncDir,
            StorageOp::RemoveFile,
        ] {
            for index in 0..counting.op_count(op) {
                let case = format!("op {op:?} index {index}");
                let storage = FaultyStorage::new();
                storage.inject(FaultRule::crash(op, index));
                match write_snapshot_with(storage.as_ref(), &path, &log_b, &qfg_b, Some(9)) {
                    // The site was absorbed (e.g. cleanup of a leftover
                    // temp file): the overwrite landed whole.
                    Ok(_) => {
                        let (snapshot, _) =
                            read_snapshot_with_watermark(&path, Obscurity::NoConstOp).unwrap();
                        assert_eq!(snapshot.log, log_b, "{case}");
                    }
                    Err(SnapshotError::Io(_)) => {
                        let (snapshot, watermark) =
                            read_snapshot_with_watermark(&path, Obscurity::NoConstOp)
                                .unwrap_or_else(|e| {
                                    panic!("{case}: target must stay a valid snapshot: {e}")
                                });
                        if watermark == 7 {
                            assert_eq!(
                                fs::read(&path).unwrap(),
                                published,
                                "{case}: surviving old snapshot must be byte-identical"
                            );
                            assert_eq!(snapshot.log, log_a, "{case}");
                        } else {
                            assert_eq!(watermark, 9, "{case}: old or new, never a blend");
                            assert_eq!(snapshot.log, log_b, "{case}");
                        }
                    }
                    Err(other) => panic!("{case}: expected an Io error, got {other}"),
                }
                fs::write(&path, &published).unwrap();
            }
        }

        fs::remove_dir_all(&dir).ok();
    }

    /// A state whose graph has a dead slot: the `publication.year` SELECT
    /// fragment is unique to the oldest query, which is then evicted.
    fn state_with_dead_slot() -> (FragmentLog, QueryFragmentGraph) {
        let (queries, skipped) = QueryLog::from_sql([
            "SELECT p.year FROM publication p",
            "SELECT p.title FROM publication p WHERE p.year > 2000",
            "SELECT p.title FROM publication p, journal j WHERE j.name = 'TKDE' AND p.jid = j.jid",
            "SELECT j.name FROM journal j",
        ]);
        assert_eq!(skipped, 0);
        let mut log = FragmentLog::new(Obscurity::NoConstOp);
        let mut qfg = QueryFragmentGraph::empty(Obscurity::NoConstOp);
        for query in queries.queries() {
            qfg.ingest(query);
            log.push(query.clone());
        }
        let evicted = log.pop_oldest().unwrap();
        assert!(qfg.remove_fragments(&evicted));
        (log, qfg)
    }

    /// Every way a log section can disagree with itself or with the graph
    /// comes back as a typed `Corrupt`, never a panic or a silently wrong
    /// log.
    #[test]
    fn damaged_log_sections_are_rejected_as_corrupt() {
        let (log, qfg) = state_with_dead_slot();
        let path = temp_path("damaged-log");
        write_snapshot(&path, &log, &qfg).unwrap();
        let pristine = fs::read(&path).unwrap();
        let (header, sections) = split_sections(&pristine);
        assert_eq!(join_sections(&header, &sections), pristine);
        let mut scratch = sections.clone();
        let table = section_mut(&mut scratch, "qfg/fragments").as_seq().unwrap();
        let table_len = table.len() as u64;
        let dead = table
            .iter()
            .position(|slot| *slot == Value::Null)
            .expect("the evicted query left a dead slot") as u64;
        let expect_corrupt = |case: &str, bytes: Vec<u8>, needle: &str| {
            fs::write(&path, bytes).unwrap();
            match read_snapshot(&path, Obscurity::NoConstOp) {
                Err(SnapshotError::Corrupt(detail)) => {
                    assert!(detail.contains(needle), "{case}: detail was: {detail}")
                }
                other => panic!("{case}: expected Corrupt, got {other:?}"),
            }
        };
        let edit_log = |edit: &dyn Fn(&mut Vec<Value>)| {
            let mut edited = sections.clone();
            let Value::Seq(entries) = section_mut(&mut edited, "log/0") else {
                panic!("log chunk is a sequence")
            };
            edit(entries);
            join_sections(&header, &edited)
        };
        let edit_entry = |edit: &dyn Fn(&mut Vec<Value>)| {
            edit_log(&|entries| {
                let Value::Seq(ids) = &mut entries[0] else {
                    panic!("log entry is a sequence")
                };
                assert!(ids.len() >= 2, "entry 0 needs two ids to reorder");
                edit(ids);
            })
        };
        expect_corrupt(
            "id beyond the table",
            edit_entry(&|ids| ids.push(Value::U64(table_len))),
            "beyond",
        );
        expect_corrupt(
            "id of a dead slot",
            edit_entry(&|ids| {
                ids.push(Value::U64(dead));
                ids.sort_by_key(|id| id.as_u64());
            }),
            "dead fragment slot",
        );
        expect_corrupt(
            "unsorted ids",
            edit_entry(&|ids| ids.reverse()),
            "not strictly ascending",
        );
        expect_corrupt(
            "repeated id",
            edit_entry(&|ids| ids.insert(0, ids[0].clone())),
            "not strictly ascending",
        );
        expect_corrupt(
            "tallies disagree with qfg/occurrences",
            edit_entry(&|ids| {
                ids.pop();
            }),
            "qfg/occurrences",
        );
        expect_corrupt(
            "fewer entries than meta.log_len",
            edit_log(&|entries| {
                entries.pop();
            }),
            "meta promises",
        );
        expect_corrupt(
            "more entries than meta.log_len",
            edit_log(&|entries| entries.push(entries[0].clone())),
            "more than",
        );
        let mut edited = sections.clone();
        let Value::Map(meta) = section_mut(&mut edited, "meta") else {
            panic!("meta is a map")
        };
        for (key, value) in meta.iter_mut() {
            if key == "query_count" {
                *value = Value::U64(value.as_u64().unwrap() + 1);
            }
        }
        expect_corrupt(
            "meta.log_len differs from query_count",
            join_sections(&header, &edited),
            "graph of",
        );
        // A varint count of ~2^63 entries in a CRC-valid frame: the codec's
        // bound by the remaining bytes rejects it before any allocation.
        let mut hostile = header.clone();
        for (name, payload) in &sections {
            if name == "log/0" {
                hostile.extend(frame(
                    name,
                    &[0x07, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F],
                ));
            } else {
                let mut encoded = Vec::new();
                encode_value(payload, &mut encoded);
                hostile.extend(frame(name, &encoded));
            }
        }
        expect_corrupt("hostile varint count", hostile, "log/0");
        // The pristine bytes still load, with the evicted entry gone.
        fs::write(&path, &pristine).unwrap();
        let snapshot = read_snapshot(&path, Obscurity::NoConstOp).unwrap();
        assert_eq!(snapshot.log, log);
        assert_eq!(snapshot.qfg, qfg);
        fs::remove_file(&path).ok();
    }

    /// A 1 GiB section claimed by a file of a few dozen bytes is a torn
    /// snapshot, reported before the reader allocates the section buffer.
    #[test]
    fn a_section_longer_than_the_file_is_torn_before_allocating() {
        let path = temp_path("huge-section");
        let mut bytes = b"TEMPLAR-SNAPSHOT v4 obscurity=NoConstOp sections=6\n".to_vec();
        bytes.extend_from_slice(&(MAX_SECTION_BYTES - 1).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(b"meta");
        fs::write(&path, &bytes).unwrap();
        match read_snapshot(&path, Obscurity::NoConstOp) {
            Err(SnapshotError::Corrupt(detail)) => {
                assert!(detail.contains("torn"), "detail was: {detail}")
            }
            other => panic!("expected a torn snapshot, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    /// The writer refuses a log that does not belong to the graph: a logged
    /// fragment without a live id, or a log at another obscurity level.
    #[test]
    fn a_log_the_graph_does_not_cover_is_a_typed_write_error() {
        let (log, _) = sample_state(Obscurity::NoConstOp);
        let (other, _) = QueryLog::from_sql(["SELECT j.name FROM journal j"]);
        let qfg = QueryFragmentGraph::build(&other, Obscurity::NoConstOp);
        let path = temp_path("no-live-id");
        match write_snapshot(&path, &log, &qfg) {
            Err(SnapshotError::Corrupt(detail)) => {
                assert!(detail.contains("no live id"), "detail was: {detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(!path.exists(), "a refused write publishes nothing");
        let (coarser, _) = sample_state(Obscurity::NoConst);
        assert!(matches!(
            write_snapshot(&path, &coarser, &qfg),
            Err(SnapshotError::ObscurityMismatch { .. })
        ));
    }

    /// Entries with the same fragment set share one allocation after a
    /// load, and a re-save of a loaded snapshot is byte-identical.
    #[test]
    fn loaded_logs_share_entries_and_resave_byte_identically() {
        let (mut log, mut qfg) = sample_state(Obscurity::NoConstOp);
        let (again, _) = QueryLog::from_sql(["SELECT j.name FROM journal j"]);
        for _ in 0..3 {
            log.push(again.queries()[0].clone());
            qfg.ingest(&again.queries()[0]);
        }
        let path = temp_path("shared-entries");
        write_snapshot(&path, &log, &qfg).unwrap();
        let first = fs::read(&path).unwrap();
        let snapshot = read_snapshot(&path, Obscurity::NoConstOp).unwrap();
        let entries = snapshot.log.entries();
        assert!(Arc::ptr_eq(&entries[2], &entries[5]));
        write_snapshot(&path, &snapshot.log, &snapshot.qfg).unwrap();
        assert_eq!(fs::read(&path).unwrap(), first);
        fs::remove_file(&path).ok();
    }
}
