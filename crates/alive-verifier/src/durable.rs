//! The single durable-I/O seam every persistent artifact writes through.
//!
//! Before this module existed, the batch journal, the verdict store, the
//! slow-query log, and the scrub rewrite each hand-rolled their own
//! write/fsync/rename sequence — and each copy had a different gap:
//! ignored `sync_data` results, no parent-directory fsync after a create
//! or rename, rotation that clobbered its predecessor. This module is the
//! one audited copy of the discipline; the callers keep their formats but
//! route every durability-relevant syscall through here. The sealed-line
//! artifacts (verdict store, slowlog) share one writer, [`SealedLog`],
//! and every full rewrite goes through [`write_atomic`].
//!
//! Three rules, uniformly enforced:
//!
//! * **Syncs are propagated, never ignored.** Every fsync result reaches
//!   the caller. [`SealedLog`] additionally *poisons itself* on the
//!   first failed sync: after a failed fsync the kernel may have dropped
//!   the dirty pages while clearing the error, so a later fsync returning
//!   `Ok` proves nothing about the earlier write (the "fsyncgate" failure
//!   mode). The only honest reaction is to refuse every subsequent write
//!   until the file is reopened and its contents re-validated.
//! * **A file exists when its directory entry is durable.** `fsync` on
//!   the file alone does not persist a freshly created name or a rename;
//!   [`fsync_parent`] closes that gap and [`rename`] performs it
//!   automatically, so a crash can neither forget a newly created store
//!   nor resurrect the pre-rename file after an atomic rewrite.
//! * **Every durable operation is a numbered crash point.** With the
//!   `fault-injection` feature, each operation here fires the `durable`
//!   site of the one fault plan (`ALIVE_FAULT=durable:kind@N`, see
//!   `alive_sat::fault`), so the Nth durable operation process-wide can
//!   misbehave: `abort` kills the process on the spot the way a power cut
//!   would, `torn` first lands half of an append's bytes, and `io-error`
//!   makes the operation return an injected I/O error instead of
//!   performing — exercising the propagation/poisoning path in-process.
//!   The torture harness (`crates/alive/tests/torture.rs`) sweeps N across
//!   whole daemon and batch (`--journal`) store workloads through the real
//!   binaries and asserts recovery after every single crash point.
//!   Without the feature the hooks do not exist and cost nothing.

use alive_trace::sealed::seal;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The `durable` fault site, fired once by every durable operation before
/// it performs: `io-error` fails the operation with an injected error,
/// `abort` kills the process, and `torn` lands `torn`'s bytes (half an
/// append; `None` for every other operation) and then kills the process.
/// A no-op when no fault is scheduled (or the feature is off).
#[inline]
#[cfg_attr(not(feature = "fault-injection"), allow(unused_variables))]
fn crash_point(torn: Option<(&mut File, &[u8])>) -> io::Result<()> {
    #[cfg(feature = "fault-injection")]
    {
        use alive_sat::fault::{fire, FaultKind, FaultSite};
        match fire(FaultSite::Durable) {
            Some(FaultKind::IoError) => {
                return Err(io::Error::other("injected fault: durable io-error"))
            }
            Some(FaultKind::TornWrite) => {
                if let Some((file, half)) = torn {
                    // The bytes reach the page cache (a syscall, not a
                    // userspace buffer), so the torn prefix is visible to the
                    // recovering process even though this one dies here.
                    let _ = file.write_all(half);
                }
                std::process::abort()
            }
            Some(FaultKind::Abort) => std::process::abort(),
            _ => {}
        }
    }
    Ok(())
}

/// Creates (or truncates) the file at `path` for writing.
///
/// The new *name* is not durable until [`fsync_parent`] — callers write
/// and sync the initial contents first, then persist the entry, so a
/// crash leaves either no file or a complete one.
///
/// # Errors
///
/// Propagates the underlying `open`, plus any armed crash point.
pub fn create(path: &Path) -> io::Result<File> {
    crash_point(None)?;
    OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
}

/// Appends `bytes` to `file`. The data is not durable until [`sync`].
///
/// # Errors
///
/// Propagates the underlying write, plus any armed crash point (the
/// `torn` kind lands half the bytes before aborting — exactly the state
/// `kill -9` mid-`write` leaves behind).
pub fn append(file: &mut File, bytes: &[u8]) -> io::Result<()> {
    crash_point(Some((&mut *file, &bytes[..bytes.len() / 2])))?;
    file.write_all(bytes)
}

/// Fsyncs `file`'s data. A record only counts as durable after this
/// returns `Ok` — and per fsyncgate, after it returns `Err` the file's
/// recent writes must be considered lost even if a retry would succeed.
///
/// # Errors
///
/// Propagates the underlying `sync_data`, plus any armed crash point.
pub fn sync(file: &File) -> io::Result<()> {
    crash_point(None)?;
    file.sync_data()
}

/// Truncates `file` to `len` bytes and syncs the new length — the
/// rollback primitive that erases a half-written tail.
///
/// # Errors
///
/// Propagates `set_len`/`sync_data`, plus any armed crash point (the
/// truncate and its sync are separate crash points).
pub fn truncate(file: &File, len: u64) -> io::Result<()> {
    crash_point(None)?;
    file.set_len(len)?;
    sync(file)
}

/// Atomically replaces `to` with `from`, then fsyncs the parent
/// directory so the swap itself is durable — a crash after this returns
/// can no longer resurrect the old file.
///
/// # Errors
///
/// Propagates the rename or directory sync, plus any armed crash point.
pub fn rename(from: &Path, to: &Path) -> io::Result<()> {
    crash_point(None)?;
    std::fs::rename(from, to)?;
    fsync_parent(to)
}

/// Fsyncs the directory containing `path`, making `path`'s directory
/// entry (a fresh create, a completed rename) durable.
///
/// # Errors
///
/// Propagates the directory open/sync, plus any armed crash point. On
/// non-unix platforms directories cannot be opened for syncing; the call
/// degrades to the armed-crash-point check only.
pub fn fsync_parent(path: &Path) -> io::Result<()> {
    crash_point(None)?;
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        File::open(parent)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// `path` with `suffix` appended to its file name (`store.jsonl` →
/// `store.jsonl.tmp`): how every sibling artifact is named.
pub fn suffixed(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

/// Atomically replaces the file at `path` with `bytes`: they are written
/// to `<path>.tmp` and fsync'd, then renamed over `path` ([`rename`]
/// fsyncs the parent directory). A crash at any point leaves either the
/// complete old file or the complete new one.
///
/// # Errors
///
/// Propagates each step, plus any armed crash point. A failure before the
/// rename leaves `path` untouched.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = suffixed(path, ".tmp");
    {
        let mut f = create(&tmp)?;
        append(&mut f, bytes)?;
        sync(&f)?;
    }
    rename(&tmp, path)
}

/// An append-only log of [sealed](alive_trace::sealed) lines: the one
/// writer behind the verdict store and the slow-query log.
///
/// Every append is sealed, written, and fsync'd before it returns. A
/// failed write is rolled back to the last intact line, so the file never
/// holds a half line while this handle owns it: under the one replay
/// policy a half line with later appends after it would read as mid-file
/// damage. The first failed sync (or failed rollback) poisons the handle,
/// and every later append refuses until the log is reopened.
#[derive(Debug)]
pub struct SealedLog {
    file: File,
    poisoned: bool,
    /// Bytes of intact sealed lines: the file's length.
    bytes: u64,
}

impl SealedLog {
    /// Creates (truncating) the log at `path` with the sealed `header` body
    /// as line 1, fsyncs it, and makes the file's name durable with a
    /// parent-directory fsync — so a crash leaves no file, an empty one, or
    /// a complete header.
    ///
    /// # Errors
    ///
    /// Propagates each step, plus any armed crash point.
    pub fn create(path: &Path, header: &str) -> io::Result<SealedLog> {
        let line = format!("{}\n", seal(header));
        {
            let mut file = create(path)?;
            append(&mut file, line.as_bytes())?;
            sync(&file)?;
        }
        fsync_parent(path)?;
        // Reopen in append mode: a rollback truncate must not leave the
        // write position past the end of the file.
        SealedLog::open_append(path, line.len())
    }

    /// Opens an existing log for appending, first truncating everything
    /// past `good_bytes` — the intact prefix [`alive_trace::sealed::replay`]
    /// found — so no record is ever appended onto a torn tail.
    ///
    /// # Errors
    ///
    /// Propagates the open and the truncate.
    pub fn open_append(path: &Path, good_bytes: usize) -> io::Result<SealedLog> {
        let file = OpenOptions::new().read(true).append(true).open(path)?;
        let bytes = good_bytes as u64;
        if file.metadata()?.len() > bytes {
            truncate(&file, bytes)?;
        }
        Ok(SealedLog {
            file,
            poisoned: false,
            bytes,
        })
    }

    /// Seals `body`, appends it as one line, and fsyncs. Returns the
    /// line's length in bytes. The record is durable only when this
    /// returns `Ok`.
    ///
    /// # Errors
    ///
    /// Refuses when poisoned. A failed write is rolled back; a failed
    /// sync poisons the handle — the kernel may have dropped the dirty
    /// pages while clearing the error, so no later success can vouch for
    /// this write.
    pub fn append(&mut self, body: &str) -> io::Result<u64> {
        if self.poisoned {
            return Err(io::Error::other(
                "file poisoned by an earlier failed sync; reopen to recover",
            ));
        }
        let line = format!("{}\n", seal(body));
        if let Err(e) = append(&mut self.file, line.as_bytes()) {
            self.roll_back();
            return Err(e);
        }
        if let Err(e) = sync(&self.file) {
            self.poisoned = true;
            return Err(e);
        }
        self.bytes += line.len() as u64;
        Ok(line.len() as u64)
    }

    /// Truncates back to the last intact line; a failed repair poisons.
    fn roll_back(&mut self) {
        self.poisoned = self.poisoned || truncate(&self.file, self.bytes).is_err();
    }

    /// Bytes of intact sealed lines, header included.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether a failed sync or repair has poisoned the handle.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Marks the handle untrusted; every later append refuses. Used when
    /// the file the handle points at was replaced under it.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("alive-durable-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::remove_file(&path).ok();
        path
    }

    #[test]
    fn create_append_sync_round_trips() {
        let path = tmp("roundtrip.bin");
        let mut f = create(&path).unwrap();
        append(&mut f, b"hello ").unwrap();
        append(&mut f, b"world\n").unwrap();
        sync(&f).unwrap();
        fsync_parent(&path).unwrap();
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"hello world\n");
    }

    #[test]
    fn truncate_erases_the_tail() {
        let path = tmp("truncate.bin");
        let mut f = create(&path).unwrap();
        append(&mut f, b"good\nbadtail").unwrap();
        sync(&f).unwrap();
        truncate(&f, 5).unwrap();
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"good\n");
    }

    #[test]
    fn rename_replaces_atomically() {
        let path = tmp("rename.bin");
        let tmp_path = tmp("rename.bin.tmp");
        std::fs::write(&path, b"old").unwrap();
        std::fs::write(&tmp_path, b"new").unwrap();
        rename(&tmp_path, &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert!(!tmp_path.exists());
    }

    #[test]
    fn poisoned_handle_refuses_everything() {
        let path = tmp("poison.bin");
        let mut log = SealedLog::create(&path, "{\"h\":1").unwrap();
        log.append("{\"x\":1").unwrap();
        let before = std::fs::read(&path).unwrap();
        log.poison();
        assert!(log.append("{\"y\":2").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), before, "no write landed");
    }

    /// A torn append (half a sealed line on disk, as `kill -9` mid-write
    /// leaves it) is rolled back in place: a later append lands, and replay
    /// reads the one intact record with nothing discarded.
    #[test]
    fn torn_append_is_rolled_back_and_later_appends_land() {
        let path = tmp("torn.bin");
        let mut log = SealedLog::create(&path, "{\"h\":1").unwrap();
        let line = seal("{\"x\":1");
        append(&mut log.file, &line.as_bytes()[..line.len() / 2]).unwrap();
        log.roll_back();
        assert!(!log.poisoned(), "a successful repair does not poison");
        log.append("{\"y\":2").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let replay = alive_trace::sealed::replay(&text, true, |l| {
            alive_trace::sealed::unseal(l).map(str::to_string)
        })
        .unwrap();
        assert_eq!(replay.records, vec!["{\"y\":2".to_string()]);
        assert_eq!(replay.discarded, 0, "no torn line left to discard");
    }
}
