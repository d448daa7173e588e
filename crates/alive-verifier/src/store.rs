//! The persistent content-addressed verdict store.
//!
//! `alive serve` must answer "has this optimization ever been verified
//! under these settings?" in microseconds. The store is that answer's
//! home: an append-only JSONL file mapping the **canonical content hash**
//! of a transform (see [`alive_ir::canon`]) to its verdict, written as
//! [sealed lines](alive_trace::sealed) through one
//! [`SealedLog`](crate::durable::SealedLog) so a torn tail after `kill -9`
//! is truncated, never trusted.
//!
//! # Record format (`alive-store/v1`)
//!
//! Line 1 is a sealed header binding the store to a config fingerprint
//! and an eviction epoch; every other line is one verdict record:
//!
//! ```text
//! {"store":"alive-store/v1","config":"<16 hex>","epoch":0,
//!  "desc":"widths=4,8,...","crc":"<16 hex>"}
//! {"hash":"<16 hex>","canon":"%v1 = add %v0, C1\n=>\n%v1 = %v0",
//!  "verdict":"valid","reason":"...","wall_ms":1412,"cert":"",
//!  "crc":"<16 hex>"}
//! ```
//!
//! (wrapped for display; each record is a single `\n`-terminated line).
//!
//! * `hash` is the FNV-1a 64 of the canonical text. A 64-bit hash can
//!   collide, so the canonical text itself is stored and **compared on
//!   every lookup** — the hash only buckets, the text decides.
//! * `cert` is a certificate reference (a path or slug), empty when the
//!   verdict carries none.
//! * When one hash appears in several records the **last wins**, so
//!   re-verification under an escalated budget (say `unknown` → `valid`)
//!   supersedes the stale row without rewriting the file.
//!
//! # Epoch-based eviction
//!
//! The header binds every record to `(config fingerprint, epoch)`. Opening
//! a store whose header disagrees with the caller's fingerprint or epoch
//! **evicts** it: the old file is rotated to `<path>.evicted.<epoch>`
//! (the *prior* store's epoch, so each eviction generation keeps its own
//! file) and a fresh store is started. Bumping `--epoch` is therefore the
//! operator's "the toolchain changed, trust nothing" lever, and a config
//! change can never replay verdicts computed under different verifier
//! semantics.
//!
//! # Compaction
//!
//! Last-record-wins means a superseding re-verification (`unknown` →
//! `valid` under an escalated budget) appends rather than rewrites, so a
//! long-lived store accumulates dead records and pays replay cost for
//! them on every open. [`VerdictStore::compact`] (in-process) and
//! [`compact_store`] (offline, `alive compact`) rewrite the live records
//! — header preserved byte for byte — with
//! [`write_atomic`](crate::durable::write_atomic) (tmp + fsync + rename +
//! parent-directory fsync). The daemon compacts
//! automatically on open when [`needs_compaction`] says the dead-record
//! ratio crossed its threshold.
//!
//! # Single writer, crash-only recovery
//!
//! A store is guarded by a `<path>.lock` file naming the owning pid
//! ([`StoreLock`]); a second daemon pointed at the same store gets a clean
//! refusal instead of interleaved appends, and a lock left by a crashed
//! process is reclaimed after a liveness probe. Damage is handled in two
//! tiers: a torn **tail** (the `kill -9` case) is truncated away on open,
//! but a corrupt line with intact records *after* it means something other
//! than an append crash happened, so [`VerdictStore::open`] refuses rather
//! than silently discarding the good suffix — [`scrub_store`] is the
//! offline salvage tool, CRC-validating every line independently,
//! quarantining the bad ones to `<path>.quarantine`, and rewriting the
//! survivors into a fresh sealed store.
//!
//! # Batch runs
//!
//! `alive --journal <file>` and `alive --resume <file>` open the same
//! store at epoch 0, exactly as `alive serve --store <file>` does without
//! `--epoch`. The batch driver inserts every live outcome before it is
//! counted or shown, so a `kill -9` loses at most the in-flight
//! transforms; [`plan_resume`] then splits a corpus into verdicts to
//! reuse, stragglers to requeue under an escalated budget, and fresh
//! work. Batch runs and the daemon therefore reuse each other's verdicts.

use crate::driver::{OutcomeKind, TransformOutcome};
use crate::durable::{self, suffixed, SealedLog};
use crate::verify::VerifyConfig;
use alive_trace::sealed::{self, first_line, fnv1a64, json_escape, seal, unseal, Damage, Scanner};
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The human-readable preimage of [`config_fingerprint`]: every verifier
/// setting that affects verdicts, as `field=value` pairs joined by `;`.
/// This string is stored in the store header so a mismatch can be
/// explained field by field ([`fingerprint_diff`]) instead of with a bare
/// hash.
pub fn config_description(vc: &VerifyConfig) -> String {
    let mut s = String::new();
    s.push_str("widths=");
    for w in &vc.typeck.widths {
        s.push_str(&format!("{w},"));
    }
    s.push_str(&format!(
        ";ptr={};max_assign={};cegis_iter={};seed_zero={}",
        vc.typeck.ptr_width, vc.typeck.max_assignments, vc.ef.max_iterations, vc.ef.seed_with_zero,
    ));
    s
}

/// A stable fingerprint of the verifier settings that affect verdicts:
/// type-enumeration widths and caps plus the CEGIS iteration policy.
/// Budgets and timeouts are deliberately excluded — they affect whether a
/// verdict is reached, not which verdict is correct, and `--resume` exists
/// precisely to retry inconclusive entries under different budgets.
pub fn config_fingerprint(vc: &VerifyConfig) -> u64 {
    fnv1a64(config_description(vc).as_bytes())
}

/// Compares two [`config_description`] strings field by field, returning
/// `(field, current value, recorded value)` for every field that differs.
/// A field present on only one side reports the other as `"<absent>"`.
pub fn fingerprint_diff(current: &str, recorded: &str) -> Vec<(String, String, String)> {
    fn fields(desc: &str) -> Vec<(String, String)> {
        desc.split(';')
            .filter(|part| !part.is_empty())
            .map(|part| match part.split_once('=') {
                Some((k, v)) => (k.to_string(), v.to_string()),
                None => (part.to_string(), String::new()),
            })
            .collect()
    }
    let ours = fields(current);
    let theirs = fields(recorded);
    let mut out = Vec::new();
    let absent = || "<absent>".to_string();
    for (k, v) in &ours {
        match theirs.iter().find(|(tk, _)| tk == k) {
            Some((_, tv)) if tv == v => {}
            Some((_, tv)) => out.push((k.clone(), v.clone(), tv.clone())),
            None => out.push((k.clone(), v.clone(), absent())),
        }
    }
    for (k, v) in &theirs {
        if !ours.iter().any(|(ok, _)| ok == k) {
            out.push((k.clone(), absent(), v.clone()));
        }
    }
    out
}

/// One cached verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreRecord {
    /// FNV-1a 64 of `canon`, 16 lower-case hex digits.
    pub hash: String,
    /// The canonical printed text of the transform (the real key).
    pub canon: String,
    /// Cached classification.
    pub verdict: OutcomeKind,
    /// Verdict detail (counterexample text, error message, ...).
    pub reason: String,
    /// Wall milliseconds the original verification took.
    pub wall_ms: u64,
    /// Certificate reference (path or slug); empty when none.
    pub cert: String,
}

impl StoreRecord {
    fn body(&self) -> String {
        format!(
            "{{\"hash\":\"{}\",\"canon\":\"{}\",\"verdict\":\"{}\",\"reason\":\"{}\",\
             \"wall_ms\":{},\"cert\":\"{}\"",
            self.hash,
            json_escape(&self.canon),
            self.verdict.as_str(),
            json_escape(&self.reason),
            self.wall_ms,
            json_escape(&self.cert),
        )
    }

    /// Serializes one full, CRC-sealed store line (without the newline).
    pub fn to_line(&self) -> String {
        seal(&self.body())
    }

    /// The outcome a `--resume` run reports for this verdict under the
    /// corpus name `name`: marked `resumed`, with no attempts and no
    /// certificates, because nothing was verified in this process.
    pub fn to_outcome(&self, name: &str) -> TransformOutcome {
        let mut outcome = TransformOutcome::synthetic(name, self.verdict, self.reason.clone());
        outcome.wall = Duration::from_millis(self.wall_ms);
        outcome.resumed = true;
        outcome
    }

    /// Parses one store line (CRC check included).
    pub fn parse_line(line: &str) -> Option<StoreRecord> {
        let body = unseal(line)?;
        let mut sc = Scanner::new(body);
        sc.lit("{\"hash\":\"")?;
        let hash = sc.hex16()?;
        sc.lit("\",\"canon\":\"")?;
        let canon = sc.string_body()?;
        sc.lit("\",\"verdict\":\"")?;
        let verdict = OutcomeKind::from_label(&sc.string_body()?)?;
        sc.lit("\",\"reason\":\"")?;
        let reason = sc.string_body()?;
        sc.lit("\",\"wall_ms\":")?;
        let wall_ms = sc.number()?;
        sc.lit(",\"cert\":\"")?;
        let cert = sc.string_body()?;
        sc.lit("\"")?;
        if !sc.at_end() {
            return None;
        }
        Some(StoreRecord {
            hash,
            canon,
            verdict,
            reason,
            wall_ms,
            cert,
        })
    }
}

/// What [`VerdictStore::open`] found on disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreOpen {
    /// No store existed; a fresh one was created.
    Created,
    /// A matching store was loaded.
    Loaded {
        /// Distinct cached verdicts available after dedup.
        records: usize,
        /// Torn or corrupt lines discarded from the tail.
        discarded: usize,
    },
    /// The store's header disagreed with the caller's `(config, epoch)`;
    /// the old file was rotated to `<path>.evicted.<prior_epoch>` and a
    /// fresh store started. An unreadable header reads as config 0,
    /// epoch 0, no description.
    Evicted {
        /// Fingerprint the old store was bound to.
        prior_config: u64,
        /// Epoch the old store was bound to.
        prior_epoch: u64,
        /// The old header's [`config_description`], when it had one.
        prior_desc: Option<String>,
    },
}

/// An open verdict store: in-memory index over an append-only, CRC-sealed
/// JSONL file. Every [`VerdictStore::insert`] is fsync'd before returning.
#[derive(Debug)]
pub struct VerdictStore {
    log: SealedLog,
    /// The sealed header line, kept byte for byte for compaction.
    header: String,
    path: PathBuf,
    fingerprint: u64,
    epoch: u64,
    /// hash (as u64) → index into `records`; last inserted wins.
    index: HashMap<u64, usize>,
    records: Vec<StoreRecord>,
    /// Held for the store's lifetime; dropping releases `<path>.lock`.
    _lock: StoreLock,
}

/// Path an evicted store is rotated to: `.evicted.<epoch>` is *appended*
/// (`store.jsonl` evicted at epoch 3 → `store.jsonl.evicted.3`), never
/// substituted for the existing extension, so the original file name
/// stays recognizable. The generation suffix is the *evicted* store's
/// epoch: bumping `--epoch` twice rotates to two distinct files instead
/// of the second eviction destroying the first.
pub fn evicted_path(path: &Path, epoch: u64) -> PathBuf {
    suffixed(path, &format!(".evicted.{epoch}"))
}

/// Path of the single-writer lock guarding a store: `<store>.lock`.
pub fn lock_path(path: &Path) -> PathBuf {
    suffixed(path, ".lock")
}

/// Path corrupt lines are quarantined to by [`scrub_store`]:
/// `<store>.quarantine`.
pub fn quarantine_path(path: &Path) -> PathBuf {
    suffixed(path, ".quarantine")
}

#[cfg(unix)]
fn process_alive(pid: u32) -> bool {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    // Signal 0 performs the permission/existence check without delivering
    // anything. An EPERM failure reads as "dead" here; stores are per-user
    // files, so a pid we cannot even probe is not a daemon we could race.
    pid != 0 && unsafe { kill(pid as i32, 0) } == 0
}

#[cfg(not(unix))]
fn process_alive(_pid: u32) -> bool {
    // No portable liveness probe: never reclaim, so a crash leaves a lock
    // the operator must remove by hand. Conservative beats interleaved
    // appends from two writers.
    true
}

/// A held single-writer lock on a store. Dropping it removes the lock
/// file; a file left behind by `kill -9` names a dead pid and is
/// reclaimed by the next [`StoreLock::acquire`].
#[derive(Debug)]
pub struct StoreLock {
    path: PathBuf,
}

impl StoreLock {
    /// Takes the single-writer lock for the store at `store`.
    ///
    /// # Errors
    ///
    /// Refuses with a `"locked by live process"` error when the lock file
    /// names a pid that is still running — the "two daemons, one store"
    /// footgun. A lock naming a dead pid (a crashed daemon) is reclaimed.
    pub fn acquire(store: &Path) -> io::Result<StoreLock> {
        let path = lock_path(store);
        // create_new is the atomic claim; the reclaim path removes a stale
        // file and retries, bounded so two processes reclaiming in
        // lockstep degenerate into an error instead of a livelock.
        for _ in 0..16 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    // A lock body we could not write (or sync) may read as
                    // an empty/garbage pid to the next claimant and be
                    // reclaimed under us — surrender the claim instead.
                    if let Err(e) =
                        writeln!(f, "{}", std::process::id()).and_then(|()| f.sync_data())
                    {
                        drop(f);
                        let _ = std::fs::remove_file(&path);
                        return Err(e);
                    }
                    return Ok(StoreLock { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match holder {
                        Some(pid) if process_alive(pid) => {
                            return Err(io::Error::other(format!(
                                "{} is locked by live process {pid}; one writer per \
                                 store — stop that daemon, or remove {} if the pid is \
                                 not an alive daemon",
                                store.display(),
                                path.display()
                            )));
                        }
                        // Dead pid or unreadable/partial lock file: stale.
                        _ => {
                            let _ = std::fs::remove_file(&path);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(io::Error::other(format!(
            "{}: lock contended, giving up",
            store.display()
        )))
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl VerdictStore {
    /// Opens (or creates) the store at `path`, bound to the given config
    /// fingerprint and eviction epoch, taking the single-writer lock for
    /// the store's lifetime. A header mismatch evicts the old store (see
    /// module docs); a torn tail is truncated away.
    ///
    /// # Errors
    ///
    /// Refuses when another live process holds the store's lock, and when
    /// a corrupt line is followed by intact records — the good suffix
    /// proves the damage was not a crashed append, so nothing is silently
    /// discarded; run `alive scrub` to salvage.
    pub fn open(
        path: &Path,
        fingerprint: u64,
        epoch: u64,
        description: Option<&str>,
    ) -> std::io::Result<(VerdictStore, StoreOpen)> {
        let lock = StoreLock::acquire(path)?;
        let how = if path.exists() {
            let text = sealed::read(path)?;
            match parse_store_header(first_line(&text)) {
                Some((fp, ep, _)) if fp == fingerprint && ep == epoch => {
                    let loaded = sealed::replay(&text, true, StoreRecord::parse_line)
                        .map_err(|d| refuse(path, d))?;
                    let index = build_index(&loaded.records);
                    let how = StoreOpen::Loaded {
                        records: index.len(),
                        discarded: loaded.discarded,
                    };
                    let store = VerdictStore {
                        log: SealedLog::open_append(path, loaded.good_bytes)?,
                        header: first_line(&text).to_string(),
                        path: path.to_path_buf(),
                        fingerprint,
                        epoch,
                        index,
                        records: loaded.records,
                        _lock: lock,
                    };
                    return Ok((store, how));
                }
                // Wrong config, wrong epoch, or unreadable header: never
                // serve these verdicts. Keep the old file around for
                // post-mortems rather than deleting data — under its own
                // generation suffix, so repeated evictions cannot destroy
                // each other's rotated files.
                other => {
                    let (prior_config, prior_epoch, prior_desc) = other.unwrap_or((0, 0, None));
                    durable::rename(path, &evicted_path(path, prior_epoch))?;
                    StoreOpen::Evicted {
                        prior_config,
                        prior_epoch,
                        prior_desc,
                    }
                }
            }
        } else {
            StoreOpen::Created
        };
        let mut body = format!(
            "{{\"store\":\"alive-store/v1\",\"config\":\"{fingerprint:016x}\",\"epoch\":{epoch}"
        );
        if let Some(desc) = description {
            body.push_str(&format!(",\"desc\":\"{}\"", json_escape(desc)));
        }
        let store = VerdictStore {
            log: SealedLog::create(path, &body)?,
            header: seal(&body),
            path: path.to_path_buf(),
            fingerprint,
            epoch,
            index: HashMap::new(),
            records: Vec::new(),
            _lock: lock,
        };
        Ok((store, how))
    }

    /// The store's path (for messages).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The config fingerprint this store is bound to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The eviction epoch this store is bound to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of distinct cached verdicts.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Looks up the cached verdict for a transform's canonical text.
    /// Returns `None` on a hash-bucket hit whose stored canonical text
    /// differs (a 64-bit collision): colliding entries must re-verify.
    pub fn lookup(&self, canon: &str) -> Option<&StoreRecord> {
        let h = fnv1a64(canon.as_bytes());
        let rec = &self.records[*self.index.get(&h)?];
        (rec.canon == canon).then_some(rec)
    }

    /// Inserts (or supersedes) the verdict for a canonical text, fsync'ing
    /// the record before returning.
    ///
    /// # Errors
    ///
    /// A failed append (disk full, injected fault) leaves the file
    /// truncated back to its last good record when possible
    /// ([`SealedLog::append`]); when even that repair fails the store is
    /// poisoned and every later insert returns an error immediately.
    /// Either way the in-memory index is untouched, so lookups keep
    /// answering — the verdict just is not durable.
    pub fn insert(
        &mut self,
        canon: &str,
        verdict: OutcomeKind,
        reason: &str,
        wall_ms: u64,
        cert: &str,
    ) -> std::io::Result<()> {
        if self.log.poisoned() {
            return Err(io::Error::other(format!(
                "{}: store poisoned by an earlier failed append or sync; restart to recover",
                self.path.display()
            )));
        }
        let h = fnv1a64(canon.as_bytes());
        let rec = StoreRecord {
            hash: format!("{h:016x}"),
            canon: canon.to_string(),
            verdict,
            reason: reason.to_string(),
            wall_ms,
            cert: cert.to_string(),
        };
        self.append(&rec.body())?;
        self.index.insert(h, self.records.len());
        self.records.push(rec);
        Ok(())
    }

    fn append(&mut self, body: &str) -> std::io::Result<()> {
        #[cfg(feature = "fault-injection")]
        match alive_sat::fault::fire(alive_sat::fault::FaultSite::Store) {
            Some(alive_sat::fault::FaultKind::IoError) => {
                self.log.fail_append(body, false);
                return Err(io::Error::other("injected fault: store append io-error"));
            }
            Some(alive_sat::fault::FaultKind::TornWrite) => {
                // Land half the sealed line, then fail — the same on-disk
                // state a `kill -9` mid-append produces. The rollback must
                // erase it.
                self.log.fail_append(body, true);
                return Err(io::Error::other("injected fault: store append torn"));
            }
            _ => {}
        }
        self.log.append(body).map(drop)
    }

    /// Records replayed from disk at open plus records appended since —
    /// including dead (superseded) ones. `replayed() - len()` is the
    /// compaction payoff.
    pub fn replayed(&self) -> usize {
        self.records.len()
    }

    /// The live records — the latest record per canonical text, in
    /// append order. Exactly what [`VerdictStore::compact`] keeps.
    pub fn live_records(&self) -> impl Iterator<Item = &StoreRecord> + '_ {
        let mut live: Vec<usize> = self.index.values().copied().collect();
        live.sort_unstable();
        live.into_iter().map(|i| &self.records[i])
    }

    /// Rewrites the store down to its live records, in place.
    ///
    /// The header line is preserved byte for byte (fingerprint, epoch,
    /// and description all survive), the live records keep their append
    /// order, and the swap is the durable tmp + fsync + rename +
    /// parent-directory-fsync sequence — a crash at any point leaves
    /// either the old complete store or the new complete store, never a
    /// mix.
    ///
    /// # Errors
    ///
    /// Refuses when the handle is poisoned. A failure before the rename
    /// leaves the store untouched and usable; a failure *after* (the
    /// reopen of the freshly renamed file) poisons the handle, because
    /// the old append handle now points at an unlinked inode.
    pub fn compact(&mut self) -> io::Result<CompactReport> {
        if self.log.poisoned() {
            return Err(io::Error::other(format!(
                "{}: store poisoned; restart before compacting",
                self.path.display()
            )));
        }
        let bytes_before = self.log.bytes();
        let live: Vec<StoreRecord> = self.live_records().cloned().collect();
        let bytes_after = rewrite(
            &self.path,
            &self.header,
            live.iter().map(StoreRecord::to_line),
        )?;
        // The old append handle points at the pre-compaction inode; a
        // write through it would vanish. Reopen or refuse.
        match SealedLog::open_append(&self.path, bytes_after as usize) {
            Ok(log) => self.log = log,
            Err(e) => {
                self.log.poison();
                return Err(e);
            }
        }
        let dropped = self.records.len() - live.len();
        self.records = live;
        self.index = build_index(&self.records);
        Ok(CompactReport {
            replayed: self.records.len() + dropped,
            live: self.records.len(),
            dropped,
            bytes_before,
            bytes_after: self.log.bytes(),
            fingerprint: self.fingerprint,
            epoch: self.epoch,
        })
    }
}

/// Parses the sealed store header, returning `(config, epoch, desc)`.
/// The fingerprint is what gates reuse; the optional description only
/// explains an eviction.
fn parse_store_header(line: &str) -> Option<(u64, u64, Option<String>)> {
    let body = unseal(line)?;
    let mut sc = Scanner::new(body);
    sc.lit("{\"store\":\"alive-store/v1\",\"config\":\"")?;
    let fp = u64::from_str_radix(&sc.hex16()?, 16).ok()?;
    sc.lit("\",\"epoch\":")?;
    let epoch = sc.number()?;
    let mut desc = None;
    if sc.try_lit(",\"desc\":\"") {
        desc = Some(sc.string_body()?);
        sc.lit("\"")?;
    }
    if !sc.at_end() {
        return None;
    }
    Some((fp, epoch, desc))
}

/// The refusal for mid-file damage. Only *tail* damage — a torn final
/// line, or a complete final line failing its CRC — is the signature of a
/// crashed append. A bad line with lines after it is a different disease
/// (bit rot, manual edits, an interleaved writer), and discarding the good
/// suffix would throw away verdicts, so point at the salvage tool instead.
fn refuse(path: &Path, damage: Damage) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "{}: {damage}; refusing to discard them — run `alive scrub {}` to salvage \
             the store",
            path.display(),
            path.display()
        ),
    )
}

fn build_index(records: &[StoreRecord]) -> HashMap<u64, usize> {
    let mut index = HashMap::with_capacity(records.len());
    for (i, rec) in records.iter().enumerate() {
        if let Ok(h) = u64::from_str_radix(&rec.hash, 16) {
            index.insert(h, i);
        }
    }
    index
}

/// What [`VerdictStore::compact`] / [`compact_store`] did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactReport {
    /// Records examined (live plus dead).
    pub replayed: usize,
    /// Live records kept (latest per canonical text).
    pub live: usize,
    /// Dead (superseded) records dropped.
    pub dropped: usize,
    /// Record-region bytes before the rewrite.
    pub bytes_before: u64,
    /// Record-region bytes after (equals before when nothing was dead).
    pub bytes_after: u64,
    /// Config fingerprint from the preserved header.
    pub fingerprint: u64,
    /// Eviction epoch from the preserved header.
    pub epoch: u64,
}

/// Whether a store's dead-record ratio justifies an automatic compaction
/// on daemon open: at least half the replayed records are dead, and the
/// rewrite would drop more than a token amount. Conservative on purpose —
/// a store that was never superseded never pays a rewrite.
pub fn needs_compaction(replayed: usize, live: usize) -> bool {
    replayed >= live.saturating_mul(2) && replayed - live >= 2
}

/// Compacts the store at `path` down to its live records, offline
/// (`alive compact`). Takes the single-writer lock; the header is
/// preserved byte for byte, and the swap is the durable tmp + fsync +
/// rename + parent-directory-fsync sequence. Tail damage is dropped
/// exactly as [`VerdictStore::open`] would drop it.
///
/// # Errors
///
/// Refuses when a live process holds the store's lock, when the header is
/// unreadable (no trustworthy config binding), and when a corrupt line is
/// followed by intact records — run `alive scrub` first.
pub fn compact_store(path: &Path) -> io::Result<CompactReport> {
    let _lock = StoreLock::acquire(path)?;
    let text = sealed::read(path)?;
    let header_line = first_line(&text);
    let Some((fingerprint, epoch, _)) = parse_store_header(header_line) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: store header is unreadable, so its records have no trustworthy \
                 config binding; delete the file or let the daemon evict it",
                path.display()
            ),
        ));
    };
    let loaded =
        sealed::replay(&text, true, StoreRecord::parse_line).map_err(|d| refuse(path, d))?;
    let index = build_index(&loaded.records);
    let mut live: Vec<usize> = index.values().copied().collect();
    live.sort_unstable();
    let report = |bytes_after: u64| CompactReport {
        replayed: loaded.records.len(),
        live: live.len(),
        dropped: loaded.records.len() - live.len(),
        bytes_before: loaded.good_bytes as u64,
        bytes_after,
        fingerprint,
        epoch,
    };
    if live.len() == loaded.records.len() && loaded.discarded == 0 {
        // Nothing dead and no tail to trim: leave the file untouched.
        return Ok(report(loaded.good_bytes as u64));
    }
    let lines = live.iter().map(|&i| loaded.records[i].to_line());
    Ok(report(rewrite(path, header_line, lines)?))
}

/// Atomically rewrites the store at `path` as `header` followed by
/// `lines` ([`durable::write_atomic`]), returning the new size in bytes.
fn rewrite<S: AsRef<str>>(
    path: &Path,
    header: &str,
    lines: impl IntoIterator<Item = S>,
) -> io::Result<u64> {
    let mut buf = format!("{header}\n");
    for line in lines {
        buf.push_str(line.as_ref());
        buf.push('\n');
    }
    durable::write_atomic(path, buf.as_bytes())?;
    Ok(buf.len() as u64)
}

/// What [`scrub_store`] did, for the operator's report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScrubReport {
    /// Record lines examined (the header is not counted).
    pub examined: usize,
    /// Intact records rewritten into the fresh sealed store.
    pub salvaged: usize,
    /// Distinct canonical texts among the salvaged records.
    pub distinct: usize,
    /// Corrupt lines moved to `<store>.quarantine`.
    pub quarantined: usize,
    /// Where the corrupt lines went; `None` when nothing was quarantined
    /// (the store was already clean and was left untouched).
    pub quarantine: Option<PathBuf>,
    /// Config fingerprint from the preserved header.
    pub fingerprint: u64,
    /// Eviction epoch from the preserved header.
    pub epoch: u64,
}

/// Salvages a corrupted verdict store in place.
///
/// Unlike [`VerdictStore::open`] — which only self-heals tail damage —
/// this validates every line's CRC *independently*, so one corrupt line
/// mid-file costs exactly that line. Intact records (and the original
/// header, byte for byte) are rewritten to a temp file that atomically
/// replaces the store; corrupt lines are appended to `<store>.quarantine`
/// under a `#`-prefixed report header, preserved for post-mortems rather
/// than discarded. A store with nothing wrong is left untouched.
///
/// # Errors
///
/// Refuses when a live process holds the store's lock, and when the
/// header itself is unreadable — records without a trustworthy
/// `(config, epoch)` binding must not be replayed, so that store can only
/// be deleted or left for the daemon's eviction path.
pub fn scrub_store(path: &Path) -> io::Result<ScrubReport> {
    let _lock = StoreLock::acquire(path)?;
    let text = sealed::read(path)?;
    let mut lines = text.split('\n');
    let header_line = lines.next().unwrap_or("");
    let Some((fingerprint, epoch, _)) = parse_store_header(header_line) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: store header is unreadable, so its records have no trustworthy \
                 config binding; delete the file or let the daemon evict it",
                path.display()
            ),
        ));
    };
    let rest: Vec<&str> = lines.collect();
    let mut good: Vec<&str> = Vec::new();
    let mut bad: Vec<(usize, &str)> = Vec::new();
    let mut distinct: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let total = rest.len();
    for (i, line) in rest.iter().enumerate() {
        if line.is_empty() && i + 1 == total {
            // The final newline's empty remainder, not a record.
            continue;
        }
        match StoreRecord::parse_line(line) {
            Some(rec) => {
                distinct.insert(fnv1a64(rec.canon.as_bytes()));
                good.push(line);
            }
            // 1-based in the file, counting the header as line 1.
            None => bad.push((i + 2, line)),
        }
    }
    let examined = good.len() + bad.len();
    if bad.is_empty() {
        return Ok(ScrubReport {
            examined,
            salvaged: good.len(),
            distinct: distinct.len(),
            quarantined: 0,
            quarantine: None,
            fingerprint,
            epoch,
        });
    }
    // Quarantine first: until the rewrite lands, the damaged original is
    // still on disk, so a crash between these steps loses nothing.
    let qpath = quarantine_path(path);
    {
        let mut q = OpenOptions::new().create(true).append(true).open(&qpath)?;
        let mut buf = format!(
            "# alive scrub: {} corrupt line(s) quarantined from {}\n",
            bad.len(),
            path.display()
        );
        for (lineno, line) in &bad {
            buf.push_str(&format!("# line {lineno}\n{line}\n"));
        }
        durable::append(&mut q, buf.as_bytes())?;
        durable::sync(&q)?;
    }
    // The quarantine may be a fresh file; persist its directory entry
    // before touching the store, or a crash could keep the rewrite while
    // forgetting the quarantined evidence.
    durable::fsync_parent(&qpath)?;
    rewrite(path, header_line, &good)?;
    Ok(ScrubReport {
        examined,
        salvaged: good.len(),
        distinct: distinct.len(),
        quarantined: bad.len(),
        quarantine: Some(qpath),
        fingerprint,
        epoch,
    })
}

/// How a resumed batch run treats each transform of its corpus.
#[derive(Debug, Default)]
pub struct ResumePlan {
    /// Corpus indices whose stored verdict is reused, with its record:
    /// `valid`, `invalid` and `error` verdicts.
    pub reuse: Vec<(usize, StoreRecord)>,
    /// Corpus indices stored as `unknown`/`hung`: re-verified under an
    /// escalated budget. The new verdict supersedes the old record.
    pub requeue: Vec<usize>,
    /// Corpus indices with no stored verdict: verified normally.
    pub fresh: Vec<usize>,
}

/// Partitions a corpus against the store. `canons[i]` must be the
/// canonical text of the i-th corpus transform, so renamed copies of one
/// transform share its verdict.
pub fn plan_resume(store: &VerdictStore, canons: &[String]) -> ResumePlan {
    let mut plan = ResumePlan::default();
    for (i, canon) in canons.iter().enumerate() {
        match store.lookup(canon) {
            Some(rec) => match rec.verdict {
                OutcomeKind::Valid | OutcomeKind::Invalid | OutcomeKind::Error => {
                    plan.reuse.push((i, rec.clone()));
                }
                OutcomeKind::Unknown | OutcomeKind::Hung => plan.requeue.push(i),
            },
            None => plan.fresh.push(i),
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("alive-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        // Sweep the store plus every sibling artifact (lock, quarantine,
        // and all generation-suffixed .evicted.<epoch> files).
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            if entry.file_name().to_string_lossy().starts_with(name) {
                std::fs::remove_file(entry.path()).ok();
            }
        }
        path
    }

    const CANON: &str = "%v1 = add %v0, C1\n=>\n%v1 = %v0";

    #[test]
    fn record_round_trips() {
        let rec = StoreRecord {
            hash: format!("{:016x}", fnv1a64(CANON.as_bytes())),
            canon: CANON.to_string(),
            verdict: OutcomeKind::Invalid,
            reason: "counterexample:\n%x = 1".to_string(),
            wall_ms: 1412,
            cert: "certs/add-identity.cert".to_string(),
        };
        let line = rec.to_line();
        assert_eq!(StoreRecord::parse_line(&line), Some(rec));
        // Any truncation fails the CRC or the strict parse.
        for cut in 1..line.len() {
            assert!(StoreRecord::parse_line(&line[..cut]).is_none());
        }
    }

    #[test]
    fn store_persists_across_reopen() {
        let path = tmp("persist.jsonl");
        {
            let (mut store, how) = VerdictStore::open(&path, 42, 0, Some("widths=4,")).unwrap();
            assert_eq!(how, StoreOpen::Created);
            assert!(store.lookup(CANON).is_none());
            store
                .insert(CANON, OutcomeKind::Valid, "valid", 12, "")
                .unwrap();
            assert_eq!(store.lookup(CANON).unwrap().verdict, OutcomeKind::Valid);
        }
        let (store, how) = VerdictStore::open(&path, 42, 0, Some("widths=4,")).unwrap();
        assert_eq!(
            how,
            StoreOpen::Loaded {
                records: 1,
                discarded: 0
            }
        );
        let rec = store.lookup(CANON).unwrap();
        assert_eq!(rec.verdict, OutcomeKind::Valid);
        assert_eq!(rec.wall_ms, 12);
    }

    #[test]
    fn described_header_round_trips() {
        let path = tmp("desc.jsonl");
        let desc = "widths=4,8,;ptr=64;max_assign=4;cegis_iter=8;seed_zero=true";
        drop(VerdictStore::open(&path, 0xabcd, 2, Some(desc)).unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        let header = text.lines().next().unwrap();
        assert_eq!(
            parse_store_header(header),
            Some((0xabcd, 2, Some(desc.to_string())))
        );
        // Without a description the header still parses, with none.
        let bare = tmp("desc-bare.jsonl");
        drop(VerdictStore::open(&bare, 0xabcd, 2, None).unwrap());
        let text = std::fs::read_to_string(&bare).unwrap();
        assert_eq!(
            parse_store_header(text.lines().next().unwrap()),
            Some((0xabcd, 2, None))
        );
    }

    #[test]
    fn last_record_wins() {
        let path = tmp("supersede.jsonl");
        let (mut store, _) = VerdictStore::open(&path, 1, 0, None).unwrap();
        store
            .insert(CANON, OutcomeKind::Unknown, "budget", 5, "")
            .unwrap();
        store
            .insert(CANON, OutcomeKind::Valid, "valid", 90, "")
            .unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.lookup(CANON).unwrap().verdict, OutcomeKind::Valid);
        // And after a reload.
        drop(store);
        let (store, _) = VerdictStore::open(&path, 1, 0, None).unwrap();
        assert_eq!(store.lookup(CANON).unwrap().verdict, OutcomeKind::Valid);
    }

    #[test]
    fn config_or_epoch_mismatch_evicts() {
        let path = tmp("evict.jsonl");
        {
            let (mut store, _) = VerdictStore::open(&path, 7, 3, Some("widths=4,")).unwrap();
            store
                .insert(CANON, OutcomeKind::Valid, "valid", 1, "")
                .unwrap();
        }
        // Same config, bumped epoch: evicted under the prior epoch's
        // generation suffix, naming the settings it was written under.
        let (store, how) = VerdictStore::open(&path, 7, 4, None).unwrap();
        assert_eq!(
            how,
            StoreOpen::Evicted {
                prior_config: 7,
                prior_epoch: 3,
                prior_desc: Some("widths=4,".to_string()),
            }
        );
        assert!(store.lookup(CANON).is_none());
        assert!(evicted_path(&path, 3).exists());
        drop(store);
        // Different config, same epoch: evicted again — to a *different*
        // generation file, leaving the first eviction intact.
        let (store, how) = VerdictStore::open(&path, 8, 4, None).unwrap();
        assert!(matches!(
            how,
            StoreOpen::Evicted {
                prior_config: 7,
                prior_desc: None,
                ..
            }
        ));
        assert!(store.is_empty());
        assert!(evicted_path(&path, 4).exists());
        assert!(
            evicted_path(&path, 3).exists(),
            "a second eviction must not clobber the first generation"
        );
        // The first generation still holds the original record.
        let first = std::fs::read_to_string(evicted_path(&path, 3)).unwrap();
        assert!(first.contains("\"epoch\":3"), "{first}");
    }

    #[test]
    fn torn_tail_is_truncated_not_trusted() {
        let path = tmp("torn.jsonl");
        {
            let (mut store, _) = VerdictStore::open(&path, 9, 0, None).unwrap();
            store
                .insert(CANON, OutcomeKind::Valid, "valid", 1, "")
                .unwrap();
        }
        // Simulate a torn write: half a record, no newline.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"hash\":\"0011223344556677\",\"canon\":\"%v0 = ")
            .unwrap();
        drop(f);
        let (store, how) = VerdictStore::open(&path, 9, 0, None).unwrap();
        assert_eq!(
            how,
            StoreOpen::Loaded {
                records: 1,
                discarded: 1
            }
        );
        assert_eq!(store.lookup(CANON).unwrap().verdict, OutcomeKind::Valid);
        // The file itself was repaired: a re-open discards nothing.
        drop(store);
        let (_, how) = VerdictStore::open(&path, 9, 0, None).unwrap();
        assert_eq!(
            how,
            StoreOpen::Loaded {
                records: 1,
                discarded: 0
            }
        );
    }

    #[test]
    fn second_writer_is_refused_and_crashed_lock_is_reclaimed() {
        let path = tmp("locked.jsonl");
        let (store, _) = VerdictStore::open(&path, 1, 0, None).unwrap();
        // Same store, second open while the first is alive: refused.
        let err = VerdictStore::open(&path, 1, 0, None).unwrap_err();
        assert!(err.to_string().contains("locked by live process"), "{err}");
        drop(store);
        // Clean drop releases the lock.
        assert!(!lock_path(&path).exists());
        // A lock left by a crashed process (here: a pid that cannot be
        // alive, and an unreadable lock body) is reclaimed, not fatal.
        std::fs::write(lock_path(&path), "999999999\n").unwrap();
        let (store, _) = VerdictStore::open(&path, 1, 0, None).unwrap();
        drop(store);
        std::fs::write(lock_path(&path), "not a pid").unwrap();
        VerdictStore::open(&path, 1, 0, None).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_refused_not_discarded() {
        let path = tmp("midfile.jsonl");
        let other = "%v1 = or %v0, 0\n=>\n%v1 = %v0";
        {
            let (mut store, _) = VerdictStore::open(&path, 5, 0, None).unwrap();
            store
                .insert(CANON, OutcomeKind::Valid, "valid", 1, "")
                .unwrap();
            store
                .insert(other, OutcomeKind::Valid, "valid", 2, "")
                .unwrap();
        }
        // Flip a byte inside the *first* record, leaving an intact record
        // after it: open must refuse, pointing at scrub, and must not
        // truncate anything.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.split('\n').collect();
        let corrupted = format!(
            "{}\n{}\n{}\n",
            lines[0],
            lines[1].replace("valid", "vALid"),
            lines[2]
        );
        std::fs::write(&path, &corrupted).unwrap();
        let err = VerdictStore::open(&path, 5, 0, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("alive scrub"), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), corrupted);
        // And the refusal released the lock for the scrub that follows.
        assert!(!lock_path(&path).exists());
    }

    #[test]
    fn scrub_salvages_good_lines_and_quarantines_bad_ones() {
        let path = tmp("scrub.jsonl");
        let other = "%v1 = or %v0, 0\n=>\n%v1 = %v0";
        {
            let (mut store, _) = VerdictStore::open(&path, 5, 2, None).unwrap();
            store
                .insert(CANON, OutcomeKind::Valid, "valid", 1, "")
                .unwrap();
            store
                .insert(other, OutcomeKind::Invalid, "cex", 2, "")
                .unwrap();
        }
        // Corrupt the middle record and tear the tail.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.split('\n').collect();
        let corrupted = format!(
            "{}\n{}\n{}\n{{\"hash\":\"00",
            lines[0],
            lines[1].replace("crc", "cRc"),
            lines[2]
        );
        std::fs::write(&path, &corrupted).unwrap();
        let report = scrub_store(&path).unwrap();
        assert_eq!(report.examined, 3);
        assert_eq!(report.salvaged, 1);
        assert_eq!(report.distinct, 1);
        assert_eq!(report.quarantined, 2);
        assert_eq!(report.fingerprint, 5);
        assert_eq!(report.epoch, 2);
        let qpath = report.quarantine.unwrap();
        let quarantine = std::fs::read_to_string(&qpath).unwrap();
        assert!(quarantine.contains("cRc"), "bad line preserved verbatim");
        assert!(quarantine.contains("{\"hash\":\"00"), "torn tail preserved");
        // The scrubbed store loads cleanly and still serves the survivor.
        let (store, how) = VerdictStore::open(&path, 5, 2, None).unwrap();
        assert_eq!(
            how,
            StoreOpen::Loaded {
                records: 1,
                discarded: 0
            }
        );
        assert_eq!(store.lookup(other).unwrap().verdict, OutcomeKind::Invalid);
        assert!(store.lookup(CANON).is_none(), "corrupt record not replayed");
        // Scrubbing a clean store is a no-op with no quarantine.
        drop(store);
        let report = scrub_store(&path).unwrap();
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.quarantine, None);
        assert_eq!(report.salvaged, 1);
    }

    #[test]
    fn scrub_refuses_an_unreadable_header() {
        let path = tmp("scrub-header.jsonl");
        std::fs::write(&path, "not a store header\n").unwrap();
        let err = scrub_store(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("header"), "{err}");
    }

    fn canon_n(i: usize) -> String {
        format!("%v1 = add %v0, C{i}\n=>\n%v1 = %v0")
    }

    #[test]
    fn needs_compaction_thresholds() {
        // Fresh store, or one with no dead weight: never.
        assert!(!needs_compaction(0, 0));
        assert!(!needs_compaction(5, 5));
        // A single superseded record is not worth a rewrite.
        assert!(!needs_compaction(2, 1));
        assert!(!needs_compaction(3, 2));
        // Half-dead and at least two dead records: compact.
        assert!(needs_compaction(4, 2));
        assert!(needs_compaction(6, 2));
        assert!(needs_compaction(100, 10));
    }

    #[test]
    fn live_compaction_preserves_lookups_and_header() {
        let path = tmp("compact-live.jsonl");
        let (mut store, _) = VerdictStore::open(&path, 11, 2, Some("widths=4,")).unwrap();
        for i in 0..4 {
            store
                .insert(&canon_n(i), OutcomeKind::Unknown, "budget", 5, "")
                .unwrap();
        }
        // Supersede two of them (escalated re-verification decided them).
        store
            .insert(&canon_n(0), OutcomeKind::Valid, "valid", 90, "")
            .unwrap();
        store
            .insert(&canon_n(2), OutcomeKind::Invalid, "cex", 80, "")
            .unwrap();
        assert_eq!(store.replayed(), 6);
        assert_eq!(store.len(), 4);
        let before: Vec<StoreRecord> = (0..4)
            .map(|i| store.lookup(&canon_n(i)).unwrap().clone())
            .collect();
        let report = store.compact().unwrap();
        assert_eq!(report.replayed, 6);
        assert_eq!(report.live, 4);
        assert_eq!(report.dropped, 2);
        assert!(report.bytes_after < report.bytes_before);
        assert_eq!(report.fingerprint, 11);
        assert_eq!(report.epoch, 2);
        // Every lookup is byte-identical, and the store keeps serving
        // writes through the reopened handle.
        for (i, old) in before.iter().enumerate() {
            assert_eq!(store.lookup(&canon_n(i)).unwrap(), old);
        }
        store
            .insert(&canon_n(9), OutcomeKind::Valid, "valid", 7, "")
            .unwrap();
        drop(store);
        // Reopen with the same config: no eviction, nothing discarded,
        // nothing dead.
        let (store, how) = VerdictStore::open(&path, 11, 2, Some("widths=4,")).unwrap();
        assert_eq!(
            how,
            StoreOpen::Loaded {
                records: 5,
                discarded: 0
            }
        );
        assert_eq!(store.replayed(), 5);
        for (i, old) in before.iter().enumerate() {
            assert_eq!(store.lookup(&canon_n(i)).unwrap(), old);
        }
    }

    #[test]
    fn torn_tail_after_compaction_truncates_cleanly() {
        let path = tmp("compact-torn.jsonl");
        {
            let (mut store, _) = VerdictStore::open(&path, 3, 0, None).unwrap();
            store
                .insert(CANON, OutcomeKind::Unknown, "budget", 1, "")
                .unwrap();
            store
                .insert(CANON, OutcomeKind::Valid, "valid", 2, "")
                .unwrap();
            store.compact().unwrap();
        }
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"hash\":\"0011").unwrap();
        drop(f);
        let (store, how) = VerdictStore::open(&path, 3, 0, None).unwrap();
        assert_eq!(
            how,
            StoreOpen::Loaded {
                records: 1,
                discarded: 1
            }
        );
        assert_eq!(store.lookup(CANON).unwrap().verdict, OutcomeKind::Valid);
    }

    #[test]
    fn offline_compaction_matches_and_noops_when_clean() {
        let path = tmp("compact-offline.jsonl");
        {
            let (mut store, _) = VerdictStore::open(&path, 6, 1, None).unwrap();
            for i in 0..3 {
                store
                    .insert(&canon_n(i), OutcomeKind::Unknown, "budget", 1, "")
                    .unwrap();
                store
                    .insert(&canon_n(i), OutcomeKind::Valid, "valid", 2, "")
                    .unwrap();
            }
        }
        let report = compact_store(&path).unwrap();
        assert_eq!(report.replayed, 6);
        assert_eq!(report.live, 3);
        assert_eq!(report.dropped, 3);
        assert_eq!(report.fingerprint, 6);
        assert_eq!(report.epoch, 1);
        // Second pass: nothing dead, the file is left untouched.
        let clean = std::fs::read_to_string(&path).unwrap();
        let report = compact_store(&path).unwrap();
        assert_eq!(report.dropped, 0);
        assert_eq!(report.bytes_before, report.bytes_after);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), clean);
        let (store, how) = VerdictStore::open(&path, 6, 1, None).unwrap();
        assert_eq!(
            how,
            StoreOpen::Loaded {
                records: 3,
                discarded: 0
            }
        );
        for i in 0..3 {
            assert_eq!(
                store.lookup(&canon_n(i)).unwrap().verdict,
                OutcomeKind::Valid
            );
        }
    }

    #[test]
    fn thrice_superseded_store_compacts_near_fresh_size() {
        // Acceptance bound: after every record is superseded three times,
        // the compacted store is at most 1.5x a fresh store holding only
        // the live records.
        let live = tmp("compact-fresh.jsonl");
        {
            let (mut store, _) = VerdictStore::open(&live, 2, 0, None).unwrap();
            for i in 0..8 {
                store
                    .insert(&canon_n(i), OutcomeKind::Valid, "valid", 3, "")
                    .unwrap();
            }
        }
        let churned = tmp("compact-churned.jsonl");
        {
            let (mut store, _) = VerdictStore::open(&churned, 2, 0, None).unwrap();
            for round in 0..3 {
                for i in 0..8 {
                    let (verdict, reason) = if round == 2 {
                        (OutcomeKind::Valid, "valid")
                    } else {
                        (OutcomeKind::Unknown, "budget")
                    };
                    store.insert(&canon_n(i), verdict, reason, 3, "").unwrap();
                }
            }
            assert_eq!(store.replayed(), 24);
            assert!(needs_compaction(store.replayed(), store.len()));
            let report = store.compact().unwrap();
            assert_eq!(report.dropped, 16);
        }
        let fresh = std::fs::metadata(&live).unwrap().len();
        let compacted = std::fs::metadata(&churned).unwrap().len();
        assert!(
            compacted * 2 <= fresh * 3,
            "compacted store is {compacted} bytes, fresh equivalent {fresh}; \
             bound is 1.5x"
        );
        // And it serves the same verdicts as the fresh one.
        let (a, _) = VerdictStore::open(&live, 2, 0, None).unwrap();
        let (b, _) = VerdictStore::open(&churned, 2, 0, None).unwrap();
        for i in 0..8 {
            assert_eq!(
                a.lookup(&canon_n(i)).unwrap().verdict,
                b.lookup(&canon_n(i)).unwrap().verdict
            );
        }
    }

    #[test]
    fn collision_buckets_compare_text() {
        let path = tmp("collision.jsonl");
        let (mut store, _) = VerdictStore::open(&path, 1, 0, None).unwrap();
        store
            .insert(CANON, OutcomeKind::Valid, "valid", 1, "")
            .unwrap();
        // Forge an index collision: same bucket, different canonical text.
        let other = "%v1 = sub %v0, C1\n=>\n%v1 = %v0";
        let h = fnv1a64(CANON.as_bytes());
        store
            .index
            .insert(fnv1a64(other.as_bytes()), store.index[&h]);
        assert!(store.lookup(other).is_none(), "collision must miss");
        assert!(store.lookup(CANON).is_some());
    }

    #[test]
    fn fingerprint_diff_names_the_changed_fields() {
        let a = "widths=4,8,;ptr=64;max_assign=4;cegis_iter=8;seed_zero=true";
        let b = "widths=4,8,16,;ptr=64;max_assign=4;cegis_iter=32;seed_zero=true";
        let diff = fingerprint_diff(a, b);
        assert_eq!(
            diff,
            vec![
                (
                    "widths".to_string(),
                    "4,8,".to_string(),
                    "4,8,16,".to_string()
                ),
                ("cegis_iter".to_string(), "8".to_string(), "32".to_string()),
            ]
        );
        assert!(fingerprint_diff(a, a).is_empty());
        // A field only one side knows about is reported as absent.
        let c = "widths=4,8,;ptr=64;max_assign=4;cegis_iter=8";
        let diff = fingerprint_diff(a, c);
        assert_eq!(
            diff,
            vec![(
                "seed_zero".to_string(),
                "true".to_string(),
                "<absent>".to_string()
            )]
        );
    }

    #[test]
    fn plan_resume_reuses_decided_and_requeues_the_rest() {
        let path = tmp("plan.jsonl");
        let (mut store, _) = VerdictStore::open(&path, 1, 0, None).unwrap();
        store
            .insert(&canon_n(0), OutcomeKind::Valid, "valid", 3, "")
            .unwrap();
        store
            .insert(&canon_n(1), OutcomeKind::Hung, "detached", 9, "")
            .unwrap();
        store
            .insert(&canon_n(2), OutcomeKind::Unknown, "budget", 4, "")
            .unwrap();
        store
            .insert(&canon_n(2), OutcomeKind::Invalid, "cex", 5, "")
            .unwrap();
        let canons: Vec<String> = (0..4).map(canon_n).collect();
        let plan = plan_resume(&store, &canons);
        let reused: Vec<usize> = plan.reuse.iter().map(|(i, _)| *i).collect();
        // The escalated verdict for canon 2 superseded its `unknown`.
        assert_eq!(reused, vec![0, 2]);
        assert_eq!(plan.requeue, vec![1]);
        assert_eq!(plan.fresh, vec![3]);
        let outcome = plan.reuse[1].1.to_outcome("renamed");
        assert_eq!(outcome.name, "renamed");
        assert_eq!(outcome.kind, OutcomeKind::Invalid);
        assert_eq!(outcome.detail, "cex");
        assert!(outcome.resumed);
        assert!(outcome.attempts.is_empty());
    }
}
