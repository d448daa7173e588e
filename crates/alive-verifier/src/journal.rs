//! The crash-safe verification journal.
//!
//! A corpus run that dies — `kill -9`, OOM, power loss — must not throw
//! away the verdicts it already earned. The supervised driver therefore
//! appends every completed outcome to a **write-ahead journal** before the
//! outcome is counted: an append-only JSONL file, fsync'd per record, with
//! one self-delimiting line per transform. `alive --resume <journal>`
//! replays the file, reuses every decided verdict, and requeues hung or
//! inconclusive entries under an escalated budget.
//!
//! # Record format (`alive-journal/v1`)
//!
//! Line 1 is a header carrying the config fingerprint; every other line is
//! one outcome record:
//!
//! ```text
//! {"journal":"alive-journal/v1","config":"<16 hex>","crc":"<16 hex>"}
//! {"key":"<16 hex>","name":"...","verdict":"valid","reason":"...",
//!  "wall_ms":12,"conflicts":34,"queries":1,"typings":2,"retries":0,
//!  "worker":3,"attempts":[{"wall_ms":12,"conflicts":34,"outcome":"valid"}],
//!  "crc":"<16 hex>"}
//! ```
//!
//! (shown wrapped; on disk each record is a single `\n`-terminated line).
//!
//! * `key` is an FNV-1a 64 hash of the transform's canonical printed text
//!   plus the config fingerprint, so a journal from a different corpus or
//!   different verifier settings never short-circuits a verdict.
//! * `crc` is the [sealed-line](alive_trace::sealed) CRC: an FNV-1a 64
//!   hash of everything before the `,"crc"` suffix. A record is accepted
//!   only if its line is newline-terminated, its CRC matches, and every
//!   field parses strictly.
//!
//! # Torn-write recovery
//!
//! After a `kill -9` the final record may be torn: missing its newline,
//! truncated mid-field, or (on some filesystems) padded with garbage.
//! [`Journal::load`] applies the one sealed-log policy
//! ([`alive_trace::sealed::replay`]): a bad *last* line is a torn tail,
//! dropped and counted so the CLI can say so out loud, and
//! [`Journal::open_append`] truncates it before appending. A bad line with
//! any line after it is not the signature of a crashed append, so the
//! load refuses with its line number rather than guess which records to
//! trust.
//!
//! Re-running with `--resume` appends fresh records to the same file;
//! when a key appears more than once the **last** record wins, so a
//! requeued transform's escalated-budget verdict supersedes its earlier
//! `hung`/`unknown` entry.

use crate::driver::{Attempt, OutcomeKind, TransformOutcome};
use crate::durable::SealedLog;
use crate::verify::VerifyConfig;
use alive_ir::Transform;
use alive_trace::sealed::{self, first_line, fnv1a64, json_escape, seal, unseal, Replay, Scanner};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The human-readable preimage of [`config_fingerprint`]: every verifier
/// setting that affects verdicts, as `field=value` pairs joined by `;`.
/// This string is stored alongside the fingerprint in journal and store
/// headers so a mismatch can be explained field by field
/// ([`fingerprint_diff`]) instead of refused with a bare hash.
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

/// The journal key for one transform under one config: a content hash of
/// the transform's canonical printed form and the config fingerprint,
/// rendered as 16 lower-case hex digits.
pub fn transform_key(t: &Transform, fingerprint: u64) -> String {
    let text = format!("{t}\x00{fingerprint:016x}");
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// One parsed journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalRecord {
    /// Content key (see [`transform_key`]).
    pub key: String,
    /// Transform name at the time of the run.
    pub name: String,
    /// Final classification.
    pub verdict: OutcomeKind,
    /// Reason / verdict detail.
    pub reason: String,
    /// Total wall milliseconds across attempts.
    pub wall_ms: u64,
    /// SAT conflicts across attempts.
    pub conflicts: u64,
    /// SMT queries across attempts.
    pub queries: u64,
    /// Type assignments examined.
    pub typings: u64,
    /// Retries consumed.
    pub retries: u32,
    /// Worker id that produced the record.
    pub worker: u32,
    /// Per-attempt history: (wall_ms, conflicts, outcome label).
    pub attempts: Vec<(u64, u64, String)>,
}

impl JournalRecord {
    /// Converts a live outcome into its journal form.
    pub fn from_outcome(key: &str, o: &TransformOutcome) -> JournalRecord {
        JournalRecord {
            key: key.to_string(),
            name: o.name.clone(),
            verdict: o.kind,
            reason: o.detail.clone(),
            wall_ms: o.wall.as_millis() as u64,
            conflicts: o.conflicts,
            queries: o.queries as u64,
            typings: o.typings as u64,
            retries: o.retries,
            worker: o.worker,
            attempts: o
                .attempts
                .iter()
                .map(|a| (a.wall.as_millis() as u64, a.conflicts, a.outcome.clone()))
                .collect(),
        }
    }

    /// Reconstructs a replayable outcome (marked `resumed`) from the
    /// journal form. Certificates are not journaled — `--proof` re-runs
    /// are expected to re-verify. The extended v3 counters (propagations,
    /// decisions, restarts, CEGIS rounds, per-phase timings) are not part
    /// of the `alive-journal/v1` record and replay as zero.
    pub fn to_outcome(&self) -> TransformOutcome {
        TransformOutcome {
            name: self.name.clone(),
            kind: self.verdict,
            detail: self.reason.clone(),
            certificates: Vec::new(),
            wall: Duration::from_millis(self.wall_ms),
            conflicts: self.conflicts,
            propagations: 0,
            decisions: 0,
            restarts: 0,
            ef_rounds: 0,
            phases: crate::verify::PhaseTimes::default(),
            queries: self.queries as usize,
            typings: self.typings as usize,
            retries: self.retries,
            worker: self.worker,
            resumed: true,
            attempts: self
                .attempts
                .iter()
                .map(|(wall_ms, conflicts, outcome)| Attempt {
                    wall: Duration::from_millis(*wall_ms),
                    conflicts: *conflicts,
                    outcome: outcome.clone(),
                })
                .collect(),
        }
    }

    /// Serializes the record body (everything before the CRC suffix).
    fn body(&self) -> String {
        let mut attempts = String::new();
        for (i, (wall_ms, conflicts, outcome)) in self.attempts.iter().enumerate() {
            attempts.push_str(&format!(
                "{{\"wall_ms\":{wall_ms},\"conflicts\":{conflicts},\"outcome\":\"{}\"}}{}",
                json_escape(outcome),
                if i + 1 == self.attempts.len() {
                    ""
                } else {
                    ","
                },
            ));
        }
        format!(
            "{{\"key\":\"{}\",\"name\":\"{}\",\"verdict\":\"{}\",\"reason\":\"{}\",\
             \"wall_ms\":{},\"conflicts\":{},\"queries\":{},\"typings\":{},\
             \"retries\":{},\"worker\":{},\"attempts\":[{}]",
            self.key,
            json_escape(&self.name),
            self.verdict.as_str(),
            json_escape(&self.reason),
            self.wall_ms,
            self.conflicts,
            self.queries,
            self.typings,
            self.retries,
            self.worker,
            attempts,
        )
    }

    /// Serializes one full, CRC-sealed journal line (without the newline).
    pub fn to_line(&self) -> String {
        seal(&self.body())
    }

    /// Parses one journal line (CRC check included).
    pub fn parse_line(line: &str) -> Option<JournalRecord> {
        let body = unseal(line)?;
        let mut sc = Scanner::new(body);
        sc.lit("{\"key\":\"")?;
        let key = sc.hex16()?;
        sc.lit("\",\"name\":\"")?;
        let name = sc.string_body()?;
        sc.lit("\",\"verdict\":\"")?;
        let verdict = OutcomeKind::from_label(&sc.string_body()?)?;
        sc.lit("\",\"reason\":\"")?;
        let reason = sc.string_body()?;
        sc.lit("\",\"wall_ms\":")?;
        let wall_ms = sc.number()?;
        sc.lit(",\"conflicts\":")?;
        let conflicts = sc.number()?;
        sc.lit(",\"queries\":")?;
        let queries = sc.number()?;
        sc.lit(",\"typings\":")?;
        let typings = sc.number()?;
        sc.lit(",\"retries\":")?;
        let retries = u32::try_from(sc.number()?).ok()?;
        sc.lit(",\"worker\":")?;
        let worker = u32::try_from(sc.number()?).ok()?;
        sc.lit(",\"attempts\":[")?;
        let mut attempts = Vec::new();
        if !sc.try_lit("]") {
            loop {
                sc.lit("{\"wall_ms\":")?;
                let a_wall = sc.number()?;
                sc.lit(",\"conflicts\":")?;
                let a_conflicts = sc.number()?;
                sc.lit(",\"outcome\":\"")?;
                let a_outcome = sc.string_body()?;
                sc.lit("\"}")?;
                attempts.push((a_wall, a_conflicts, a_outcome));
                if sc.try_lit("]") {
                    break;
                }
                sc.lit(",")?;
            }
        }
        if !sc.at_end() {
            return None;
        }
        Some(JournalRecord {
            key,
            name,
            verdict,
            reason,
            wall_ms,
            conflicts,
            queries,
            typings,
            retries,
            worker,
            attempts,
        })
    }
}

/// What [`Journal::load`] recovered from disk.
#[derive(Debug, Default)]
pub struct LoadedJournal {
    /// Accepted records, in file order (duplicate keys not collapsed).
    pub records: Vec<JournalRecord>,
    /// Torn-tail lines discarded (0 or 1).
    pub discarded: usize,
    /// Config fingerprint from the header, if a header was readable.
    pub fingerprint: Option<u64>,
    /// Config description from the header, if the journal was written by a
    /// version that records one ([`Journal::create_described`]).
    pub description: Option<String>,
}

/// An open, append-only journal. Every [`Journal::append`] writes one
/// sealed line and fsyncs before returning, so a record that the caller
/// has seen acknowledged survives `kill -9`. All writes go through one
/// [`SealedLog`]: a failed fsync poisons the handle (fsyncgate), and
/// every later append refuses rather than pretend the record landed.
#[derive(Debug)]
pub struct Journal {
    log: SealedLog,
    path: PathBuf,
}

impl Journal {
    /// Creates (truncating) a fresh journal and writes the sealed header.
    pub fn create(path: &Path, fingerprint: u64) -> std::io::Result<Journal> {
        Journal::create_described(path, fingerprint, None)
    }

    /// Like [`Journal::create`], also recording the human-readable config
    /// description in the header so a later `--resume` under different
    /// settings can say *which* fields changed ([`fingerprint_diff`]).
    pub fn create_described(
        path: &Path,
        fingerprint: u64,
        description: Option<&str>,
    ) -> std::io::Result<Journal> {
        let mut body =
            format!("{{\"journal\":\"alive-journal/v1\",\"config\":\"{fingerprint:016x}\"");
        if let Some(desc) = description {
            body.push_str(&format!(",\"desc\":\"{}\"", json_escape(desc)));
        }
        Ok(Journal {
            log: SealedLog::create(path, &body)?,
            path: path.to_path_buf(),
        })
    }

    /// Opens an existing journal for appending (the `--resume` path),
    /// truncating a torn tail first so no record is appended onto it.
    ///
    /// # Errors
    ///
    /// Refuses a journal with mid-file damage, like [`Journal::load`].
    pub fn open_append(path: &Path) -> std::io::Result<Journal> {
        let (_, replay) = replay_file(path)?;
        Ok(Journal {
            log: SealedLog::open_append(path, replay.good_bytes)?,
            path: path.to_path_buf(),
        })
    }

    /// The journal's path (for messages).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one outcome under `key`, fsync'ing before returning. The
    /// record counts as journaled only when this returns `Ok`; a failed
    /// sync poisons the handle, and later appends refuse (the torn tail
    /// this leaves behind is exactly what [`Journal::load`] recovers
    /// from).
    pub fn append(&mut self, key: &str, outcome: &TransformOutcome) -> std::io::Result<()> {
        let rec = JournalRecord::from_outcome(key, outcome);
        self.log.append(&rec.body()).map(drop)
    }

    /// Loads a journal from disk under the sealed-log recovery policy: a
    /// torn tail is dropped and counted in
    /// [`LoadedJournal::discarded`].
    ///
    /// # Errors
    ///
    /// Propagates read errors, and refuses mid-file damage (a bad line
    /// with any line after it) with its line number.
    pub fn load(path: &Path) -> std::io::Result<LoadedJournal> {
        let (header, replay) = replay_file(path)?;
        let (fingerprint, description) = header.map_or((None, None), |(fp, d)| (Some(fp), d));
        Ok(LoadedJournal {
            records: replay.records,
            discarded: replay.discarded,
            fingerprint,
            description,
        })
    }
}

/// Reads and replays a journal file. Line 1 is the header when it parses
/// as one; otherwise it is replayed as a record, because a crash inside
/// [`Journal::create`] leaves a headerless file that `--resume` appends
/// records to.
fn replay_file(path: &Path) -> std::io::Result<(Option<Header>, Replay<JournalRecord>)> {
    let text = sealed::read(path)?;
    let header = parse_header(first_line(&text));
    let replay = sealed::replay(&text, header.is_some(), JournalRecord::parse_line)?;
    Ok((header, replay))
}

/// A journal header: the config fingerprint and (when the writing version
/// recorded one) the config description.
type Header = (u64, Option<String>);

/// Parses the sealed header line.
fn parse_header(line: &str) -> Option<Header> {
    let body = unseal(line)?;
    let mut sc = Scanner::new(body);
    sc.lit("{\"journal\":\"alive-journal/v1\",\"config\":\"")?;
    let fp = u64::from_str_radix(&sc.hex16()?, 16).ok()?;
    sc.lit("\"")?;
    let desc = if sc.try_lit(",\"desc\":\"") {
        let d = sc.string_body()?;
        sc.lit("\"")?;
        Some(d)
    } else {
        None
    };
    if !sc.at_end() {
        return None;
    }
    Some((fp, desc))
}

/// How a resumed run should treat each transform of the corpus.
#[derive(Debug, Default)]
pub struct ResumePlan {
    /// Corpus indices whose verdict is replayed from the journal, with the
    /// record it came from: `valid`, `invalid`, and `error` records.
    pub reuse: Vec<(usize, JournalRecord)>,
    /// Corpus indices journaled as `hung`/`unknown`: re-verified under an
    /// escalated budget, carrying their prior attempt history.
    pub requeue: Vec<(usize, JournalRecord)>,
    /// Corpus indices with no journal record: verified normally.
    pub fresh: Vec<usize>,
}

/// Partitions a corpus against the journal's records. `keys[i]` must be
/// [`transform_key`] of the i-th corpus transform; when a key occurs in
/// several records the last one wins (requeues append their new verdict
/// after the superseded one).
pub fn plan_resume(records: &[JournalRecord], keys: &[String]) -> ResumePlan {
    let mut by_key: std::collections::HashMap<&str, &JournalRecord> = Default::default();
    for rec in records {
        by_key.insert(rec.key.as_str(), rec);
    }
    let mut plan = ResumePlan::default();
    for (i, key) in keys.iter().enumerate() {
        match by_key.get(key.as_str()) {
            Some(rec) => match rec.verdict {
                OutcomeKind::Valid | OutcomeKind::Invalid | OutcomeKind::Error => {
                    plan.reuse.push((i, (*rec).clone()));
                }
                OutcomeKind::Unknown | OutcomeKind::Hung => {
                    plan.requeue.push((i, (*rec).clone()));
                }
            },
            None => plan.fresh.push(i),
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_through_seal() {
        let fingerprint = 0xfaa9_754c_5068_16cf_u64;
        let header = seal(&format!(
            "{{\"journal\":\"alive-journal/v1\",\"config\":\"{fingerprint:016x}\""
        ));
        assert_eq!(parse_header(&header), Some((fingerprint, None)));
        // A header is not a record, and a record is not a header.
        assert!(JournalRecord::parse_line(&header).is_none());
    }

    #[test]
    fn described_header_round_trips() {
        let dir = std::env::temp_dir().join("alive-journal-desc-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let desc = "widths=4,8,;ptr=64;max_assign=4;cegis_iter=8;seed_zero=true";
        Journal::create_described(&path, 0xabcd, Some(desc)).unwrap();
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.fingerprint, Some(0xabcd));
        assert_eq!(loaded.description.as_deref(), Some(desc));
        std::fs::remove_file(&path).ok();
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

    fn sample_outcome() -> TransformOutcome {
        TransformOutcome {
            name: "with \"quotes\"\nand newline".to_string(),
            kind: OutcomeKind::Unknown,
            detail: "conflict budget exhausted".to_string(),
            certificates: Vec::new(),
            wall: Duration::from_millis(12),
            conflicts: 34,
            propagations: 120,
            decisions: 17,
            restarts: 1,
            ef_rounds: 2,
            phases: crate::verify::PhaseTimes::default(),
            queries: 5,
            typings: 2,
            retries: 1,
            worker: 3,
            resumed: false,
            attempts: vec![
                Attempt {
                    wall: Duration::from_millis(4),
                    conflicts: 10,
                    outcome: "unknown: conflict budget exhausted".to_string(),
                },
                Attempt {
                    wall: Duration::from_millis(8),
                    conflicts: 24,
                    outcome: "unknown: conflict budget exhausted".to_string(),
                },
            ],
        }
    }

    #[test]
    fn record_round_trips_through_its_line_form() {
        let rec = JournalRecord::from_outcome("00aabbccddeeff11", &sample_outcome());
        let line = rec.to_line();
        let back = JournalRecord::parse_line(&line).expect("parse");
        assert_eq!(back, rec);
        let outcome = back.to_outcome();
        assert!(outcome.resumed);
        assert_eq!(outcome.kind, OutcomeKind::Unknown);
        assert_eq!(outcome.attempts.len(), 2);
    }

    #[test]
    fn corrupted_lines_are_rejected() {
        let rec = JournalRecord::from_outcome("00aabbccddeeff11", &sample_outcome());
        let line = rec.to_line();
        // Truncations at every length must fail the CRC or the parse.
        for cut in 1..line.len() {
            assert!(
                JournalRecord::parse_line(&line[..cut]).is_none(),
                "truncation at {cut} parsed"
            );
        }
        // A flipped byte in the middle fails the CRC.
        let mut bytes = line.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        let flipped = String::from_utf8_lossy(&bytes).into_owned();
        assert!(JournalRecord::parse_line(&flipped).is_none());
    }

    #[test]
    fn mid_file_damage_is_refused_not_dropped() {
        let dir = std::env::temp_dir().join("alive-journal-midfile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let mut journal = Journal::create(&path, 7).unwrap();
        for key in ["00000000000000aa", "00000000000000bb"] {
            journal.append(key, &sample_outcome()).unwrap();
        }
        drop(journal);
        // Damage the first record; the second stays intact after it.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            text.replacen("00000000000000aa", "00000000000000ab", 1),
        )
        .unwrap();
        for err in [
            Journal::load(&path).unwrap_err(),
            Journal::open_append(&path).unwrap_err(),
        ] {
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("line 2"), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn key_depends_on_config_fingerprint() {
        let t = alive_ir::parse_transform("%r = add %x, %x\n=>\n%r = shl %x, 1").unwrap();
        let a = transform_key(&t, 1);
        let b = transform_key(&t, 2);
        assert_ne!(a, b);
        assert_eq!(a, transform_key(&t, 1));
    }
}
