//! Crash corpus: persistent, deduplicated failure reproducers.
//!
//! Every failure the fuzzer finds (after minimization) is written into a
//! corpus directory as a plain Alive `.opt` file whose name is the
//! failure's *signature* — a stable hash of the failure class and its
//! digit-normalized detail text, so reruns of the same bug land on the
//! same file instead of piling up duplicates. Checked-in corpus entries
//! are replayed as regression tests (`tests/corpus_replay.rs`).

use alive_ir::Transform;
use alive_trace::sealed::fnv1a64;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Broad classes of fuzzer-visible failure.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FailureClass {
    /// The pipeline panicked (caught by the driver's isolation layer).
    Panic,
    /// The pipeline exceeded its deadline.
    Hang,
    /// The paranoid oracle disagreed with the verdict.
    Disagreement,
    /// The pipeline reported an error on generator-produced input.
    Error,
}

impl FailureClass {
    /// A short lowercase label (used in filenames).
    pub fn as_str(self) -> &'static str {
        match self {
            FailureClass::Panic => "panic",
            FailureClass::Hang => "hang",
            FailureClass::Disagreement => "disagreement",
            FailureClass::Error => "error",
        }
    }
}

impl fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A stable identity for "the same failure".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Signature {
    /// The failure class.
    pub class: FailureClass,
    /// FNV-1a hash of the class and the digit-normalized detail text.
    pub hash: u64,
}

impl Signature {
    /// Builds a signature from a failure class and its detail text.
    ///
    /// Runs of decimal digits are collapsed before hashing, so details
    /// that differ only in case indices, concrete values, line numbers,
    /// or timings map to the same signature.
    pub fn new(class: FailureClass, detail: &str) -> Signature {
        let mut bytes = class.as_str().as_bytes().to_vec();
        let mut in_digits = false;
        for b in detail.bytes() {
            if !b.is_ascii_digit() {
                bytes.push(b);
            } else if !in_digits {
                bytes.push(b'N');
            }
            in_digits = b.is_ascii_digit();
        }
        Signature {
            class,
            hash: fnv1a64(&bytes),
        }
    }

    /// The filename stem for this signature, e.g. `panic-1f9a60d2c3b4a5e6`.
    pub fn slug(&self) -> String {
        format!("{}-{:016x}", self.class, self.hash)
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.slug())
    }
}

/// A directory of failure reproducers, one `.opt` file per signature.
#[derive(Clone, Debug)]
pub struct Corpus {
    dir: PathBuf,
}

impl Corpus {
    /// Opens (creating if necessary) a corpus directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Corpus> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Corpus { dir })
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path a signature's reproducer lives at.
    pub fn path_for(&self, sig: &Signature) -> PathBuf {
        self.dir.join(format!("{}.opt", sig.slug()))
    }

    /// Saves a reproducer; returns `false` if this signature was already
    /// in the corpus (the existing reproducer is kept).
    pub fn save(&self, sig: &Signature, t: &Transform, detail: &str) -> io::Result<bool> {
        let path = self.path_for(sig);
        if path.exists() {
            return Ok(false);
        }
        let mut text = String::new();
        text.push_str(&format!("; class: {}\n", sig.class));
        for line in detail.lines().take(6) {
            text.push_str(&format!("; {line}\n"));
        }
        // No `Name:` header — the filename is the identity, and slugs
        // contain hex hashes the lexer would reject as malformed numbers.
        text.push_str(&t.to_string());
        if !text.ends_with('\n') {
            text.push('\n');
        }
        fs::write(&path, text)?;
        Ok(true)
    }

    /// Loads every reproducer in the corpus, sorted by filename so replay
    /// order is stable. Unparsable files are reported as errors.
    pub fn entries(&self) -> io::Result<Vec<(String, Transform)>> {
        let mut files: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "opt"))
            .collect();
        files.sort();
        let mut out = Vec::new();
        for path in files {
            let text = fs::read_to_string(&path)?;
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("corpus-entry")
                .to_string();
            let t = alive_ir::parse_transform(&text).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })?;
            out.push((name, t));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signatures_normalize_digits() {
        let a = Signature::new(FailureClass::Panic, "internal error: fault at query 3");
        let b = Signature::new(FailureClass::Panic, "internal error: fault at query 17");
        assert_eq!(a, b);
        let c = Signature::new(FailureClass::Panic, "internal error: other");
        assert_ne!(a, c);
        let d = Signature::new(FailureClass::Hang, "internal error: fault at query 3");
        assert_ne!(a, d);
    }

    #[test]
    fn checked_in_reproducers_keep_their_signatures() {
        // The corpus names each reproducer by the signature of the detail
        // recorded in its header; a hashing change would orphan them.
        let hang = Signature::new(
            FailureClass::Hang,
            "worker 0 ignored its deadline for 2s past the grace period; thread detached",
        );
        assert_eq!(hang.slug(), "hang-e82076308073063e");
        let panic = Signature::new(
            FailureClass::Panic,
            "internal error: panic during Domain of definedness of Target is smaller than \
             Source's check: injected fault: panic in alive_sat::Solver::solve",
        );
        assert_eq!(panic.slug(), "panic-6d9c0f3022dad538");
    }

    #[test]
    fn save_dedups_and_entries_round_trip() {
        let dir = std::env::temp_dir().join(format!("alive-fuzz-corpus-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let corpus = Corpus::open(&dir).unwrap();
        let t = alive_ir::parse_transform("%r = add i8 %x, 1\n=>\n%r = add i8 %x, 1\n").unwrap();
        let sig = Signature::new(FailureClass::Disagreement, "verdict mismatch at case 12");
        assert!(corpus
            .save(&sig, &t, "verdict mismatch at case 12")
            .unwrap());
        assert!(!corpus
            .save(&sig, &t, "verdict mismatch at case 99")
            .unwrap());
        let entries = corpus.entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1.source, t.source);
        let _ = fs::remove_dir_all(&dir);
    }
}
