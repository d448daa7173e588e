//! The sealed line: one line format and one recovery policy for every
//! CRC-sealed JSONL artifact — the write-ahead journal, the verdict store,
//! the slow-query log, and the trace.
//!
//! A sealed line is a JSON object whose last field is `"crc"`, the FNV-1a
//! 64 hash of every byte before `,"crc"`, rendered as 16 lower-case hex
//! digits:
//!
//! ```text
//! {"key":"...","name":"...","crc":"9a4aa11ed7bb8baf"}
//! ```
//!
//! Line 1 of each artifact is a sealed header naming its schema; the
//! header's meaning stays with the artifact. Writers append one sealed,
//! `\n`-terminated line at a time, so a crash can only damage the *last*
//! line. [`replay`] turns that into the one recovery policy:
//!
//! * a last line that has no newline, or fails its CRC or parse, is a
//!   **torn tail**: it is dropped, and the byte length of the intact
//!   prefix is returned so a writer can truncate the tail away;
//! * a bad line with any line after it is **mid-file damage** — not the
//!   signature of a crashed append — and is refused with its line number.
//!
//! The module is dependency-free so every crate that writes a sealed
//! artifact can share it.

use std::fmt;
use std::path::Path;

/// FNV-1a 64-bit hash. Seals and keys guard against accidents, not
/// adversaries, so a non-cryptographic hash is enough. Inlined across
/// crates: the verdict store hashes every lookup with it.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends the CRC field and closing brace to `body`, a JSON object
/// missing its `}`: `body` → `body,"crc":"<16 hex>"}`.
pub fn seal(body: &str) -> String {
    let crc = fnv1a64(body.as_bytes());
    format!("{body},\"crc\":\"{crc:016x}\"}}")
}

/// Strips and verifies the CRC suffix of one line (a trailing `\r` is
/// tolerated), returning the body.
pub fn unseal(line: &str) -> Option<&str> {
    let line = line.strip_suffix('\r').unwrap_or(line);
    let rest = line.strip_suffix("\"}")?;
    let marker = ",\"crc\":\"";
    let pos = rest.rfind(marker)?;
    let (body, crc_hex) = rest.split_at(pos);
    let crc_hex = &crc_hex[marker.len()..];
    if crc_hex.len() != 16 {
        return None;
    }
    let want = u64::from_str_radix(crc_hex, 16).ok()?;
    (fnv1a64(body.as_bytes()) == want).then_some(body)
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`json_escape`]; `None` on a malformed escape.
pub fn json_unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let mut code = 0u32;
                for _ in 0..4 {
                    code = code * 16 + chars.next()?.to_digit(16)?;
                }
                out.push(char::from_u32(code)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Strict cursor over a sealed line's body. Every helper returns `None`
/// on any deviation from the exact written format — that strictness is
/// what lets a torn line fail its parse even when the CRC is absent.
#[derive(Debug)]
pub struct Scanner<'a> {
    rest: &'a str,
}

impl<'a> Scanner<'a> {
    /// A cursor at the start of `s`.
    pub fn new(s: &'a str) -> Scanner<'a> {
        Scanner { rest: s }
    }

    /// Consumes the literal `lit`.
    pub fn lit(&mut self, lit: &str) -> Option<()> {
        self.rest = self.rest.strip_prefix(lit)?;
        Some(())
    }

    /// Consumes `lit` if it comes next, reporting whether it did.
    pub fn try_lit(&mut self, lit: &str) -> bool {
        self.lit(lit).is_some()
    }

    /// Whether the whole input has been consumed.
    pub fn at_end(&self) -> bool {
        self.rest.is_empty()
    }

    /// Consumes exactly 16 hex digits.
    pub fn hex16(&mut self) -> Option<String> {
        let hex = self.rest.get(..16)?;
        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        self.rest = &self.rest[16..];
        Some(hex.to_string())
    }

    /// Consumes a run of decimal digits.
    pub fn number(&mut self) -> Option<u64> {
        let end = self
            .rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(self.rest.len());
        if end == 0 {
            return None;
        }
        let (digits, rest) = self.rest.split_at(end);
        self.rest = rest;
        digits.parse().ok()
    }

    /// Reads an escaped JSON string body up to (not including) its
    /// closing quote, unescaped, leaving the cursor on the quote.
    pub fn string_body(&mut self) -> Option<String> {
        let bytes = self.rest.as_bytes();
        let mut i = 0;
        while *bytes.get(i)? != b'"' {
            i += if bytes[i] == b'\\' { 2 } else { 1 };
        }
        let (raw, rest) = self.rest.split_at(i);
        self.rest = rest;
        json_unescape(raw)
    }
}

/// Reads a sealed artifact into memory. Bytes that are not UTF-8 — a
/// write torn inside a multi-byte character — become U+FFFD, fail their
/// line's CRC, and so fall under [`replay`]'s policy instead of failing
/// the read. Intact lines are untouched, so [`Replay::good_bytes`] stays
/// a byte offset into the file.
pub fn read(path: &Path) -> std::io::Result<String> {
    let bytes = std::fs::read(path)?;
    Ok(String::from_utf8(bytes)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()))
}

/// The first complete (newline-terminated) line of `text`, or `""` when
/// there is none — where every artifact keeps its header.
pub fn first_line(text: &str) -> &str {
    text.split_once('\n').map_or("", |(line, _)| line)
}

/// What [`replay`] recovered from one sealed artifact.
#[derive(Debug)]
pub struct Replay<T> {
    /// The parsed records, in file order.
    pub records: Vec<T>,
    /// Byte length of the intact prefix (header included): a writer
    /// truncates the file to this before appending.
    pub good_bytes: usize,
    /// Torn-tail lines dropped: 0 or 1.
    pub discarded: usize,
}

/// Mid-file damage: a bad line with at least one line after it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Damage {
    /// 1-based line number of the bad line, counting the header as 1.
    pub line: usize,
    /// Lines after it.
    pub after: usize,
}

impl fmt::Display for Damage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "corrupt record at line {} with {} line(s) after it",
            self.line, self.after
        )
    }
}

impl std::error::Error for Damage {}

impl From<Damage> for std::io::Error {
    fn from(d: Damage) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, d)
    }
}

/// Replays the record lines of a sealed artifact through `parse`,
/// applying the one recovery policy (see the module docs). `header` says
/// whether line 1 is a header the caller has already checked; it is
/// counted in the intact prefix and line numbers but not parsed.
///
/// # Errors
///
/// [`Damage`] when a bad line has any line after it.
pub fn replay<T>(
    text: &str,
    header: bool,
    mut parse: impl FnMut(&str) -> Option<T>,
) -> Result<Replay<T>, Damage> {
    let mut out = Replay {
        records: Vec::new(),
        good_bytes: 0,
        discarded: 0,
    };
    let mut lines = text.split_inclusive('\n').enumerate().peekable();
    if header {
        out.good_bytes = lines.next().map_or(0, |(_, h)| h.len());
    }
    while let Some((i, line)) = lines.next() {
        match line.strip_suffix('\n').and_then(&mut parse) {
            Some(rec) => {
                out.records.push(rec);
                out.good_bytes += line.len();
            }
            None if lines.peek().is_none() => out.discarded = 1,
            None => {
                return Err(Damage {
                    line: i + 1,
                    after: lines.count(),
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(n: u64) -> String {
        seal(&format!("{{\"n\":{n}"))
    }

    fn parse(line: &str) -> Option<u64> {
        let mut sc = Scanner::new(unseal(line)?);
        sc.lit("{\"n\":")?;
        let n = sc.number()?;
        sc.at_end().then_some(n)
    }

    #[test]
    fn replay_applies_one_policy() {
        let header = seal("{\"log\":\"test/v1\"");
        let (a, b) = (record(1), record(2));
        let bad_crc = a.replace("\"n\":1", "\"n\":7");
        let clean = format!("{header}\n{a}\n{b}\n");
        // (name, text, header?, outcome): Ok((records, good_bytes,
        // discarded)) or Err(damaged line number).
        type Case<'a> = (
            &'a str,
            String,
            bool,
            Result<(Vec<u64>, usize, usize), usize>,
        );
        let cases: Vec<Case> = vec![
            ("empty file", String::new(), false, Ok((vec![], 0, 0))),
            (
                "header only",
                format!("{header}\n"),
                true,
                Ok((vec![], header.len() + 1, 0)),
            ),
            (
                "clean file",
                clean.clone(),
                true,
                Ok((vec![1, 2], clean.len(), 0)),
            ),
            (
                "last line without newline",
                format!("{header}\n{a}\n{b}"),
                true,
                Ok((vec![1], header.len() + a.len() + 2, 1)),
            ),
            (
                "complete last line with a bad CRC",
                format!("{header}\n{a}\n{bad_crc}\n"),
                true,
                Ok((vec![1], header.len() + a.len() + 2, 1)),
            ),
            (
                "bad line mid-file",
                format!("{header}\n{bad_crc}\n{b}\n"),
                true,
                Err(2),
            ),
            (
                "headerless file, bad first line mid-file",
                format!("{bad_crc}\n{a}\n{b}\n"),
                false,
                Err(1),
            ),
            (
                "CRLF line endings",
                format!("{header}\r\n{a}\r\n{b}\r\n"),
                true,
                Ok((vec![1, 2], clean.len() + 3, 0)),
            ),
        ];
        for (name, text, has_header, want) in cases {
            let got = replay(&text, has_header, parse)
                .map(|r| (r.records, r.good_bytes, r.discarded))
                .map_err(|d| d.line);
            assert_eq!(got, want, "{name}");
        }
        let damage = replay(&format!("{header}\n{bad_crc}\n{a}\n{b}\n"), true, parse);
        assert_eq!(damage.unwrap_err(), Damage { line: 2, after: 2 });
    }

    #[test]
    fn a_tear_inside_a_character_is_a_torn_tail() {
        let path = std::env::temp_dir().join(format!("alive-sealed-{}.jsonl", std::process::id()));
        let intact = format!("{}\n", record(1));
        let mut bytes = intact.clone().into_bytes();
        // Half of a sealed line whose first non-ASCII character was cut
        // after its first byte.
        bytes.extend_from_slice(&"{\"n\":\"é".as_bytes()[..7]);
        std::fs::write(&path, &bytes).unwrap();
        let text = read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let got = replay(&text, false, parse).unwrap();
        assert_eq!(
            (got.records, got.good_bytes, got.discarded),
            (vec![1], intact.len(), 1)
        );
    }

    #[test]
    fn seal_round_trips_and_catches_corruption() {
        let line = record(42);
        assert_eq!(unseal(&line), Some("{\"n\":42"));
        for cut in 1..line.len() {
            assert_eq!(unseal(&line[..cut]), None, "truncation at {cut}");
        }
        assert_eq!(unseal(&line.replace("42", "43")), None);
    }

    #[test]
    fn escape_round_trips_through_the_scanner() {
        for s in ["", "plain", "q\"b\\n\nt\tc\u{1}é\r\u{1f}"] {
            let quoted = format!("{}\"", json_escape(s));
            let mut sc = Scanner::new(&quoted);
            assert_eq!(sc.string_body().as_deref(), Some(s));
            assert!(sc.try_lit("\"") && sc.at_end());
            assert_eq!(json_unescape(&json_escape(s)).as_deref(), Some(s));
        }
        // Unterminated strings and malformed escapes are refused.
        for bad in ["abc", "a\\", "\\x\"", "\\u12\"", "\\u12g4\""] {
            assert_eq!(Scanner::new(bad).string_body(), None, "{bad}");
        }
    }
}
