//! Output checks against digests committed with the benchmark.
//!
//! Every run hashes what the program produced — full `CampaignResult`
//! JSON, faultload JSON, accuracy reports, journal bytes — with the
//! repository's own stable FNV-1a and compares each hash with the digest
//! recorded in `digests.txt` for the default inputs. A mismatch fails the
//! run: the program no longer computes what it computed when the digests
//! were recorded.

use std::collections::BTreeMap;

/// The committed digests, one `name hex` pair per line.
const DIGESTS: &str = include_str!("../digests.txt");

/// Stable content hash of a byte string (the repository's FNV-1a).
pub fn digest(bytes: &[u8]) -> u64 {
    simkit::hash::fnv1a(bytes)
}

/// Parses `name hex` lines; `#` starts a comment.
///
/// # Panics
///
/// Panics on a malformed line — the file is part of the benchmark.
pub fn parse_digests(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| {
            let (name, hex) = l.split_once(' ').expect("digest line is `name hex`");
            let value = u64::from_str_radix(hex.trim(), 16).expect("digest is hex");
            (name.to_string(), value)
        })
        .collect()
}

/// Collects named output checks for one run.
pub struct Checker {
    expected: BTreeMap<String, u64>,
    failures: Vec<String>,
    /// Every digest computed, for re-recording after a deliberate change.
    seen: BTreeMap<String, u64>,
}

impl Default for Checker {
    fn default() -> Self {
        Checker::with_expected(parse_digests(DIGESTS))
    }
}

impl Checker {
    /// A checker comparing against `expected` instead of the committed
    /// digests.
    pub fn with_expected(expected: BTreeMap<String, u64>) -> Checker {
        Checker {
            expected,
            failures: Vec::new(),
            seen: BTreeMap::new(),
        }
    }

    /// Compares the hash of `bytes` with the digest committed as `name`.
    /// Returns whether it matched.
    pub fn digest(&mut self, name: &str, bytes: &[u8]) -> bool {
        let got = digest(bytes);
        self.seen.insert(name.to_string(), got);
        match self.expected.get(name) {
            Some(&want) if want == got => true,
            Some(&want) => self.fail(format!("{name}: digest {got:016x}, expected {want:016x}")),
            None => self.fail(format!("{name}: digest {got:016x}, none committed")),
        }
    }

    /// Records an invariant; returns `ok`.
    pub fn ensure(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.fail(what());
        }
        ok
    }

    fn fail(&mut self, message: String) -> bool {
        self.failures.push(message);
        false
    }

    /// Failed checks so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Every digest computed so far, as `name hex` lines (the format of
    /// `digests.txt`).
    pub fn seen(&self) -> String {
        self.seen
            .iter()
            .map(|(name, d)| format!("{name} {d:016x}\n"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_digests_parse() {
        let d = parse_digests(DIGESTS);
        assert!(d.contains_key("table5-w2k.campaign"), "{d:?}");
        assert!(d.contains_key("churn-xp.journal"), "{d:?}");
        assert!(d.contains_key("faultload-gen.nimbus-xp.accuracy"), "{d:?}");
    }

    #[test]
    fn matching_digest_passes() {
        let expected = parse_digests(&format!("out {:x}\n", digest(b"result")));
        let mut c = Checker::with_expected(expected);
        assert!(c.digest("out", b"result"));
        assert!(c.failures().is_empty());
    }

    #[test]
    fn wrong_expected_digest_fails_the_check() {
        // A deliberately wrong committed digest must be caught, or the
        // check could never fail.
        let expected = parse_digests(&format!("out {:x}\n", digest(b"result") ^ 1));
        let mut c = Checker::with_expected(expected);
        assert!(!c.digest("out", b"result"));
        assert!(!c.digest("missing", b"result"));
        assert_eq!(c.failures().len(), 2, "{:?}", c.failures());
    }
}
