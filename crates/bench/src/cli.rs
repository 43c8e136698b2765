//! Minimal `--flag value` command-line parsing for the experiment
//! binaries (kept dependency-free on purpose).

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Parsed command-line flags. Every experiment accepts `--scale`,
/// `--seed`, `--pairs`, `--sample-every`, `--out` (and some add their
/// own). The parser records every name a binary reads, and every
/// malformed input it meets: a bare word, a flag without a value, a
/// value a typed reader cannot parse (which then reads as the default).
/// Once it has read its flags, the binary calls [`Args::finish`], which
/// exits 2 naming each malformed input and each flag that was given but
/// never read.
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    read: RefCell<BTreeSet<String>>,
    malformed: RefCell<Vec<String>>,
}

impl Args {
    /// Parses `std::env::args()`, expecting alternating `--key value`
    /// pairs.
    pub fn parse_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit iterator (used by tests).
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut values = HashMap::new();
        let mut malformed = Vec::new();
        let mut args = args.peekable();
        while let Some(key) = args.next() {
            let Some(name) = key.strip_prefix("--") else {
                malformed.push(format!("expected --flag, got {key:?}"));
                continue;
            };
            match args.next() {
                Some(value) => {
                    values.insert(name.to_string(), value);
                }
                None => malformed.push(format!("flag --{name} needs a value")),
            }
        }
        Args {
            values,
            read: RefCell::default(),
            malformed: RefCell::new(malformed),
        }
    }

    /// The raw value of a flag, recording that the binary reads it.
    fn read_flag(&self, name: &str) -> Option<&String> {
        self.read.borrow_mut().insert(name.to_string());
        self.values.get(name)
    }

    /// A typed flag with a default; a value that does not parse is
    /// recorded as malformed (naming the flag) and reads as the default.
    fn typed<T: std::str::FromStr>(&self, name: &str, default: T, what: &str) -> T {
        let Some(v) = self.read_flag(name) else {
            return default;
        };
        v.parse().unwrap_or_else(|_| {
            let msg = format!("--{name} expects {what}, got {v:?}");
            let mut malformed = self.malformed.borrow_mut();
            if !malformed.contains(&msg) {
                malformed.push(msg);
            }
            default
        })
    }

    /// A float flag with a default.
    pub fn f64(&self, name: &str, default: f64) -> f64 {
        self.typed(name, default, "a number")
    }

    /// An integer flag with a default.
    pub fn usize(&self, name: &str, default: usize) -> usize {
        self.typed(name, default, "an integer")
    }

    /// A u64 flag with a default.
    pub fn u64(&self, name: &str, default: u64) -> u64 {
        self.typed(name, default, "an integer")
    }

    /// A string flag.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.read_flag(name).map(|s| s.as_str())
    }

    /// The flags that were given but not read so far, sorted.
    fn unread(&self) -> Vec<&str> {
        let read = self.read.borrow();
        let mut out: Vec<&str> = self
            .values
            .keys()
            .filter(|k| !read.contains(*k))
            .map(String::as_str)
            .collect();
        out.sort_unstable();
        out
    }

    /// Every problem with the command line, one message each: the
    /// malformed inputs in the order met, then the unknown flags.
    fn problems(&self) -> Vec<String> {
        let mut out = self.malformed.borrow().clone();
        let unread = self.unread();
        if !unread.is_empty() {
            let names: Vec<String> = unread.iter().map(|n| format!("--{n}")).collect();
            out.push(format!("unknown flag(s): {}", names.join(", ")));
        }
        out
    }

    /// Call once, after reading every flag and before any work: exits 2
    /// naming each malformed input and each flag that was given but
    /// never read, so a typo, a missing value or a misspelt or removed
    /// flag cannot be ignored silently.
    pub fn finish(&self) {
        let problems = self.problems();
        if !problems.is_empty() {
            for p in &problems {
                eprintln!("{p}");
            }
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_pairs() {
        let a = parse(&["--scale", "0.5", "--seed", "7", "--out", "x.csv"]);
        assert_eq!(a.f64("scale", 1.0), 0.5);
        assert_eq!(a.u64("seed", 0), 7);
        assert_eq!(a.str("out"), Some("x.csv"));
        assert_eq!(a.usize("pairs", 100), 100);
    }

    #[test]
    fn stray_flags_are_unread() {
        let a = parse(&["--scale", "0.5", "--mem-outt", "x", "--seed", "7"]);
        assert_eq!(a.unread(), vec!["mem-outt", "scale", "seed"]);
        a.f64("scale", 1.0);
        a.u64("seed", 0);
        // A flag the binary asks for but was not given is not "unread".
        a.str("out");
        assert_eq!(a.unread(), vec!["mem-outt"]);
    }

    #[test]
    fn a_fully_read_set_has_nothing_unread() {
        let a = parse(&["--scale", "0.5", "--out", "x.csv"]);
        a.f64("scale", 1.0);
        a.str("out");
        a.usize("pairs", 100);
        assert!(a.unread().is_empty());
    }

    #[test]
    fn a_missing_value_is_reported() {
        let a = parse(&["--seed", "7", "--scale"]);
        assert_eq!(a.u64("seed", 0), 7);
        assert_eq!(a.problems(), vec!["flag --scale needs a value"]);
    }

    #[test]
    fn a_bare_word_is_reported() {
        let a = parse(&["bare", "--seed", "7"]);
        assert_eq!(a.u64("seed", 0), 7);
        assert_eq!(a.problems(), vec!["expected --flag, got \"bare\""]);
    }

    #[test]
    fn f64_reports_a_malformed_number() {
        let a = parse(&["--scale", "abc"]);
        assert_eq!(a.f64("scale", 0.5), 0.5, "reads as the default");
        assert_eq!(a.f64("scale", 0.5), 0.5);
        assert_eq!(
            a.problems(),
            vec!["--scale expects a number, got \"abc\""],
            "reported once, and not as unknown"
        );
    }

    #[test]
    fn usize_reports_a_malformed_integer() {
        let a = parse(&["--pairs", "-3"]);
        assert_eq!(a.usize("pairs", 100), 100);
        assert_eq!(a.problems(), vec!["--pairs expects an integer, got \"-3\""]);
    }

    #[test]
    fn u64_reports_a_malformed_integer() {
        let a = parse(&["--seed", "0x2a", "--stray", "x"]);
        assert_eq!(a.u64("seed", 42), 42);
        assert_eq!(
            a.problems(),
            vec![
                "--seed expects an integer, got \"0x2a\"",
                "unknown flag(s): --stray"
            ]
        );
    }
}
