//! Minimal `--flag value` command-line parsing for the experiment
//! binaries (kept dependency-free on purpose).

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Parsed command-line flags. Every experiment accepts `--scale`,
/// `--seed`, `--pairs`, `--sample-every`, `--out` (and some add their
/// own). The parser records every name a binary reads; once it has read
/// its flags, the binary calls [`Args::finish`], which exits 2 naming
/// each flag that was given but never read.
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    read: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Parses `std::env::args()`, expecting alternating `--key value`
    /// pairs. Panics with a usage message on malformed input.
    pub fn parse_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit iterator (used by tests).
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut values = HashMap::new();
        let mut args = args.peekable();
        while let Some(key) = args.next() {
            let Some(name) = key.strip_prefix("--") else {
                panic!("expected --flag, got {key:?}");
            };
            let value = args
                .next()
                .unwrap_or_else(|| panic!("flag --{name} needs a value"));
            values.insert(name.to_string(), value);
        }
        Args {
            values,
            read: RefCell::default(),
        }
    }

    /// The raw value of a flag, recording that the binary reads it.
    fn read_flag(&self, name: &str) -> Option<&String> {
        self.read.borrow_mut().insert(name.to_string());
        self.values.get(name)
    }

    /// A float flag with a default.
    pub fn f64(&self, name: &str, default: f64) -> f64 {
        self.read_flag(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name} expects a number"))
            })
            .unwrap_or(default)
    }

    /// An integer flag with a default.
    pub fn usize(&self, name: &str, default: usize) -> usize {
        self.read_flag(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name} expects an integer"))
            })
            .unwrap_or(default)
    }

    /// A u64 flag with a default.
    pub fn u64(&self, name: &str, default: u64) -> u64 {
        self.read_flag(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name} expects an integer"))
            })
            .unwrap_or(default)
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

    /// Call once, after reading every flag and before any work: exits 2
    /// naming each flag that was given but never read, so a misspelt or
    /// removed flag cannot be ignored silently.
    pub fn finish(&self) {
        let unread = self.unread();
        if !unread.is_empty() {
            let names: Vec<String> = unread.iter().map(|n| format!("--{n}")).collect();
            eprintln!("unknown flag(s): {}", names.join(", "));
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
    #[should_panic(expected = "needs a value")]
    fn missing_value_panics() {
        Args::parse(["--scale"].iter().map(|s| s.to_string()));
    }

    #[test]
    #[should_panic(expected = "expected --flag")]
    fn positional_panics() {
        Args::parse(["bare"].iter().map(|s| s.to_string()));
    }
}
