//! Tiny shared CLI parser for the bench binaries and the `fl-serve`
//! daemon: value flags (`--ckpt DIR`), switch flags (`--write-baseline`),
//! and positional arguments, with typed accessors.
//!
//! Every binary used to hand-roll the same `while let Some(a) =
//! args.next()` loop; this module is that loop, extracted once. It is
//! deliberately std-only and free of `crate::` paths so `fl-serve` can
//! include the same source file via `#[path]` without depending on
//! fl-bench (which depends on fl-serve — the other direction would be a
//! cycle).
//!
//! Unrecognized `--flags` fall through to positionals, matching the
//! historical behavior of the bench binaries.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Parsed command line: positionals in order, flag values by flag name.
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    positional: Vec<String>,
    values: BTreeMap<String, String>,
    switches: BTreeSet<String>,
}

impl ParsedArgs {
    /// Parses the process arguments. `value_flags` each consume the next
    /// argument; `switch_flags` are booleans.
    ///
    /// Panics with a usage message when a value flag is last on the line —
    /// same contract as the `expect` calls it replaces.
    pub fn parse(value_flags: &[&str], switch_flags: &[&str]) -> Self {
        Self::parse_from(std::env::args().skip(1), value_flags, switch_flags)
    }

    /// [`ParsedArgs::parse`] over an explicit argument iterator (tests).
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        value_flags: &[&str],
        switch_flags: &[&str],
    ) -> Self {
        let mut parsed = ParsedArgs::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if value_flags.contains(&arg.as_str()) {
                let value = args.next().unwrap_or_else(|| panic!("{arg} needs a value"));
                parsed.values.insert(arg, value);
            } else if switch_flags.contains(&arg.as_str()) {
                parsed.switches.insert(arg);
            } else {
                parsed.positional.push(arg);
            }
        }
        parsed
    }

    /// The `i`-th positional argument.
    #[cfg(test)]
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// The `i`-th positional parsed as `T`, or `default` when absent or
    /// unparseable (the historical `and_then(parse.ok()).unwrap_or(..)`).
    pub fn positional_or<T: std::str::FromStr>(&self, i: usize, default: T) -> T {
        self.positional
            .get(i)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    }

    /// A value flag's raw value.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// A value flag as a path (`--ckpt DIR`, `--obs DIR`).
    pub fn path(&self, flag: &str) -> Option<PathBuf> {
        self.values.get(flag).map(PathBuf::from)
    }

    /// A value flag parsed as `T`; panics with a usage message when the
    /// value does not parse.
    pub fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.values.get(flag).map(|s| match s.parse() {
            Ok(v) => v,
            Err(_) => panic!("{flag} got unparseable value {s:?}"),
        })
    }

    /// A value flag parsed as a fraction strictly inside `(0, 1)`
    /// (`--kill-after FRAC`); panics otherwise.
    pub fn fraction_01(&self, flag: &str) -> Option<f64> {
        self.parsed::<f64>(flag).inspect(|&frac| {
            assert!(
                frac > 0.0 && frac < 1.0,
                "{flag} must be in (0, 1), got {frac}"
            );
        })
    }

    /// Whether a switch flag was present.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.contains(flag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn splits_values_switches_and_positionals() {
        let parsed = ParsedArgs::parse_from(
            strs(&[
                "5",
                "--ckpt",
                "/tmp/x",
                "800",
                "--write-baseline",
                "--weird",
            ]),
            &["--ckpt"],
            &["--write-baseline"],
        );
        assert_eq!(parsed.positional_or(0, 0usize), 5);
        assert_eq!(parsed.positional_or(1, 0usize), 800);
        // Unknown flags fall through to positionals, as before.
        assert_eq!(parsed.positional(2), Some("--weird"));
        assert_eq!(parsed.path("--ckpt").unwrap(), PathBuf::from("/tmp/x"));
        assert!(parsed.has("--write-baseline"));
        assert!(!parsed.has("--other"));
        assert!(parsed.value("--obs").is_none());
    }

    #[test]
    fn typed_accessors() {
        let parsed = ParsedArgs::parse_from(
            strs(&["--kill-after", "0.25", "--linger-us", "300"]),
            &["--kill-after", "--linger-us"],
            &[],
        );
        assert_eq!(parsed.fraction_01("--kill-after"), Some(0.25));
        assert_eq!(parsed.parsed::<u64>("--linger-us"), Some(300));
        assert_eq!(parsed.positional_or(0, 7usize), 7);
    }

    #[test]
    #[should_panic(expected = "--kill-after must be in (0, 1)")]
    fn fraction_bounds_enforced() {
        let parsed = ParsedArgs::parse_from(strs(&["--kill-after", "1.5"]), &["--kill-after"], &[]);
        let _ = parsed.fraction_01("--kill-after");
    }

    #[test]
    #[should_panic(expected = "--ckpt needs a value")]
    fn trailing_value_flag_panics() {
        let _ = ParsedArgs::parse_from(strs(&["--ckpt"]), &["--ckpt"], &[]);
    }
}
