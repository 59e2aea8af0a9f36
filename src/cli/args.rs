//! One strict argument parser for every subcommand.
//!
//! Each command declares its positionals, its value flags (`--name
//! value`) and its switches (`--name`). Flags may appear anywhere;
//! flag values never count as positionals. Unknown flags, value flags
//! without a value, repeated flags, missing and surplus positionals
//! are all errors — a typo must never silently change what an audit
//! seals.

use super::CliResult;
use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

/// A command's parsed arguments.
#[derive(Debug)]
pub struct Args {
    positionals: Vec<String>,
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses `raw` for a command taking the space-separated
    /// `positionals` (names, for errors), value flags `values` and bare
    /// `switches`.
    pub fn parse(
        raw: &[String],
        positionals: &str,
        values: &str,
        switches: &str,
    ) -> Result<Args, String> {
        let mut args = Args {
            positionals: Vec::new(),
            values: HashMap::new(),
            switches: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                args.positionals.push(arg.clone());
            } else if args.has(arg) {
                return Err(format!("{arg} given twice"));
            } else if values.split_whitespace().any(|v| v == arg) {
                let value = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{arg} needs a value"))?;
                args.values.insert(arg.clone(), value.clone());
            } else if switches.split_whitespace().any(|s| s == arg) {
                args.switches.push(arg.clone());
            } else {
                return Err(format!("unknown flag {arg}"));
            }
        }
        let names: Vec<&str> = positionals.split_whitespace().collect();
        if let Some(missing) = names.get(args.positionals.len()) {
            return Err(format!("missing {missing}"));
        }
        if let Some(extra) = args.positionals.get(names.len()) {
            return Err(format!("unexpected argument {extra:?}"));
        }
        Ok(args)
    }

    /// Positional `i` (present: `parse` checked the count).
    pub fn pos(&self, i: usize) -> &str {
        &self.positionals[i]
    }

    /// Whether flag `name` (value flag or switch) was given.
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name) || self.switches.iter().any(|s| s == name)
    }

    /// The raw value of `name`, if given.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The value of `name` parsed by `parse`, if given.
    pub fn opt_with<T, E: Display>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Option<T>, String> {
        match self.str(name) {
            None => Ok(None),
            Some(v) => parse(v).map(Some).map_err(|e| format!("bad {name}: {e}")),
        }
    }

    /// The value of `name` parsed as `T`, if given.
    pub fn opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.opt_with(name, str::parse)
    }

    /// The value of `name` parsed as `T`, or `default` when absent.
    pub fn get<T: FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// The value of `name` parsed as `T`; absent is an error.
    pub fn need<T: FromStr>(&self, name: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.opt(name)?.ok_or_else(|| format!("{name} required"))
    }

    /// Errors on the first of `flags` that was given: the chosen mode
    /// does not read it, so accepting it would silently drop it.
    pub fn forbid(&self, flags: &str, why: &str) -> CliResult {
        match flags.split_whitespace().find(|f| self.has(f)) {
            Some(flag) => Err(format!("{flag} {why}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[&str]) -> Result<Args, String> {
        let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        Args::parse(&raw, "<a> <b>", "--k --ledger", "--dynamic")
    }

    #[test]
    fn flags_may_come_anywhere_and_their_values_are_not_positionals() {
        let args = parse(&["--k", "5", "A", "--dynamic", "B", "--ledger", "-"]).unwrap();
        assert_eq!((args.pos(0), args.pos(1)), ("A", "B"));
        assert_eq!(args.get("--k", 20u32), Ok(5));
        assert_eq!(args.str("--ledger"), Some("-"));
        assert!(args.has("--dynamic") && args.has("--k"));
    }

    #[test]
    fn absent_flags_take_their_default() {
        let args = parse(&["A", "B"]).unwrap();
        assert_eq!(args.get("--k", 20u32), Ok(20));
        assert_eq!(args.opt::<u32>("--k"), Ok(None));
        assert_eq!(args.need::<u32>("--k"), Err("--k required".into()));
        assert!(!args.has("--dynamic"));
    }

    #[test]
    fn a_malformed_value_is_named_in_the_error() {
        let args = parse(&["A", "B", "--k", "x"]).unwrap();
        let err = args.get("--k", 20u32).unwrap_err();
        assert!(err.starts_with("bad --k: "), "{err}");
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = parse(&["A", "B", "--budget_ms", "0"]).unwrap_err();
        assert_eq!(err, "unknown flag --budget_ms");
    }

    #[test]
    fn a_value_flag_needs_a_value() {
        assert_eq!(
            parse(&["A", "B", "--ledger"]).unwrap_err(),
            "--ledger needs a value"
        );
        assert_eq!(
            parse(&["A", "B", "--ledger", "--dynamic"]).unwrap_err(),
            "--ledger needs a value"
        );
    }

    #[test]
    fn repeated_flags_are_rejected() {
        assert_eq!(
            parse(&["A", "B", "--k", "1", "--k", "2"]).unwrap_err(),
            "--k given twice"
        );
        assert_eq!(
            parse(&["A", "--dynamic", "B", "--dynamic"]).unwrap_err(),
            "--dynamic given twice"
        );
    }

    #[test]
    fn positional_count_is_exact() {
        assert_eq!(parse(&["A", "--k", "1"]).unwrap_err(), "missing <b>");
        assert_eq!(
            parse(&["A", "B", "C"]).unwrap_err(),
            "unexpected argument \"C\""
        );
    }

    #[test]
    fn forbid_reports_the_first_given_flag_by_name() {
        let args = parse(&["A", "B", "--ledger", "x"]).unwrap();
        assert_eq!(args.forbid("--k", "needs --vantages"), Ok(()));
        assert_eq!(
            args.forbid("--k --ledger", "needs --vantages"),
            Err("--ledger needs --vantages".into())
        );
    }
}
