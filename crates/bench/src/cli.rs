//! Strict flag parsing for the `experiments` binary.
//!
//! The earlier ad-hoc parser silently ignored unknown flags and silently
//! fell back to defaults on unparsable values — a run that typos `--scale`
//! into `--scal` must fail loudly, not print the default-scale tables.
//! Every error here is a message suitable for [`usage_error`].

use std::fmt::Display;
use std::str::FromStr;

/// Parsed `--flag value` pairs, validated against an allow-list.
#[derive(Debug, Clone)]
pub struct CliArgs {
    values: Vec<(String, String)>,
}

impl CliArgs {
    /// Parses `argv` (without the program name) as a sequence of
    /// `--flag value` pairs drawn from `allowed`.
    ///
    /// # Errors
    ///
    /// Unknown flags, repeated flags, missing values, and bare positional
    /// arguments are all errors.
    pub fn parse(argv: &[String], allowed: &[&str]) -> Result<CliArgs, String> {
        let mut values: Vec<(String, String)> = Vec::new();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if !allowed.contains(&arg.as_str()) {
                return Err(format!(
                    "unknown argument {arg:?}; valid flags: {}",
                    allowed.join(", ")
                ));
            }
            if values.iter().any(|(k, _)| k == arg) {
                return Err(format!("flag {arg} given more than once"));
            }
            let Some(value) = it.next() else {
                return Err(format!("flag {arg} requires a value"));
            };
            values.push((arg.clone(), value.clone()));
        }
        Ok(CliArgs { values })
    }

    /// The raw value of `name`, if the flag was given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parses the value of `name` as `T`.
    ///
    /// # Errors
    ///
    /// An unparsable value is an error (never a silent default).
    pub fn get_parsed<T>(&self, name: &str) -> Result<Option<T>, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        match self.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|e| format!("invalid value for {name}: {raw:?} ({e})")),
        }
    }

    /// Like [`CliArgs::get_parsed`] with a default for an absent flag.
    ///
    /// # Errors
    ///
    /// An unparsable value is an error (never the default).
    pub fn get_or<T>(&self, name: &str, default: T) -> Result<T, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        Ok(self.get_parsed(name)?.unwrap_or(default))
    }
}

/// Prints a usage error and exits 2, the conventional usage-error code
/// the CLI tests assert on.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_known_flags() {
        let a = CliArgs::parse(
            &argv(&["--events", "100", "--seed", "7"]),
            &["--events", "--seed"],
        )
        .unwrap();
        assert_eq!(a.get_or("--events", 0u64).unwrap(), 100);
        assert_eq!(a.get_parsed::<u64>("--seed").unwrap(), Some(7));
        assert_eq!(a.get_parsed::<u64>("--missing").unwrap(), None);
    }

    #[test]
    fn rejects_unknown_flag() {
        let err = CliArgs::parse(&argv(&["--event", "100"]), &["--events"]).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
        assert!(err.contains("--events"), "lists valid flags: {err}");
    }

    #[test]
    fn rejects_missing_value_and_repeats() {
        let err = CliArgs::parse(&argv(&["--events"]), &["--events"]).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
        let err =
            CliArgs::parse(&argv(&["--events", "1", "--events", "2"]), &["--events"]).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn bad_value_is_an_error_not_a_default() {
        let a = CliArgs::parse(&argv(&["--events", "many"]), &["--events"]).unwrap();
        let err = a.get_or("--events", 123u64).unwrap_err();
        assert!(err.contains("invalid value for --events"), "{err}");
    }
}
