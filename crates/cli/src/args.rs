//! A minimal, dependency-free argument parser for the CLI.

use std::fmt;

/// A parsed command line: positionals plus `--key value` / `--flag` options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    positionals: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

/// Errors from argument parsing and typed access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// An option that requires a value was given none.
    MissingValue(String),
    /// An option value failed to parse.
    BadValue {
        /// The option name.
        option: String,
        /// The offending value.
        value: String,
    },
    /// An option was passed that the command does not accept.
    UnknownOption(String),
    /// A required positional argument is missing.
    MissingPositional(&'static str),
    /// A positional argument the command has no use for.
    UnexpectedArgument(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(o) => write!(f, "option --{o} requires a value"),
            ArgError::BadValue { option, value } => {
                write!(f, "invalid value {value:?} for --{option}")
            }
            ArgError::UnknownOption(o) => write!(f, "unknown option --{o}"),
            ArgError::MissingPositional(name) => write!(f, "missing <{name}> argument"),
            ArgError::UnexpectedArgument(a) => write!(f, "unexpected argument {a:?}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// The boolean flags. Every other option takes a value, so an option
/// missing from this list fails loudly (it consumes the next argument or
/// reports [`ArgError::MissingValue`]) instead of silently dropping its value.
const FLAGS: &[&str] = &["no-suppress", "private-l1", "no-shrink", "self", "keyed"];

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::MissingValue`] when an option that is not a
    /// boolean flag ends the argument list.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if let Some((k, v)) = name.split_once('=') {
                    args.options.push((k.to_owned(), Some(v.to_owned())));
                } else if FLAGS.contains(&name) {
                    args.options.push((name.to_owned(), None));
                } else {
                    let value = iter
                        .next()
                        .ok_or_else(|| ArgError::MissingValue(name.to_owned()))?;
                    args.options.push((name.to_owned(), Some(value)));
                }
            } else {
                args.positionals.push(arg);
            }
        }
        Ok(args)
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize, name: &'static str) -> Result<&str, ArgError> {
        self.positionals
            .get(i)
            .map(String::as_str)
            .ok_or(ArgError::MissingPositional(name))
    }

    /// Rejects positional arguments beyond the first `max` (the command
    /// name counts as one).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::UnexpectedArgument`] naming the first surplus one.
    pub fn expect_positionals(&self, max: usize) -> Result<(), ArgError> {
        match self.positionals.get(max) {
            None => Ok(()),
            Some(surplus) => Err(ArgError::UnexpectedArgument(surplus.clone())),
        }
    }

    /// Whether a boolean flag is present.
    pub fn flag(&self, name: &str) -> bool {
        self.options.iter().any(|(k, _)| k == name)
    }

    /// A string option, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// A parsed option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] if the value does not parse as `T`.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                option: name.to_owned(),
                value: v.to_owned(),
            }),
        }
    }

    /// Rejects any option not in `allowed`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::UnknownOption`] for the first unexpected option.
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for (k, _) in &self.options {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgError::UnknownOption(k.clone()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn positionals_and_flags() {
        let a = parse(&["run", "mcf", "--no-suppress"]);
        assert_eq!(a.positional(0, "cmd").unwrap(), "run");
        assert_eq!(a.positional(1, "workload").unwrap(), "mcf");
        assert!(a.flag("no-suppress"));
        assert!(!a.flag("verbose"));
        assert!(a.expect_positionals(2).is_ok());
    }

    #[test]
    fn valued_options_both_syntaxes() {
        let a = parse(&["--scale", "train", "--workers=3"]);
        assert_eq!(a.get("scale"), Some("train"));
        assert_eq!(a.get_parsed("workers", 0usize).unwrap(), 3);
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&[]);
        assert_eq!(a.get_parsed("contexts", 2usize).unwrap(), 2);
        assert!(a.positional(0, "cmd").is_err());
    }

    #[test]
    fn missing_value_detected() {
        let err = Args::parse(vec!["--scale".to_string()]).unwrap_err();
        assert_eq!(err, ArgError::MissingValue("scale".into()));
    }

    #[test]
    fn only_listed_flags_go_without_a_value() {
        for flag in FLAGS {
            let a = parse(&[&format!("--{flag}"), "next"]);
            assert!(a.flag(flag));
            assert_eq!(a.positional(0, "next").unwrap(), "next");
        }
        // Anything else takes the next argument, or says that it needs one.
        let a = parse(&["--event-workers", "4", "--key-space", "64"]);
        assert_eq!(a.get("event-workers"), Some("4"));
        assert_eq!(a.get("key-space"), Some("64"));
        assert!(a.expect_positionals(0).is_ok());
        let err = Args::parse(vec!["--unlisted".to_string()]).unwrap_err();
        assert_eq!(err, ArgError::MissingValue("unlisted".into()));
    }

    #[test]
    fn surplus_positionals_detected() {
        let a = parse(&["serve", "4"]);
        assert!(a.expect_positionals(2).is_ok());
        assert_eq!(
            a.expect_positionals(1).unwrap_err(),
            ArgError::UnexpectedArgument("4".into())
        );
    }

    #[test]
    fn bad_value_detected() {
        let a = parse(&["--workers", "many"]);
        assert!(matches!(
            a.get_parsed("workers", 0usize),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn unknown_option_detected() {
        let a = parse(&["--bogus", "1"]);
        assert_eq!(
            a.expect_only(&["scale"]).unwrap_err(),
            ArgError::UnknownOption("bogus".into())
        );
        assert!(a.expect_only(&["bogus"]).is_ok());
    }

    #[test]
    fn last_occurrence_wins() {
        let a = parse(&["--scale", "test", "--scale", "ref"]);
        assert_eq!(a.get("scale"), Some("ref"));
    }

    #[test]
    fn error_display() {
        for e in [
            ArgError::MissingValue("x".into()),
            ArgError::BadValue {
                option: "x".into(),
                value: "y".into(),
            },
            ArgError::UnknownOption("z".into()),
            ArgError::MissingPositional("workload"),
            ArgError::UnexpectedArgument("w".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
