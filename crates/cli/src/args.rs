//! A small, dependency-free argument parser: subcommand + `--flag
//! value` pairs + boolean `--switch`es.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line: the subcommand and its options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// First positional token (the subcommand), if any.
    pub command: Option<String>,
    /// `--key value` options.
    options: BTreeMap<String, String>,
    /// `--switch` flags that take no value.
    switches: Vec<String>,
}

/// Errors from argument parsing and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` appeared where its value was expected.
    MissingValue(String),
    /// A required option is absent.
    Required(String),
    /// A value failed to parse.
    BadValue {
        flag: String,
        value: String,
        expected: &'static str,
    },
    /// Unexpected extra positional argument.
    UnexpectedPositional(String),
    /// Flags the subcommand does not read, in sorted order.
    UnknownFlags { command: String, flags: Vec<String> },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "--{flag} expects a value"),
            ArgError::Required(flag) => write!(f, "--{flag} is required"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(f, "--{flag} got '{value}', expected {expected}")
            }
            ArgError::UnexpectedPositional(tok) => {
                write!(f, "unexpected argument '{tok}'")
            }
            ArgError::UnknownFlags { command, flags } => {
                let list: Vec<String> = flags.iter().map(|f| format!("--{f}")).collect();
                write!(f, "'{command}' does not take {}", list.join(", "))
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Flags that never take a value.
const SWITCHES: &[&str] = &["csv", "help", "op-stats", "quiet"];

impl Args {
    /// Parses tokens (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ArgError> {
        let mut out = Args::default();
        let mut iter = tokens.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(flag) = tok.strip_prefix("--") {
                if SWITCHES.contains(&flag) {
                    out.switches.push(flag.to_string());
                    continue;
                }
                match iter.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let v = iter.next().expect("peeked");
                        out.options.insert(flag.to_string(), v);
                    }
                    _ => return Err(ArgError::MissingValue(flag.to_string())),
                }
            } else if out.command.is_none() {
                out.command = Some(tok);
            } else {
                return Err(ArgError::UnexpectedPositional(tok));
            }
        }
        Ok(out)
    }

    /// Checks that every option and switch given is one `command`
    /// reads, so a misspelt or retired flag is an error rather than
    /// silently ignored. Subcommands call this before doing any work.
    pub fn expect_only(
        &self,
        command: &str,
        options: &[&str],
        switches: &[&str],
    ) -> Result<(), ArgError> {
        let mut flags: Vec<String> = self
            .options
            .keys()
            .filter(|k| !options.contains(&k.as_str()))
            .chain(
                self.switches
                    .iter()
                    .filter(|s| !switches.contains(&s.as_str())),
            )
            .cloned()
            .collect();
        if flags.is_empty() {
            return Ok(());
        }
        flags.sort();
        flags.dedup();
        Err(ArgError::UnknownFlags {
            command: command.to_string(),
            flags,
        })
    }

    /// Whether a boolean switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// An optional string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A required string option.
    pub fn require(&self, name: &str) -> Result<&str, ArgError> {
        self.get(name)
            .ok_or_else(|| ArgError::Required(name.into()))
    }

    /// An optional parsed option with a default.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse::<T>().map_err(|_| ArgError::BadValue {
                flag: name.into(),
                value: v.into(),
                expected,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_subcommand_options_and_switches() {
        let a = Args::parse(toks("train --steps 200 --out m.json --quiet")).unwrap();
        assert_eq!(a.command.as_deref(), Some("train"));
        assert_eq!(a.get("steps"), Some("200"));
        assert_eq!(a.get("out"), Some("m.json"));
        assert!(a.switch("quiet"));
        assert!(!a.switch("csv"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(
            Args::parse(toks("train --steps --out m.json")).unwrap_err(),
            ArgError::MissingValue("steps".into())
        );
        assert_eq!(
            Args::parse(toks("train --steps")).unwrap_err(),
            ArgError::MissingValue("steps".into())
        );
    }

    #[test]
    fn extra_positional_is_an_error() {
        assert!(matches!(
            Args::parse(toks("train extra")).unwrap_err(),
            ArgError::UnexpectedPositional(_)
        ));
    }

    #[test]
    fn flags_a_command_does_not_read_are_named() {
        let a = Args::parse(toks("train --stepz 7 --shardz 4 --steps 3 --quiet --csv")).unwrap();
        let err = a.expect_only("train", &["steps"], &["quiet"]).unwrap_err();
        assert_eq!(
            err,
            ArgError::UnknownFlags {
                command: "train".into(),
                flags: vec!["csv".into(), "shardz".into(), "stepz".into()],
            }
        );
        assert_eq!(
            err.to_string(),
            "'train' does not take --csv, --shardz, --stepz"
        );
        a.expect_only("train", &["steps", "stepz", "shardz"], &["quiet", "csv"])
            .unwrap();
    }

    #[test]
    fn typed_access() {
        let a = Args::parse(toks("x --steps 12 --lr 0.01")).unwrap();
        assert_eq!(a.get_parsed("steps", 0usize, "integer").unwrap(), 12);
        assert_eq!(a.get_parsed("lr", 0.0f32, "float").unwrap(), 0.01);
        assert_eq!(a.get_parsed("missing", 7usize, "integer").unwrap(), 7);
        assert!(a.get_parsed::<usize>("lr", 0, "integer").is_err());
        assert!(a.require("nope").is_err());
    }
}
