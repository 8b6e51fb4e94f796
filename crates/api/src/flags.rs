//! The workspace's one flag grammar. Every `demt` subcommand reads its
//! arguments through [`Flags::parse`]; only the standalone `demt-lint`,
//! which depends on no workspace crate, keeps its own loop.
//!
//! A command names its `--key value` flags, its bare `--switch`es and
//! whether it takes positional words. An unknown flag, a flag given
//! twice, a flag without its value and a value that does not parse are
//! each a [`FlagError`] naming the flag; `--help`/`-h` comes back as
//! [`FlagError::Help`] so the caller prints its own usage. A flag that
//! the mode chosen by another flag never reads is rejected through
//! [`Flags::unread`].

use std::fmt;
use std::str::FromStr;

/// Why a command line was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlagError {
    /// `--help` or `-h`: the caller prints its usage and exits 0.
    Help,
    /// A flag the command does not read, or a word where none is taken.
    Unknown(String),
    /// A flag given more than once.
    Repeated(String),
    /// A valued flag at the end of the line.
    NoValue(String),
    /// `bad --flag value: why`, built by [`FlagError::bad`].
    Bad(String),
    /// A rule of the command itself, such as two flags that exclude
    /// each other.
    Usage(&'static str),
    /// `--flag is not read <mode>`: the command takes the flag, but not
    /// in the mode another flag chose (say `with --gen-grid`).
    Unread(String, &'static str),
}

impl FlagError {
    /// A [`FlagError::Bad`] for `--flag value`.
    pub fn bad(flag: &str, value: &str, why: impl fmt::Display) -> Self {
        FlagError::Bad(format!("bad --{flag} {value}: {why}"))
    }

    /// Reports the error as every `demt` command does and returns the
    /// exit code: `usage` on stdout and 0 for [`FlagError::Help`],
    /// otherwise one `prog: error` line on stderr and 2.
    pub fn report(&self, prog: &str, usage: &str) -> i32 {
        if *self == FlagError::Help {
            print!("{usage}");
            return 0;
        }
        eprintln!("{prog}: {self} (see {prog} --help)");
        2
    }
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::Help => write!(f, "help requested"),
            FlagError::Unknown(arg) if arg.starts_with('-') => write!(f, "unknown flag {arg}"),
            FlagError::Unknown(arg) => write!(f, "unknown argument {arg}"),
            FlagError::Repeated(flag) => write!(f, "--{flag} given twice"),
            FlagError::NoValue(flag) => write!(f, "--{flag} needs a value"),
            FlagError::Bad(msg) => write!(f, "{msg}"),
            FlagError::Usage(msg) => write!(f, "{msg}"),
            FlagError::Unread(flag, mode) => write!(f, "--{flag} is not read {mode}"),
        }
    }
}

/// A parsed command line: each flag at most once, values still text
/// until an accessor types them.
#[derive(Debug)]
pub struct Flags<'a> {
    /// `(key, value)` in the order given; a switch has no value.
    given: Vec<(&'a str, Option<&'a str>)>,
    positionals: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    /// Parses `args` for a command that reads the `--key value` flags
    /// listed in `valued` and the bare flags in `switches` (keys without
    /// dashes, separated by spaces) and, when `positionals` is set, words
    /// that do not start with `-`. The word after a valued flag is always
    /// its value, so `--gap -1` reaches the accessor as `-1`.
    pub fn parse(
        args: &'a [String],
        valued: &str,
        switches: &str,
        positionals: bool,
    ) -> Result<Self, FlagError> {
        let mut flags = Flags {
            given: Vec::new(),
            positionals: Vec::new(),
        };
        let mut wants_value: Option<&str> = None;
        for arg in args {
            if let Some(key) = wants_value.take() {
                flags.given.push((key, Some(arg)));
                continue;
            }
            if arg == "--help" || arg == "-h" {
                return Err(FlagError::Help);
            }
            let key = match arg.strip_prefix("--") {
                Some(key) => key,
                None if positionals && !arg.starts_with('-') => {
                    flags.positionals.push(arg);
                    continue;
                }
                None => return Err(FlagError::Unknown(arg.clone())),
            };
            let listed = |keys: &str| keys.split_whitespace().any(|k| k == key);
            if !listed(valued) && !listed(switches) {
                return Err(FlagError::Unknown(arg.clone()));
            }
            if flags.given.iter().any(|&(k, _)| k == key) {
                return Err(FlagError::Repeated(key.to_string()));
            }
            if listed(valued) {
                wants_value = Some(key);
            } else {
                flags.given.push((key, None));
            }
        }
        match wants_value {
            Some(key) => Err(FlagError::NoValue(key.to_string())),
            None => Ok(flags),
        }
    }

    /// The text of `--key`, if given.
    pub fn str(&self, key: &str) -> Option<&'a str> {
        self.given
            .iter()
            .find(|&&(k, _)| k == key)
            .and_then(|&(_, v)| v)
    }

    /// Whether the switch `--key` was given.
    pub fn switch(&self, key: &str) -> bool {
        self.given.iter().any(|&(k, v)| k == key && v.is_none())
    }

    /// The positional words, in order.
    pub fn positionals(&self) -> &[&'a str] {
        &self.positionals
    }

    /// `--key` parsed as a number, or `default` when absent.
    pub fn num<T: FromStr>(&self, key: &str, default: T) -> Result<T, FlagError> {
        let Some(v) = self.str(key) else {
            return Ok(default);
        };
        let why = || format!("not a {}", std::any::type_name::<T>());
        v.parse().map_err(|_| FlagError::bad(key, v, why()))
    }

    /// A count (`--workers`, `--procs`, `--jobs`, ...): a number that
    /// must be at least 1.
    pub fn count(&self, key: &str, default: usize) -> Result<usize, FlagError> {
        match self.num(key, default)? {
            0 => Err(FlagError::bad(key, "0", "must be at least 1")),
            n => Ok(n),
        }
    }

    /// Rejects the first given flag among `keys`: the `mode` the
    /// command runs in (say `with --gen-grid`) never reads it.
    pub fn unread(&self, keys: &str, mode: &'static str) -> Result<(), FlagError> {
        let listed = |key: &str| keys.split_whitespace().any(|k| k == key);
        match self.given.iter().find(|&&(k, _)| listed(k)) {
            Some(&(k, _)) => Err(FlagError::Unread(k.to_string(), mode)),
            None => Ok(()),
        }
    }

    /// `--key` looked up by name in `choices`, or `default` when absent.
    pub fn pick<T: Copy>(
        &self,
        key: &str,
        default: T,
        choices: &[(&str, T)],
    ) -> Result<T, FlagError> {
        let Some(v) = self.str(key) else {
            return Ok(default);
        };
        if let Some(&(_, choice)) = choices.iter().find(|&&(name, _)| name == v) {
            return Ok(choice);
        }
        let names: Vec<&str> = choices.iter().map(|&(name, _)| name).collect();
        let why = format!("expected {}", names.join("|"));
        Err(FlagError::bad(key, v, why))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn values_switches_and_positionals() {
        let a = args(&["fig3", "--runs", "4", "--quick", "fig6", "--gap", "-1"]);
        let f = Flags::parse(&a, "runs gap out", "quick paper", true).unwrap();
        assert_eq!(f.positionals(), ["fig3", "fig6"]);
        assert_eq!(f.num("runs", 8usize), Ok(4));
        assert_eq!(f.num("gap", 0.5f64), Ok(-1.0));
        assert_eq!(f.str("out"), None);
        assert_eq!(f.num("out", 7u64), Ok(7));
        assert!(f.switch("quick") && !f.switch("paper") && !f.switch("runs"));
    }

    #[test]
    fn each_rule_is_a_typed_error_naming_the_flag() {
        let parse = |words: &[&str]| {
            let a = args(words);
            Flags::parse(&a, "procs", "once", false).map(|_| ())
        };
        let cases: [(&[&str], &str); 7] = [
            (&["--bogus"], "unknown flag --bogus"),
            (&["-x"], "unknown flag -x"),
            (&["fig3"], "unknown argument fig3"),
            (&["--procs", "4", "--procs", "8"], "--procs given twice"),
            (&["--once", "--once"], "--once given twice"),
            (&["--procs"], "--procs needs a value"),
            (&["--once", "--procs"], "--procs needs a value"),
        ];
        for (words, text) in cases {
            assert_eq!(parse(words).unwrap_err().to_string(), text, "{words:?}");
        }
        let a = args(&["--procs", "x"]);
        let f = Flags::parse(&a, "procs", "", false).unwrap();
        assert_eq!(
            f.num("procs", 1usize).unwrap_err().to_string(),
            "bad --procs x: not a usize"
        );
    }

    #[test]
    fn help_is_reported_back_wherever_it_stands() {
        for words in [&["--help"][..], &["-h"], &["--procs", "4", "-h"]] {
            let a = args(words);
            let got = Flags::parse(&a, "procs", "", false).unwrap_err();
            assert_eq!(got, FlagError::Help, "{words:?}");
        }
        // An error before the help flag wins, and a value is never help.
        let a = args(&["--bogus", "--help"]);
        let got = Flags::parse(&a, "", "", false).unwrap_err();
        assert_eq!(got, FlagError::Unknown("--bogus".to_string()));
        let a = args(&["--label", "-h"]);
        let f = Flags::parse(&a, "label", "", false).unwrap();
        assert_eq!(f.str("label"), Some("-h"));
    }

    #[test]
    fn counts_and_choices() {
        let a = args(&["--workers", "0", "--engine", "both", "--policy", "lifo"]);
        let f = Flags::parse(&a, "workers engine policy jobs", "", false).unwrap();
        assert_eq!(
            f.count("workers", 1).unwrap_err().to_string(),
            "bad --workers 0: must be at least 1"
        );
        assert_eq!(f.count("jobs", 60), Ok(60));
        assert_eq!(f.unread("jobs", "with --x"), Ok(()));
        assert_eq!(
            f.unread("jobs policy engine", "with --x")
                .unwrap_err()
                .to_string(),
            "--engine is not read with --x"
        );
        let engines = [("queue", 1), ("serve", 2), ("both", 3)];
        assert_eq!(f.pick("engine", 3, &engines), Ok(3));
        assert_eq!(
            f.pick("policy", 0, &[("easy", 0), ("fcfs", 1)])
                .unwrap_err()
                .to_string(),
            "bad --policy lifo: expected easy|fcfs"
        );
    }
}
