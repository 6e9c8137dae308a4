//! The argument cursor every subcommand parses its command line with.
//!
//! A tool walks its arguments with [`Args::next`] and matches each one:
//! a boolean flag sets a field, a flag with a value takes it with
//! [`Args::value`] or [`Args::num`], a positional argument fills a slot, and
//! anything else is [`unexpected`]. `--threads N` is taken here, on every
//! subcommand, so no tool sees it.

use std::collections::VecDeque;
use std::str::FromStr;

/// The arguments after the subcommand name, read front to back.
pub struct Args {
    rest: VecDeque<String>,
    threads: Option<usize>,
}

impl Args {
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Self {
            rest: args.into_iter().collect(),
            threads: None,
        }
    }

    /// The next argument, skipping `--threads N`, whose count is validated
    /// and kept for [`Args::threads`].
    pub fn next(&mut self) -> Result<Option<String>, String> {
        while let Some(arg) = self.rest.pop_front() {
            if arg != "--threads" {
                return Ok(Some(arg));
            }
            self.threads = Some(parse_threads(self.rest.pop_front())?);
        }
        Ok(None)
    }

    /// The value after `flag`. A following flag is not a value.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.optional_value()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// The value after `flag` parsed as a `T`.
    pub fn num<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| format!("{flag}: invalid value {v:?}"))
    }

    /// The value after a flag whose value may be left out: the next
    /// argument, unless there is none or it is a flag.
    pub fn optional_value(&mut self) -> Option<String> {
        let is_value = self.rest.front().is_some_and(|v| !v.starts_with("--"));
        is_value.then(|| self.rest.pop_front()).flatten()
    }

    /// The `--threads N` count, once every argument has been read.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }
}

/// Whether `arg` is a flag: a leading `-`, except `-` alone (stdin).
pub fn is_flag(arg: &str) -> bool {
    arg.starts_with('-') && arg != "-"
}

/// The error for an argument a tool does not take.
pub fn unexpected(arg: &str) -> String {
    if is_flag(arg) {
        format!("unknown flag {arg}")
    } else {
        format!("unexpected argument {arg}")
    }
}

/// A `--threads` count: a positive integer. `None` is the flag given
/// without a value.
fn parse_threads(value: Option<String>) -> Result<usize, String> {
    let v = value.ok_or("--threads requires a positive integer")?;
    let n: usize = v
        .parse()
        .map_err(|_| format!("--threads: invalid count {v:?}"))?;
    if n == 0 {
        return Err("--threads must be ≥ 1".into());
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_is_taken_anywhere_and_values_are_never_a_flag() {
        let list = ["7", "x", "--threads", "2", "--quick", "-", "--threads", "0"];
        let mut a = Args::new(list.map(String::from));
        assert_eq!(a.num::<u64>("--seed"), Ok(7));
        assert!(a.num::<u64>("--seed").is_err(), "x is no number");
        assert_eq!(a.optional_value(), None, "a flag is no value");
        assert_eq!(a.next(), Ok(Some("--quick".into())));
        assert_eq!(a.threads(), Some(2));
        assert_eq!(a.value("--spec"), Ok("-".into()));
        assert!(a.next().is_err(), "--threads 0");
    }
}
