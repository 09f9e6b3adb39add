//! Command-line flags of the `rn_serve` and `rn_loadgen` binaries:
//! `--name value` pairs. An absent flag keeps its default; a present flag
//! whose value is missing or does not parse is an error naming the flag,
//! never a silent fall-back to the default, and so is an argument that no
//! read flag accounts for (a misspelled flag).

use std::cell::RefCell;
use std::fmt::Display;
use std::str::FromStr;

/// A binary's command line, and the flag names the binary has read from it.
pub struct Flags {
    args: Vec<String>,
    read: RefCell<Vec<String>>,
}

impl Flags {
    /// Wrap the process arguments (`env::args()` in the binaries).
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Self {
            args: args.into_iter().collect(),
            read: RefCell::new(Vec::new()),
        }
    }

    /// The value after `name` parsed as `T`, or `None` when the flag is
    /// absent.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.read.borrow_mut().push(name.to_string());
        let Some(i) = self.args.iter().position(|a| a == name) else {
            return Ok(None);
        };
        let v = self
            .args
            .get(i + 1)
            .ok_or(format!("{name} needs a value"))?;
        v.parse()
            .map(Some)
            .map_err(|e| format!("{name} {v:?}: {e}"))
    }

    /// [`Flags::get`], with `default` for an absent flag.
    pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        Ok(self.get(name)?.unwrap_or(default))
    }

    /// Call once every flag has been read: an argument (after the program
    /// name) that is neither a read flag nor that flag's value is an error
    /// naming it, so `--worker 3` does not silently run with the default
    /// worker count.
    pub fn finish(&self) -> Result<(), String> {
        let read = self.read.borrow();
        let mut args = self.args.iter().skip(1);
        while let Some(arg) = args.next() {
            if !read.contains(arg) {
                return Err(format!("unknown argument {arg:?}"));
            }
            args.next();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_flags_default_and_malformed_ones_are_errors_naming_the_flag() {
        let f = Flags::new(
            ["bin", "--workers", "3", "--requests", "1e3", "--listen"].map(String::from),
        );
        assert_eq!(f.get_or("--workers", 8usize), Ok(3));
        assert_eq!(f.get_or("--max-batch", 8usize), Ok(8));
        assert_eq!(f.get::<u64>("--deadline-us"), Ok(None));
        let err = f.get::<usize>("--requests").unwrap_err();
        assert!(err.contains("--requests") && err.contains("1e3"), "{err}");
        let err = f.get::<String>("--listen").unwrap_err();
        assert!(err.contains("--listen"), "{err}");
    }

    #[test]
    fn an_argument_no_read_flag_accounts_for_is_an_error_naming_it() {
        let args = |list: &[&str]| Flags::new(list.iter().map(|a| a.to_string()));
        let read_all = |f: &Flags| {
            f.get_or("--workers", 1usize).unwrap();
            f.get_or("--topology", "nsfnet".to_string()).unwrap();
        };
        let f = args(&["bin", "--workers", "3", "--topology", "toy5"]);
        read_all(&f);
        assert_eq!(f.finish(), Ok(()));
        // A misspelled flag: its name is reported, not its value.
        let f = args(&["bin", "--worker", "3", "--topology", "toy5"]);
        read_all(&f);
        let err = f.finish().unwrap_err();
        assert!(err.contains("\"--worker\""), "{err}");
        // A stray positional argument after a well-formed pair.
        let f = args(&["bin", "--workers", "3", "toy5"]);
        read_all(&f);
        assert!(f.finish().unwrap_err().contains("\"toy5\""));
    }
}
