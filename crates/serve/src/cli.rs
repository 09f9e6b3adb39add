//! Command-line flags of the `rn_serve` and `rn_loadgen` binaries:
//! `--name value` pairs. An absent flag keeps its default; a present flag
//! whose value is missing or does not parse is an error naming the flag,
//! never a silent fall-back to the default.

use std::fmt::Display;
use std::str::FromStr;

/// A binary's command line.
pub struct Flags(Vec<String>);

impl Flags {
    /// Wrap the process arguments (`env::args()` in the binaries).
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Self(args.into_iter().collect())
    }

    /// The value after `name` parsed as `T`, or `None` when the flag is
    /// absent.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        let v = self.0.get(i + 1).ok_or(format!("{name} needs a value"))?;
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
}
