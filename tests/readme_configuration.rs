//! The README "Configuration" table and the source agree in both
//! directions: every environment variable the code reads has a row, and
//! every row names a variable some code still reads.
//!
//! "Reads" means a whole `"RN_…"` / `"BENCH_…"` string literal in a `.rs`
//! file under `crates/`, `src/`, `tests/`, `vendor/` or `examples/`, read up
//! to its first `#[cfg(test)]` (unit-test scratch variables are not knobs).

use std::collections::BTreeSet;
use std::path::Path;

fn is_knob(name: &str) -> bool {
    ["RN_", "BENCH_"]
        .iter()
        .any(|p| name.len() > p.len() && name.starts_with(p))
        && name
            .bytes()
            .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
}

/// Backticked knob names in the rows of the README's Configuration table.
fn documented(readme: &str) -> BTreeSet<String> {
    let section = readme
        .split("\n## ")
        .find(|s| s.starts_with("Configuration"))
        .expect("README keeps its Configuration section");
    section
        .lines()
        .filter(|line| line.starts_with('|'))
        .flat_map(|row| row.split('`').skip(1).step_by(2))
        .filter(|name| is_knob(name))
        .map(str::to_string)
        .collect()
}

/// Knob names appearing as whole string literals in the source tree.
fn read_by_code(root: &Path) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut dirs: Vec<_> = ["crates", "src", "tests", "vendor", "examples"]
        .map(|dir| root.join(dir))
        .into();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let text = std::fs::read_to_string(&path).unwrap();
                let code = text.split("#[cfg(test)]").next().unwrap_or_default();
                // A piece between two quotes that is a whole knob name is
                // a `"RN_…"` literal.
                let literals = code.split('"').filter(|s| is_knob(s));
                names.extend(literals.map(str::to_string));
            }
        }
    }
    names
}

#[test]
fn readme_configuration_table_lists_exactly_the_variables_code_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let (documented, read) = (documented(&readme), read_by_code(root));
    let undocumented: Vec<_> = read.difference(&documented).collect();
    let unread: Vec<_> = documented.difference(&read).collect();
    assert!(
        undocumented.is_empty() && unread.is_empty(),
        "README Configuration table out of sync with the source:\n  \
         read but not documented: {undocumented:?}\n  \
         documented but read by no code: {unread:?}"
    );
}
