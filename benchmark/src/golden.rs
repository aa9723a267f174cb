//! Exact simulated counts per input, checked on every op.
//!
//! The simulator is deterministic, so the counts an input produces
//! (accesses, simulated cycles, samples, windows, verdicts, tuner
//! evaluations) repeat exactly, whatever seed chose the input. One file
//! per workload under `benchmark/golden/` holds them for every input a
//! seed can choose; `drbw-benchmark bless` rewrites the files. A change
//! meant only to make the simulator faster must leave them untouched, so
//! a mismatch fails the op.

use crate::tsv;
use std::collections::BTreeMap;

/// One workload's golden table: the input's key fields and its count
/// fields, both kept as the tab-joined text the file holds, so a
/// comparison is exact by construction.
#[derive(Debug)]
pub struct Golden {
    rows: BTreeMap<String, String>,
}

impl Golden {
    /// Parse a golden file whose rows have `key_cols` key fields followed
    /// by `count_cols` count fields.
    ///
    /// # Panics
    /// Panics on a malformed file: the files are compiled in, so that is
    /// a defect of this package, not an input error.
    pub fn parse(text: &str, key_cols: usize, count_cols: usize) -> Self {
        let rows = tsv::parse(text, key_cols + count_cols)
            .unwrap_or_else(|e| panic!("malformed golden file: {e}"))
            .into_iter()
            .map(|row| (row[..key_cols].join("\t"), row[key_cols..].join("\t")))
            .collect();
        Self { rows }
    }

    /// The count fields recorded for `key`.
    pub fn counts(&self, key: &str) -> Option<Vec<&str>> {
        self.rows.get(key).map(|c| c.split('\t').collect())
    }

    /// Compare the counts an op produced with the recorded ones.
    pub fn check(&self, key: &str, counts: &str) -> Result<(), String> {
        match self.rows.get(key) {
            Some(want) if want == counts => Ok(()),
            Some(want) => Err(format!("{key:?}: counts {counts:?} differ from golden {want:?}")),
            None => Err(format!("{key:?}: no golden row (run `drbw-benchmark bless`)")),
        }
    }

    /// [`Golden::check`], or — when `bless` is collecting rows — record
    /// the counts instead of comparing them.
    pub fn check_or_collect(&self, blessed: Option<&mut Blessed>, key: String, counts: String) -> Result<(), String> {
        match blessed {
            Some(rows) => {
                rows.insert(key, counts);
                Ok(())
            }
            None => self.check(&key, &counts),
        }
    }
}

/// Rows `bless` collected for one workload: `(key, counts)`.
pub type Blessed = BTreeMap<String, String>;

/// Write one golden file: a `#` header naming the columns, then the rows
/// in key order.
pub fn write(file: &str, columns: &str, rows: &Blessed) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    std::fs::create_dir_all(&dir)?;
    let mut text = format!("# {columns}\n");
    for (key, counts) in rows {
        text.push_str(&format!("{key}\t{counts}\n"));
    }
    std::fs::write(dir.join(file), text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_is_exact() {
        let g = Golden::parse("# bench\tthreads\taccesses\tcycles\nSP\t64\t6291456\t5704769.5\n", 2, 2);
        assert_eq!(g.check("SP\t64", "6291456\t5704769.5"), Ok(()));
        assert!(g.check("SP\t64", "6291456\t5704769.6").unwrap_err().contains("differ"));
        assert!(g.check("SP\t32", "1\t1").unwrap_err().contains("no golden row"));
        assert_eq!(g.counts("SP\t64"), Some(vec!["6291456", "5704769.5"]));
    }
}
