//! Tab-separated tables: the golden count files, the reference sweep,
//! and the metric files `run --out` writes and `summarize` reads.

use std::fmt;

/// A parse failure, with the 1-based line it happened on.
#[derive(Debug, PartialEq)]
pub struct TsvError {
    pub line: usize,
    pub what: String,
}

impl fmt::Display for TsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for TsvError {}

/// Rows of exactly `columns` tab-separated fields. Blank lines and lines
/// starting with `#` are skipped; a row of another width is an error.
pub fn parse(text: &str, columns: usize) -> Result<Vec<Vec<&str>>, TsvError> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != columns {
            return Err(TsvError { line: i + 1, what: format!("{} fields, expected {columns}", fields.len()) });
        }
        rows.push(fields);
    }
    Ok(rows)
}

/// Parse one field, naming the row it came from on failure.
pub fn field<T: std::str::FromStr>(row: &[&str], i: usize) -> Result<T, String> {
    row[i].parse().map_err(|_| format!("bad field {:?} in row {:?}", row[i], row))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skips_comments_and_blank_lines() {
        let rows = parse("# header\n\nSP\tlarge\t64\n  \nUA\tsmall\t16\n", 3).unwrap();
        assert_eq!(rows, vec![vec!["SP", "large", "64"], vec!["UA", "small", "16"]]);
        assert_eq!(field::<usize>(&rows[0], 2), Ok(64));
    }

    #[test]
    fn rejects_a_row_of_the_wrong_width() {
        let err = parse("a\tb\nc\n", 2).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(field::<u64>(&["x"], 0).is_err());
        // An empty trailing field still counts as a field.
        assert_eq!(parse("a\t\n", 2).unwrap(), vec![vec!["a", ""]]);
    }

    #[test]
    fn floats_written_with_display_read_back_bit_for_bit() {
        for x in [13401509.0f64, 0.1 + 0.2, 4718592.000000001, 1e-7] {
            let text = format!("{x}");
            assert_eq!(field::<f64>(&[&text], 0).unwrap().to_bits(), x.to_bits());
        }
    }
}
