//! JSON export for harness results (`--json <dir>`), so downstream tooling
//! (plots, EXPERIMENTS.md regeneration, CI diffs) can consume the numbers
//! without scraping tables.

use serde::Serialize;
use std::io;
use std::path::{Path, PathBuf};

/// Serialize `value` to `<dir>/<name>.json` (pretty-printed, stable field
/// order via serde derive ordering). An error names the file.
pub fn write_json<T: Serialize>(dir: &Path, name: &str, value: &T) -> io::Result<PathBuf> {
    let path = dir.join(format!("{name}.json"));
    let write = || -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(&path, serde_json::to_string_pretty(value)?)
    };
    write().map_err(|e| writing(&path, e))?;
    Ok(path)
}

/// `e` with the file it failed to write: `writing <path>: <e>`.
pub(crate) fn writing(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Sample {
        x: f64,
        label: String,
    }

    #[test]
    fn writes_parseable_json() {
        let dir = std::env::temp_dir().join("pnoc_export_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = write_json(
            &dir,
            "sample",
            &Sample {
                x: 1.5,
                label: "hello".into(),
            },
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back["x"], 1.5);
        assert_eq!(back["label"], "hello");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn curves_serialize() {
        // The figure payloads must be JSON-serializable end to end.
        let rows = crate::figures::table1();
        let json = serde_json::to_string(&rows).unwrap();
        assert!(json.contains("1028K"));
    }
}
