//! Text I/O for dense matrices (factor matrices on disk).
//!
//! Format: one row per line, whitespace-separated values; `#` comments and
//! blank lines are skipped. This is what the `haten2` CLI writes for the
//! factor matrices of a decomposition, mirroring how the Hadoop
//! implementation left its factors on HDFS as text part-files.

use crate::{LinalgError, Mat, Result};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Write a matrix as whitespace-separated rows.
pub fn write_mat<W: Write>(m: &Mat, w: W) -> Result<()> {
    let mut w = BufWriter::new(w);
    for i in 0..m.rows() {
        let row = m.row(i);
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                write!(w, " ").map_err(io_err)?;
            }
            write!(w, "{v}").map_err(io_err)?;
        }
        writeln!(w).map_err(io_err)?;
    }
    w.flush().map_err(io_err)
}

/// Read a matrix from whitespace-separated rows; all rows must have equal
/// length.
pub fn read_mat<R: Read>(r: R) -> Result<Mat> {
    let reader = BufReader::new(r);
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(io_err)?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let row: std::result::Result<Vec<f64>, _> =
            trimmed.split_whitespace().map(str::parse).collect();
        let row =
            row.map_err(|e| LinalgError::InvalidArgument(format!("line {}: {e}", lineno + 1)))?;
        rows.push(row);
    }
    Mat::from_rows(&rows)
}

/// Save a matrix to a file path.
pub fn save_mat<P: AsRef<Path>>(m: &Mat, path: P) -> Result<()> {
    let f = std::fs::File::create(path).map_err(io_err)?;
    write_mat(m, f)
}

/// Load a matrix from a file path.
pub fn load_mat<P: AsRef<Path>>(path: P) -> Result<Mat> {
    let f = std::fs::File::open(path).map_err(io_err)?;
    read_mat(f)
}

fn io_err(e: std::io::Error) -> LinalgError {
    LinalgError::InvalidArgument(format!("I/O: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let m = Mat::from_rows(&[vec![1.5, -2.0, 3.0], vec![0.0, 4.25, -0.5]]).unwrap();
        let mut buf = Vec::new();
        write_mat(&m, &mut buf).unwrap();
        let back = read_mat(&buf[..]).unwrap();
        assert!(back.approx_eq(&m, 0.0));
    }

    #[test]
    fn skips_comments_and_blanks() {
        let text = "# factor matrix\n\n1 2\n3 4\n";
        let m = read_mat(text.as_bytes()).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn rejects_ragged_and_garbage() {
        assert!(read_mat("1 2\n3\n".as_bytes()).is_err());
        assert!(read_mat("1 x\n".as_bytes()).is_err());
    }

    #[test]
    fn empty_input_is_empty_matrix() {
        let m = read_mat("".as_bytes()).unwrap();
        assert_eq!(m.shape(), (0, 0));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("haten2_matio_test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.mat");
        let m = Mat::identity(3);
        save_mat(&m, &path).unwrap();
        let back = load_mat(&path).unwrap();
        assert!(back.approx_eq(&m, 0.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
