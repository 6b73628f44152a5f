//! Text I/O for sparse tensors.
//!
//! HaTen2's Hadoop implementation consumed tensors as plain-text files of
//! whitespace-separated `i j k value` lines (0-based indices); this module
//! reads and writes the same format, plus the N-way generalization
//! (`i1 … iN value`).

use crate::{CooTensor3, DynTensor, Entry3, Result, TensorError};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Write a 3-way tensor as `i j k value` lines.
pub fn write_coo3<W: Write>(t: &CooTensor3, w: W) -> Result<()> {
    let mut w = BufWriter::new(w);
    for e in t.entries() {
        writeln!(w, "{} {} {} {}", e.i, e.j, e.k, e.v)
            .map_err(|e| TensorError::Io(e.to_string()))?;
    }
    w.flush().map_err(|e| TensorError::Io(e.to_string()))
}

/// Read a 3-way tensor from `i j k value` lines. Blank lines and lines
/// starting with `#` or `%` are skipped. Dimensions are supplied explicitly
/// (use [`read_coo3_infer_dims`] to derive them from the data).
pub fn read_coo3<R: Read>(dims: [u64; 3], r: R) -> Result<CooTensor3> {
    let entries = parse_entries(r)?;
    CooTensor3::from_entries(dims, entries)
}

/// Read a 3-way tensor, inferring each dimension as `max index + 1`.
pub fn read_coo3_infer_dims<R: Read>(r: R) -> Result<CooTensor3> {
    let entries = parse_entries(r)?;
    let mut dims = [0u64; 3];
    for e in &entries {
        dims[0] = dims[0].max(e.i + 1);
        dims[1] = dims[1].max(e.j + 1);
        dims[2] = dims[2].max(e.k + 1);
    }
    CooTensor3::from_entries(dims, entries)
}

fn parse_entries<R: Read>(r: R) -> Result<Vec<Entry3>> {
    let reader = BufReader::new(r);
    let mut entries = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| TensorError::Io(e.to_string()))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse_u64 = |s: Option<&str>, what: &str| -> Result<u64> {
            s.ok_or_else(|| TensorError::Io(format!("line {}: missing {what}", lineno + 1)))?
                .parse::<u64>()
                .map_err(|e| TensorError::Io(format!("line {}: bad {what}: {e}", lineno + 1)))
        };
        let i = parse_u64(it.next(), "i")?;
        let j = parse_u64(it.next(), "j")?;
        let k = parse_u64(it.next(), "k")?;
        let v: f64 = it
            .next()
            .ok_or_else(|| TensorError::Io(format!("line {}: missing value", lineno + 1)))?
            .parse()
            .map_err(|e| TensorError::Io(format!("line {}: bad value: {e}", lineno + 1)))?;
        if it.next().is_some() {
            return Err(TensorError::Io(format!(
                "line {}: trailing fields (expected `i j k value`)",
                lineno + 1
            )));
        }
        entries.push(Entry3::new(i, j, k, v));
    }
    Ok(entries)
}

/// Write a tensor to a file path.
pub fn save_coo3<P: AsRef<Path>>(t: &CooTensor3, path: P) -> Result<()> {
    let f = std::fs::File::create(path).map_err(|e| TensorError::Io(e.to_string()))?;
    write_coo3(t, f)
}

/// Load a tensor from a file path, inferring dimensions.
pub fn load_coo3<P: AsRef<Path>>(path: P) -> Result<CooTensor3> {
    let f = std::fs::File::open(path).map_err(|e| TensorError::Io(e.to_string()))?;
    read_coo3_infer_dims(f)
}

/// Write an N-way tensor as `i1 … iN value` lines.
pub fn write_dyn<W: Write>(t: &DynTensor, w: W) -> Result<()> {
    let mut w = BufWriter::new(w);
    for (idx, v) in t.iter() {
        for i in idx {
            write!(w, "{i} ").map_err(|e| TensorError::Io(e.to_string()))?;
        }
        writeln!(w, "{v}").map_err(|e| TensorError::Io(e.to_string()))?;
    }
    w.flush().map_err(|e| TensorError::Io(e.to_string()))
}

/// Read an N-way tensor with known dimensions.
pub fn read_dyn<R: Read>(dims: Vec<u64>, r: R) -> Result<DynTensor> {
    let order = dims.len();
    let reader = BufReader::new(r);
    let mut t = DynTensor::new(dims);
    let mut idx = vec![0u64; order];
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| TensorError::Io(e.to_string()))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split_whitespace().collect();
        if fields.len() != order + 1 {
            return Err(TensorError::Io(format!(
                "line {}: expected {} fields, got {}",
                lineno + 1,
                order + 1,
                fields.len()
            )));
        }
        for (d, f) in fields[..order].iter().enumerate() {
            idx[d] = f
                .parse()
                .map_err(|e| TensorError::Io(format!("line {}: bad index: {e}", lineno + 1)))?;
        }
        let v: f64 = fields[order]
            .parse()
            .map_err(|e| TensorError::Io(format!("line {}: bad value: {e}", lineno + 1)))?;
        t.push(&idx, v)?;
    }
    Ok(t.coalesce())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooTensor3 {
        CooTensor3::from_entries(
            [3, 3, 3],
            vec![Entry3::new(0, 1, 2, 1.5), Entry3::new(2, 0, 1, -2.0)],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_coo3() {
        let t = sample();
        let mut buf = Vec::new();
        write_coo3(&t, &mut buf).unwrap();
        let back = read_coo3([3, 3, 3], &buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn infer_dims() {
        let t = sample();
        let mut buf = Vec::new();
        write_coo3(&t, &mut buf).unwrap();
        let back = read_coo3_infer_dims(&buf[..]).unwrap();
        assert_eq!(back.dims(), [3, 2, 3]);
        assert_eq!(back.nnz(), 2);
    }

    #[test]
    fn skips_comments_and_blanks() {
        let text = "# header\n\n% comment\n0 0 0 1.0\n";
        let t = read_coo3([1, 1, 1], text.as_bytes()).unwrap();
        assert_eq!(t.nnz(), 1);
    }

    #[test]
    fn rejects_malformed() {
        assert!(read_coo3([2, 2, 2], "0 0 0".as_bytes()).is_err());
        assert!(read_coo3([2, 2, 2], "0 0 x 1.0".as_bytes()).is_err());
        assert!(read_coo3([2, 2, 2], "0 0 0 1.0 9".as_bytes()).is_err());
        assert!(read_coo3([1, 1, 1], "5 0 0 1.0".as_bytes()).is_err()); // out of bounds
    }

    #[test]
    fn roundtrip_dyn() {
        let mut t = DynTensor::new(vec![2, 3, 2, 2]);
        t.push(&[1, 2, 0, 1], 4.25).unwrap();
        t.push(&[0, 0, 1, 0], -1.0).unwrap();
        let mut buf = Vec::new();
        write_dyn(&t, &mut buf).unwrap();
        let back = read_dyn(vec![2, 3, 2, 2], &buf[..]).unwrap();
        assert_eq!(back.get(&[1, 2, 0, 1]), 4.25);
        assert_eq!(back.get(&[0, 0, 1, 0]), -1.0);
        assert_eq!(back.nnz(), 2);
    }

    #[test]
    fn dyn_field_count_checked() {
        assert!(read_dyn(vec![2, 2], "0 0 0 1.0".as_bytes()).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("haten2_io_test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.tns");
        let t = sample();
        save_coo3(&t, &path).unwrap();
        let back = load_coo3(&path).unwrap();
        assert_eq!(back.nnz(), t.nnz());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
