//! Crash-consistent small-file I/O for the checkpoint layer.
//!
//! Checkpoint markers and factor snapshots are small named files, not
//! block-store blobs — a restarted driver must find them by path before
//! any store is open. This façade gives them the same durability
//! discipline as the store proper: every write is staged to a temp file,
//! fsynced, and atomically renamed into place, so a reader never observes
//! a half-written checkpoint no matter where a crash lands. It also
//! concentrates the engine's remaining direct file I/O in this crate:
//! `crates/{mapreduce,core}/clippy.toml` ban `std::fs` in the engine and
//! the drivers.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Atomically replace `path` with `bytes`: write to a sibling temp file,
/// fsync it, rename over `path`, then fsync the parent directory so the
/// rename itself is durable.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = match dir {
        Some(d) => d.join(format!(".{file_name}.tmp-{}", std::process::id())),
        None => std::path::PathBuf::from(format!(".{file_name}.tmp-{}", std::process::id())),
    };
    {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(d) = dir {
        // Directory fsync makes the rename durable; best-effort on
        // filesystems that refuse to open directories.
        if let Ok(dirf) = File::open(d) {
            let _ = dirf.sync_all();
        }
    }
    Ok(())
}

/// Read a whole file as bytes.
pub fn read(path: &Path) -> io::Result<Vec<u8>> {
    std::fs::read(path)
}

/// Read a whole file as UTF-8.
pub fn read_to_string(path: &Path) -> io::Result<String> {
    std::fs::read_to_string(path)
}

/// Create `dir` and any missing parents.
pub fn create_dir_all(path: &Path) -> io::Result<()> {
    std::fs::create_dir_all(path)
}

/// Remove a file; missing files are not an error.
pub fn remove_file(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// Remove a directory tree; missing trees are not an error.
pub fn remove_dir_all(path: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// Whether `path` exists.
#[must_use]
pub fn exists(path: &Path) -> bool {
    path.exists()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("haten2-localfs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_atomic_roundtrip_and_replace() {
        let dir = tmpdir("atomic");
        let path = dir.join("marker.txt");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(read_to_string(&path).unwrap(), "first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(read(&path).unwrap(), b"second");
        // No temp residue.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_file_tolerates_missing() {
        let dir = tmpdir("rm");
        remove_file(&dir.join("nope")).unwrap();
        remove_dir_all(&dir.join("nope-dir")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
