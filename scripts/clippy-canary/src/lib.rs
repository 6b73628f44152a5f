//! One known-bad line per `disallowed-*` entry of the workspace's
//! `clippy.toml` files. `scripts/clippy_canary.sh` lints this file under
//! each of those files and fails unless every entry fires exactly once. The
//! files hold different sets: a line whose entry a file lacks is clean
//! under it.
//!
//! The lines sit below a `#[cfg(test)]` helper, as library code does in
//! `crates/mapreduce/src/recycle.rs`: a rule that stops at a file's first
//! `#[cfg(test)]` line would miss them. Nothing here ever runs.

/// Stand-in for a module with test-only helpers among its library code.
pub struct Shelf;

impl Shelf {
    /// A test-only helper above library code.
    #[cfg(test)]
    fn shelved(&self) -> usize {
        0
    }

    /// Raw threads: only the engine's `WorkerPool` may start them.
    pub fn threads(&self) {
        let _ = std::thread::spawn(|| ());
        std::thread::scope(|_| ());
        let _ = std::thread::Builder::new();
    }

    /// `DefaultHasher`: shuffle placement must not depend on the toolchain.
    pub fn hasher(&self) {
        let _ = std::collections::hash_map::DefaultHasher::new();
    }

    /// Direct file I/O, banned in `haten2-mapreduce` and `haten2-core`.
    pub fn files(&self, permissions: std::fs::Permissions) {
        let _ = std::fs::canonicalize(".");
        let _ = std::fs::copy("a", "b");
        let _ = std::fs::create_dir("a");
        let _ = std::fs::create_dir_all("a");
        let _ = std::fs::exists("a");
        let _ = std::fs::hard_link("a", "b");
        let _ = std::fs::metadata("a");
        let _ = std::fs::read("a");
        let _ = std::fs::read_dir("a");
        let _ = std::fs::read_link("a");
        let _ = std::fs::read_to_string("a");
        let _ = std::fs::remove_dir("a");
        let _ = std::fs::remove_dir_all("a");
        let _ = std::fs::remove_file("a");
        let _ = std::fs::rename("a", "b");
        let _ = std::fs::set_permissions("a", permissions);
        #[expect(deprecated, reason = "the deprecated alias is still a way in")]
        let _ = std::fs::soft_link("a", "b");
        let _ = std::fs::symlink_metadata("a");
        let _ = std::fs::write("a", b"");
        let _ = std::fs::File::open("a");
        let _ = std::fs::OpenOptions::new();
        let _ = std::fs::DirBuilder::new();
    }

    /// Clocks and thread identity, banned in `haten2-core`: a task's
    /// output must be a function of its input.
    pub fn clocks(&self) {
        let _ = std::time::Instant::now();
        let _ = std::time::SystemTime::now();
        let _ = std::thread::current();
    }

    /// Hash-order iteration, banned in `haten2-core`.
    pub fn hash_order(
        &self,
        mut map: std::collections::HashMap<u64, u64>,
        mut set: std::collections::HashSet<u64>,
    ) {
        let _ = map.iter();
        let _ = map.iter_mut();
        let _ = map.keys();
        let _ = map.values();
        let _ = map.values_mut();
        let _ = map.drain();
        let _ = map.clone().into_keys();
        let _ = map.into_values();
        let _ = set.iter();
        let _ = set.drain();
    }
}
