//! Scratch space for the CLI tests that cleans up after itself.

use std::path::PathBuf;

/// A directory of one test's own under the system temp dir, removed with
/// everything in it when the guard drops — also when the test panics, and
/// also the files a binary writes next to the ones the test names (atomic
/// `.tmp` files, salvage copies, checkpoint generations).
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `<temp>/pufbench_<test binary>_<pid>_<name>`, first removing
    /// whatever an earlier process with the same PID left there.
    pub fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "pufbench_{}_{}_{name}",
            env!("CARGO_CRATE_NAME"),
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch directory created");
        Self(dir)
    }

    /// The path of `file` in the directory.
    pub fn join(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}
