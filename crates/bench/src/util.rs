//! Shared plumbing for the table/figure binaries: contextual errors
//! instead of panics, and the environment-controlled run cache.

use runcache::RunCache;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use workloads::spec::Workload;

/// A failure in a bench binary, carrying enough context (paths, names) to
/// act on. `Debug` renders like `Display`, so a `main() -> Result<(), _>`
/// exit prints the message, not a struct dump or a backtrace.
pub struct BenchError(String);

impl BenchError {
    /// Build an error from a message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::fmt::Debug for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BenchError {}

/// Result alias for bench binaries.
pub type Result<T> = std::result::Result<T, BenchError>;

/// Look up a benchmark by name with an actionable error (lists the known
/// names) instead of an `unwrap` backtrace.
pub fn workload(name: &str) -> Result<&'static dyn Workload> {
    workloads::suite::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::suite::all_benchmarks().iter().map(|w| w.name()).collect();
        BenchError::new(format!("unknown benchmark `{name}` (known: {})", known.join(", ")))
    })
}

/// Write `text` to `path`, creating parent directories; errors name the
/// path (a missing `results/` dir or read-only filesystem should say so).
pub fn write_text(path: impl AsRef<Path>, text: &str) -> Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| BenchError::new(format!("cannot create {}: {e}", dir.display())))?;
        }
    }
    std::fs::write(path, text).map_err(|e| BenchError::new(format!("cannot write {}: {e}", path.display())))
}

/// Default run-cache location: the one path under `results/` that is a
/// cache rather than an output (git-ignored).
pub const RUN_CACHE_DIR: &str = "results/runcache";

/// The run-cache directory the binaries should use: `DRBW_RUNCACHE_DIR`
/// when set (the CI smoke points it at a temp dir; an empty directory
/// gives a cold run), default [`RUN_CACHE_DIR`].
pub fn run_cache_dir() -> PathBuf {
    std::env::var_os("DRBW_RUNCACHE_DIR").map(PathBuf::from).unwrap_or_else(|| RUN_CACHE_DIR.into())
}

/// Open the environment-selected run cache. An unusable directory only
/// costs warmth: the binary proceeds uncached with a warning.
pub fn open_run_cache() -> Option<Arc<RunCache>> {
    let dir = run_cache_dir();
    match RunCache::open(&dir) {
        Ok(cache) => Some(Arc::new(cache)),
        Err(e) => {
            eprintln!("warning: run cache at {} unusable ({e}); simulating uncached", dir.display());
            None
        }
    }
}

/// [`workloads::runner::run`] through an optional run cache.
pub fn memo_run(
    cache: Option<&RunCache>,
    w: &dyn Workload,
    mcfg: &numasim::config::MachineConfig,
    rcfg: &workloads::config::RunConfig,
    sampling: Option<pebs::sampler::SamplerConfig>,
) -> workloads::runner::RunOutcome {
    match cache {
        Some(cache) => runcache::run_memo(cache, w, mcfg, rcfg, sampling),
        None => workloads::runner::run(w, mcfg, rcfg, sampling),
    }
}

/// Print the cache's hit/miss counters on stderr (the CI cold→warm smoke
/// greps for this line). Silent when no cache is active.
pub fn report_run_cache(cache: Option<&RunCache>) {
    if let Some(cache) = cache {
        eprintln!("{}", cache.metrics());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_workload_error_lists_names() {
        let e = match workload("NoSuchBench") {
            Err(e) => e,
            Ok(w) => panic!("lookup unexpectedly found {}", w.name()),
        };
        let msg = e.to_string();
        assert!(msg.contains("NoSuchBench"));
        assert!(msg.contains("IRSmk"), "error should list known benchmarks: {msg}");
    }

    #[test]
    fn write_text_reports_path_on_failure() {
        let e = write_text("/proc/definitely/not/writable.txt", "x").unwrap_err();
        assert!(e.to_string().contains("/proc/definitely"), "{e}");
    }
}
