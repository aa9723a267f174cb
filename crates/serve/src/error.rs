//! Typed service errors.

use std::fmt;

/// Failures the analysis service reports instead of panicking or hanging.
#[derive(Debug)]
pub enum ServeError {
    /// The OS refused to spawn a shard worker thread at server start.
    /// Already-spawned shards were shut down cleanly before this was
    /// returned.
    SpawnFailed {
        /// Index of the shard whose worker failed to spawn.
        shard: usize,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// The shard worker owning this session panicked mid-run; its sessions
    /// cannot produce a report. The rest of the server keeps running.
    WorkerPanicked {
        /// Index of the shard whose worker died.
        shard: usize,
    },
    /// A [`crate::ServerConfig`] field that must be positive was zero;
    /// nothing was started.
    InvalidConfig {
        /// Name of the offending field.
        field: &'static str,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::SpawnFailed { shard, source } => {
                write!(f, "failed to spawn worker for shard {shard}: {source}")
            }
            ServeError::WorkerPanicked { shard } => {
                write!(f, "shard {shard} worker panicked; session report unavailable")
            }
            ServeError::InvalidConfig { field } => {
                write!(f, "invalid server config: `{field}` must be positive")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::SpawnFailed { source, .. } => Some(source),
            ServeError::WorkerPanicked { .. } | ServeError::InvalidConfig { .. } => None,
        }
    }
}
