//! Backend errors.

use crate::supervise::FailureKind;
use std::fmt;
use std::path::PathBuf;

/// Errors from compiling or executing a generated simulator.
#[derive(Debug)]
pub enum BackendError {
    /// No usable C compiler was found.
    CompilerNotFound {
        /// The candidates that were tried.
        tried: Vec<String>,
    },
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The compiler exited with a failure.
    CompileFailed {
        /// The compiler command line.
        command: String,
        /// Captured standard error.
        stderr: String,
    },
    /// The in-process engine could not load or call the simulator. A
    /// subprocess that runs and fails is [`BackendError::Supervised`].
    RunFailed {
        /// The executable path.
        exe: PathBuf,
        /// Description of the failure.
        detail: String,
    },
    /// The simulator output did not follow the `ACCMOS:` protocol.
    Protocol {
        /// The offending output line.
        line: String,
        /// What went wrong.
        detail: String,
    },
    /// A supervised run failed; carries the classified [`FailureKind`] so
    /// callers can decide retry-vs-quarantine mechanically.
    Supervised {
        /// The executable path.
        exe: PathBuf,
        /// The classified failure of the last attempt.
        kind: FailureKind,
        /// Total attempts made (1 = no retries).
        attempts: u32,
        /// Description of the last failure (signal, exit code, output
        /// tails).
        detail: String,
    },
    /// The executable has crashed too often and is refused further runs.
    Quarantined {
        /// The executable path.
        exe: PathBuf,
        /// Classified crashes recorded against it.
        crashes: u32,
    },
}

impl BackendError {
    /// The classified failure kind of a supervised run, if this error
    /// carries one.
    pub fn failure_kind(&self) -> Option<FailureKind> {
        match self {
            BackendError::Supervised { kind, .. } => Some(*kind),
            _ => None,
        }
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::CompilerNotFound { tried } => {
                write!(f, "no C compiler found (tried {})", tried.join(", "))
            }
            BackendError::Io { path, source } => {
                write!(f, "io error on {}: {source}", path.display())
            }
            BackendError::CompileFailed { command, stderr } => {
                write!(f, "compilation failed: {command}\n{stderr}")
            }
            BackendError::RunFailed { exe, detail } => {
                write!(f, "simulator {} failed: {detail}", exe.display())
            }
            BackendError::Protocol { line, detail } => {
                write!(f, "bad result line `{line}`: {detail}")
            }
            BackendError::Supervised { exe, kind, attempts, detail } => {
                write!(
                    f,
                    "simulator {} failed ({kind}) after {attempts} attempt(s): {detail}",
                    exe.display()
                )
            }
            BackendError::Quarantined { exe, crashes } => {
                write!(
                    f,
                    "simulator {} is quarantined after {crashes} crash(es)",
                    exe.display()
                )
            }
        }
    }
}

impl std::error::Error for BackendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BackendError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_context() {
        let e = BackendError::CompilerNotFound { tried: vec!["cc".into(), "gcc".into()] };
        assert!(e.to_string().contains("cc, gcc"));
        let e = BackendError::Protocol { line: "XYZ".into(), detail: "nope".into() };
        assert!(e.to_string().contains("XYZ"));
        let e = BackendError::Supervised {
            exe: "/tmp/sim".into(),
            kind: FailureKind::Crashed { signal: 11 },
            attempts: 3,
            detail: "stderr tail: <empty>".into(),
        };
        assert!(e.to_string().contains("signal 11"));
        assert!(e.to_string().contains("3 attempt(s)"));
        assert_eq!(e.failure_kind(), Some(FailureKind::Crashed { signal: 11 }));
        let e = BackendError::Quarantined { exe: "/tmp/sim".into(), crashes: 2 };
        assert!(e.to_string().contains("quarantined"));
        assert_eq!(e.failure_kind(), None);
    }
}
