//! Typed errors for the on-disk checkpoint store.

use smarts_isa::IsaId;
use std::fmt;

/// Everything that can go wrong opening, reading, or writing a
/// checkpoint store.
#[derive(Debug)]
#[non_exhaustive]
pub enum CkptError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with the store magic — not a checkpoint
    /// store at all.
    BadMagic,
    /// The store was written by an incompatible format version.
    UnsupportedVersion(u32),
    /// The header failed its CRC or could not be parsed.
    HeaderCorrupted,
    /// The store was warmed for a different functional-warming geometry
    /// (caches, TLBs, predictor, memory latency) than the machine trying
    /// to replay it.
    FingerprintMismatch {
        /// Fingerprint of the machine attempting the replay.
        expected: u64,
        /// Fingerprint recorded in the store header.
        found: u64,
    },
    /// A checkpoint of one instruction-set frontend was appended to a
    /// store created for another ([`crate::CkptWriter::append`]), so no
    /// store ever holds records its header's frontend cannot parse.
    IsaMismatch {
        /// Frontend of the checkpoint offered.
        expected: IsaId,
        /// Frontend recorded in the store header.
        found: IsaId,
    },
    /// A record failed its CRC or decoded inconsistently. Every record
    /// before it is intact and has already been (or can be) replayed.
    Corrupted {
        /// Zero-based index of the bad record.
        record: u64,
        /// What specifically failed.
        detail: &'static str,
    },
    /// The file ends mid-record. Every record before the tear is intact;
    /// `recovered` counts them — truncation-tolerant readers replay that
    /// prefix and surface this error for the rest.
    Truncated {
        /// Zero-based index of the torn record.
        record: u64,
        /// Intact records before the tear.
        recovered: u64,
    },
}

impl CkptError {
    /// Produces an equivalent error value. `CkptError` cannot be
    /// `Clone` (it wraps `std::io::Error`), but a [`crate::MappedStore`]
    /// must both *retain* the damage it found at open time and *hand it
    /// out by value* to every replay that asks — `replicate` bridges
    /// that: all variants copy exactly, and `Io` reproduces the kind
    /// and message.
    pub fn replicate(&self) -> CkptError {
        match self {
            CkptError::Io(e) => CkptError::Io(std::io::Error::new(e.kind(), e.to_string())),
            CkptError::BadMagic => CkptError::BadMagic,
            CkptError::UnsupportedVersion(v) => CkptError::UnsupportedVersion(*v),
            CkptError::HeaderCorrupted => CkptError::HeaderCorrupted,
            CkptError::FingerprintMismatch { expected, found } => CkptError::FingerprintMismatch {
                expected: *expected,
                found: *found,
            },
            CkptError::IsaMismatch { expected, found } => CkptError::IsaMismatch {
                expected: *expected,
                found: *found,
            },
            CkptError::Corrupted { record, detail } => CkptError::Corrupted {
                record: *record,
                detail,
            },
            CkptError::Truncated { record, recovered } => CkptError::Truncated {
                record: *record,
                recovered: *recovered,
            },
        }
    }
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint store I/O error: {e}"),
            CkptError::BadMagic => write!(f, "not a checkpoint store (bad magic)"),
            CkptError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint store format version {v}")
            }
            CkptError::HeaderCorrupted => write!(f, "checkpoint store header is corrupted"),
            CkptError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint store was warmed for a different machine geometry \
                 (store fingerprint {found:#018x}, this machine {expected:#018x})"
            ),
            CkptError::IsaMismatch { expected, found } => write!(
                f,
                "checkpoint store was written by the {found} frontend, \
                 not {expected}"
            ),
            CkptError::Corrupted { record, detail } => {
                write!(f, "checkpoint record {record} is corrupted: {detail}")
            }
            CkptError::Truncated { record, recovered } => write!(
                f,
                "checkpoint store is truncated at record {record} \
                 ({recovered} intact records recovered)"
            ),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}
