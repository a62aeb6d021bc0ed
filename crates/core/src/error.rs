//! SSC errors.
//!
//! Unlike a disk, an SSC is *expected* to fail reads: "A read operation
//! looks up the requested block in the device map. If it is present it
//! returns the data, and otherwise returns an error" (§4.2.1).
//! [`SscError::NotPresent`] is therefore a routine signal the cache manager
//! handles on every miss, not an exceptional condition.

use flashsim::FlashError;
use std::fmt;

/// Errors returned by SSC operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SscError {
    /// The block is not in the cache (normal miss/evicted signal).
    NotPresent(u64),
    /// The supplied buffer is not exactly one page.
    BadPageSize {
        /// Bytes supplied.
        got: usize,
        /// Device page size.
        expected: usize,
    },
    /// The address is outside the SSC's logical space, `0..u64::MAX`: the
    /// top value marks device-internal pages in the OOB area.
    LbaOutOfRange(u64),
    /// No space could be made even after eviction and garbage collection —
    /// the cache is entirely dirty and the manager must `clean` blocks.
    OutOfSpace,
    /// An underlying flash operation failed.
    Flash(FlashError),
    /// A scripted power failure fired at an armed crash point (see
    /// [`crate::device::CrashSite`]). The in-flight operation is torn;
    /// the caller must treat device RAM as lost and run crash recovery
    /// before issuing further operations.
    PowerLoss,
}

impl fmt::Display for SscError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SscError::NotPresent(lba) => write!(f, "block {lba} not present in cache"),
            SscError::BadPageSize { got, expected } => {
                write!(
                    f,
                    "bad page size: got {got} bytes, device page is {expected}"
                )
            }
            SscError::LbaOutOfRange(lba) => write!(f, "logical address {lba} out of range"),
            SscError::OutOfSpace => {
                write!(
                    f,
                    "no free space: cache full of dirty data, clean blocks first"
                )
            }
            SscError::Flash(e) => write!(f, "flash error: {e}"),
            SscError::PowerLoss => write!(f, "power failure at armed crash point"),
        }
    }
}

impl std::error::Error for SscError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SscError::Flash(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlashError> for SscError {
    fn from(e: FlashError) -> Self {
        SscError::Flash(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim::Ppn;

    #[test]
    fn display_and_source() {
        assert!(SscError::NotPresent(9).to_string().contains("not present"));
        assert!(SscError::OutOfSpace.to_string().contains("dirty"));
        assert!(SscError::LbaOutOfRange(7)
            .to_string()
            .contains("7 out of range"));
        assert!(SscError::BadPageSize {
            got: 1,
            expected: 4096
        }
        .to_string()
        .contains("4096"));
        let e: SscError = FlashError::ReadFree(Ppn(0)).into();
        use std::error::Error;
        assert!(e.source().is_some());
        assert!(SscError::NotPresent(0).source().is_none());
    }
}
