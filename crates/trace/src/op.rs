//! The I/O operation kind: read or write.

use core::fmt;

/// The kind of a block-level I/O operation.
///
/// Both trace families record only reads and writes at the block layer
/// (no flush/trim records are present in either release), so the model is
/// a two-variant enum rather than an open set.
///
/// # Example
///
/// ```
/// use cbs_trace::OpKind;
///
/// assert!(OpKind::Write.is_write());
/// assert_eq!(OpKind::Read.flipped(), OpKind::Write);
/// assert_eq!("R".parse::<OpKind>().unwrap(), OpKind::Read);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
// One byte with Read = 0, Write = 1: column kernels rely on this to
// view `&[OpKind]` as bytes.
#[repr(u8)]
pub enum OpKind {
    /// A read request.
    Read = 0,
    /// A write request.
    Write = 1,
}

impl OpKind {
    /// All operation kinds, in a stable order (reads first).
    pub const ALL: [OpKind; 2] = [OpKind::Read, OpKind::Write];

    /// Returns `true` for [`OpKind::Read`].
    #[inline]
    pub const fn is_read(self) -> bool {
        matches!(self, OpKind::Read)
    }

    /// Returns `true` for [`OpKind::Write`].
    #[inline]
    pub const fn is_write(self) -> bool {
        matches!(self, OpKind::Write)
    }

    /// Returns the other kind.
    #[inline]
    pub const fn flipped(self) -> OpKind {
        match self {
            OpKind::Read => OpKind::Write,
            OpKind::Write => OpKind::Read,
        }
    }

    /// Returns the single-letter code used by the AliCloud trace format
    /// (`'R'` / `'W'`).
    #[inline]
    pub const fn as_char(self) -> char {
        match self {
            OpKind::Read => 'R',
            OpKind::Write => 'W',
        }
    }

    /// Returns the word used by the MSRC trace format
    /// (`"Read"` / `"Write"`).
    #[inline]
    pub const fn as_word(self) -> &'static str {
        match self {
            OpKind::Read => "Read",
            OpKind::Write => "Write",
        }
    }

    /// Returns a stable dense index (`Read = 0`, `Write = 1`), useful for
    /// indexing per-kind arrays.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            OpKind::Read => 0,
            OpKind::Write => 1,
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_word())
    }
}

/// Error returned when parsing an [`OpKind`] from an unrecognized string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOpKindError {
    input: String,
}

impl fmt::Display for ParseOpKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unrecognized operation kind {:?} (expected R/W/Read/Write)",
            self.input
        )
    }
}

impl std::error::Error for ParseOpKindError {}

impl std::str::FromStr for OpKind {
    type Err = ParseOpKindError;

    /// Parses both the AliCloud (`R`/`W`) and MSRC (`Read`/`Write`)
    /// spellings, case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "R" | "r" | "Read" | "read" | "READ" => Ok(OpKind::Read),
            "W" | "w" | "Write" | "write" | "WRITE" => Ok(OpKind::Write),
            other => Err(ParseOpKindError {
                input: other.to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_trace_spellings() {
        assert_eq!("R".parse::<OpKind>().unwrap(), OpKind::Read);
        assert_eq!("W".parse::<OpKind>().unwrap(), OpKind::Write);
        assert_eq!("Read".parse::<OpKind>().unwrap(), OpKind::Read);
        assert_eq!("Write".parse::<OpKind>().unwrap(), OpKind::Write);
        assert_eq!("read".parse::<OpKind>().unwrap(), OpKind::Read);
        assert_eq!("WRITE".parse::<OpKind>().unwrap(), OpKind::Write);
    }

    #[test]
    fn rejects_unknown_kind() {
        let err = "Trim".parse::<OpKind>().unwrap_err();
        assert!(err.to_string().contains("Trim"));
    }

    #[test]
    fn predicates_and_flip() {
        assert!(OpKind::Read.is_read());
        assert!(!OpKind::Read.is_write());
        assert!(OpKind::Write.is_write());
        assert_eq!(OpKind::Write.flipped(), OpKind::Read);
        assert_eq!(OpKind::Read.flipped().flipped(), OpKind::Read);
    }

    #[test]
    fn codec_representations() {
        assert_eq!(OpKind::Read.as_char(), 'R');
        assert_eq!(OpKind::Write.as_char(), 'W');
        assert_eq!(OpKind::Read.as_word(), "Read");
        assert_eq!(OpKind::Write.to_string(), "Write");
    }

    #[test]
    fn dense_index_is_stable() {
        assert_eq!(OpKind::Read.index(), 0);
        assert_eq!(OpKind::Write.index(), 1);
        assert_eq!(OpKind::ALL[OpKind::Read.index()], OpKind::Read);
        assert_eq!(OpKind::ALL[OpKind::Write.index()], OpKind::Write);
    }
}
