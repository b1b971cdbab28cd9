//! Volume identity: [`VolumeId`].

use core::fmt;

/// Identifier of a virtual disk (*volume*) within a trace corpus.
///
/// In the AliCloud release this is the `device_id` column; in the MSRC
/// release it is a dense id assigned to each `(hostname, disk-number)`
/// pair by the reader (see [`crate::codec::msrc::VolumeRegistry`]).
///
/// # Example
///
/// ```
/// use cbs_trace::VolumeId;
///
/// let v = VolumeId::new(42);
/// assert_eq!(v.get(), 42);
/// assert_eq!(v.to_string(), "vol-42");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VolumeId(u32);

impl VolumeId {
    /// Creates a volume id from its raw integer value.
    #[inline]
    pub const fn new(id: u32) -> Self {
        VolumeId(id)
    }

    /// Returns the raw integer value.
    #[inline]
    pub const fn get(self) -> u32 {
        self.0
    }

    /// Returns the id as a `usize`, convenient for indexing dense
    /// per-volume arrays.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VolumeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vol-{}", self.0)
    }
}

impl From<u32> for VolumeId {
    #[inline]
    fn from(id: u32) -> Self {
        VolumeId(id)
    }
}

impl From<VolumeId> for u32 {
    #[inline]
    fn from(v: VolumeId) -> u32 {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_raw_value() {
        let v = VolumeId::new(7);
        assert_eq!(v.get(), 7);
        assert_eq!(u32::from(v), 7);
        assert_eq!(VolumeId::from(7u32), v);
        assert_eq!(v.as_usize(), 7usize);
    }

    #[test]
    fn orders_by_raw_value() {
        assert!(VolumeId::new(1) < VolumeId::new(2));
        assert_eq!(VolumeId::default(), VolumeId::new(0));
    }

    #[test]
    fn display_format() {
        assert_eq!(VolumeId::new(1000).to_string(), "vol-1000");
    }
}
