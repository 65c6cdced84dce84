//! Offline stand-in for the `bytes` crate.
//!
//! Provides the cheaply-clonable, sliceable [`Bytes`] buffer subset the
//! workspace uses, backed by `Arc<[u8]>` plus a view range so `clone` and
//! `slice` are O(1) and never copy payload data.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer view.
///
/// An empty buffer holds no allocation at all, so making, cloning and
/// dropping one touches no reference count. (`Arc::<[u8]>::default()`
/// shares one static allocation among every caller: a count that all
/// threads of the process would write.)
#[derive(Clone, Default)]
pub struct Bytes {
    data: Option<Arc<[u8]>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wraps a static byte slice (copied once into shared storage).
    pub fn from_static(b: &'static [u8]) -> Self {
        Bytes::from(b.to_vec())
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(b: &[u8]) -> Self {
        Bytes::from(b.to_vec())
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view of this buffer; shares storage, never copies.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of bounds for {} bytes",
            self.len()
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.data {
            Some(data) => &data[self.start..self.end],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Bytes::new();
        }
        let data: Arc<[u8]> = v.into();
        let end = data.len();
        Bytes {
            data: Some(data),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        b.to_vec()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter().take(32) {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        if self.len() > 32 {
            write!(f, "..{} bytes", self.len())?;
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_len() {
        assert!(Bytes::new().is_empty());
        let b = Bytes::from(vec![1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.as_ref(), &[1, 2, 3]);
        assert_eq!(Bytes::from_static(b"hi").as_ref(), b"hi");
    }

    #[test]
    fn empty_buffers_hold_nothing() {
        for b in [
            Bytes::new(),
            Bytes::from(Vec::new()),
            Bytes::copy_from_slice(&[]),
        ] {
            assert!(b.is_empty() && b.data.is_none());
            assert_eq!(b.slice(0..0).as_ref(), &[] as &[u8]);
        }
        assert_eq!(Bytes::from(vec![4, 5]).slice(1..1).len(), 0);
    }

    #[test]
    fn slice_shares_and_nests() {
        let b = Bytes::from((0u8..10).collect::<Vec<_>>());
        let s = b.slice(2..8);
        assert_eq!(s.as_ref(), &[2, 3, 4, 5, 6, 7]);
        let s2 = s.slice(1..3);
        assert_eq!(s2.as_ref(), &[3, 4]);
        // Original is untouched.
        assert_eq!(b.len(), 10);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bytes::from(vec![1]).slice(0..2);
    }

    #[test]
    fn equality_by_content() {
        assert_eq!(
            Bytes::from(vec![1, 2]),
            Bytes::from(vec![0, 1, 2]).slice(1..3)
        );
        assert_ne!(Bytes::from(vec![1]), Bytes::from(vec![2]));
    }

    #[test]
    fn deref_indexing() {
        let b = Bytes::from(vec![9, 8, 7]);
        assert_eq!(b[0], 9);
        assert_eq!(b.chunks_exact(1).count(), 3);
        assert_eq!(b.to_vec(), vec![9, 8, 7]);
    }
}
