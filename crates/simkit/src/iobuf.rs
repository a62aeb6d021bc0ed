//! Reusable I/O buffer for the zero-allocation data path.
//!
//! Every device read in the stack comes in two flavors: a convenience form
//! returning a fresh `Vec<u8>`, and a `*_into(&mut PageBuf)` form that
//! reuses the caller's buffer. The buffer grows to the largest request it
//! has served and is never shrunk, so steady-state loops (trace replay,
//! garbage collection) perform no heap allocation per operation.

/// A growable, reusable byte buffer with an explicit logical length.
///
/// [`PageBuf::prepare`] sets the logical length for the next fill without
/// reallocating when capacity suffices; the returned slice's contents are
/// unspecified (callers overwrite it completely).
#[derive(Debug, Default, Clone)]
pub struct PageBuf {
    /// Backing bytes, initialized up to the high-water mark and never
    /// shrunk, so a regrow within it touches no memory.
    data: Vec<u8>,
    /// Logical length: every accessor exposes `data[..len]` only.
    len: usize,
}

impl PageBuf {
    /// Creates an empty buffer (no allocation until first use).
    pub const fn new() -> Self {
        PageBuf {
            data: Vec::new(),
            len: 0,
        }
    }

    /// Creates a buffer with `n` bytes of capacity pre-allocated.
    pub fn with_capacity(n: usize) -> Self {
        PageBuf {
            data: Vec::with_capacity(n),
            len: 0,
        }
    }

    /// Sets the logical length to `len` and returns the whole buffer as a
    /// mutable slice. Reuses existing capacity; only grows (and thus
    /// allocates and zero-fills the new part) when `len` exceeds the
    /// high-water mark. Contents are unspecified — the caller is expected
    /// to overwrite every byte.
    pub fn prepare(&mut self, len: usize) -> &mut [u8] {
        if self.data.len() < len {
            self.data.resize(len, 0);
        }
        self.len = len;
        &mut self.data[..len]
    }

    /// Sets the logical length to `len` and fills the buffer with `byte`.
    pub fn fill_with(&mut self, len: usize, byte: u8) -> &mut [u8] {
        let out = self.prepare(len);
        out.fill(byte);
        out
    }

    /// Current logical length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated capacity in bytes (at least the high-water mark).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// The contents as an immutable slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[..self.len]
    }

    /// The contents as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data[..self.len]
    }

    /// Consumes the buffer, yielding its contents as a `Vec<u8>`.
    pub fn into_vec(mut self) -> Vec<u8> {
        self.data.truncate(self.len);
        self.data
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl AsRef<[u8]> for PageBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsMut<[u8]> for PageBuf {
    fn as_mut(&mut self) -> &mut [u8] {
        self.as_mut_slice()
    }
}

impl std::ops::Deref for PageBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for PageBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.as_mut_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_reuses_capacity() {
        let mut buf = PageBuf::new();
        buf.prepare(4096).fill(7);
        let cap = buf.capacity();
        assert!(cap >= 4096);
        // Shrinking and re-growing within capacity never reallocates.
        buf.prepare(512);
        assert_eq!(buf.len(), 512);
        buf.prepare(4096);
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.len(), 4096);
    }

    #[test]
    fn regrow_within_high_water_keeps_the_tail_and_the_allocation() {
        let mut buf = PageBuf::new();
        buf.prepare(4096).fill(7);
        let (cap, base) = (buf.capacity(), buf.as_slice().as_ptr());
        buf.prepare(512).fill(9);
        // Every view honours the logical length, not the backing length.
        assert_eq!(buf.len(), 512);
        assert_eq!(buf.as_slice().len(), 512);
        assert_eq!(buf.as_mut_slice().len(), 512);
        assert_eq!(buf.as_ref().len(), 512);
        assert_eq!(buf[..].len(), 512);
        assert_eq!(buf.to_vec(), vec![9; 512]);
        assert_eq!(buf.clone().into_vec(), vec![9; 512]);
        // Regrowing below the high-water mark neither reallocates nor
        // rewrites the bytes past the shorter fill.
        let out = buf.prepare(4096);
        assert!(out[..512].iter().all(|&b| b == 9));
        assert!(out[512..].iter().all(|&b| b == 7), "tail was re-zeroed");
        assert_eq!((buf.capacity(), buf.as_slice().as_ptr()), (cap, base));
        assert!(!buf.is_empty());
        buf.prepare(0);
        assert!(buf.is_empty());
    }

    #[test]
    fn fill_and_copy() {
        let mut buf = PageBuf::with_capacity(16);
        assert!(buf.is_empty());
        buf.fill_with(8, 0xAB);
        assert_eq!(buf.as_slice(), &[0xAB; 8]);
        buf.prepare(3).copy_from_slice(&[1, 2, 3]);
        assert_eq!(&buf[..], &[1, 2, 3]);
        assert_eq!(buf.to_vec(), vec![1, 2, 3]);
        assert_eq!(buf.into_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn deref_slicing_works() {
        let mut buf = PageBuf::new();
        buf.prepare(4).copy_from_slice(&[9, 8, 7, 6]);
        buf[1] = 0;
        assert_eq!(&buf[..2], &[9, 0]);
    }
}
