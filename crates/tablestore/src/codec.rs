//! The little-endian codec both on-disk formats share — this crate's
//! `UDMSEG4` segments and `unidm`'s `UDMCACHE3` prompt store: writers
//! append to a `Vec<u8>`, and a bounds-checked [`Cursor`] reads back,
//! failing with [`Truncated`], which each format turns into its own error.

/// Appends `v`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `s` as its `u32` byte length followed by its bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A read asked for more bytes than the buffer has left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated;

/// A bounds-checked reader over a byte buffer.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes, borrowed from the buffer.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        if n > self.remaining() {
            return Err(Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// The next `n` `N`-byte little-endian words, each decoded by `word`
    /// (`u32::from_le_bytes`, say) as the iterator reaches it, borrowed
    /// from the buffer; fails before anything is read if the buffer cannot
    /// hold that many. `word` is a type parameter, not a function pointer,
    /// so the decode inlines into the caller's loop.
    pub fn words<const N: usize, T: 'a, F>(
        &mut self,
        n: usize,
        word: F,
    ) -> Result<impl DoubleEndedIterator<Item = T> + ExactSizeIterator + Clone + 'a, Truncated>
    where
        F: Fn([u8; N]) -> T + Clone + 'a,
    {
        let bytes = self.take(n.checked_mul(N).ok_or(Truncated)?)?;
        Ok(bytes
            .chunks_exact(N)
            .map(move |c| word(c.try_into().expect("chunks_exact yields N bytes"))))
    }

    /// A `u32` length-prefixed byte string (what [`put_str`] wrote),
    /// borrowed from the buffer.
    pub fn bytes(&mut self) -> Result<&'a [u8], Truncated> {
        let len = self.u32()? as usize;
        self.take(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_read_round_trips_and_a_short_buffer_is_truncated() {
        let mut out = Vec::new();
        put_u32(&mut out, 7);
        put_u64(&mut out, u64::MAX - 1);
        put_str(&mut out, "héllo");
        let mut cur = Cursor::new(&out);
        assert_eq!(cur.u32(), Ok(7));
        assert_eq!(cur.u64(), Ok(u64::MAX - 1));
        assert_eq!(cur.bytes(), Ok("héllo".as_bytes()));
        assert_eq!((cur.pos(), cur.remaining()), (out.len(), 0));
        assert_eq!(cur.u8(), Err(Truncated));

        // Cut anywhere inside the string: the read fails, never panics.
        for cut in 0..out.len() - 12 {
            let mut cur = Cursor::new(&out[12..12 + cut]);
            assert_eq!(cur.bytes(), Err(Truncated), "cut at {cut}");
        }
        // A word count whose byte size overflows is truncated, not a panic.
        assert!(matches!(
            Cursor::new(&out).words(usize::MAX, u64::from_le_bytes),
            Err(Truncated)
        ));
        let words = Cursor::new(&out).words(1, u32::from_le_bytes);
        assert_eq!(words.map(Iterator::collect::<Vec<_>>), Ok(vec![7]));
    }
}
