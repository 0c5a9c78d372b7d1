//! Network messages with exact bit-length accounting.

use crate::bits::{BitReader, BitString};

/// A message sent over one edge in one round.
///
/// A message is just a [`BitString`] payload; its length in bits is what
/// the CONGEST budget constrains. Convenience constructors cover the
/// common cases (single bit, fixed-width integer, integer list).
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Message {
    payload: BitString,
}

impl std::fmt::Debug for Message {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Message({:?})", self.payload)
    }
}

impl Message {
    /// The empty message (0 bits). Sending it still counts as one message
    /// but zero bits.
    pub fn empty() -> Self {
        Message::default()
    }

    /// A one-bit message. Like every payload of at most 64 bits, it is
    /// stored inline and never allocates.
    pub fn from_bit(bit: bool) -> Self {
        let mut payload = BitString::new();
        payload.push_bit(bit);
        Message { payload }
    }

    /// A `width`-bit unsigned integer message. The payload (at most 64
    /// bits) is stored inline: building, cloning and dropping it never
    /// touch the allocator.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `width` bits.
    pub fn from_uint(value: u64, width: usize) -> Self {
        let mut payload = BitString::new();
        payload.push_uint(value, width);
        Message { payload }
    }

    /// Wraps an existing bit string — the builder for multi-field
    /// messages.
    ///
    /// # Example
    ///
    /// ```
    /// use qdc_congest::Message;
    /// use qdc_congest::BitString;
    ///
    /// let mut bits = BitString::new();
    /// bits.push_uint(3, 8);   // a tag
    /// bits.push_uint(42, 16); // a value
    /// let m = Message::from_bits(bits);
    /// assert_eq!(m.bit_len(), 24);
    /// let mut r = m.reader();
    /// assert_eq!(r.read_uint(8), Some(3));
    /// assert_eq!(r.read_uint(16), Some(42));
    /// ```
    pub fn from_bits(payload: BitString) -> Self {
        Message { payload }
    }

    /// Message length in bits.
    pub fn bit_len(&self) -> usize {
        self.payload.len()
    }

    /// The payload.
    pub fn payload(&self) -> &BitString {
        &self.payload
    }

    /// Mutable access to the payload — used by the fault-injection layer
    /// to flip or truncate bits in flight. Mutation cannot violate the
    /// budget retroactively as long as it never grows the payload (the
    /// [`FaultPlan`](crate::FaultPlan) only shrinks or preserves it).
    pub fn payload_mut(&mut self) -> &mut BitString {
        &mut self.payload
    }

    /// A reader over the payload.
    pub fn reader(&self) -> BitReader<'_> {
        self.payload.reader()
    }

    /// Reads the message as a single bit.
    ///
    /// Returns `None` if the message is not exactly one bit.
    pub fn as_bit(&self) -> Option<bool> {
        if self.payload.len() == 1 {
            Some(self.payload.get(0))
        } else {
            None
        }
    }

    /// Reads the message as a single `width`-bit integer.
    ///
    /// Returns `None` if the length does not match.
    pub fn as_uint(&self, width: usize) -> Option<u64> {
        if self.payload.len() == width {
            self.payload.reader().read_uint(width)
        } else {
            None
        }
    }
}

impl From<BitString> for Message {
    fn from(payload: BitString) -> Self {
        Message { payload }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_message_is_zero_bits() {
        assert_eq!(Message::empty().bit_len(), 0);
    }

    #[test]
    fn bit_message_roundtrip() {
        assert_eq!(Message::from_bit(true).as_bit(), Some(true));
        assert_eq!(Message::from_bit(false).as_bit(), Some(false));
        assert_eq!(Message::from_uint(2, 2).as_bit(), None);
    }

    #[test]
    fn uint_message_roundtrip() {
        let m = Message::from_uint(300, 9);
        assert_eq!(m.bit_len(), 9);
        assert_eq!(m.as_uint(9), Some(300));
        assert_eq!(m.as_uint(8), None);
    }

    #[test]
    fn from_bitstring() {
        let b = BitString::from_bools(&[true, true, false]);
        let m: Message = b.clone().into();
        assert_eq!(m.payload(), &b);
        assert_eq!(m.bit_len(), 3);
    }

    #[test]
    fn message_and_its_option_stay_32_bytes() {
        // The inline-word storage keeps a niche, so `Option<Message>` —
        // the type of every inbox and outbox slot — costs nothing extra.
        assert_eq!(std::mem::size_of::<Message>(), 32);
        assert_eq!(std::mem::size_of::<Option<Message>>(), 32);
    }
}
