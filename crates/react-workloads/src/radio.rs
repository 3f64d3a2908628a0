//! Radio packet protocol: framing and CRC-16 for the RT/PF benchmarks.
//!
//! The paper's radio benchmarks move buffered data to a base station and
//! forward packets between nodes (§4.2). We implement a small framed
//! protocol — preamble, length, payload, CRC-16/CCITT — that can detect
//! corrupted receptions. RT bills each burst this format's wire bytes;
//! PF's channel is noiseless, so its receptions always decode.

/// Frame preamble bytes (sync word).
pub const PREAMBLE: [u8; 2] = [0xAA, 0x7E];
/// Maximum payload length in bytes.
pub const MAX_PAYLOAD: usize = 64;

/// CRC-16/CCITT-FALSE over `data` (poly 0x1021, init 0xFFFF).
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc = 0xFFFFu16;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// A decoded packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Source node identifier.
    pub source: u8,
    /// Monotonic sequence number from the source.
    pub sequence: u16,
    /// Application payload.
    pub payload: Vec<u8>,
}

/// Error decoding a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Frame shorter than the fixed header + CRC.
    TooShort,
    /// Preamble bytes did not match.
    BadPreamble,
    /// Length field inconsistent with the frame size or above
    /// [`MAX_PAYLOAD`].
    BadLength,
    /// CRC mismatch (corrupted in flight).
    BadCrc,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooShort => write!(f, "frame too short"),
            Self::BadPreamble => write!(f, "bad preamble"),
            Self::BadLength => write!(f, "bad length field"),
            Self::BadCrc => write!(f, "crc mismatch"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl Packet {
    /// Creates a packet.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_PAYLOAD`].
    pub fn new(source: u8, sequence: u16, payload: Vec<u8>) -> Self {
        assert!(payload.len() <= MAX_PAYLOAD, "payload too large");
        Self {
            source,
            sequence,
            payload,
        }
    }

    /// Encodes to the wire format:
    /// `preamble(2) | source(1) | seq(2) | len(1) | payload | crc(2)`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.payload.len());
        out.extend_from_slice(&PREAMBLE);
        out.push(self.source);
        out.extend_from_slice(&self.sequence.to_be_bytes());
        out.push(self.payload.len() as u8);
        out.extend_from_slice(&self.payload);
        let crc = crc16(&out[2..]);
        out.extend_from_slice(&crc.to_be_bytes());
        out
    }

    /// Decodes a wire frame.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for truncated, mis-framed, oversize, or
    /// corrupted frames.
    pub fn decode(frame: &[u8]) -> Result<Self, DecodeError> {
        if frame.len() < 8 {
            return Err(DecodeError::TooShort);
        }
        if frame[0..2] != PREAMBLE {
            return Err(DecodeError::BadPreamble);
        }
        let len = frame[5] as usize;
        if len > MAX_PAYLOAD || frame.len() != 8 + len {
            return Err(DecodeError::BadLength);
        }
        let body = &frame[2..frame.len() - 2];
        let got = u16::from_be_bytes([frame[frame.len() - 2], frame[frame.len() - 1]]);
        if crc16(body) != got {
            return Err(DecodeError::BadCrc);
        }
        Ok(Self {
            source: frame[2],
            sequence: u16::from_be_bytes([frame[3], frame[4]]),
            payload: frame[6..6 + len].to_vec(),
        })
    }

    /// Time on air at `bitrate` bits/s for this packet's encoded size.
    pub fn airtime(&self, bitrate: f64) -> react_units::Seconds {
        react_units::Seconds::new((8 + self.payload.len()) as f64 * 8.0 / bitrate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
        assert_eq!(crc16(b"123456789"), 0x29B1);
        assert_eq!(crc16(b""), 0xFFFF);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = Packet::new(3, 1234, vec![1, 2, 3, 4, 5]);
        let wire = p.encode();
        let q = Packet::decode(&wire).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let p = Packet::new(0, 0, vec![]);
        assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let mut wire = Packet::new(1, 7, vec![9; 10]).encode();
        wire[7] ^= 0x01;
        assert_eq!(Packet::decode(&wire), Err(DecodeError::BadCrc));
    }

    #[test]
    fn truncated_frame_fails() {
        let wire = Packet::new(1, 7, vec![9; 10]).encode();
        assert_eq!(Packet::decode(&wire[..5]), Err(DecodeError::TooShort));
        assert_eq!(
            Packet::decode(&wire[..wire.len() - 1]),
            Err(DecodeError::BadLength)
        );
    }

    #[test]
    fn bad_preamble_fails() {
        let mut wire = Packet::new(1, 7, vec![]).encode();
        wire[0] = 0x00;
        assert_eq!(Packet::decode(&wire), Err(DecodeError::BadPreamble));
    }

    #[test]
    #[should_panic(expected = "payload too large")]
    fn oversize_payload_panics() {
        Packet::new(0, 0, vec![0; MAX_PAYLOAD + 1]);
    }

    #[test]
    fn airtime_scales_with_size() {
        let small = Packet::new(0, 0, vec![0; 4]).airtime(50_000.0);
        let big = Packet::new(0, 0, vec![0; 64]).airtime(50_000.0);
        assert!(big > small);
        // 12 bytes × 8 bits / 50 kbps = 1.92 ms.
        assert!((small.to_milli() - 1.92).abs() < 1e-9);
    }

    #[test]
    fn decode_error_display() {
        assert_eq!(format!("{}", DecodeError::BadCrc), "crc mismatch");
    }
}
