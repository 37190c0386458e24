//! Wire encoding with exact byte accounting.
//!
//! The distributed model's figure of merit is the number of *bits*
//! communicated (Theorem 4.7: `s · poly(ε⁻¹η⁻¹kd log Δ)`), so messages
//! are genuinely serialized to bytes and decoded on the receiving side —
//! no pointer-passing shortcuts.
//!
//! The codec itself ([`Encode`]/[`Decode`] and friends) lives in
//! [`sbc_streaming::codec`] — checkpoints and the wire share one binary
//! format, and an upload's payload *is* a checkpoint image — and is
//! re-exported here unchanged. This module adds the transport
//! [`Envelope`]: the unit of (simulated) delivery, carrying the sender's
//! machine id and a per-machine sequence number so the coordinator can
//! discard duplicate re-deliveries (idempotence under retransmission,
//! exercised by the fault-injection tests).

pub use sbc_streaming::codec::{from_bytes, to_bytes, Decode, Encode};

/// One machine→coordinator message as it travels the (simulated) network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Sender's machine index.
    pub machine: u32,
    /// Per-machine sequence number; `(machine, seq)` identifies the
    /// logical message across retransmissions.
    pub seq: u64,
    /// Encoded payload bytes.
    pub payload: Vec<u8>,
}

impl Envelope {
    /// Total bytes this envelope occupies on the wire (header + payload).
    pub fn wire_bytes(&self) -> usize {
        to_bytes(self).len()
    }
}

impl Encode for Envelope {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.machine.encode(buf);
        self.seq.encode(buf);
        self.payload.encode(buf);
    }
}
impl Decode for Envelope {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(Envelope {
            machine: u32::decode(buf, cursor)?,
            seq: u64::decode(buf, cursor)?,
            payload: Vec::decode(buf, cursor)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_geometry::{CellId, Point};

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).expect("decodes");
        assert_eq!(back, v);
    }

    #[test]
    fn reexported_codec_roundtrips() {
        roundtrip(42u64);
        roundtrip(Point::new(vec![1, 2, 300]));
        roundtrip(CellId {
            level: 7,
            coords: vec![12, -3, 99],
        });
    }

    #[test]
    fn envelope_roundtrips_and_counts_bytes() {
        let env = Envelope {
            machine: 3,
            seq: 17,
            payload: vec![1, 2, 3, 4, 5],
        };
        roundtrip(env.clone());
        // u32 machine + u64 seq + u64 length prefix + 5 payload bytes.
        assert_eq!(env.wire_bytes(), 4 + 8 + 8 + 5);
    }
}
