//! Simulated I2C transport of each board's read-outs.
//!
//! The rig moves every read-out from slave to master over I2C (paper §III,
//! Fig. 2a). This module models the transport at the transaction level:
//! 7-bit addressing, Arduino-`Wire`-style 32-byte chunking, a CRC-16/CCITT
//! trailer per message, and optional fault injection (NAKs and bit flips)
//! so the campaign's robustness to transport errors can be tested.

use rand::Rng;
use std::error::Error;
use std::fmt;

/// Maximum payload bytes per chunk — the Arduino `Wire` library's buffer.
pub const CHUNK_BYTES: usize = 32;

/// A 7-bit I2C slave address.
///
/// # Examples
///
/// ```
/// use puftestbed::i2c::Address;
/// let a = Address::new(0x42)?;
/// assert_eq!(a.value(), 0x42);
/// assert!(Address::new(0x80).is_err());
/// # Ok::<(), puftestbed::i2c::InvalidAddressError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Address(u8);

impl Address {
    /// Creates an address.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidAddressError`] if `value` does not fit 7 bits or is
    /// one of the reserved addresses (0x00–0x07, 0x78–0x7F).
    pub fn new(value: u8) -> Result<Self, InvalidAddressError> {
        if !(0x08..=0x77).contains(&value) {
            Err(InvalidAddressError { value })
        } else {
            Ok(Self(value))
        }
    }

    /// The raw 7-bit address.
    pub fn value(&self) -> u8 {
        self.0
    }
}

/// Error for out-of-range I2C addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidAddressError {
    /// The rejected value.
    pub value: u8,
}

impl fmt::Display for InvalidAddressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid 7-bit i2c address 0x{:02x}", self.value)
    }
}

impl Error for InvalidAddressError {}

/// Transport-level failure of an I2C transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferError {
    /// The addressed slave did not acknowledge.
    Nack {
        /// The unresponsive address.
        address: u8,
    },
    /// The reassembled message failed its CRC check.
    CrcMismatch {
        /// CRC carried in the trailer.
        expected: u16,
        /// CRC computed over the received payload.
        computed: u16,
    },
    /// The message ended before the CRC trailer.
    Truncated {
        /// Bytes actually received.
        received: usize,
    },
}

impl fmt::Display for TransferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferError::Nack { address } => write!(f, "nack from 0x{address:02x}"),
            TransferError::CrcMismatch { expected, computed } => {
                write!(
                    f,
                    "crc mismatch: trailer {expected:04x}, computed {computed:04x}"
                )
            }
            TransferError::Truncated { received } => {
                write!(f, "message truncated after {received} bytes")
            }
        }
    }
}

impl Error for TransferError {}

/// CRC-16/CCITT-FALSE over `data` (poly 0x1021, init 0xFFFF).
///
/// Computed by slicing-by-8: each step folds 8 bytes through eight
/// independent table lookups, and the byte table finishes the remainder.
/// A single 256-entry table gains nothing here, because each of its
/// lookups waits on the last. The bitwise definition is kept as the test
/// oracle.
///
/// # Examples
///
/// ```
/// // The classic check value for "123456789".
/// assert_eq!(puftestbed::i2c::crc16(b"123456789"), 0x29B1);
/// ```
pub fn crc16(data: &[u8]) -> u16 {
    let t = &CRC16_TABLES;
    let mut crc: u16 = 0xFFFF;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let [hi, lo] = crc.to_be_bytes();
        crc = t[7][usize::from(b[0] ^ hi)]
            ^ t[6][usize::from(b[1] ^ lo)]
            ^ t[5][usize::from(b[2])]
            ^ t[4][usize::from(b[3])]
            ^ t[3][usize::from(b[4])]
            ^ t[2][usize::from(b[5])]
            ^ t[1][usize::from(b[6])]
            ^ t[0][usize::from(b[7])];
    }
    for &byte in blocks.remainder() {
        crc = (crc << 8) ^ t[0][usize::from(crc.to_be_bytes()[0] ^ byte)];
    }
    crc
}

/// `CRC16_TABLES[k][b]`: the CRC register, started at 0, after byte `b`
/// and then `k` zero bytes, i.e. after `8(k + 1)` bitwise steps from
/// `b << 8`.
static CRC16_TABLES: [[u16; 256]; 8] = crc16_tables();

const fn crc16_tables() -> [[u16; 256]; 8] {
    let mut tables = [[0u16; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = (b as u16) << 8;
        let mut step = 1;
        while step <= 64 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
            if step % 8 == 0 {
                tables[step / 8 - 1][b] = crc;
            }
            step += 1;
        }
        b += 1;
    }
    tables
}

/// Splits a payload into `Wire`-sized chunks and appends a CRC trailer.
///
/// The wire format is: payload chunks of at most [`CHUNK_BYTES`] bytes,
/// followed by a final 2-byte big-endian CRC over the whole payload.
pub fn encode_message(payload: &[u8]) -> Vec<Vec<u8>> {
    let mut frames: Vec<Vec<u8>> = payload.chunks(CHUNK_BYTES).map(<[u8]>::to_vec).collect();
    let crc = crc16(payload);
    frames.push(vec![(crc >> 8) as u8, (crc & 0xFF) as u8]);
    frames
}

/// Reassembles chunks produced by [`encode_message`] and verifies the CRC.
///
/// # Errors
///
/// Returns [`TransferError::Truncated`] if no CRC trailer is present, or
/// [`TransferError::CrcMismatch`] if verification fails.
pub fn decode_message(frames: &[Vec<u8>]) -> Result<Vec<u8>, TransferError> {
    let total: usize = frames.iter().map(Vec::len).sum();
    if frames.is_empty() || frames[frames.len() - 1].len() != 2 {
        return Err(TransferError::Truncated { received: total });
    }
    let (payload_frames, trailer) = frames.split_at(frames.len() - 1);
    let payload: Vec<u8> = payload_frames.concat();
    let expected = (u16::from(trailer[0][0]) << 8) | u16::from(trailer[0][1]);
    let computed = crc16(&payload);
    if expected != computed {
        return Err(TransferError::CrcMismatch { expected, computed });
    }
    Ok(payload)
}

/// The serializable counters of an [`I2cBus`] (for checkpointing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Total transactions attempted.
    pub transactions: u64,
    /// Transactions that failed (NAK or CRC).
    pub failures: u64,
    /// Payload bytes successfully delivered.
    pub bytes_moved: u64,
}

/// Statistics and fault injection for one I2C bus segment.
///
/// A bus carries messages between one master and its slaves. Fault rates are
/// per-*transaction* probabilities; the default bus is ideal.
///
/// # Examples
///
/// ```
/// use puftestbed::i2c::{Address, I2cBus};
/// use rand::SeedableRng;
///
/// let mut bus = I2cBus::ideal();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let addr = Address::new(0x10)?;
/// let payload = vec![7u8; 100];
/// let received = bus.transfer(addr, &payload, &mut rng)?;
/// assert_eq!(received, payload);
/// assert_eq!(bus.transactions(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct I2cBus {
    nack_rate: f64,
    corruption_rate: f64,
    transactions: u64,
    failures: u64,
    bytes_moved: u64,
}

impl Default for I2cBus {
    fn default() -> Self {
        Self::ideal()
    }
}

impl I2cBus {
    /// A fault-free bus.
    pub fn ideal() -> Self {
        Self {
            nack_rate: 0.0,
            corruption_rate: 0.0,
            transactions: 0,
            failures: 0,
            bytes_moved: 0,
        }
    }

    /// A bus that NAKs or corrupts transactions with the given
    /// probabilities (fault injection for robustness tests).
    ///
    /// # Panics
    ///
    /// Panics if either rate is outside `[0, 1]`.
    pub fn with_faults(nack_rate: f64, corruption_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&nack_rate) && (0.0..=1.0).contains(&corruption_rate),
            "fault rates must be probabilities"
        );
        Self {
            nack_rate,
            corruption_rate,
            ..Self::ideal()
        }
    }

    /// Transfers `payload` from the slave at `address` to the master,
    /// through chunking, optional fault injection, and CRC verification.
    ///
    /// The message travels in one buffer, the payload followed by its CRC
    /// trailer; corruption picks a frame and a bit of it exactly as it
    /// would in the frames of [`encode_message`], whose last frame is the
    /// trailer.
    ///
    /// # Errors
    ///
    /// Returns a [`TransferError`] if the (simulated) slave NAKs or the CRC
    /// fails after corruption.
    pub fn transfer<R: Rng + ?Sized>(
        &mut self,
        address: Address,
        payload: &[u8],
        rng: &mut R,
    ) -> Result<Vec<u8>, TransferError> {
        self.transactions += 1;
        if self.nack_rate > 0.0 && rng.gen::<f64>() < self.nack_rate {
            self.failures += 1;
            return Err(TransferError::Nack {
                address: address.value(),
            });
        }
        let len = payload.len();
        let mut message = Vec::with_capacity(len + 2);
        message.extend_from_slice(payload);
        message.extend_from_slice(&crc16(payload).to_be_bytes());
        if self.corruption_rate > 0.0 && rng.gen::<f64>() < self.corruption_rate {
            // Flip one random bit in a random payload frame, or in the
            // trailer when there is no payload.
            let fi = rng.gen_range(0..len.div_ceil(CHUNK_BYTES).max(1));
            let start = fi * CHUNK_BYTES;
            let frame_len = if len == 0 {
                2
            } else {
                CHUNK_BYTES.min(len - start)
            };
            let bi = rng.gen_range(0..frame_len * 8);
            message[start + bi / 8] ^= 1 << (bi % 8);
        }
        let expected = u16::from_be_bytes([message[len], message[len + 1]]);
        let computed = crc16(&message[..len]);
        if expected != computed {
            self.failures += 1;
            return Err(TransferError::CrcMismatch { expected, computed });
        }
        message.truncate(len);
        self.bytes_moved += len as u64;
        Ok(message)
    }

    /// Books a transfer attempt that was failed by the deterministic fault
    /// layer *before* it reached the wire: the bus counters stay honest
    /// (one attempted transaction, one failure) without drawing from any
    /// RNG stream, which is what keeps injected faults independent of the
    /// board's main random stream.
    pub fn record_injected_failure(&mut self) {
        self.transactions += 1;
        self.failures += 1;
    }

    /// Snapshot of the bus counters (for checkpointing).
    pub fn stats(&self) -> BusStats {
        BusStats {
            transactions: self.transactions,
            failures: self.failures,
            bytes_moved: self.bytes_moved,
        }
    }

    /// Restores the bus counters from a snapshot. The fault rates are
    /// configuration, not state, and are untouched.
    pub fn restore_stats(&mut self, stats: BusStats) {
        self.transactions = stats.transactions;
        self.failures = stats.failures;
        self.bytes_moved = stats.bytes_moved;
    }

    /// Total transactions attempted.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Transactions that failed (NAK or CRC).
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Payload bytes successfully delivered.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// CRC-16/CCITT-FALSE one bit at a time: the definition `crc16` must
    /// match.
    fn crc16_bitwise(data: &[u8]) -> u16 {
        let mut crc: u16 = 0xFFFF;
        for &byte in data {
            crc ^= u16::from(byte) << 8;
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

    #[test]
    fn crc16_check_value() {
        assert_eq!(crc16(b"123456789"), 0x29B1);
        assert_eq!(crc16(b""), 0xFFFF);
    }

    #[test]
    fn crc16_matches_the_bitwise_definition() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut random = |len: usize| (0..len).map(|_| rng.gen::<u8>()).collect::<Vec<_>>();
        let short = random(64);
        for len in 0..=short.len() {
            let data = &short[..len];
            assert_eq!(crc16(data), crc16_bitwise(data), "len {len}");
        }
        for len in [1_024, 4_097] {
            let data = random(len);
            assert_eq!(crc16(&data), crc16_bitwise(&data), "len {len}");
        }
    }

    #[test]
    fn encode_chunks_at_wire_size() {
        let payload = vec![0xAB; 100];
        let frames = encode_message(&payload);
        // 100 bytes → 32+32+32+4 payload frames + CRC trailer.
        assert_eq!(frames.len(), 5);
        assert_eq!(frames[0].len(), 32);
        assert_eq!(frames[3].len(), 4);
        assert_eq!(frames[4].len(), 2);
    }

    #[test]
    fn decode_round_trips() {
        for len in [0, 1, 31, 32, 33, 1024] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let frames = encode_message(&payload);
            assert_eq!(decode_message(&frames).unwrap(), payload, "len {len}");
        }
    }

    #[test]
    fn corruption_is_detected() {
        let payload = vec![0x55; 64];
        let mut frames = encode_message(&payload);
        frames[1][3] ^= 0x04;
        let err = decode_message(&frames).unwrap_err();
        assert!(matches!(err, TransferError::CrcMismatch { .. }));
        assert!(err.to_string().contains("crc mismatch"));
    }

    #[test]
    fn truncation_is_detected() {
        let payload = vec![1u8; 40];
        let mut frames = encode_message(&payload);
        frames.pop(); // drop the CRC trailer
        assert!(matches!(
            decode_message(&frames),
            Err(TransferError::Truncated { .. })
        ));
    }

    #[test]
    fn ideal_bus_moves_everything() {
        let mut bus = I2cBus::ideal();
        let mut rng = StdRng::seed_from_u64(1);
        let addr = Address::new(0x20).unwrap();
        for _ in 0..10 {
            bus.transfer(addr, &[1, 2, 3], &mut rng).unwrap();
        }
        assert_eq!(bus.transactions(), 10);
        assert_eq!(bus.failures(), 0);
        assert_eq!(bus.bytes_moved(), 30);
    }

    #[test]
    fn faulty_bus_fails_at_expected_rate() {
        let mut bus = I2cBus::with_faults(0.3, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let addr = Address::new(0x21).unwrap();
        let n = 2000;
        let mut nacks = 0u32;
        for _ in 0..n {
            if bus.transfer(addr, &[0u8; 16], &mut rng).is_err() {
                nacks += 1;
            }
        }
        let rate = f64::from(nacks) / f64::from(n);
        assert!((rate - 0.3).abs() < 0.05, "nack rate {rate}");
        assert_eq!(bus.failures(), u64::from(nacks));
    }

    #[test]
    fn corrupting_bus_reports_crc_errors() {
        let mut bus = I2cBus::with_faults(0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let addr = Address::new(0x22).unwrap();
        let err = bus.transfer(addr, &[9u8; 64], &mut rng).unwrap_err();
        assert!(matches!(err, TransferError::CrcMismatch { .. }));
    }

    /// `I2cBus::transfer` through the frames of `encode_message` and
    /// `decode_message`, as it ran before it kept the message in one
    /// buffer.
    fn transfer_via_frames<R: Rng + ?Sized>(
        bus: &mut I2cBus,
        address: Address,
        payload: &[u8],
        rng: &mut R,
    ) -> Result<Vec<u8>, TransferError> {
        bus.transactions += 1;
        if bus.nack_rate > 0.0 && rng.gen::<f64>() < bus.nack_rate {
            bus.failures += 1;
            return Err(TransferError::Nack {
                address: address.value(),
            });
        }
        let mut frames = encode_message(payload);
        if bus.corruption_rate > 0.0 && rng.gen::<f64>() < bus.corruption_rate {
            let fi = rng.gen_range(0..frames.len().saturating_sub(1).max(1));
            if !frames[fi].is_empty() {
                let bi = rng.gen_range(0..frames[fi].len() * 8);
                frames[fi][bi / 8] ^= 1 << (bi % 8);
            }
        }
        let result = decode_message(&frames);
        match &result {
            Ok(bytes) => bus.bytes_moved += bytes.len() as u64,
            Err(_) => bus.failures += 1,
        }
        result
    }

    #[test]
    fn transfer_matches_the_framed_message_path() {
        let mut data_rng = StdRng::seed_from_u64(6);
        let payloads: Vec<Vec<u8>> = (0..=100)
            .chain([1_024])
            .map(|len| (0..len).map(|_| data_rng.gen::<u8>()).collect())
            .collect();
        let addr = Address::new(0x24).unwrap();
        for (nack_rate, corruption_rate) in [(0.0, 1.0), (0.0, 0.5), (0.3, 1.0), (0.3, 0.5)] {
            let mut bus = I2cBus::with_faults(nack_rate, corruption_rate);
            let mut framed = bus.clone();
            let mut rng = StdRng::seed_from_u64(7);
            let mut framed_rng = rng.clone();
            for round in 0..4 {
                for payload in &payloads {
                    let at = format!(
                        "nack {nack_rate}, corruption {corruption_rate}, \
                         {} bytes, round {round}",
                        payload.len()
                    );
                    assert_eq!(
                        bus.transfer(addr, payload, &mut rng),
                        transfer_via_frames(&mut framed, addr, payload, &mut framed_rng),
                        "{at}"
                    );
                    assert_eq!(rng, framed_rng, "RNG state differs: {at}");
                }
            }
            assert_eq!(bus, framed);
            // Every single-bit flip fails the CRC.
            assert!(bus.failures() > 0);
            assert_eq!(bus.bytes_moved() > 0, corruption_rate < 1.0);
        }
    }

    #[test]
    fn stats_round_trip_preserves_the_counters() {
        let mut bus = I2cBus::with_faults(0.5, 0.0);
        let mut rng = StdRng::seed_from_u64(4);
        let addr = Address::new(0x23).unwrap();
        for _ in 0..50 {
            let _ = bus.transfer(addr, &[1, 2, 3], &mut rng);
        }
        let stats = bus.stats();
        assert_eq!(stats.transactions, 50);
        let mut fresh = I2cBus::with_faults(0.5, 0.0);
        fresh.restore_stats(stats);
        assert_eq!(fresh.stats(), stats);
        assert_eq!(fresh.transactions(), bus.transactions());
        assert_eq!(fresh.failures(), bus.failures());
        assert_eq!(fresh.bytes_moved(), bus.bytes_moved());
    }

    #[test]
    fn reserved_addresses_rejected() {
        assert!(Address::new(0x00).is_err());
        assert!(Address::new(0x07).is_err());
        assert!(Address::new(0x78).is_err());
        assert!(Address::new(0x08).is_ok());
        assert!(Address::new(0x77).is_ok());
        assert!(Address::new(0x00).unwrap_err().to_string().contains("0x00"));
    }
}
