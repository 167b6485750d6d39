//! CRC-32 (IEEE 802.3 polynomial), table-driven, no external deps.
//!
//! Every WAL frame and snapshot payload is protected by this
//! checksum; recovery treats a mismatch as a torn or corrupted record
//! and stops replay at the previous commit point.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// Incremental CRC-32 state, for checksumming a frame without
/// concatenating its parts.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut c = self.0;
        for &b in data {
            c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The final checksum value.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// A checksum is a byte sink: a streaming encoder can be digested
/// without its output ever being held.
impl std::io::Write for Crc32 {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// `crc32(a ‖ b)` from `crc32(a)`, `crc32(b)` and `b.len()`, without
/// either byte string (zlib's `crc32_combine`). The snapshot writer
/// needs it: the checksummed header carries the payload length, which
/// a streamed payload only knows once it has been written.
pub fn combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    // Appending a zero bit to a message is a linear map on its CRC
    // register; `op` holds that map's 32 columns, squared until it
    // stands for one zero byte, then squared once per bit of `len_b`
    // (the k-th squaring appends 2^k zero bytes).
    fn times(op: &[u32; 32], mut vec: u32) -> u32 {
        let mut sum = 0;
        for column in op {
            if vec & 1 != 0 {
                sum ^= column;
            }
            vec >>= 1;
        }
        sum
    }
    fn square(op: &[u32; 32]) -> [u32; 32] {
        let mut out = [0u32; 32];
        for (o, column) in out.iter_mut().zip(op) {
            *o = times(op, *column);
        }
        out
    }
    let mut op = [0u32; 32];
    op[0] = POLY;
    for (n, column) in op.iter_mut().enumerate().skip(1) {
        *column = 1 << (n - 1);
    }
    for _ in 0..3 {
        op = square(&op);
    }
    let (mut crc, mut len) = (crc_a, len_b);
    while len != 0 {
        if len & 1 != 0 {
            crc = times(&op, crc);
        }
        op = square(&op);
        len >>= 1;
    }
    crc ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut inc = Crc32::new();
        inc.update(&data[..10]);
        inc.update(&data[10..]);
        assert_eq!(inc.finish(), crc32(data));
    }

    #[test]
    fn combine_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..700u32).map(|i| (i * 31 + 7) as u8).collect();
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(
                combine(crc32(a), crc32(b), b.len() as u64),
                crc32(&data),
                "split at {split}"
            );
        }
        // A length with high bits set: 24 header bytes ahead of 5 MiB.
        let big = vec![0xA5u8; 5 << 20];
        let mut whole = Crc32::new();
        whole.update(&data[..24]);
        whole.update(&big);
        assert_eq!(
            combine(crc32(&data[..24]), crc32(&big), big.len() as u64),
            whole.finish()
        );
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = b"hello, durable world".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
