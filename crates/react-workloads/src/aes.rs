//! Software AES-128 (FIPS-197), the Data-Encryption benchmark's kernel.
//!
//! The paper's DE benchmark "continuously perform\[s\] AES-128 encryptions
//! in software" (§4.2). The simulated time and energy of one op come
//! from [`costs::DE_OP`](crate::costs::DE_OP), not from how fast this code
//! runs on the host, so encryption uses the host-friendly 32-bit T-table
//! formulation (SubBytes, ShiftRows and MixColumns fused into four table
//! lookups per column). Decryption stays the byte-oriented textbook
//! inverse. Both are verified against the FIPS-197 and NIST SP 800-38A
//! vectors in the tests.

/// Block size in bytes.
pub const BLOCK_BYTES: usize = 16;
/// Key size in bytes (AES-128).
pub const KEY_BYTES: usize = 16;
const ROUNDS: usize = 10;

/// An expanded AES-128 key, ready to encrypt/decrypt blocks.
#[derive(Clone)]
pub struct Aes128 {
    /// One big-endian word per state column (FIPS-197 `w[4r + c]`).
    round_keys: [[u32; 4]; ROUNDS + 1],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Encryption T-table for row 0: column `(2·S[x], S[x], S[x], 3·S[x])`.
/// Rows 1–3 are byte rotations of it.
const TE0: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        t[i] = u32::from_be_bytes([s2, s, s, s2 ^ s]);
        i += 1;
    }
    t
};
const TE1: [u32; 256] = rotate_table(&TE0, 8);
const TE2: [u32; 256] = rotate_table(&TE0, 16);
const TE3: [u32; 256] = rotate_table(&TE0, 24);

const fn rotate_table(t: &[u32; 256], bits: u32) -> [u32; 256] {
    let mut r = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        r[i] = t[i].rotate_right(bits);
        i += 1;
    }
    r
}

#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// SubWord on a big-endian word.
#[inline]
fn sub_word(w: u32) -> u32 {
    let b = w.to_be_bytes();
    u32::from_be_bytes(b.map(|x| SBOX[x as usize]))
}

/// Byte `n` (0 = most significant) of a big-endian word, as an index.
#[inline]
fn byte(w: u32, n: u32) -> usize {
    ((w >> (24 - 8 * n)) & 0xff) as usize
}

/// GF(2⁸) multiplication.
#[inline]
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

impl Aes128 {
    /// Expands a 128-bit key.
    pub fn new(key: &[u8; KEY_BYTES]) -> Self {
        let mut rk = [[0u32; 4]; ROUNDS + 1];
        for (c, word) in rk[0].iter_mut().enumerate() {
            *word =
                u32::from_be_bytes([key[4 * c], key[4 * c + 1], key[4 * c + 2], key[4 * c + 3]]);
        }
        for round in 1..=ROUNDS {
            let prev = rk[round - 1];
            // RotWord + SubWord + Rcon.
            let mut word = sub_word(prev[3].rotate_left(8)) ^ (u32::from(RCON[round - 1]) << 24);
            for c in 0..4 {
                word ^= prev[c];
                rk[round][c] = word;
            }
        }
        Self { round_keys: rk }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u32; 4]) {
        for (column, word) in state.chunks_exact_mut(4).zip(rk) {
            for (s, k) in column.iter_mut().zip(word.to_be_bytes()) {
                *s ^= k;
            }
        }
    }

    fn inv_sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = INV_SBOX[*b as usize];
        }
    }

    /// State layout is column-major as in FIPS-197: byte `r + 4c`.
    fn inv_shift_rows(state: &mut [u8; 16]) {
        for r in 1..4 {
            let row = [state[r], state[r + 4], state[r + 8], state[r + 12]];
            for c in 0..4 {
                state[r + 4 * c] = row[(c + 4 - r) % 4];
            }
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] =
                gmul(col[0], 0x0e) ^ gmul(col[1], 0x0b) ^ gmul(col[2], 0x0d) ^ gmul(col[3], 0x09);
            state[4 * c + 1] =
                gmul(col[0], 0x09) ^ gmul(col[1], 0x0e) ^ gmul(col[2], 0x0b) ^ gmul(col[3], 0x0d);
            state[4 * c + 2] =
                gmul(col[0], 0x0d) ^ gmul(col[1], 0x09) ^ gmul(col[2], 0x0e) ^ gmul(col[3], 0x0b);
            state[4 * c + 3] =
                gmul(col[0], 0x0b) ^ gmul(col[1], 0x0d) ^ gmul(col[2], 0x09) ^ gmul(col[3], 0x0e);
        }
    }

    /// Encrypts one 16-byte block in place.
    ///
    /// Each column word is one state column; output column `c` of a round
    /// reads row `r` from input column `c + r` (ShiftRows), and the
    /// T-tables apply SubBytes and that row's MixColumns coefficients.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_BYTES]) {
        let rk = &self.round_keys;
        let mut s = [0u32; 4];
        for (c, w) in s.iter_mut().enumerate() {
            *w = u32::from_be_bytes([
                block[4 * c],
                block[4 * c + 1],
                block[4 * c + 2],
                block[4 * c + 3],
            ]) ^ rk[0][c];
        }
        for round_key in &rk[1..ROUNDS] {
            let mut t = [0u32; 4];
            for (c, w) in t.iter_mut().enumerate() {
                *w = TE0[byte(s[c], 0)]
                    ^ TE1[byte(s[(c + 1) % 4], 1)]
                    ^ TE2[byte(s[(c + 2) % 4], 2)]
                    ^ TE3[byte(s[(c + 3) % 4], 3)]
                    ^ round_key[c];
            }
            s = t;
        }
        for c in 0..4 {
            let column = [
                SBOX[byte(s[c], 0)],
                SBOX[byte(s[(c + 1) % 4], 1)],
                SBOX[byte(s[(c + 2) % 4], 2)],
                SBOX[byte(s[(c + 3) % 4], 3)],
            ];
            let out = u32::from_be_bytes(column) ^ rk[ROUNDS][c];
            block[4 * c..4 * c + 4].copy_from_slice(&out.to_be_bytes());
        }
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; BLOCK_BYTES]) {
        Self::add_round_key(block, &self.round_keys[ROUNDS]);
        for round in (1..ROUNDS).rev() {
            Self::inv_shift_rows(block);
            Self::inv_sub_bytes(block);
            Self::add_round_key(block, &self.round_keys[round]);
            Self::inv_mix_columns(block);
        }
        Self::inv_shift_rows(block);
        Self::inv_sub_bytes(block);
        Self::add_round_key(block, &self.round_keys[0]);
    }

    /// Encrypts a whole buffer in ECB mode (the DE benchmark's bulk
    /// operation). The length must be a multiple of 16.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of the block size.
    pub fn encrypt_ecb(&self, data: &mut [u8]) {
        assert!(
            data.len().is_multiple_of(BLOCK_BYTES),
            "length must be a block multiple"
        );
        for chunk in data.chunks_exact_mut(BLOCK_BYTES) {
            let block: &mut [u8; 16] = chunk.try_into().expect("exact chunk");
            self.encrypt_block(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B: the worked example.
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let aes = Aes128::new(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(block, expected);
    }

    #[test]
    fn fips197_appendix_c_vector() {
        // FIPS-197 Appendix C.1.
        let key: [u8; 16] = (0u8..16).collect::<Vec<_>>().try_into().unwrap();
        let mut block: [u8; 16] = (0u8..16)
            .map(|i| i * 0x11)
            .collect::<Vec<_>>()
            .try_into()
            .unwrap();
        let expected = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(block, expected);
    }

    #[test]
    fn nist_sp800_38a_ecb_vectors() {
        // SP 800-38A F.1.1, ECB-AES128 blocks 1–4.
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let plain: [[u8; 16]; 4] = [
            [
                0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
                0x17, 0x2a,
            ],
            [
                0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf,
                0x8e, 0x51,
            ],
            [
                0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb, 0xc1, 0x19, 0x1a, 0x0a,
                0x52, 0xef,
            ],
            [
                0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17, 0xad, 0x2b, 0x41, 0x7b, 0xe6, 0x6c,
                0x37, 0x10,
            ],
        ];
        let cipher: [[u8; 16]; 4] = [
            [
                0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
                0xef, 0x97,
            ],
            [
                0xf5, 0xd3, 0xd5, 0x85, 0x03, 0xb9, 0x69, 0x9d, 0xe7, 0x85, 0x89, 0x5a, 0x96, 0xfd,
                0xba, 0xaf,
            ],
            [
                0x43, 0xb1, 0xcd, 0x7f, 0x59, 0x8e, 0xce, 0x23, 0x88, 0x1b, 0x00, 0xe3, 0xed, 0x03,
                0x06, 0x88,
            ],
            [
                0x7b, 0x0c, 0x78, 0x5e, 0x27, 0xe8, 0xad, 0x3f, 0x82, 0x23, 0x20, 0x71, 0x04, 0x72,
                0x5d, 0xd4,
            ],
        ];
        let aes = Aes128::new(&key);
        for (p, c) in plain.iter().zip(&cipher) {
            let mut b = *p;
            aes.encrypt_block(&mut b);
            assert_eq!(&b, c);
        }
    }

    #[test]
    fn decrypt_inverts_encrypt() {
        let key = [7u8; 16];
        let aes = Aes128::new(&key);
        let original: [u8; 16] = *b"intermittent ok!";
        let mut block = original;
        aes.encrypt_block(&mut block);
        assert_ne!(block, original);
        aes.decrypt_block(&mut block);
        assert_eq!(block, original);
    }

    #[test]
    fn ecb_bulk_matches_blockwise() {
        let key = [0x42u8; 16];
        let aes = Aes128::new(&key);
        let mut bulk = [0u8; 64];
        for (i, b) in bulk.iter_mut().enumerate() {
            *b = i as u8;
        }
        let mut blockwise = bulk;
        aes.encrypt_ecb(&mut bulk);
        for chunk in blockwise.chunks_exact_mut(16) {
            aes.encrypt_block(chunk.try_into().unwrap());
        }
        assert_eq!(bulk, blockwise);
    }

    #[test]
    #[should_panic(expected = "block multiple")]
    fn ecb_rejects_partial_blocks() {
        let aes = Aes128::new(&[0u8; 16]);
        let mut data = [0u8; 17];
        aes.encrypt_ecb(&mut data);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes128::new(&[0x13u8; 16]);
        let s = format!("{aes:?}");
        assert!(!s.contains("13"));
    }

    #[test]
    fn gmul_known_values() {
        // {57} · {83} = {c1} (FIPS-197 §4.2 example).
        assert_eq!(gmul(0x57, 0x83), 0xc1);
        assert_eq!(gmul(0x57, 0x13), 0xfe);
    }
}
