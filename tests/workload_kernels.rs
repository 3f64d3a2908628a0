//! The workload kernels run real software on the host — AES-128 for DE,
//! a microphone window and a FIR filter for SC — while the simulator
//! bills their simulated cost from `react_workloads::costs`. The host
//! implementations are written for speed, so this suite pins them
//! bit-for-bit against plain textbook references kept here, and pins
//! whole SC and DE cells to values recorded before the fast kernels
//! replaced the textbook ones.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use react_repro::core::{find_scenario, Scenario};
use react_repro::units::{Joules, Seconds, Volts};
use react_repro::workloads::aes::Aes128;
use react_repro::workloads::fir::FirFilter;
use react_repro::workloads::mic::Microphone;
use react_repro::workloads::{DataEncryption, SenseCompute, Workload, WorkloadEnv};

/// splitmix64: a seeded stream for key/block/signal draws.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn bytes16(&mut self) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&self.next_u64().to_le_bytes());
        b[8..].copy_from_slice(&self.next_u64().to_le_bytes());
        b
    }

    /// Uniform in [-1, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Byte-oriented FIPS-197 AES-128 encryption: SubBytes, ShiftRows,
/// MixColumns and AddRoundKey applied one by one to a column-major
/// state (byte `r + 4c`), with the S-box derived from its definition.
mod reference_aes {
    use std::sync::OnceLock;

    fn xtime(b: u8) -> u8 {
        (b << 1) ^ (((b >> 7) & 1) * 0x1b)
    }

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

    /// Multiplicative inverse in GF(2⁸) (x²⁵⁴), then the affine map.
    fn sub_byte(x: u8) -> u8 {
        let mut inv = 1u8;
        for _ in 0..254 {
            inv = gmul(inv, x);
        }
        let inv = if x == 0 { 0 } else { inv };
        inv ^ inv.rotate_left(1)
            ^ inv.rotate_left(2)
            ^ inv.rotate_left(3)
            ^ inv.rotate_left(4)
            ^ 0x63
    }

    pub struct Reference {
        sbox: [u8; 256],
        round_keys: [[u8; 16]; 11],
    }

    impl Reference {
        pub fn new(key: &[u8; 16]) -> Self {
            static SBOX: OnceLock<[u8; 256]> = OnceLock::new();
            let sbox = *SBOX.get_or_init(|| std::array::from_fn(|i| sub_byte(i as u8)));
            let rcon = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];
            let mut rk = [[0u8; 16]; 11];
            rk[0] = *key;
            for round in 1..=10 {
                let prev = rk[round - 1];
                let mut word = [prev[12], prev[13], prev[14], prev[15]];
                word.rotate_left(1);
                for b in &mut word {
                    *b = sbox[*b as usize];
                }
                word[0] ^= rcon[round - 1];
                for i in 0..4 {
                    rk[round][i] = prev[i] ^ word[i];
                }
                for i in 4..16 {
                    rk[round][i] = prev[i] ^ rk[round][i - 4];
                }
            }
            Self {
                sbox,
                round_keys: rk,
            }
        }

        fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
            for (s, k) in state.iter_mut().zip(rk) {
                *s ^= k;
            }
        }

        fn sub_bytes(&self, state: &mut [u8; 16]) {
            for b in state.iter_mut() {
                *b = self.sbox[*b as usize];
            }
        }

        fn shift_rows(state: &mut [u8; 16]) {
            for r in 1..4 {
                let row = [state[r], state[r + 4], state[r + 8], state[r + 12]];
                for c in 0..4 {
                    state[r + 4 * c] = row[(c + r) % 4];
                }
            }
        }

        fn mix_columns(state: &mut [u8; 16]) {
            for c in 0..4 {
                let col = [
                    state[4 * c],
                    state[4 * c + 1],
                    state[4 * c + 2],
                    state[4 * c + 3],
                ];
                state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
                state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
                state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
                state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
            }
        }

        pub fn encrypt_block(&self, block: &mut [u8; 16]) {
            Self::add_round_key(block, &self.round_keys[0]);
            for round in 1..10 {
                self.sub_bytes(block);
                Self::shift_rows(block);
                Self::mix_columns(block);
                Self::add_round_key(block, &self.round_keys[round]);
            }
            self.sub_bytes(block);
            Self::shift_rows(block);
            Self::add_round_key(block, &self.round_keys[10]);
        }
    }
}

#[test]
fn aes_matches_byte_oriented_reference_on_seeded_pairs() {
    let mut rng = SplitMix(0xAE5_128);
    for _ in 0..2000 {
        let key = rng.bytes16();
        let block = rng.bytes16();
        let (mut fast, mut slow) = (block, block);
        Aes128::new(&key).encrypt_block(&mut fast);
        reference_aes::Reference::new(&key).encrypt_block(&mut slow);
        assert_eq!(fast, slow, "key {key:02x?} block {block:02x?}");
        let mut back = fast;
        Aes128::new(&key).decrypt_block(&mut back);
        assert_eq!(back, block);
    }
}

#[test]
fn aes_fips197_vectors_hold_for_both_implementations() {
    // FIPS-197 Appendix B and Appendix C.1.
    let vectors: [([u8; 16], [u8; 16], [u8; 16]); 2] = [
        (
            [
                0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
                0x4f, 0x3c,
            ],
            [
                0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
                0x07, 0x34,
            ],
            [
                0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
                0x0b, 0x32,
            ],
        ),
        (
            std::array::from_fn(|i| i as u8),
            std::array::from_fn(|i| i as u8 * 0x11),
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a,
            ],
        ),
    ];
    for (key, plain, cipher) in vectors {
        let mut fast = plain;
        Aes128::new(&key).encrypt_block(&mut fast);
        assert_eq!(fast, cipher);
        let mut slow = plain;
        reference_aes::Reference::new(&key).encrypt_block(&mut slow);
        assert_eq!(slow, cipher);
    }
}

/// DE's running digest after `ops` encryptions of its 1 KiB buffer,
/// recomputed with the reference cipher.
#[test]
fn de_digest_matches_reference_encryption() {
    let reference = reference_aes::Reference::new(b"react-asplos2024");
    let mut buffer: [u8; 1024] = std::array::from_fn(|i| (i % 251) as u8);
    let mut de = DataEncryption::new();
    let env = WorkloadEnv {
        now: Seconds::ZERO,
        dt: Seconds::new(0.001),
        rail_voltage: Volts::new(3.3),
        usable_energy: Joules::new(1.0),
        supports_longevity: false,
    };
    let mut expected = 0u8;
    for op in 1..=5 {
        while de.ops_completed() < op {
            de.step(&env);
        }
        for chunk in buffer.chunks_exact_mut(16) {
            reference.encrypt_block(chunk.try_into().expect("16-byte chunk"));
        }
        expected = buffer.iter().fold(expected, |d, &b| d ^ b);
        assert_eq!(de.digest(), expected, "after op {op}");
    }
}

/// Zero-padded convolution, one output at a time, every tap visited.
fn naive_fir(taps: &[f64], signal: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; signal.len()];
    for (i, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (k, &tap) in taps.iter().enumerate() {
            if let Some(&x) = i.checked_sub(k).and_then(|j| signal.get(j)) {
                acc += tap * x;
            }
        }
        *o = acc;
    }
    out
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn fir_matches_naive_convolution_bit_for_bit() {
    let mut rng = SplitMix(0x0F14);
    let filters = [
        FirFilter::lowpass(0.0625, 63),
        FirFilter::lowpass(0.2, 15),
        FirFilter::lowpass(0.1, 64),
        FirFilter::new(vec![0.5]),
        FirFilter::new((0..9).map(|_| rng.unit()).collect()),
    ];
    for filter in &filters {
        for n in [1, 7, 8, 9, 62, 63, 64, 65, 160, 500] {
            let signal: Vec<f64> = (0..n).map(|_| rng.unit()).collect();
            assert_eq!(
                bits(&filter.apply(&signal)),
                bits(&naive_fir(filter.taps(), &signal)),
                "{} taps, {n} samples",
                filter.len()
            );
        }
    }
    // Signed zeros: each output starts from +0.0 in both.
    let f = FirFilter::new(vec![-1.0, 0.5, -0.25]);
    let signal = [0.0, -0.0, 0.0, -0.0, 1.0, -0.0, 0.0, -0.0, 0.0, -0.0];
    assert_eq!(bits(&f.apply(&signal)), bits(&naive_fir(f.taps(), &signal)));
}

/// The microphone's window `index`: two tones plus seeded noise,
/// every sample computed from scratch.
fn reference_window(seed: u64, index: u64, n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(index));
    let w = 2.0 * std::f64::consts::PI / 16_000.0;
    (0..n)
        .map(|i| {
            let t = i as f64;
            (440.0 * w * t).sin() + 0.5 * (5000.0 * w * t).sin() + 0.2 * rng.gen_range(-1.0..1.0)
        })
        .collect()
}

#[test]
fn microphone_windows_match_inline_reference() {
    for seed in [0, 7, 0x5C_5EED, 0xC0_55EED] {
        let mut mic = Microphone::spu0414(seed);
        // Windows of any length, in any order, follow the reference.
        for (index, n) in [160, 160, 64, 500, 1, 160].into_iter().enumerate() {
            assert_eq!(
                bits(&mic.acquire(n)),
                bits(&reference_window(seed, index as u64, n)),
                "seed {seed:#x} window {index} ({n} samples)"
            );
        }
    }
}

/// SC's reported level is the mean square of the low-passed window.
#[test]
fn sc_level_matches_reference_dsp() {
    let mut sc = SenseCompute::new(Seconds::new(60.0));
    let filter = FirFilter::lowpass(0.0625, 63);
    let dt = 0.001;
    let mut t = 0.0;
    for window in 0..3 {
        while sc.ops_completed() == window {
            sc.step(&WorkloadEnv {
                now: Seconds::new(t),
                dt: Seconds::new(dt),
                rail_voltage: Volts::new(3.3),
                usable_energy: Joules::new(1.0),
                supports_longevity: false,
            });
            t += dt;
        }
        let filtered = naive_fir(filter.taps(), &reference_window(0x5C_5EED, window, 160));
        let level = filtered.iter().map(|x| x * x).sum::<f64>() / filtered.len() as f64;
        assert_eq!(
            sc.last_level().to_bits(),
            level.to_bits(),
            "window {window}"
        );
    }
}

fn truncated(name: &str, horizon_s: f64) -> Scenario {
    let mut s = *find_scenario(name).expect("registry scenario");
    s.horizon = s.horizon.min(Seconds::new(horizon_s));
    s
}

/// (ops, engine steps, final stored energy bits) recorded with the
/// textbook kernels and stored deadline lists.
#[test]
fn sc_and_de_cells_match_recorded_outcomes() {
    for (name, horizon_s, expected) in [
        (
            "diurnal-day-react-sc",
            3600.0,
            (355, 4775, 4570455925511652526),
        ),
        (
            "rf-sparse-week",
            6.0 * 3600.0,
            (101, 976, 4565922996638005458),
        ),
        (
            "rf-ge-hour-react-de",
            300.0,
            (163, 16672, 4563386507208802100),
        ),
    ] {
        let m = truncated(name, horizon_s).run().metrics;
        let got = (
            m.ops_completed,
            m.engine_steps,
            m.final_stored.get().to_bits(),
        );
        assert_eq!(got, expected, "{name} capped at {horizon_s} s");
    }
}
