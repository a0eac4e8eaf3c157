//! The code-offset fuzzy extractor: enroll once, reconstruct forever.
//!
//! The bulk bit operations — debias pair selection at enrollment, the
//! helper-data XOR offsets here — run word-parallel via `pufbits` (the
//! `pair_select` kernel and `BitVec`'s word-wise XOR), producing the same
//! bits as a per-pair scan; key material is unchanged by the kernel path.

use crate::debias::{enroll_debias, reconstruct_debias};
use crate::ecc::{
    decode_blocks, encode_blocks, BlockCode, Concatenated, DecodeError, DecodeErrorKind, Golay,
    PolarCode, Repetition,
};
use crate::sha256::{digest, hmac};
use pufbits::BitVec;
use rand::Rng;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Which error-correcting code a key was enrolled with — persisted in the
/// helper data so reconstruction rebuilds the identical codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeSpec {
    /// Golay \[23,12,7\] outer code over an odd repetition inner code.
    GolayRepetition {
        /// Inner repetition factor (odd).
        repetition: usize,
    },
    /// Polar code with successive-cancellation decoding (the paper's
    /// ref \[13\] construction).
    Polar {
        /// Block length (power of two).
        n: usize,
        /// Information bits per block.
        k: usize,
    },
}

/// Design crossover probability used for polar construction: covers the
/// paper's end-of-life worst case with margin.
const POLAR_DESIGN_P: f64 = 0.05;

/// Largest codeword block a [`CodeSpec`] may build. No simulated response
/// can cover more: debiasing keeps at most one bit per raw pair, and the
/// whole ATmega32u4 SRAM is 20 480 bits.
const MAX_CODEWORD_BITS: usize = 65_536;

impl fmt::Display for CodeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CodeSpec::GolayRepetition { repetition } => write!(f, "golay-r{repetition}"),
            CodeSpec::Polar { n, k } => write!(f, "polar-{n}-{k}"),
        }
    }
}

/// Error from parsing a [`CodeSpec`] token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCodeSpecError {
    /// The rejected token.
    pub token: String,
}

impl fmt::Display for ParseCodeSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid code spec '{}': expected golay-r<R> or polar-<N>-<K>",
            self.token
        )
    }
}

impl Error for ParseCodeSpecError {}

impl FromStr for CodeSpec {
    type Err = ParseCodeSpecError;

    /// Parses the textual form produced by `Display`: `golay-r<R>` for the
    /// Golay ⊗ repetition-`R` concatenation, `polar-<N>-<K>` for a polar
    /// code. Parsing is purely syntactic; parameter validity is checked when
    /// the spec is built (e.g. via [`KeyGenerator::from_spec`]).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || ParseCodeSpecError {
            token: s.to_string(),
        };
        if let Some(rep) = s.strip_prefix("golay-r") {
            let repetition = rep.parse::<usize>().map_err(|_| bad())?;
            return Ok(CodeSpec::GolayRepetition { repetition });
        }
        if let Some(rest) = s.strip_prefix("polar-") {
            let (n, k) = rest.split_once('-').ok_or_else(bad)?;
            return Ok(CodeSpec::Polar {
                n: n.parse::<usize>().map_err(|_| bad())?,
                k: k.parse::<usize>().map_err(|_| bad())?,
            });
        }
        Err(bad())
    }
}

/// Code instances built from a [`CodeSpec`].
#[derive(Debug, Clone)]
enum AnyCode {
    GolayRepetition(Concatenated),
    Polar(PolarCode),
}

impl CodeSpec {
    /// Builds the code, refusing invalid parameters and codeword blocks
    /// longer than [`MAX_CODEWORD_BITS`] before allocating anything.
    fn build(&self) -> Result<AnyCode, KeyError> {
        let block_bits = match *self {
            CodeSpec::GolayRepetition { repetition } => {
                repetition.checked_mul(Golay::new().codeword_bits())
            }
            CodeSpec::Polar { n, .. } => Some(n),
        };
        if block_bits.is_none_or(|bits| bits > MAX_CODEWORD_BITS) {
            return Err(KeyError::InvalidCodeSpec);
        }
        match *self {
            CodeSpec::GolayRepetition { repetition } => {
                Ok(AnyCode::GolayRepetition(Concatenated::new(
                    Golay::new(),
                    Repetition::new(repetition).map_err(|_| KeyError::InvalidCodeSpec)?,
                )))
            }
            CodeSpec::Polar { n, k } => Ok(AnyCode::Polar(
                PolarCode::new(n, k, POLAR_DESIGN_P).map_err(|_| KeyError::InvalidCodeSpec)?,
            )),
        }
    }
}

impl BlockCode for AnyCode {
    fn message_bits(&self) -> usize {
        match self {
            AnyCode::GolayRepetition(c) => c.message_bits(),
            AnyCode::Polar(c) => c.message_bits(),
        }
    }

    fn codeword_bits(&self) -> usize {
        match self {
            AnyCode::GolayRepetition(c) => c.codeword_bits(),
            AnyCode::Polar(c) => c.codeword_bits(),
        }
    }

    fn correctable_errors(&self) -> usize {
        match self {
            AnyCode::GolayRepetition(c) => c.correctable_errors(),
            AnyCode::Polar(c) => c.correctable_errors(),
        }
    }

    fn encode(&self, message: &BitVec) -> BitVec {
        match self {
            AnyCode::GolayRepetition(c) => c.encode(message),
            AnyCode::Polar(c) => c.encode(message),
        }
    }

    fn decode(&self, word: &BitVec) -> Result<BitVec, DecodeError> {
        match self {
            AnyCode::GolayRepetition(c) => c.decode(word),
            AnyCode::Polar(c) => c.decode(word),
        }
    }
}

/// Public helper data produced at enrollment. Reveals (computationally)
/// nothing about the key: the debias mask is value-independent and the code
/// offset masks the codeword with uniformly selected key material.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelperData {
    /// Debiasing selection mask over the raw response.
    pub debias_mask: BitVec,
    /// Code offset: `codeword XOR debiased_response`.
    pub offset: BitVec,
    /// Key-check value: `SHA-256(key || "check")[..8]`, detects
    /// reconstruction failure without revealing the key.
    pub key_check: [u8; 8],
    /// Secret-bit count carried by the codeword.
    pub secret_bits: usize,
    /// The code the key was enrolled with.
    pub code: CodeSpec,
}

/// A successful enrollment: the derived key plus its helper data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Enrollment {
    /// The derived 256-bit key.
    pub key: [u8; 32],
    /// Helper data to store publicly for later reconstruction.
    pub helper: HelperData,
}

/// Error from enrollment or reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyError {
    /// The (debiased) response is too short for the requested key strength.
    InsufficientMaterial {
        /// Debiased bits available.
        available: usize,
        /// Debiased bits required.
        required: usize,
    },
    /// Reconstruction produced a key failing the check value — the response
    /// drifted beyond the code's correction capability.
    CheckMismatch,
    /// The response length does not match the helper data.
    LengthMismatch {
        /// Response bits supplied.
        response: usize,
        /// Response bits expected by the helper data.
        expected: usize,
    },
    /// The helper data carries an invalid code specification.
    InvalidCodeSpec,
    /// The helper data is structurally inconsistent with its code spec
    /// (offset not a whole number of codeword blocks, or too short for the
    /// declared secret length).
    MalformedHelper,
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::InsufficientMaterial {
                available,
                required,
            } => write!(
                f,
                "response yields {available} debiased bits, key needs {required}"
            ),
            KeyError::CheckMismatch => write!(f, "reconstructed key failed its check value"),
            KeyError::LengthMismatch { response, expected } => write!(
                f,
                "response is {response} bits, helper data expects {expected}"
            ),
            KeyError::InvalidCodeSpec => write!(f, "helper data carries an invalid code spec"),
            KeyError::MalformedHelper => {
                write!(f, "helper data is inconsistent with its code spec")
            }
        }
    }
}

impl Error for KeyError {}

/// The key generator: a parameterized code-offset fuzzy extractor over the
/// debiased SRAM response.
///
/// The generator builds its code once, at construction; enrollment and
/// reconstruction reuse it. Two generators are equal when their secret
/// lengths and code specs are.
///
/// See the crate-level example for end-to-end usage.
#[derive(Clone)]
pub struct KeyGenerator {
    secret_bits: usize,
    spec: CodeSpec,
    code: AnyCode,
}

/// Shows what equality compares; the built code follows from the spec.
impl fmt::Debug for KeyGenerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyGenerator")
            .field("secret_bits", &self.secret_bits)
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

impl PartialEq for KeyGenerator {
    fn eq(&self, other: &Self) -> bool {
        (self.secret_bits, self.spec) == (other.secret_bits, other.spec)
    }
}

impl Eq for KeyGenerator {}

impl Default for KeyGenerator {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl KeyGenerator {
    /// 128 secret bits through a Golay ⊗ repetition-5 concatenation — a
    /// dimensioning that keeps the failure rate negligible at the paper's
    /// end-of-life worst-case BER (3.25 %). Requires ≈6 400 raw SRAM bits
    /// (the paper's 1 KB read-out comfortably suffices).
    pub fn paper_default() -> Self {
        Self::new(128, 5)
    }

    /// Custom Golay ⊗ repetition dimensioning.
    ///
    /// # Panics
    ///
    /// Panics if `secret_bits == 0`, `repetition` is even or zero, or the
    /// 23·`repetition`-bit block exceeds the 65 536-bit codeword cap.
    pub fn new(secret_bits: usize, repetition: usize) -> Self {
        assert!(secret_bits > 0, "need at least one secret bit");
        assert!(
            repetition % 2 == 1,
            "repetition factor must be odd, got {repetition}"
        );
        Self::from_spec(secret_bits, CodeSpec::GolayRepetition { repetition })
            .unwrap_or_else(|_| panic!("repetition factor {repetition} exceeds the codeword cap"))
    }

    /// Polar-code dimensioning (the paper's ref \[13\] construction):
    /// `secret_bits` spread over rate-`k/n` polar blocks.
    ///
    /// # Panics
    ///
    /// Panics if `secret_bits == 0` or the polar parameters are invalid.
    pub fn with_polar(secret_bits: usize, n: usize, k: usize) -> Self {
        assert!(secret_bits > 0, "need at least one secret bit");
        Self::from_spec(secret_bits, CodeSpec::Polar { n, k })
            .unwrap_or_else(|_| panic!("invalid polar parameters n={n}, k={k}"))
    }

    /// Fallible constructor from an arbitrary (possibly parsed) spec — the
    /// entry point for configuration-driven callers that cannot tolerate the
    /// panicking constructors.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::InvalidCodeSpec`] if `secret_bits == 0`, the
    /// spec's parameters cannot build a code, or its codeword block would
    /// exceed 65 536 bits.
    pub fn from_spec(secret_bits: usize, spec: CodeSpec) -> Result<Self, KeyError> {
        if secret_bits == 0 {
            return Err(KeyError::InvalidCodeSpec);
        }
        Ok(Self {
            secret_bits,
            spec,
            code: spec.build()?,
        })
    }

    /// The code specification in use.
    pub fn code_spec(&self) -> CodeSpec {
        self.spec
    }

    /// The secret length the generator derives keys from.
    pub fn secret_bits(&self) -> usize {
        self.secret_bits
    }

    /// Raw response bits needed so that the *expected* debias yield covers
    /// the codeword at one-probability `bias` — a sizing aid for callers
    /// picking a profile for a given read width.
    pub fn expected_raw_bits(&self, bias: f64) -> usize {
        let per_bit = crate::debias::expected_yield(bias);
        (self.required_bits() as f64 / per_bit).ceil() as usize
    }

    /// Debiased bits needed to cover the codeword.
    pub(crate) fn required_bits(&self) -> usize {
        self.secret_bits.div_ceil(self.code.message_bits()) * self.code.codeword_bits()
    }

    /// Enrolls a device: derives a fresh key from `rng` and binds it to the
    /// response.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::InsufficientMaterial`] if the debiased response
    /// cannot cover the codeword.
    pub fn enroll<R: Rng + ?Sized>(
        &self,
        response: &BitVec,
        rng: &mut R,
    ) -> Result<Enrollment, KeyError> {
        let selection = enroll_debias(response);
        let required = self.required_bits();
        if selection.bits.len() < required {
            return Err(KeyError::InsufficientMaterial {
                available: selection.bits.len(),
                required,
            });
        }
        let secret = BitVec::from_bits((0..self.secret_bits).map(|_| rng.gen::<bool>()));
        let codeword = encode_blocks(&self.code, &secret);
        let material = selection.bits.prefix(codeword.len());
        let offset = codeword.xor(&material);
        let key = self.derive_key(&secret);
        Ok(Enrollment {
            helper: HelperData {
                debias_mask: selection.mask,
                offset,
                key_check: Self::check_value(&key),
                secret_bits: self.secret_bits,
                code: self.spec,
            },
            key,
        })
    }

    /// Reconstructs the enrolled key from a later, noisy response.
    ///
    /// Decodes with the generator's own code when the helper data carries
    /// the generator's spec, and otherwise builds the code the helper data
    /// names: the helper data, not the generator, fixes the codec.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::LengthMismatch`] for a response of the wrong
    /// size, [`KeyError::InsufficientMaterial`] if the mask selects too few
    /// bits, [`KeyError::MalformedHelper`] if the offset is structurally
    /// inconsistent with the code spec, or [`KeyError::CheckMismatch`] if
    /// the accumulated errors exceeded the code's capability.
    pub fn reconstruct(
        &self,
        response: &BitVec,
        helper: &HelperData,
    ) -> Result<[u8; 32], KeyError> {
        if response.len() != helper.debias_mask.len() {
            return Err(KeyError::LengthMismatch {
                response: response.len(),
                expected: helper.debias_mask.len(),
            });
        }
        let material = reconstruct_debias(response, &helper.debias_mask, helper.offset.len())
            .map_err(|e| KeyError::LengthMismatch {
                response: e.response,
                expected: e.mask,
            })?;
        if material.len() < helper.offset.len() {
            return Err(KeyError::InsufficientMaterial {
                available: material.len(),
                required: helper.offset.len(),
            });
        }
        let noisy_codeword = helper.offset.xor(&material);
        let built;
        let code = if helper.code == self.spec {
            &self.code
        } else {
            built = helper.code.build()?;
            &built
        };
        let secret =
            decode_blocks(code, &noisy_codeword, helper.secret_bits).map_err(|e| match e.kind {
                DecodeErrorKind::Uncorrectable => KeyError::CheckMismatch,
                _ => KeyError::MalformedHelper,
            })?;
        let key = self.derive_key(&secret);
        if Self::check_value(&key) != helper.key_check {
            return Err(KeyError::CheckMismatch);
        }
        Ok(key)
    }

    fn derive_key(&self, secret: &BitVec) -> [u8; 32] {
        hmac(b"sram-puf-longterm/kdf/v1", &secret.to_bytes())
    }

    fn check_value(key: &[u8; 32]) -> [u8; 8] {
        let mut input = Vec::with_capacity(key.len() + 5);
        input.extend_from_slice(key);
        input.extend_from_slice(b"check");
        let d = digest(&input);
        let mut out = [0u8; 8];
        out.copy_from_slice(&d[..8]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sramaging::{AgingSimulator, StressConditions};
    use sramcell::{Environment, SramArray, TechnologyProfile};

    fn device(seed: u64, bits: usize) -> (SramArray, Environment) {
        let mut rng = StdRng::seed_from_u64(seed);
        let profile = TechnologyProfile::atmega32u4();
        let sram = SramArray::generate(&profile, bits, &mut rng);
        let env = Environment::nominal(&profile);
        (sram, env)
    }

    #[test]
    fn enroll_then_reconstruct_same_device() {
        let mut rng = StdRng::seed_from_u64(100);
        let (sram, env) = device(100, 8192);
        let gen = KeyGenerator::paper_default();
        let e = gen
            .enroll(&sram.power_up(&env, &mut rng), &mut rng)
            .unwrap();
        for _ in 0..20 {
            let key = gen
                .reconstruct(&sram.power_up(&env, &mut rng), &e.helper)
                .unwrap();
            assert_eq!(key, e.key);
        }
    }

    #[test]
    fn reconstruction_survives_two_years_of_aging() {
        let mut rng = StdRng::seed_from_u64(101);
        let (mut sram, env) = device(101, 8192);
        let profile = sram.profile().clone();
        let gen = KeyGenerator::paper_default();
        let e = gen
            .enroll(&sram.power_up(&env, &mut rng), &mut rng)
            .unwrap();
        let mut sim = AgingSimulator::new(&profile, StressConditions::paper_campaign(&profile));
        sim.advance(&mut sram, 2.0, 24);
        for _ in 0..10 {
            let key = gen
                .reconstruct(&sram.power_up(&env, &mut rng), &e.helper)
                .unwrap();
            assert_eq!(key, e.key, "key must survive the paper's aging span");
        }
    }

    #[test]
    fn wrong_device_cannot_reconstruct() {
        let mut rng = StdRng::seed_from_u64(102);
        let (sram_a, env) = device(102, 8192);
        let (sram_b, _) = device(103, 8192);
        let gen = KeyGenerator::paper_default();
        let e = gen
            .enroll(&sram_a.power_up(&env, &mut rng), &mut rng)
            .unwrap();
        let err = gen
            .reconstruct(&sram_b.power_up(&env, &mut rng), &e.helper)
            .unwrap_err();
        assert_eq!(err, KeyError::CheckMismatch);
    }

    #[test]
    fn keys_differ_between_devices_and_enrollments() {
        let mut rng = StdRng::seed_from_u64(104);
        let (sram_a, env) = device(104, 8192);
        let (sram_b, _) = device(105, 8192);
        let gen = KeyGenerator::paper_default();
        let e1 = gen
            .enroll(&sram_a.power_up(&env, &mut rng), &mut rng)
            .unwrap();
        let e2 = gen
            .enroll(&sram_a.power_up(&env, &mut rng), &mut rng)
            .unwrap();
        let e3 = gen
            .enroll(&sram_b.power_up(&env, &mut rng), &mut rng)
            .unwrap();
        assert_ne!(e1.key, e2.key, "fresh key material per enrollment");
        assert_ne!(e1.key, e3.key);
    }

    #[test]
    fn short_response_is_rejected_with_requirements() {
        let mut rng = StdRng::seed_from_u64(106);
        let (sram, env) = device(106, 512);
        let gen = KeyGenerator::paper_default();
        let err = gen
            .enroll(&sram.power_up(&env, &mut rng), &mut rng)
            .unwrap_err();
        match err {
            KeyError::InsufficientMaterial {
                available,
                required,
            } => {
                assert!(available < required);
                assert_eq!(required, 11 * 115); // 128 bits → 11 Golay blocks
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn mismatched_response_length_is_rejected() {
        let mut rng = StdRng::seed_from_u64(107);
        let (sram, env) = device(107, 8192);
        let gen = KeyGenerator::paper_default();
        let e = gen
            .enroll(&sram.power_up(&env, &mut rng), &mut rng)
            .unwrap();
        let err = gen
            .reconstruct(&BitVec::zeros(4096), &e.helper)
            .unwrap_err();
        assert!(matches!(err, KeyError::LengthMismatch { .. }));
        assert!(err.to_string().contains("4096"));
    }

    #[test]
    fn polar_generator_enrolls_and_reconstructs() {
        let mut rng = StdRng::seed_from_u64(109);
        let (sram, env) = device(109, 16_384);
        // 128 secret bits over two (256, 64) polar blocks: needs 512
        // debiased bits, comfortably inside a 16 KiBit response.
        let gen = KeyGenerator::with_polar(128, 256, 64);
        assert_eq!(gen.code_spec(), CodeSpec::Polar { n: 256, k: 64 });
        let e = gen
            .enroll(&sram.power_up(&env, &mut rng), &mut rng)
            .unwrap();
        for _ in 0..10 {
            let key = gen
                .reconstruct(&sram.power_up(&env, &mut rng), &e.helper)
                .unwrap();
            assert_eq!(key, e.key);
        }
    }

    #[test]
    fn polar_generator_survives_aging() {
        let mut rng = StdRng::seed_from_u64(110);
        let (mut sram, env) = device(110, 16_384);
        let profile = sram.profile().clone();
        let gen = KeyGenerator::with_polar(128, 256, 64);
        let e = gen
            .enroll(&sram.power_up(&env, &mut rng), &mut rng)
            .unwrap();
        let mut sim = AgingSimulator::new(&profile, StressConditions::paper_campaign(&profile));
        sim.advance(&mut sram, 2.0, 24);
        let key = gen
            .reconstruct(&sram.power_up(&env, &mut rng), &e.helper)
            .unwrap();
        assert_eq!(key, e.key);
    }

    #[test]
    fn polar_rejects_wrong_device_via_key_check() {
        let mut rng = StdRng::seed_from_u64(111);
        let (sram_a, env) = device(111, 16_384);
        let (sram_b, _) = device(112, 16_384);
        let gen = KeyGenerator::with_polar(128, 256, 64);
        let e = gen
            .enroll(&sram_a.power_up(&env, &mut rng), &mut rng)
            .unwrap();
        let err = gen
            .reconstruct(&sram_b.power_up(&env, &mut rng), &e.helper)
            .unwrap_err();
        assert_eq!(err, KeyError::CheckMismatch);
    }

    #[test]
    fn corrupted_code_spec_is_rejected() {
        let mut rng = StdRng::seed_from_u64(113);
        let (sram, env) = device(113, 8192);
        let gen = KeyGenerator::paper_default();
        let mut e = gen
            .enroll(&sram.power_up(&env, &mut rng), &mut rng)
            .unwrap();
        e.helper.code = CodeSpec::GolayRepetition { repetition: 4 };
        let err = gen
            .reconstruct(&sram.power_up(&env, &mut rng), &e.helper)
            .unwrap_err();
        assert_eq!(err, KeyError::InvalidCodeSpec);
        assert!(err.to_string().contains("invalid code spec"));
    }

    #[test]
    fn truncated_offset_is_malformed_not_a_panic() {
        let mut rng = StdRng::seed_from_u64(114);
        let (sram, env) = device(114, 8192);
        let gen = KeyGenerator::paper_default();
        let mut e = gen
            .enroll(&sram.power_up(&env, &mut rng), &mut rng)
            .unwrap();
        // Drop one bit: no longer a whole number of 115-bit blocks.
        e.helper.offset = e.helper.offset.prefix(e.helper.offset.len() - 1);
        let err = gen
            .reconstruct(&sram.power_up(&env, &mut rng), &e.helper)
            .unwrap_err();
        assert_eq!(err, KeyError::MalformedHelper);
        assert!(err.to_string().contains("inconsistent"));
    }

    #[test]
    fn undersized_offset_is_malformed_not_a_panic() {
        let mut rng = StdRng::seed_from_u64(115);
        let (sram, env) = device(115, 8192);
        let gen = KeyGenerator::paper_default();
        let mut e = gen
            .enroll(&sram.power_up(&env, &mut rng), &mut rng)
            .unwrap();
        // One whole block: aligned, but covers only 12 of 128 secret bits.
        e.helper.offset = e.helper.offset.prefix(115);
        let err = gen
            .reconstruct(&sram.power_up(&env, &mut rng), &e.helper)
            .unwrap_err();
        assert_eq!(err, KeyError::MalformedHelper);
    }

    #[test]
    fn from_spec_validates_parameters() {
        let ok = KeyGenerator::from_spec(128, CodeSpec::GolayRepetition { repetition: 5 });
        assert_eq!(ok.unwrap(), KeyGenerator::paper_default());
        assert_eq!(
            KeyGenerator::from_spec(0, CodeSpec::GolayRepetition { repetition: 5 }),
            Err(KeyError::InvalidCodeSpec)
        );
        assert_eq!(
            KeyGenerator::from_spec(128, CodeSpec::GolayRepetition { repetition: 4 }),
            Err(KeyError::InvalidCodeSpec)
        );
        assert_eq!(
            KeyGenerator::from_spec(128, CodeSpec::Polar { n: 100, k: 50 }),
            Err(KeyError::InvalidCodeSpec)
        );
    }

    #[test]
    fn from_spec_caps_the_codeword_block_at_65536_bits() {
        let build = |token: &str| KeyGenerator::from_spec(128, token.parse().unwrap());
        // 2^17-bit polar block, and 23 × 2 851 = 65 573 bits: refused
        // before any allocation.
        assert_eq!(build("polar-131072-1"), Err(KeyError::InvalidCodeSpec));
        assert_eq!(build("golay-r2851"), Err(KeyError::InvalidCodeSpec));
        // 23 × r overflowing usize is refused, not wrapped.
        assert_eq!(
            build("golay-r18446744073709551615"),
            Err(KeyError::InvalidCodeSpec)
        );
        // 23 × 2 849 = 65 527 bits and a 2^16-bit polar block fit.
        assert_eq!(build("golay-r2849").unwrap().required_bits(), 11 * 65_527);
        assert!(build("polar-65536-1").is_ok());
    }

    #[test]
    fn helper_data_decodes_with_its_own_code_not_the_generators() {
        // The helper data names the code it was enrolled with; a generator
        // built for another spec must still reconstruct through it.
        let mut rng = StdRng::seed_from_u64(116);
        let (sram, env) = device(116, 16_384);
        let polar = KeyGenerator::with_polar(128, 256, 64);
        let golay = KeyGenerator::new(128, 3);
        let polar_enrollment = polar
            .enroll(&sram.power_up(&env, &mut rng), &mut rng)
            .unwrap();
        let golay_enrollment = golay
            .enroll(&sram.power_up(&env, &mut rng), &mut rng)
            .unwrap();
        let read = sram.power_up(&env, &mut rng);
        assert_eq!(
            golay.reconstruct(&read, &polar_enrollment.helper),
            Ok(polar_enrollment.key)
        );
        assert_eq!(
            polar.reconstruct(&read, &golay_enrollment.helper),
            Ok(golay_enrollment.key)
        );
        // Generators compare by secret length and spec alone.
        assert_eq!(polar, KeyGenerator::with_polar(128, 256, 64));
        assert_ne!(polar, KeyGenerator::with_polar(64, 256, 64));
    }

    #[test]
    fn code_spec_display_round_trips_through_parse() {
        for spec in [
            CodeSpec::GolayRepetition { repetition: 5 },
            CodeSpec::GolayRepetition { repetition: 3 },
            CodeSpec::Polar { n: 256, k: 64 },
            CodeSpec::Polar { n: 128, k: 32 },
        ] {
            let token = spec.to_string();
            assert_eq!(token.parse::<CodeSpec>().unwrap(), spec, "{token}");
        }
        assert_eq!(
            "golay-r5".parse::<CodeSpec>().unwrap(),
            CodeSpec::GolayRepetition { repetition: 5 }
        );
        for bad in ["", "golay", "golay-rx", "polar-256", "polar-a-b", "bch-63"] {
            let err = bad.parse::<CodeSpec>().unwrap_err();
            assert!(err.to_string().contains("invalid code spec"), "{bad}");
        }
    }

    #[test]
    fn expected_raw_bits_sizes_the_paper_profile() {
        let gen = KeyGenerator::paper_default();
        // 11 Golay blocks × 115 bits = 1265 debiased bits; at the paper's
        // 62.7 % bias the yield is ≈0.234 per raw bit.
        let raw = gen.expected_raw_bits(0.627);
        assert!((5300..5500).contains(&raw), "raw {raw}");
    }

    #[test]
    fn helper_data_round_trips_through_field_copy() {
        // Helper data is the artifact a real system persists; a field-wise
        // copy must reconstruct the same key as the original.
        let mut rng = StdRng::seed_from_u64(108);
        let (sram, env) = device(108, 8192);
        let gen = KeyGenerator::paper_default();
        let e = gen
            .enroll(&sram.power_up(&env, &mut rng), &mut rng)
            .unwrap();
        let cloned = HelperData {
            debias_mask: e.helper.debias_mask.clone(),
            offset: e.helper.offset.clone(),
            key_check: e.helper.key_check,
            secret_bits: e.helper.secret_bits,
            code: e.helper.code,
        };
        let key = gen
            .reconstruct(&sram.power_up(&env, &mut rng), &cloned)
            .unwrap();
        assert_eq!(key, e.key);
    }
}
