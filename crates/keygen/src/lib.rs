//! Fuzzy-extractor key generation from SRAM PUFs: error correction,
//! debiasing, helper data, SHA-256.
//!
//! The paper's §II-A1 application: deriving a stable cryptographic key from
//! a noisy, biased SRAM power-up pattern via a helper-data scheme. This
//! crate implements the classic **code-offset fuzzy extractor** with the
//! ingredients the paper's ecosystem uses:
//!
//! * a concatenated error-correcting code — binary **Golay \[23,12,7\]** outer
//!   code over a **repetition** inner code ([`ecc`]) — dimensioned so the
//!   paper's end-of-life worst-case bit error rate (3.25 %) still
//!   reconstructs with negligible failure probability (§II-A1 notes codes
//!   exist up to 25 % BER);
//! * **index-based pair-selection debiasing** ([`debias`]) to neutralize the
//!   60–70 % one-bias the paper measures (its ref \[14\]);
//! * **SHA-256** ([`sha256`]), implemented from scratch and tested against
//!   FIPS 180-4 vectors, as the key-derivation and key-check primitive;
//! * the [`KeyGenerator`] tying them together: `enroll` produces helper
//!   data + key, `reconstruct` recovers the same key from a noisy, aged
//!   re-reading.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use pufkeygen::KeyGenerator;
//! use sramcell::{Environment, SramArray, TechnologyProfile};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(9);
//! let profile = TechnologyProfile::atmega32u4();
//! let sram = SramArray::generate(&profile, 8192, &mut rng);
//! let env = Environment::nominal(&profile);
//!
//! let generator = KeyGenerator::paper_default();
//! let enrollment = generator.enroll(&sram.power_up(&env, &mut rng), &mut rng)?;
//! // Years later, from a different (noisy) read-out of the same device:
//! let key = generator.reconstruct(&sram.power_up(&env, &mut rng), &enrollment.helper)?;
//! assert_eq!(key, enrollment.key);
//! # Ok::<(), pufkeygen::KeyError>(())
//! ```

pub mod analysis;
pub mod debias;
pub mod ecc;
mod extractor;
pub mod sha256;

pub use extractor::{CodeSpec, Enrollment, HelperData, KeyError, KeyGenerator, ParseCodeSpecError};
