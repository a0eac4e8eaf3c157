//! Known-answer test of the decoders in their failure regime.
//!
//! Round-trip and correction tests only pin what a decoder returns when it
//! succeeds. This one pins what it returns when it does not: seeded random
//! messages go through each code at bit error rates from the paper's
//! end-of-life worst case (3 %) up to a coin flip (50 %), and the SHA-256
//! of every decoded message, plus the count of wrong decodes, must match
//! constants recorded from the reference per-bit implementation. A
//! decoder rewrite that changes any decision — a miscorrection, a tie
//! between zero log-likelihood ratios, a failing block — changes the
//! digest.

use pufbits::BitVec;
use pufkeygen::ecc::{
    decode_blocks, encode_blocks, BlockCode, Concatenated, Golay, PolarCode, Repetition,
};
use pufkeygen::sha256;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x4B41_5431;
const BERS: [f64; 5] = [0.03, 0.08, 0.15, 0.30, 0.50];
const MESSAGES: usize = 400;
const POLAR_DESIGN_P: f64 = 0.05;

/// Hex SHA-256 over the decoded messages' bytes and the number of decodes
/// that differed from the sent message. Every message is `message_bits`
/// long; the noise flips each codeword bit with probability `ber`.
fn run(
    code_index: u64,
    message_bits: usize,
    encode: impl Fn(&BitVec) -> BitVec,
    decode: impl Fn(&BitVec) -> BitVec,
) -> (String, usize) {
    let mut rng = StdRng::seed_from_u64(SEED + code_index);
    let mut decoded_bytes = Vec::new();
    let mut wrong = 0;
    for ber in BERS {
        for _ in 0..MESSAGES {
            let message = BitVec::from_bits((0..message_bits).map(|_| rng.gen::<bool>()));
            let mut word = encode(&message);
            for i in 0..word.len() {
                if rng.gen::<f64>() < ber {
                    word.set(i, !word.get(i).unwrap());
                }
            }
            let decoded = decode(&word);
            assert_eq!(decoded.len(), message_bits);
            if decoded != message {
                wrong += 1;
            }
            decoded.to_bytes_into(&mut decoded_bytes);
        }
    }
    let digest = sha256::digest(&decoded_bytes);
    (digest.iter().map(|b| format!("{b:02x}")).collect(), wrong)
}

fn polar(code_index: u64, n: usize, k: usize) -> (String, usize) {
    let code = PolarCode::new(n, k, POLAR_DESIGN_P).unwrap();
    run(
        code_index,
        k,
        |m| code.encode(m),
        |w| code.decode(w).expect("polar decoding never fails"),
    )
}

#[test]
fn golay_r5_blocks_decode_to_the_recorded_messages() {
    let code = Concatenated::new(Golay::new(), Repetition::new(5).unwrap());
    let got = run(
        0,
        128,
        |m| encode_blocks(&code, m),
        |w| decode_blocks(&code, w, 128).expect("golay decoding never fails"),
    );
    assert_eq!(
        got,
        (
            String::from("66810e592930e09bfa94a547f7a2db5400ea308dbfd99ec570c9808d70177579"),
            814
        )
    );
}

#[test]
fn polar_128_16_decodes_to_the_recorded_messages() {
    assert_eq!(
        polar(1, 128, 16),
        (
            String::from("bb53ffd27a064c68498bdf61ff0e0b59b339225e2ada61b5d6489c2d72123b42"),
            847
        )
    );
}

#[test]
fn polar_256_32_decodes_to_the_recorded_messages() {
    assert_eq!(
        polar(2, 256, 32),
        (
            String::from("d6e2ab9097c068873b5dffa524122dca2c14e1f92bb8f0c9c97637a34c3eff6e"),
            1090
        )
    );
}

#[test]
fn polar_512_128_decodes_to_the_recorded_messages() {
    assert_eq!(
        polar(3, 512, 128),
        (
            String::from("ab94ea75a46991d42634fbc02a3252f5f9ba51a2edbedba20f2025f011f881bf"),
            1576
        )
    );
}
