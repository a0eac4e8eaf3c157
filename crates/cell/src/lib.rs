//! 6T SRAM cell power-up model with process variation, noise, and
//! technology profiles.
//!
//! # Model
//!
//! This crate implements the *hidden-variable* SRAM PUF cell model the paper
//! builds its analysis on (Maes, CHES 2013 — the paper's ref \[18\]). Each 6T
//! cell (Fig. 1 of the paper: two cross-coupled inverters) carries a static
//! **mismatch** `m` — the effective threshold-voltage imbalance
//! `Vth,P1 − Vth,P2` of its PMOS pair plus every other fixed asymmetry,
//! expressed in units of the power-up noise's standard deviation. At each
//! power-up an independent Gaussian noise sample `n ~ N(0, 1)` perturbs the
//! race between the inverters, and the cell resolves to
//!
//! ```text
//! Q = 1  iff  m + n > 0      ⇒      Pr(Q = 1) = Phi(m)
//! ```
//!
//! Manufacturing draws `m ~ N(mu, sigma^2)` independently per cell
//! ([`PopulationModel`]). A nonzero `mu` reproduces the systematic bias the
//! paper observes (fractional Hamming weight 60–70 % instead of 50 %), which
//! stems from asymmetries in the cell layout.
//!
//! All of the paper's Table I metrics are expectations under this model and
//! are available in closed/quadrature form from [`PopulationModel`]; the
//! [`calibrate`] module inverts them so a profile hits measured targets.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use sramcell::{Environment, SramArray, TechnologyProfile};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let profile = TechnologyProfile::atmega32u4();
//! let sram = SramArray::generate(&profile, 8 * 1024, &mut rng);
//! let readout = sram.power_up(&Environment::nominal(&profile), &mut rng);
//! let fhw = readout.fractional_hamming_weight();
//! assert!(fhw > 0.55 && fhw < 0.70, "biased toward one like the paper: {fhw}");
//! ```

mod array;
mod batch;
pub mod calibrate;
mod cell;
mod env;
mod population;
mod tech;

pub use array::{ArrayState, SramArray};
pub use batch::PowerUpKernel;
pub use cell::Cell;
pub use env::Environment;
pub use population::PopulationModel;
pub use tech::TechnologyProfile;
