//! Monte-Carlo aging of a concrete SRAM array.

use crate::BtiModel;
use pufstats::normal::phi;
use sramcell::{Environment, SramArray, TechnologyProfile};

/// The stress conditions a device experiences between read-outs.
///
/// Combines the power-on duty (how much of wall time the SRAM is powered and
/// therefore under BTI stress) with the electrical environment (whose
/// temperature and voltage set the acceleration factor).
///
/// # Examples
///
/// ```
/// use sramaging::StressConditions;
/// use sramcell::TechnologyProfile;
///
/// let p = TechnologyProfile::atmega32u4();
/// let c = StressConditions::paper_campaign(&p);
/// // The paper's rig: 3.8 s on per 5.4 s cycle.
/// assert!((c.duty_on_fraction - 3.8 / 5.4).abs() < 1e-12);
/// assert!((c.stress_rate(&p) - 3.8 / 5.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressConditions {
    /// Fraction of wall time the device is powered (0..=1).
    pub duty_on_fraction: f64,
    /// Electrical environment during the powered intervals.
    pub env: Environment,
}

impl StressConditions {
    /// Creates stress conditions.
    ///
    /// # Panics
    ///
    /// Panics if `duty_on_fraction` is outside `[0, 1]`.
    pub fn new(duty_on_fraction: f64, env: Environment) -> Self {
        assert!(
            (0.0..=1.0).contains(&duty_on_fraction),
            "duty fraction must be in [0, 1], got {duty_on_fraction}"
        );
        Self {
            duty_on_fraction,
            env,
        }
    }

    /// The paper's measurement campaign: 5.4 s power cycles with 3.8 s on,
    /// at the profile's nominal environment (room temperature, nominal VDD).
    pub fn paper_campaign(profile: &TechnologyProfile) -> Self {
        Self::new(3.8 / 5.4, Environment::nominal(profile))
    }

    /// Continuous operation at nominal conditions (duty 1.0).
    pub fn always_on(profile: &TechnologyProfile) -> Self {
        Self::new(1.0, Environment::nominal(profile))
    }

    /// Effective stress-years accumulated per wall-clock year:
    /// `duty × acceleration_factor(env)`.
    pub fn stress_rate(&self, profile: &TechnologyProfile) -> f64 {
        self.duty_on_fraction * self.env.acceleration_factor(profile)
    }
}

/// The serializable state of an [`AgingSimulator`]: the accumulated
/// effective stress age that anchors the power-law drift kinetics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingState {
    /// Cumulative effective stress age in years.
    pub stress_age_years: f64,
}

/// Evolves the mismatch of every cell in an [`SramArray`] under BTI stress.
///
/// The simulator keeps the cumulative effective stress age so the power-law
/// kinetics are honored across multiple [`advance`](Self::advance) calls:
/// aging a device 1 year twice is identical to aging it 2 years once.
///
/// The per-step update for each cell is deterministic (the *expected* duty
/// imbalance `2·Phi(m) − 1` stands in for the empirical fraction of cycles
/// spent in each state); the randomness of a real campaign enters through
/// the power-up noise at read-out time, not through the drift. Sub-stepping
/// keeps the state-dependence accurate: within each step the drift direction
/// is re-evaluated, so cells that reach balance stop drifting and cells that
/// cross over reverse — the paper's §IV-D non-monotonicity.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use sramaging::{AgingSimulator, StressConditions};
/// use sramcell::{SramArray, TechnologyProfile};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let profile = TechnologyProfile::atmega32u4();
/// let mut sram = SramArray::generate(&profile, 1024, &mut rng);
/// let mut sim = AgingSimulator::new(&profile, StressConditions::paper_campaign(&profile));
/// sim.advance(&mut sram, 1.0, 12);
/// assert!((sim.stress_age_years() - 3.8 / 5.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AgingSimulator {
    bti: BtiModel,
    conditions: StressConditions,
    profile: TechnologyProfile,
    stress_age_years: f64,
}

impl AgingSimulator {
    /// Creates a simulator using the profile's BTI law.
    pub fn new(profile: &TechnologyProfile, conditions: StressConditions) -> Self {
        Self::with_bti(profile, conditions, BtiModel::from_profile(profile))
    }

    /// Creates a simulator with an explicit drift law (for ablations).
    pub fn with_bti(
        profile: &TechnologyProfile,
        conditions: StressConditions,
        bti: BtiModel,
    ) -> Self {
        Self {
            bti,
            conditions,
            profile: profile.clone(),
            stress_age_years: 0.0,
        }
    }

    /// Cumulative effective stress age in years.
    pub fn stress_age_years(&self) -> f64 {
        self.stress_age_years
    }

    /// Exports the simulator's serializable state (for checkpointing). The
    /// drift law, profile, and conditions are configuration and are rebuilt
    /// at restore time; the accumulated stress age is the only evolving
    /// value.
    pub fn export_state(&self) -> AgingState {
        AgingState {
            stress_age_years: self.stress_age_years,
        }
    }

    /// Restores the accumulated stress age from a snapshot; the power-law
    /// kinetics continue exactly where the snapshot was taken.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's stress age is negative or not finite.
    pub fn restore_state(&mut self, state: AgingState) {
        assert!(
            state.stress_age_years.is_finite() && state.stress_age_years >= 0.0,
            "stress age must be finite and non-negative, got {}",
            state.stress_age_years
        );
        self.stress_age_years = state.stress_age_years;
    }

    /// The drift law in use.
    pub fn bti(&self) -> BtiModel {
        self.bti
    }

    /// The stress conditions in use.
    pub fn conditions(&self) -> StressConditions {
        self.conditions
    }

    /// Changes the stress conditions (e.g. moving a device from burn-in to
    /// the field); the accumulated stress age is preserved.
    pub fn set_conditions(&mut self, conditions: StressConditions) {
        self.conditions = conditions;
    }

    /// Ages `sram` by `wall_years` of wall-clock time, in `substeps`
    /// re-evaluations of the state-dependent drift direction.
    ///
    /// # Panics
    ///
    /// Panics if `wall_years < 0`, `substeps == 0`, or `sram`'s profile
    /// population differs from the simulator's (aging a foreign device).
    pub fn advance(&mut self, sram: &mut SramArray, wall_years: f64, substeps: u32) {
        assert!(wall_years >= 0.0, "cannot age backwards");
        assert!(substeps > 0, "need at least one substep");
        assert!(
            sram.profile().population == self.profile.population,
            "array profile does not match simulator profile"
        );
        let noise = self.conditions.env.noise_sigma(&self.profile);
        let rate = self.conditions.stress_rate(&self.profile);
        let dt = wall_years / f64::from(substeps);
        for _ in 0..substeps {
            let tau0 = self.stress_age_years;
            let tau1 = tau0 + dt * rate;
            let dg = self.bti.drift_increment(tau0, tau1);
            if dg > 0.0 {
                let beta = self.bti.bias_ratio;
                for cell in sram.cells_mut() {
                    let imbalance = 2.0 * phi(cell.mismatch() / noise) - 1.0;
                    cell.shift((-imbalance + beta * cell.drift_bias()) * dg);
                }
            }
            self.stress_age_years = tau1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sramcell::Cell;

    fn fresh(bits: usize, seed: u64) -> (TechnologyProfile, SramArray) {
        let profile = TechnologyProfile::atmega32u4();
        let mut rng = StdRng::seed_from_u64(seed);
        let sram = SramArray::generate(&profile, bits, &mut rng);
        (profile, sram)
    }

    #[test]
    fn skewed_cells_drift_toward_balance() {
        let profile = TechnologyProfile::atmega32u4();
        let mut sram = SramArray::from_cells(&profile, vec![Cell::new(10.0), Cell::new(-10.0)]);
        let mut sim = AgingSimulator::new(&profile, StressConditions::always_on(&profile));
        sim.advance(&mut sram, 2.0, 24);
        let m0 = sram.cells()[0].mismatch();
        let m1 = sram.cells()[1].mismatch();
        assert!(m0 < 10.0 && m0 > 0.0, "m0 = {m0}");
        assert!(m1 > -10.0 && m1 < 0.0, "m1 = {m1}");
        // Symmetric cells drift symmetrically.
        assert!((m0 + m1).abs() < 1e-9);
    }

    #[test]
    fn balanced_cells_do_not_drift() {
        let profile = TechnologyProfile::atmega32u4();
        let mut sram = SramArray::from_cells(&profile, vec![Cell::new(0.0)]);
        let mut sim = AgingSimulator::new(&profile, StressConditions::always_on(&profile));
        sim.advance(&mut sram, 5.0, 60);
        assert!(sram.cells()[0].mismatch().abs() < 1e-12);
    }

    #[test]
    fn drift_never_overshoots_across_zero() {
        // A mildly skewed cell must converge to balance, not oscillate ever
        // further past zero.
        let profile = TechnologyProfile::atmega32u4();
        let mut sram = SramArray::from_cells(&profile, vec![Cell::new(0.3)]);
        let mut sim = AgingSimulator::new(&profile, StressConditions::always_on(&profile));
        sim.advance(&mut sram, 2.0, 240);
        assert!(sram.cells()[0].mismatch().abs() < 0.3);
    }

    #[test]
    fn split_advance_equals_single_advance() {
        let (profile, mut a) = fresh(512, 20);
        let mut b = a.clone();
        let cond = StressConditions::paper_campaign(&profile);
        let mut sim_a = AgingSimulator::new(&profile, cond);
        sim_a.advance(&mut a, 2.0, 48);
        let mut sim_b = AgingSimulator::new(&profile, cond);
        sim_b.advance(&mut b, 1.0, 24);
        sim_b.advance(&mut b, 1.0, 24);
        for (ca, cb) in a.cells().iter().zip(b.cells()) {
            assert!((ca.mismatch() - cb.mismatch()).abs() < 1e-12);
        }
        assert!((sim_a.stress_age_years() - sim_b.stress_age_years()).abs() < 1e-12);
    }

    #[test]
    fn acceleration_speeds_up_the_same_trajectory() {
        let profile = TechnologyProfile::atmega32u4();
        let make = || SramArray::from_cells(&profile, vec![Cell::new(8.0)]);
        let mut nominal = make();
        let mut sim_n = AgingSimulator::new(&profile, StressConditions::always_on(&profile));
        sim_n.advance(&mut nominal, 2.0, 24);

        let mut accelerated = make();
        let cond = StressConditions::new(
            1.0,
            Environment {
                temp_c: 85.0,
                ..Environment::nominal(&profile)
            },
        );
        let af = cond.stress_rate(&profile);
        let mut sim_a = AgingSimulator::new(&profile, cond);
        sim_a.advance(&mut accelerated, 2.0 / af, 24);
        // Same effective stress age ⇒ same drift.
        assert!(
            (nominal.cells()[0].mismatch() - accelerated.cells()[0].mismatch()).abs() < 1e-6,
            "{} vs {}",
            nominal.cells()[0].mismatch(),
            accelerated.cells()[0].mismatch()
        );
    }

    #[test]
    fn disabled_bti_is_a_no_op() {
        let (profile, mut sram) = fresh(256, 21);
        let before = sram.clone();
        let mut sim = AgingSimulator::with_bti(
            &profile,
            StressConditions::paper_campaign(&profile),
            BtiModel::disabled(),
        );
        sim.advance(&mut sram, 10.0, 120);
        assert_eq!(sram, before);
    }

    #[test]
    fn population_statistics_shift_as_the_paper_reports() {
        let (profile, mut sram) = fresh(40_000, 22);
        let env = Environment::nominal(&profile);
        let fresh_probs = sram.one_probabilities(&env);
        let unstable_before = fresh_probs
            .iter()
            .filter(|&&p| p > 1e-3 && p < 1.0 - 1e-3)
            .count();
        let fhw_before = sram.expected_fhw(&env);

        let mut sim = AgingSimulator::new(&profile, StressConditions::paper_campaign(&profile));
        sim.advance(&mut sram, 2.0, 24);

        let aged_probs = sram.one_probabilities(&env);
        let unstable_after = aged_probs
            .iter()
            .filter(|&&p| p > 1e-3 && p < 1.0 - 1e-3)
            .count();
        let fhw_after = sram.expected_fhw(&env);

        assert!(
            unstable_after > unstable_before,
            "instability must grow: {unstable_before} → {unstable_after}"
        );
        // Hamming weight stays essentially constant (paper: negligible).
        assert!((fhw_after - fhw_before).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "does not match simulator profile")]
    fn foreign_array_rejected() {
        let (profile, _) = fresh(16, 23);
        let mut rng = StdRng::seed_from_u64(9);
        let mut foreign = SramArray::generate(&TechnologyProfile::cmos65nm(), 16, &mut rng);
        let mut sim = AgingSimulator::new(&profile, StressConditions::always_on(&profile));
        sim.advance(&mut foreign, 1.0, 1);
    }

    #[test]
    #[should_panic(expected = "duty fraction")]
    fn invalid_duty_rejected() {
        let profile = TechnologyProfile::atmega32u4();
        StressConditions::new(1.5, Environment::nominal(&profile));
    }

    #[test]
    fn restored_state_continues_the_power_law_exactly() {
        // Age 1 year, snapshot, age 1 more — against a fresh simulator that
        // restores the snapshot midway. The kinetics must be identical to
        // the split-advance invariant.
        let (profile, mut a) = fresh(256, 24);
        let mut b = a.clone();
        let cond = StressConditions::paper_campaign(&profile);
        let mut sim_a = AgingSimulator::new(&profile, cond);
        sim_a.advance(&mut a, 1.0, 12);
        let snapshot = sim_a.export_state();
        sim_a.advance(&mut a, 1.0, 12);

        let mut sim_b = AgingSimulator::new(&profile, cond);
        sim_b.advance(&mut b, 1.0, 12);
        sim_b.restore_state(snapshot);
        sim_b.advance(&mut b, 1.0, 12);
        for (ca, cb) in a.cells().iter().zip(b.cells()) {
            assert_eq!(ca.mismatch().to_bits(), cb.mismatch().to_bits());
        }
        assert_eq!(
            sim_a.stress_age_years().to_bits(),
            sim_b.stress_age_years().to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_stress_age_rejected() {
        let profile = TechnologyProfile::atmega32u4();
        let mut sim = AgingSimulator::new(&profile, StressConditions::paper_campaign(&profile));
        sim.restore_state(AgingState {
            stress_age_years: -1.0,
        });
    }
}
