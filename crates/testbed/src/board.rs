//! The Arduino boards of the rig: each owns an SRAM, the device under test.

use pufbits::BitVec;
use rand::Rng;
use sramaging::{AgingSimulator, AgingState, StressConditions};
use sramcell::{ArrayState, Environment, PowerUpKernel, SramArray, TechnologyProfile};
use std::fmt;

/// Identifier of a board in the rig, shown in the paper's `S<n>` style.
///
/// # Examples
///
/// ```
/// let id = puftestbed::BoardId(3);
/// assert_eq!(id.to_string(), "S3");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BoardId(pub u8);

impl fmt::Display for BoardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// One slave board: an ATmega32u4 whose SRAM is the device under test.
///
/// The slave owns the full 2.5 KB array but only transmits the first
/// `read_bits` (the paper reads 1 KB = 8 192 bits), and carries its own
/// aging state so devices age independently.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use puftestbed::{BoardId, SlaveBoard};
/// use sramcell::TechnologyProfile;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let profile = TechnologyProfile::atmega32u4();
/// let mut board = SlaveBoard::new(BoardId(0), &profile, 2048, 1024, &mut rng);
/// let readout = board.power_cycle(&mut rng);
/// assert_eq!(readout.len(), 1024);
/// assert_eq!(board.cycles_completed(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlaveBoard {
    id: BoardId,
    sram: SramArray,
    aging: AgingSimulator,
    env: Environment,
    read_bits: usize,
    cycles_completed: u64,
}

impl SlaveBoard {
    /// Manufactures a slave board with a fresh SRAM of `sram_bits` cells, of
    /// which `read_bits` are read out per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `read_bits == 0` or `read_bits > sram_bits`.
    pub fn new<R: Rng + ?Sized>(
        id: BoardId,
        profile: &TechnologyProfile,
        sram_bits: usize,
        read_bits: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            read_bits > 0 && read_bits <= sram_bits,
            "read window {read_bits} invalid for SRAM of {sram_bits} bits"
        );
        Self {
            id,
            sram: SramArray::generate(profile, sram_bits, rng),
            aging: AgingSimulator::new(profile, StressConditions::paper_campaign(profile)),
            env: Environment::nominal(profile),
            read_bits,
            cycles_completed: 0,
        }
    }

    /// Board identifier.
    pub fn id(&self) -> BoardId {
        self.id
    }

    /// Read window width in bits.
    pub fn read_bits(&self) -> usize {
        self.read_bits
    }

    /// Power cycles performed (measured read-outs).
    pub fn cycles_completed(&self) -> u64 {
        self.cycles_completed
    }

    /// The device under test.
    pub fn sram(&self) -> &SramArray {
        &self.sram
    }

    /// The aging state.
    pub fn aging(&self) -> &AgingSimulator {
        &self.aging
    }

    /// Sets the operating environment: affects both the read-out noise and
    /// the BTI stress acceleration (the power-cycle duty is preserved).
    pub fn set_environment(&mut self, env: Environment) {
        self.env = env;
        let duty = self.aging.conditions().duty_on_fraction;
        self.aging.set_conditions(StressConditions::new(duty, env));
    }

    /// Performs one power cycle: powers the SRAM and captures the power-up
    /// pattern of the read window.
    pub fn power_cycle<R: Rng + ?Sized>(&mut self, rng: &mut R) -> BitVec {
        self.cycles_completed += 1;
        self.sram.power_up(&self.env, rng).prefix(self.read_bits)
    }

    /// Performs one power cycle through a batched [`PowerUpKernel`] — the
    /// campaign engine's fast path. Draws only for the read window's cells
    /// that can read either way, instead of a Gaussian for every cell of
    /// the array, and reuses the kernel's cached always-1 mask and draw
    /// list across cycles (aging invalidates them via the array's epoch).
    /// The same cells read 1 with the same probabilities as
    /// [`power_cycle`](Self::power_cycle), from other RNG draws. The kernel
    /// must be dedicated to this board.
    pub fn power_cycle_with<R: Rng + ?Sized>(
        &mut self,
        kernel: &mut PowerUpKernel,
        rng: &mut R,
    ) -> BitVec {
        self.cycles_completed += 1;
        kernel.power_up_prefix(&self.sram, &self.env, self.read_bits, rng)
    }

    /// Ages the board by `wall_years` of rig operation (the stress schedule
    /// is the paper's duty cycle at the board's environment).
    pub fn age(&mut self, wall_years: f64, substeps: u32) {
        self.aging.advance(&mut self.sram, wall_years, substeps);
    }

    /// Exports the board's complete evolving state (for checkpointing):
    /// identity, cycle counter, per-cell array state, and aging state. The
    /// profile, read window, and environment are configuration, supplied
    /// again on [`from_state`](Self::from_state).
    pub fn export_state(&self) -> SlaveBoardState {
        SlaveBoardState {
            id: self.id,
            cycles_completed: self.cycles_completed,
            array: self.sram.export_state(),
            aging: self.aging.export_state(),
        }
    }

    /// Rebuilds a board from a state snapshot under the given configuration
    /// (mirroring [`new`](Self::new): same profile, read window, and
    /// optional non-nominal environment).
    ///
    /// # Panics
    ///
    /// Panics if the read window is invalid for the snapshot's cell count
    /// or any restored value is not finite.
    pub fn from_state(
        profile: &TechnologyProfile,
        read_bits: usize,
        environment: Option<Environment>,
        state: &SlaveBoardState,
    ) -> Self {
        let sram_bits = state.array.mismatch.len();
        assert!(
            read_bits > 0 && read_bits <= sram_bits,
            "read window {read_bits} invalid for SRAM of {sram_bits} bits"
        );
        let mut board = Self {
            id: state.id,
            sram: SramArray::from_state(profile, &state.array),
            aging: AgingSimulator::new(profile, StressConditions::paper_campaign(profile)),
            env: Environment::nominal(profile),
            read_bits,
            cycles_completed: state.cycles_completed,
        };
        if let Some(env) = environment {
            board.set_environment(env);
        }
        board.aging.restore_state(state.aging);
        board
    }
}

/// The complete serializable state of a [`SlaveBoard`].
#[derive(Debug, Clone, PartialEq)]
pub struct SlaveBoardState {
    /// The board's identity.
    pub id: BoardId,
    /// Power cycles performed so far.
    pub cycles_completed: u64,
    /// Per-cell SRAM state.
    pub array: ArrayState,
    /// Accumulated BTI stress.
    pub aging: AgingState,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn profile() -> TechnologyProfile {
        TechnologyProfile::atmega32u4()
    }

    #[test]
    fn read_window_is_a_prefix_of_the_sram() {
        let mut rng = StdRng::seed_from_u64(30);
        let mut board = SlaveBoard::new(BoardId(1), &profile(), 2048, 512, &mut rng);
        let r = board.power_cycle(&mut rng);
        assert_eq!(r.len(), 512);
        assert_eq!(board.sram().len(), 2048);
    }

    #[test]
    fn aging_affects_subsequent_readouts() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut board = SlaveBoard::new(BoardId(2), &profile(), 4096, 4096, &mut rng);
        let before = board.sram().clone();
        board.age(2.0, 24);
        assert_ne!(before, *board.sram());
        assert!(board.aging().stress_age_years() > 1.0);
    }

    #[test]
    #[should_panic(expected = "read window")]
    fn oversized_read_window_rejected() {
        let mut rng = StdRng::seed_from_u64(35);
        SlaveBoard::new(BoardId(0), &profile(), 100, 200, &mut rng);
    }

    #[test]
    fn board_state_round_trips_mid_life() {
        let mut rng = StdRng::seed_from_u64(36);
        let mut board = SlaveBoard::new(BoardId(5), &profile(), 1024, 512, &mut rng);
        for _ in 0..7 {
            board.power_cycle(&mut rng);
        }
        board.age(1.5, 8);
        let state = board.export_state();
        let restored = SlaveBoard::from_state(&profile(), 512, None, &state);
        assert_eq!(restored, board);
        // Both boards continue identically from a shared RNG state.
        let mut rng_a = rng.clone();
        let mut a = board;
        let mut b = restored;
        assert_eq!(a.power_cycle(&mut rng_a), b.power_cycle(&mut rng));
        assert_eq!(a.cycles_completed(), b.cycles_completed());
    }

    #[test]
    fn board_state_restores_a_non_nominal_environment() {
        let mut rng = StdRng::seed_from_u64(37);
        let mut board = SlaveBoard::new(BoardId(0), &profile(), 256, 256, &mut rng);
        let hot = Environment {
            temp_c: 85.0,
            ..Environment::nominal(&profile())
        };
        board.set_environment(hot);
        board.age(0.5, 4);
        let restored = SlaveBoard::from_state(&profile(), 256, Some(hot), &board.export_state());
        assert_eq!(restored, board);
    }
}
