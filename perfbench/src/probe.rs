//! Host-speed probe: a fixed best-response game timed next to every slot.
//!
//! On a virtual machine that shares its physical cores with other
//! tenants, the same slot can take 23 ms in one minute and 43 ms in the
//! next. The thread is on the CPU the whole time (its on-CPU time grows
//! just as its wall time does); the core itself runs the solver's code
//! slower. Pointer chases and floating-point loops slow by only a fifth
//! when the solver slows by four fifths, so they cannot stand in for it.
//! A small congestion game solved by best-response dynamics, the same
//! kind of loop as the solver's, slows with it: over 36 consecutive
//! 200-slot episodes, the p50 of the per-slot ratio of step time to
//! probe time ranged over 8% of its median while the raw p50 ranged over
//! 36%.
//!
//! The probe runs just before each slot, outside the slot's own timing,
//! and each slot's time is divided by that probe's time over
//! [`NOMINAL_NS`]: corrected figures read as if taken on a host where
//! the probe takes its nominal time. The probe's code and instance never
//! change, so a change to the program moves the corrected figures as
//! much as the raw ones.

use std::time::Instant;

/// Players of the probe's game.
const PLAYERS: usize = 100;
/// Strategies (resources) per player.
const CHOICES: usize = 10;
/// Fixed starting profiles solved per probe.
const STARTS: usize = 40;
/// Best-response rounds per start, at most.
const MAX_ROUNDS: usize = 50;

/// The probe's time, in ns, when the host runs the solver at its fast
/// speed (2.0 GHz Xeon, about 23.5 ms per `paper_plain` slot). Corrected
/// figures read as raw figures taken at that speed.
pub const NOMINAL_NS: f64 = 450_000.0;

/// A fixed congestion game: each player picks one of [`CHOICES`]
/// resources at a cost of its own base price plus the resource's load
/// over its speed. Unweighted, so best responses always converge.
pub struct Probe {
    base: Vec<f64>,
    speed: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// Builds the instance from a fixed seed, so every run solves the
    /// same game.
    pub fn new() -> Self {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut uniform = || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let base = (0..PLAYERS * CHOICES).map(|_| 1.0 + 4.0 * uniform()).collect();
        let speed = (0..CHOICES).map(|_| 5.0 + 10.0 * uniform()).collect();
        Self { base, speed }
    }

    /// Runs best-response dynamics from each fixed start until no player
    /// moves; returns the total number of moves.
    pub fn solve(&self) -> usize {
        let mut choice = [0usize; PLAYERS];
        let mut moves = 0;
        for start in 0..STARTS {
            let mut load = [0.0f64; CHOICES];
            for (player, c) in choice.iter_mut().enumerate() {
                *c = (player * 7 + start * 3) % CHOICES;
                load[*c] += 1.0;
            }
            for _ in 0..MAX_ROUNDS {
                let mut moved = false;
                for (player, row) in self.base.chunks_exact(CHOICES).enumerate() {
                    let current = choice[player];
                    let mut best = current;
                    let mut best_cost = row[current] + load[current] / self.speed[current];
                    for j in (0..CHOICES).filter(|&j| j != current) {
                        let cost = row[j] + (load[j] + 1.0) / self.speed[j];
                        if cost < best_cost - 1e-12 {
                            best = j;
                            best_cost = cost;
                        }
                    }
                    if best != current {
                        load[current] -= 1.0;
                        load[best] += 1.0;
                        choice[player] = best;
                        moved = true;
                        moves += 1;
                    }
                }
                if !moved {
                    break;
                }
            }
            std::hint::black_box(&load);
        }
        moves
    }

    /// Times one [`Probe::solve`], in ns.
    pub fn time_ns(&self) -> u64 {
        let start = Instant::now();
        std::hint::black_box(self.solve());
        crate::batch::elapsed_ns(start)
    }
}

/// How much slower than nominal the host ran at one probe.
pub fn slowdown(probe_ns: u64) -> f64 {
    probe_ns.max(1) as f64 / NOMINAL_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_game_is_fixed_and_converges() {
        let moves = Probe::new().solve();
        assert!(moves > 0);
        assert_eq!(Probe::new().solve(), moves, "the probe must do the same work every time");
    }

    #[test]
    fn slowdown_is_probe_time_over_nominal() {
        assert_eq!(slowdown(NOMINAL_NS as u64), 1.0);
        assert_eq!(slowdown(2 * NOMINAL_NS as u64), 2.0);
    }
}
