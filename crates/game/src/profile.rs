//! Strategy profiles with incrementally maintained resource loads.

use serde::{Deserialize, Serialize};

use eotora_util::rng::Pcg32;

use crate::{GameRef, StrategyFilter};

/// A strategy profile with incrementally maintained resource loads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    pub(crate) choices: Vec<usize>,
    pub(crate) loads: Vec<f64>,
}

impl Profile {
    /// Builds a profile from per-player strategy indices.
    ///
    /// # Panics
    ///
    /// Panics if `choices.len()` differs from the player count or any index
    /// is out of range for its player.
    pub fn from_choices<G: GameRef>(game: &G, choices: Vec<usize>) -> Self {
        let structure = game.structure();
        assert_eq!(choices.len(), structure.num_players(), "one choice per player");
        let mut loads = vec![0.0; structure.num_resources()];
        for (i, &s) in choices.iter().enumerate() {
            for &(r, w) in &structure.strategies(i)[s] {
                loads[r] += w;
            }
        }
        Self { choices, loads }
    }

    /// Rebuilds a profile from per-player choices retained from an earlier
    /// (possibly stale) solve, repairing them against the current game:
    /// out-of-range strategy indices are clamped to the player's last
    /// strategy, and loads are recomputed from the current weights.
    ///
    /// Returns `None` when the player count no longer matches — the retained
    /// choices belong to a different game and cannot be repaired, so callers
    /// should fall back to a cold start.
    pub fn from_retained_choices<G: GameRef>(game: &G, choices: &[usize]) -> Option<Self> {
        let structure = game.structure();
        if choices.len() != structure.num_players() {
            return None;
        }
        let repaired = choices
            .iter()
            .enumerate()
            .map(|(i, &s)| s.min(structure.strategies(i).len() - 1))
            .collect();
        Some(Self::from_choices(game, repaired))
    }

    /// A uniformly random profile.
    pub fn random<G: GameRef>(game: &G, rng: &mut Pcg32) -> Self {
        let structure = game.structure();
        let choices = (0..structure.num_players())
            .map(|i| rng.below(structure.strategies(i).len()))
            .collect();
        Self::from_choices(game, choices)
    }

    /// Strategy index chosen by each player.
    pub fn choices(&self) -> &[usize] {
        &self.choices
    }

    /// Current load `p_r(z)` on each resource.
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Switches player `i` to strategy `s`, updating loads incrementally.
    pub fn switch<G: GameRef>(&mut self, game: &G, i: usize, s: usize) {
        let structure = game.structure();
        for &(r, w) in &structure.strategies(i)[self.choices[i]] {
            self.loads[r] -= w;
        }
        for &(r, w) in &structure.strategies(i)[s] {
            self.loads[r] += w;
        }
        self.choices[i] = s;
    }

    /// Player `i`'s cost `T_i(z) = Σ_r m_r · p_{i,r} · p_r(z)`.
    pub fn player_cost<G: GameRef>(&self, game: &G, i: usize) -> f64 {
        game.structure().strategies(i)[self.choices[i]]
            .iter()
            .map(|&(r, w)| game.weights().get(r) * w * self.loads[r])
            .sum()
    }

    /// Social cost `Σ_i T_i(z) = Σ_r m_r · p_r(z)²`.
    pub fn total_cost<G: GameRef>(&self, game: &G) -> f64 {
        self.loads.iter().zip(game.weights().as_slice()).map(|(&p, &m)| m * p * p).sum()
    }

    /// The exact potential
    /// `Φ(z) = ½ Σ_r m_r (p_r(z)² + Σ_{i∈I_r(z)} p_{i,r}²)`.
    ///
    /// Any unilateral deviation changes Φ by exactly the deviating player's
    /// cost change, so best-response dynamics strictly decrease Φ.
    pub fn potential<G: GameRef>(&self, game: &G) -> f64 {
        let structure = game.structure();
        let mut sum_sq = vec![0.0; structure.num_resources()];
        for (i, &s) in self.choices.iter().enumerate() {
            for &(r, w) in &structure.strategies(i)[s] {
                sum_sq[r] += w * w;
            }
        }
        self.loads
            .iter()
            .zip(game.weights().as_slice())
            .zip(&sum_sq)
            .map(|((&p, &m), &ss)| 0.5 * m * (p * p + ss))
            .sum()
    }

    /// The cost player `i` would pay for strategy `s` against the rest of
    /// the profile — the single-entry building block of
    /// [`Profile::best_response`], and the definition the incremental CGBA
    /// scheduler's cached costs must equal bit for bit. The scheduler
    /// evaluates it against a buffer that already excludes `i`'s own load
    /// instead of searching for it per resource; its `naive-check` oracle
    /// compares every cached cost with this function.
    pub(crate) fn strategy_cost<G: GameRef>(&self, game: &G, i: usize, s: usize) -> f64 {
        let structure = game.structure();
        let weights = game.weights();
        let current = &structure.strategies(i)[self.choices[i]];
        let mut cost = 0.0;
        for &(r, w) in &structure.strategies(i)[s] {
            // Load excluding i's current contribution on r (if any).
            let own: f64 =
                current.iter().find(|&&(cr, _)| cr == r).map(|&(_, cw)| cw).unwrap_or(0.0);
            cost += weights.get(r) * w * (self.loads[r] - own + w);
        }
        cost
    }

    /// The best response of player `i` against the rest of the profile:
    /// `(strategy index, resulting cost for i)`.
    pub fn best_response<G: GameRef>(&self, game: &G, i: usize) -> (usize, f64) {
        let mut best = (self.choices[i], f64::INFINITY);
        for s in 0..game.structure().strategies(i).len() {
            let cost = self.strategy_cost(game, i, s);
            if cost < best.1 {
                best = (s, cost);
            }
        }
        best
    }

    /// [`Profile::best_response`] restricted to strategies `filter` allows.
    ///
    /// Scans strategies in the same order with the same float expression and
    /// the same strict-improvement update rule, so with an all-allowing
    /// filter the result is bit-identical to the unfiltered scan. Returns
    /// `None` when the filter allows no strategy for `i`.
    pub fn best_response_filtered<G: GameRef>(
        &self,
        game: &G,
        i: usize,
        filter: &StrategyFilter,
    ) -> Option<(usize, f64)> {
        let mut best = (usize::MAX, f64::INFINITY);
        for s in 0..game.structure().strategies(i).len() {
            if !filter.is_allowed(i, s) {
                continue;
            }
            let cost = self.strategy_cost(game, i, s);
            if cost < best.1 {
                best = (s, cost);
            }
        }
        if best.0 == usize::MAX {
            None
        } else {
            Some(best)
        }
    }

    /// The strategy player `i` would pick if it were alone in the game —
    /// `argmin_s Σ_r m_r · p_{i,r}²` over allowed strategies. This is the
    /// displacement fallback of the fault-masking repair path: it depends
    /// only on the player's own weights, never on other players' choices,
    /// so it is deterministic and always feasible when any allowed strategy
    /// exists.
    pub fn solo_cheapest_filtered<G: GameRef>(
        game: &G,
        i: usize,
        filter: &StrategyFilter,
    ) -> Option<usize> {
        let structure = game.structure();
        let weights = game.weights();
        let mut best = (usize::MAX, f64::INFINITY);
        for (s, strategy) in structure.strategies(i).iter().enumerate() {
            if !filter.is_allowed(i, s) {
                continue;
            }
            let cost: f64 = strategy.iter().map(|&(r, w)| weights.get(r) * w * w).sum();
            if cost < best.1 {
                best = (s, cost);
            }
        }
        if best.0 == usize::MAX {
            None
        } else {
            Some(best.0)
        }
    }

    /// [`Profile::from_retained_choices`] against a filtered game: stale
    /// indices are clamped exactly as in the unfiltered repair, and any
    /// choice landing on a disallowed strategy is *displaced* to that
    /// player's cheapest allowed strategy ([`Profile::solo_cheapest_filtered`]).
    ///
    /// Returns the repaired profile plus the number of displaced players.
    /// Returns `None` when the player count no longer matches or some
    /// displaced player has no allowed strategy at all (callers should widen
    /// the filter for that player first). With an all-allowing filter the
    /// result is identical to [`Profile::from_retained_choices`] with zero
    /// displacements.
    pub fn from_retained_choices_filtered<G: GameRef>(
        game: &G,
        choices: &[usize],
        filter: &StrategyFilter,
    ) -> Option<(Self, usize)> {
        let structure = game.structure();
        if choices.len() != structure.num_players() {
            return None;
        }
        let mut displaced = 0;
        let mut repaired = Vec::with_capacity(choices.len());
        for (i, &s) in choices.iter().enumerate() {
            let clamped = s.min(structure.strategies(i).len() - 1);
            if filter.is_allowed(i, clamped) {
                repaired.push(clamped);
            } else {
                displaced += 1;
                repaired.push(Self::solo_cheapest_filtered(game, i, filter)?);
            }
        }
        Some((Self::from_choices(game, repaired), displaced))
    }

    /// Whether no player can reduce its cost by a factor of more than
    /// `1/(1−λ)` — i.e. the CGBA stopping condition
    /// `(1−λ)·T_i(z) ≤ min_{ẑ_i} T_i(ẑ_i, z_{−i})` for all `i`.
    /// With `λ = 0` this is an exact Nash equilibrium (up to `tol`).
    pub fn is_lambda_equilibrium<G: GameRef>(&self, game: &G, lambda: f64, tol: f64) -> bool {
        (0..game.structure().num_players()).all(|i| {
            let cost = self.player_cost(game, i);
            let (_, best) = self.best_response(game, i);
            (1.0 - lambda) * cost <= best + tol
        })
    }
}
