//! P2-A ↔ weighted-congestion-game mapping (paper §V-B).
//!
//! With frequencies `Ω_t` fixed, choosing `(x_t, y_t)` to minimize
//! `T_t` is the WCG problem: resources are each server's compute capacity
//! `C_n` and each base station's access/fronthaul bandwidth `B^A_k, B^F_k`;
//! a device's strategy picks a feasible `(k, n)` pair and uses the bundle
//! `{B^A_k, B^F_k, C_n}`. The weights are
//!
//! ```text
//! m_{C_n}  = 1/(cores_n·ω_n)      p_{i,C_n}  = √(f_i/σ_{i,n})
//! m_{B^A_k} = 1/W^A_k             p_{i,B^A_k} = √(d_i/h_{i,k})
//! m_{B^F_k} = 1/W^F_k             p_{i,B^F_k} = √(d_i/h^F_k)
//! ```
//!
//! so the game's social cost `Σ_r m_r·p_r(z)²` equals `T_t(x, y, Ω, β)`
//! exactly (eqs. 18–19; see DESIGN.md for the `p_{i,C_n}` typo fix). The
//! feasibility constraint (3) — the server must be reachable from the
//! station — is encoded by simply not generating infeasible strategies.

use eotora_game::{cgba, CgbaConfig, CgbaReport, CongestionGame, Profile};
use eotora_states::SystemState;

use eotora_util::rng::Pcg32;

use crate::decision::Assignment;
use crate::system::MecSystem;

/// The P2-A instance for one slot: the congestion game plus the maps between
/// strategy indices and `(base station, server)` assignments.
///
/// The game's *shape* (which strategies exist, which resources each uses)
/// is a pure function of the topology, so an instance built once can be
/// [`P2aProblem::rebuild`]-refreshed for a new state (per slot) or have
/// just its server weights updated for new frequencies
/// ([`P2aProblem::update_frequencies`], per BDMA round) without
/// reallocating anything — see [`crate::workspace::SlotWorkspace`].
#[derive(Debug, Clone)]
pub struct P2aProblem {
    game: CongestionGame,
    /// `strategy_map[i][s]` = the assignment realized by player `i`'s
    /// strategy `s`.
    strategy_map: Vec<Vec<Assignment>>,
    num_servers: usize,
    num_stations: usize,
}

impl P2aProblem {
    /// Builds the game for `state` with frequencies `freqs_hz`.
    ///
    /// Resource indexing: `0..N` are servers, `N..N+K` access links,
    /// `N+K..N+2K` fronthaul links.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches, or if some device has no feasible
    /// `(k, n)` strategy (impossible for validated topologies, where every
    /// base station links at least one cluster).
    pub fn build(system: &MecSystem, state: &SystemState, freqs_hz: &[f64]) -> Self {
        let topo = system.topology();
        let n_servers = topo.num_servers();
        let n_stations = topo.num_base_stations();
        assert_eq!(freqs_hz.len(), n_servers, "one frequency per server");
        assert_eq!(state.task_cycles.len(), topo.num_devices(), "state/topology mismatch");

        let mut weights = Vec::with_capacity(n_servers + 2 * n_stations);
        for n in topo.server_ids() {
            weights.push(1.0 / system.compute_rate(n, freqs_hz[n.index()]));
        }
        for k in topo.base_station_ids() {
            weights.push(1.0 / topo.base_station(k).access_bandwidth_hz);
        }
        for k in topo.base_station_ids() {
            weights.push(1.0 / topo.base_station(k).fronthaul_bandwidth_hz);
        }
        let mut game = CongestionGame::new(weights);
        let mut strategy_map = Vec::with_capacity(topo.num_devices());

        for i in topo.device_ids() {
            let mut strategies = Vec::new();
            let mut map = Vec::new();
            for k in topo.covering_base_stations(i) {
                let access_w = (state.data_bits[i.index()]
                    / state.spectral_efficiency[i.index()][k.index()])
                .sqrt();
                let fronthaul_w =
                    (state.data_bits[i.index()] / state.fronthaul_efficiency[k.index()]).sqrt();
                for n in topo.servers_reachable_from(k) {
                    let compute_w =
                        (state.task_cycles[i.index()] / system.suitability(i, n)).sqrt();
                    strategies.push(vec![
                        (n.index(), compute_w),
                        (n_servers + k.index(), access_w),
                        (n_servers + n_stations + k.index(), fronthaul_w),
                    ]);
                    map.push(Assignment { base_station: k, server: n });
                }
            }
            assert!(!strategies.is_empty(), "device {i} has no feasible strategy");
            game.add_player(strategies);
            strategy_map.push(map);
        }

        let problem = Self { game, strategy_map, num_servers: n_servers, num_stations: n_stations };
        // Validation happens once, at construction; the per-round refresh
        // paths (`rebuild`, `update_frequencies`) only debug-assert.
        problem.game.validate().expect("constructed game is valid");
        problem
    }

    /// Refreshes the server resource weights `m_{C_n} = 1/(cores_n·ω_n)` for
    /// new frequencies, in place — the only game change between BDMA rounds.
    ///
    /// # Panics
    ///
    /// Panics if `freqs_hz.len()` differs from the server count.
    pub fn update_frequencies(&mut self, system: &MecSystem, freqs_hz: &[f64]) {
        assert_eq!(freqs_hz.len(), self.num_servers, "one frequency per server");
        for n in system.topology().server_ids() {
            self.game
                .set_resource_weight(n.index(), 1.0 / system.compute_rate(n, freqs_hz[n.index()]));
        }
    }

    /// Refreshes every state-dependent weight in place for a new slot:
    /// server resource weights for `freqs_hz` plus all per-player weights
    /// for `state`. Equivalent to `P2aProblem::build(system, state,
    /// freqs_hz)` but allocation-free — the strategy shape is topology-only
    /// and must match (see [`P2aProblem::matches_system`]).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches between `self`, `system`, and `state`.
    pub fn rebuild(&mut self, system: &MecSystem, state: &SystemState, freqs_hz: &[f64]) {
        assert_eq!(state.task_cycles.len(), self.strategy_map.len(), "state/problem mismatch");
        self.update_frequencies(system, freqs_hz);
        let Self { game, strategy_map, .. } = self;
        for (i, map) in strategy_map.iter().enumerate() {
            let device = eotora_topology::DeviceId(i);
            // Strategies are generated grouped by base station, so the two
            // link weights can be computed once per station run.
            let mut last_station = None;
            let mut access_w = 0.0;
            let mut fronthaul_w = 0.0;
            for (s, a) in map.iter().enumerate() {
                if last_station != Some(a.base_station) {
                    access_w = (state.data_bits[i]
                        / state.spectral_efficiency[i][a.base_station.index()])
                    .sqrt();
                    fronthaul_w = (state.data_bits[i]
                        / state.fronthaul_efficiency[a.base_station.index()])
                    .sqrt();
                    last_station = Some(a.base_station);
                }
                let compute_w =
                    (state.task_cycles[i] / system.suitability(device, a.server)).sqrt();
                game.set_strategy_weights(i, s, &[compute_w, access_w, fronthaul_w]);
            }
        }
        debug_assert!(self.game.validate().is_ok(), "rebuilt game is valid");
    }

    /// Whether this instance's shape matches `system`'s topology (device,
    /// server, and station counts) — the precondition for
    /// [`P2aProblem::rebuild`].
    pub fn matches_system(&self, system: &MecSystem) -> bool {
        let topo = system.topology();
        self.num_servers == topo.num_servers()
            && self.num_stations == topo.num_base_stations()
            && self.strategy_map.len() == topo.num_devices()
    }

    /// The underlying congestion game.
    pub fn game(&self) -> &CongestionGame {
        &self.game
    }

    /// Number of servers in the instance (resources `0..num_servers`).
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Number of base stations in the instance (access links
    /// `N..N+K`, fronthaul links `N+K..N+2K`).
    pub fn num_stations(&self) -> usize {
        self.num_stations
    }

    /// Number of strategies available to player `i`.
    pub fn num_strategies(&self, i: usize) -> usize {
        self.strategy_map[i].len()
    }

    /// The assignment realized by player `i`'s strategy `s`.
    pub fn assignment(&self, i: usize, s: usize) -> Assignment {
        self.strategy_map[i][s]
    }

    /// Converts a game profile into per-device assignments.
    pub fn assignments_from_choices(&self, choices: &[usize]) -> Vec<Assignment> {
        assert_eq!(choices.len(), self.strategy_map.len(), "one choice per device");
        choices.iter().enumerate().map(|(i, &s)| self.strategy_map[i][s]).collect()
    }

    /// Total latency `T_t` of the given strategy profile (the game's social
    /// cost).
    pub fn total_latency(&self, choices: &[usize]) -> f64 {
        Profile::from_choices(&self.game, choices.to_vec()).total_cost(&self.game)
    }

    /// Runs CGBA(λ) on this instance from a random start.
    pub fn solve_cgba(&self, config: &CgbaConfig, rng: &mut Pcg32) -> CgbaReport {
        cgba(&self.game, config, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::optimal_latency;
    use crate::system::SystemConfig;
    use eotora_states::{PaperStateConfig, StateProvider};
    use eotora_util::assert_close;

    fn setup(devices: usize, seed: u64) -> (MecSystem, SystemState) {
        let system = MecSystem::random(&SystemConfig::paper_defaults(devices), seed);
        let mut p = StateProvider::paper(system.topology(), &PaperStateConfig::default(), seed);
        let state = p.observe(0, system.topology());
        (system, state)
    }

    #[test]
    fn social_cost_equals_closed_form_latency() {
        // The load-identity at the heart of §V-B: game social cost == T_t.
        let (system, state) = setup(18, 21);
        let freqs = system.max_frequencies();
        let p2a = P2aProblem::build(&system, &state, &freqs);
        let mut rng = Pcg32::seed(3);
        for _ in 0..10 {
            let choices: Vec<usize> = (0..18).map(|i| rng.below(p2a.num_strategies(i))).collect();
            let game_cost = p2a.total_latency(&choices);
            let assignments = p2a.assignments_from_choices(&choices);
            let t = optimal_latency(&system, &state, &assignments, &freqs).total();
            assert_close!(game_cost, t, 1e-9);
        }
    }

    #[test]
    fn strategies_respect_reachability() {
        let (system, state) = setup(5, 22);
        let p2a = P2aProblem::build(&system, &state, &system.min_frequencies());
        let topo = system.topology();
        for i in 0..5 {
            for s in 0..p2a.num_strategies(i) {
                let a = p2a.assignment(i, s);
                assert!(topo.servers_reachable_from(a.base_station).contains(&a.server));
            }
        }
    }

    #[test]
    fn strategy_count_matches_topology() {
        // Full coverage, one room per BS, 8 servers per room → 6×8 = 48.
        let (system, state) = setup(3, 23);
        let p2a = P2aProblem::build(&system, &state, &system.min_frequencies());
        for i in 0..3 {
            assert_eq!(p2a.num_strategies(i), 48);
        }
    }

    #[test]
    fn cgba_improves_over_random_start() {
        let (system, state) = setup(30, 25);
        let p2a = P2aProblem::build(&system, &state, &system.max_frequencies());
        let mut rng = Pcg32::seed(9);
        let report = p2a.solve_cgba(&CgbaConfig::default(), &mut rng);
        assert!(report.converged);
        assert!(report.total_cost <= report.initial_cost);
        assert!(report.profile.is_lambda_equilibrium(p2a.game(), 0.0, 1e-9));
    }

    #[test]
    fn rebuild_matches_fresh_build() {
        // The zero-rebuild refresh path must reproduce `build` exactly —
        // same game, bit for bit — across states and frequency changes.
        let (system, state0) = setup(12, 27);
        let mut provider =
            StateProvider::paper(system.topology(), &PaperStateConfig::default(), 91);
        let state1 = provider.observe(5, system.topology());

        let mut reused = P2aProblem::build(&system, &state0, &system.min_frequencies());
        reused.update_frequencies(&system, &system.max_frequencies());
        let fresh = P2aProblem::build(&system, &state0, &system.max_frequencies());
        assert_eq!(reused.game(), fresh.game());

        reused.rebuild(&system, &state1, &system.min_frequencies());
        let fresh = P2aProblem::build(&system, &state1, &system.min_frequencies());
        assert_eq!(reused.game(), fresh.game());
        assert!(reused.matches_system(&system));
    }

    #[test]
    fn higher_frequencies_lower_equilibrium_latency() {
        let (system, state) = setup(20, 26);
        let slow = P2aProblem::build(&system, &state, &system.min_frequencies());
        let fast = P2aProblem::build(&system, &state, &system.max_frequencies());
        let mut r1 = Pcg32::seed(4);
        let mut r2 = Pcg32::seed(4);
        let c_slow = slow.solve_cgba(&CgbaConfig::default(), &mut r1).total_cost;
        let c_fast = fast.solve_cgba(&CgbaConfig::default(), &mut r2).total_cost;
        assert!(c_fast < c_slow);
    }
}
