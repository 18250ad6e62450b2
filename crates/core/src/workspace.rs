//! Reusable per-slot solver state (the zero-rebuild engine).
//!
//! `P2aProblem::build` allocates a strategy vector per device per BDMA
//! round — ~19k small allocations per slot at 200 devices — even though the
//! game's shape is a pure function of the (fixed) topology. A
//! [`SlotWorkspace`] owns one [`P2aProblem`] and a frequency buffer across
//! slots: the first call builds, every later call refreshes weights in
//! place ([`P2aProblem::rebuild`] per slot, and
//! [`P2aProblem::update_frequencies`] per BDMA round via
//! [`SlotWorkspace::refresh_frequencies`]). Refreshing recomputes the exact
//! expressions `build` uses, so results are bit-identical — pinned by the
//! `solve_p2_reference` equivalence tests.
//!
//! A workspace must be reused with the *same* [`MecSystem`]; a system with
//! a different topology shape triggers a fresh build
//! ([`P2aProblem::matches_system`]).

use eotora_states::SystemState;

use crate::checkpoint::WorkspaceSnapshot;
use crate::p2a::P2aProblem;
use crate::system::MecSystem;

/// Caches the P2-A problem and the working frequency vector across slots so
/// the steady-state solve path never rebuilds the game from scratch.
#[derive(Debug, Clone, Default)]
pub struct SlotWorkspace {
    problem: Option<P2aProblem>,
    freqs: Vec<f64>,
    /// Strategy choices of the previous slot's incumbent P2 solution —
    /// the warm seed for the next slot's P2-A solve (empty until a warm
    /// solve retains one).
    retained_choices: Vec<usize>,
    has_retained_choices: bool,
    /// Frequencies `Ω̄` of the previous slot's incumbent — the warm
    /// replacement for the `Ω ← Ω^L` initialization of Alg. 2 line 1.
    retained_freqs: Vec<f64>,
    /// Whether the previous slot's cold probe beat the warm chain — a
    /// signal that the retained basin is going stale, so the next slot
    /// should probe even if its baseline probe rate would skip it.
    probe_hot: bool,
}

impl SlotWorkspace {
    /// An empty workspace; the first [`SlotWorkspace::prepare`] builds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Readies the P2-A problem for `state` at `freqs_hz`: refreshes the
    /// cached instance in place, or builds one if the workspace is empty or
    /// the system shape changed. Also latches `freqs_hz` as the working
    /// frequencies.
    pub fn prepare(
        &mut self,
        system: &MecSystem,
        state: &SystemState,
        freqs_hz: &[f64],
    ) -> &P2aProblem {
        self.set_freqs(freqs_hz);
        match &mut self.problem {
            Some(problem) if problem.matches_system(system) => {
                problem.rebuild(system, state, freqs_hz);
            }
            slot => *slot = Some(P2aProblem::build(system, state, freqs_hz)),
        }
        self.problem.as_ref().expect("problem just prepared")
    }

    /// Applies the latched working frequencies to the cached problem's
    /// server weights — the between-rounds step of BDMA, after
    /// [`SlotWorkspace::set_freqs`] recorded the P2-B result.
    ///
    /// # Panics
    ///
    /// Panics if the workspace has no prepared problem.
    pub fn refresh_frequencies(&mut self, system: &MecSystem) -> &P2aProblem {
        let problem = self.problem.as_mut().expect("prepare before refresh_frequencies");
        problem.update_frequencies(system, &self.freqs);
        problem
    }

    /// Copies `freqs_hz` into the retained working buffer (no allocation in
    /// steady state).
    pub fn set_freqs(&mut self, freqs_hz: &[f64]) {
        self.freqs.clear();
        self.freqs.extend_from_slice(freqs_hz);
    }

    /// The latched working frequencies.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// The cached problem, if any slot has been prepared yet.
    pub fn problem(&self) -> Option<&P2aProblem> {
        self.problem.as_ref()
    }

    /// Retains the incumbent `(choices, Ω̄)` of a completed slot solve as
    /// the warm seed for the next slot (see
    /// [`crate::bdma::StartPolicy::Warm`]). Reuses the internal buffers, so
    /// steady-state retention is allocation-free.
    pub fn retain_solution(&mut self, choices: &[usize], freqs_hz: &[f64]) {
        self.retained_choices.clear();
        self.retained_choices.extend_from_slice(choices);
        self.has_retained_choices = true;
        self.retained_freqs.clear();
        self.retained_freqs.extend_from_slice(freqs_hz);
    }

    /// The retained previous-slot strategy choices, if a warm solve has
    /// retained any. Repair against the current game is the consumer's job
    /// ([`eotora_game::Profile::from_retained_choices`]).
    pub fn retained_choices(&self) -> Option<&[usize]> {
        self.has_retained_choices.then_some(self.retained_choices.as_slice())
    }

    /// The retained previous-slot frequencies, if any.
    pub fn retained_freqs(&self) -> Option<&[f64]> {
        (!self.retained_freqs.is_empty()).then_some(self.retained_freqs.as_slice())
    }

    /// Whether the previous slot's exploration probe beat the warm chain
    /// (see [`crate::bdma::StartPolicy::Warm`]'s probe schedule).
    pub fn probe_hot(&self) -> bool {
        self.probe_hot
    }

    /// Records whether this slot's probe beat the warm chain, raising the
    /// next slot's probe rate while probes keep winning.
    pub fn set_probe_hot(&mut self, hot: bool) {
        self.probe_hot = hot;
    }

    /// Serializable image of the cross-slot state (retained incumbent +
    /// probe heat). The cached `P2aProblem` is excluded: it is rebuilt from
    /// the system and the next observation with identical numerics.
    pub fn snapshot(&self) -> WorkspaceSnapshot {
        WorkspaceSnapshot {
            retained_choices: self.retained_choices.clone(),
            has_retained_choices: self.has_retained_choices,
            retained_freqs: self.retained_freqs.clone(),
            probe_hot: self.probe_hot,
        }
    }

    /// Restores the cross-slot state from a snapshot. The problem cache is
    /// dropped; the next [`SlotWorkspace::prepare`] rebuilds it.
    pub fn restore(&mut self, snapshot: &WorkspaceSnapshot) {
        self.problem = None;
        self.freqs.clear();
        self.retained_choices.clear();
        self.retained_choices.extend_from_slice(&snapshot.retained_choices);
        self.has_retained_choices = snapshot.has_retained_choices;
        self.retained_freqs.clear();
        self.retained_freqs.extend_from_slice(&snapshot.retained_freqs);
        self.probe_hot = snapshot.probe_hot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use eotora_states::{PaperStateConfig, StateProvider};

    #[test]
    fn prepare_reuses_and_matches_fresh_build() {
        let system = MecSystem::random(&SystemConfig::paper_defaults(14), 71);
        let mut provider =
            StateProvider::paper(system.topology(), &PaperStateConfig::default(), 71);
        let mut ws = SlotWorkspace::new();
        assert!(ws.problem().is_none());
        for slot in 0..4 {
            let state = provider.observe(slot, system.topology());
            let freqs =
                if slot % 2 == 0 { system.min_frequencies() } else { system.max_frequencies() };
            let prepared = ws.prepare(&system, &state, &freqs);
            let fresh = P2aProblem::build(&system, &state, &freqs);
            assert_eq!(prepared.game(), fresh.game(), "slot {slot}");
        }
    }

    #[test]
    fn refresh_frequencies_matches_fresh_build() {
        let system = MecSystem::random(&SystemConfig::paper_defaults(10), 72);
        let mut provider =
            StateProvider::paper(system.topology(), &PaperStateConfig::default(), 72);
        let state = provider.observe(0, system.topology());
        let mut ws = SlotWorkspace::new();
        ws.prepare(&system, &state, &system.min_frequencies());
        let freqs = system.max_frequencies();
        ws.set_freqs(&freqs);
        let refreshed = ws.refresh_frequencies(&system);
        let fresh = P2aProblem::build(&system, &state, &freqs);
        assert_eq!(refreshed.game(), fresh.game());
    }

    #[test]
    fn retained_solution_round_trips() {
        let mut ws = SlotWorkspace::new();
        assert!(ws.retained_choices().is_none());
        assert!(ws.retained_freqs().is_none());
        ws.retain_solution(&[1, 0, 2], &[2.0e9, 3.0e9]);
        assert_eq!(ws.retained_choices(), Some(&[1usize, 0, 2][..]));
        assert_eq!(ws.retained_freqs(), Some(&[2.0e9, 3.0e9][..]));
    }

    #[test]
    fn shape_change_triggers_fresh_build() {
        let small = MecSystem::random(&SystemConfig::paper_defaults(6), 73);
        let large = MecSystem::random(&SystemConfig::paper_defaults(9), 73);
        let mut sp = StateProvider::paper(small.topology(), &PaperStateConfig::default(), 73);
        let mut lp = StateProvider::paper(large.topology(), &PaperStateConfig::default(), 73);
        let small_state = sp.observe(0, small.topology());
        let large_state = lp.observe(0, large.topology());
        let mut ws = SlotWorkspace::new();
        ws.prepare(&small, &small_state, &small.min_frequencies());
        let prepared = ws.prepare(&large, &large_state, &large.min_frequencies());
        let fresh = P2aProblem::build(&large, &large_state, &large.min_frequencies());
        assert_eq!(prepared.game(), fresh.game());
    }
}
