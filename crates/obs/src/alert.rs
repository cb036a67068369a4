//! Alert state machines with deterministic hysteresis.
//!
//! Each SLO rule owns one [`AlertMachine`] stepped once per evaluation
//! tick with a boolean "breached" verdict. The machine is the only
//! place alert lifecycle policy lives, so its behaviour is fully
//! characterized by two knobs:
//!
//! * `for_ticks` — consecutive breached ticks required before a rule
//!   *fires* (the "for:" clause of the rule grammar). Until then the
//!   rule is *pending*; a single clean tick cancels a pending alert.
//! * `clear_ticks` — consecutive clean ticks required before a firing
//!   rule *resolves*. A breach while counting down resets the count.
//!
//! Both defaults are 1. Hysteresis is monotone by construction: raising
//! `for_ticks` can only delay (never hasten) firing, and raising
//! `clear_ticks` can only delay resolution — the property the crate's
//! proptests pin.

/// The externally visible lifecycle state of one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// The rule is within SLO.
    Ok,
    /// Breached, but not yet for `for_ticks` consecutive ticks.
    Pending,
    /// Breached for at least `for_ticks` consecutive ticks.
    Firing,
}

/// A state-machine transition emitted by [`AlertMachine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Ok → Pending: first breached tick of a (potential) incident.
    Pending,
    /// Pending/Ok → Firing: `for_ticks` consecutive breaches reached.
    Firing,
    /// Pending → Ok: the breach run ended before the rule fired.
    PendingCleared,
    /// Firing → Ok: `clear_ticks` consecutive clean ticks observed.
    Resolved,
}

impl Phase {
    /// Lower-case stable name used in rendered transition lines.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Phase::Pending => "pending",
            Phase::Firing => "firing",
            Phase::PendingCleared => "pending-cleared",
            Phase::Resolved => "resolved",
        }
    }
}

/// One rule's deterministic pending→firing→resolved machine.
#[derive(Debug, Clone)]
pub struct AlertMachine {
    for_ticks: u32,
    clear_ticks: u32,
    state: AlertState,
    breach_run: u32,
    clean_run: u32,
}

impl AlertMachine {
    /// Creates a machine in `Ok`. Zero knobs are promoted to 1 (a rule
    /// must breach at least once to fire and be clean at least once to
    /// resolve).
    pub fn new(for_ticks: u32, clear_ticks: u32) -> Self {
        AlertMachine {
            for_ticks: for_ticks.max(1),
            clear_ticks: clear_ticks.max(1),
            state: AlertState::Ok,
            breach_run: 0,
            clean_run: 0,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> AlertState {
        self.state
    }

    /// Advances one tick with this tick's breach verdict, returning the
    /// transition the tick caused, if any. Note `Ok → Firing` emits only
    /// [`Phase::Firing`] (when `for_ticks == 1` there is no observable
    /// pending interval).
    pub fn step(&mut self, breached: bool) -> Option<Phase> {
        match (self.state, breached) {
            (AlertState::Ok, false) => None,
            (AlertState::Ok, true) => {
                self.breach_run = 1;
                if self.breach_run >= self.for_ticks {
                    self.state = AlertState::Firing;
                    self.clean_run = 0;
                    Some(Phase::Firing)
                } else {
                    self.state = AlertState::Pending;
                    Some(Phase::Pending)
                }
            }
            (AlertState::Pending, true) => {
                self.breach_run += 1;
                if self.breach_run >= self.for_ticks {
                    self.state = AlertState::Firing;
                    self.clean_run = 0;
                    Some(Phase::Firing)
                } else {
                    None
                }
            }
            (AlertState::Pending, false) => {
                self.state = AlertState::Ok;
                self.breach_run = 0;
                Some(Phase::PendingCleared)
            }
            (AlertState::Firing, true) => {
                self.clean_run = 0;
                None
            }
            (AlertState::Firing, false) => {
                self.clean_run += 1;
                if self.clean_run >= self.clear_ticks {
                    self.state = AlertState::Ok;
                    self.breach_run = 0;
                    Some(Phase::Resolved)
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phases(machine: &mut AlertMachine, verdicts: &[bool]) -> Vec<Phase> {
        verdicts.iter().filter_map(|&b| machine.step(b)).collect()
    }

    #[test]
    fn fires_after_for_ticks_and_resolves_after_clear_ticks() {
        let mut m = AlertMachine::new(2, 3);
        let got = phases(&mut m, &[true, true, false, false, false]);
        assert_eq!(got, vec![Phase::Pending, Phase::Firing, Phase::Resolved]);
        assert_eq!(m.state(), AlertState::Ok);
    }

    #[test]
    fn single_clean_tick_cancels_pending() {
        let mut m = AlertMachine::new(3, 1);
        let got = phases(&mut m, &[true, false, true, true, true]);
        assert_eq!(
            got,
            vec![
                Phase::Pending,
                Phase::PendingCleared,
                Phase::Pending,
                Phase::Firing
            ]
        );
    }

    #[test]
    fn breach_resets_the_clear_countdown() {
        let mut m = AlertMachine::new(1, 2);
        // fire, one clean, breach again, then two cleans to resolve.
        let got = phases(&mut m, &[true, false, true, false, false]);
        assert_eq!(got, vec![Phase::Firing, Phase::Resolved]);
        assert_eq!(m.state(), AlertState::Ok);
    }

    #[test]
    fn immediate_rules_skip_the_pending_state() {
        let mut m = AlertMachine::new(1, 1);
        assert_eq!(m.step(true), Some(Phase::Firing));
        assert_eq!(m.step(false), Some(Phase::Resolved));
    }
}
