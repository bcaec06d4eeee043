//! AIMD control of the gateway's in-flight walker window.
//!
//! The gateway never pushes walkers into the service faster than its
//! current *window* allows. Each absorbed completion — and each retry
//! backoff while nothing of its own is in flight — samples the service's
//! [`admission snapshot`](bingo_service::WalkService::admission_snapshot)
//! and adjusts the window TCP-style:
//!
//! * **halving** when pressure shows — a `Saturated` rejection was
//!   observed (either as a counter delta or first-hand on a submit), or the
//!   fullest shard inbox is more than three quarters full;
//! * **additive increase** by 8 walkers when the last dispatch round was
//!   actually limited by the window (growing an unused window would just
//!   let a later burst overshoot).
//!
//! The step, the halving and the occupancy threshold are constants, not
//! knobs: no workload here sets other values. What a deployment sizes is
//! the window's range, [`AimdConfig`].
//!
//! Like the scheduler, this is pure state-machine code with no clocks or
//! service handles, so the control law is unit-testable on synthetic
//! pressure traces.

/// Walkers added per additive-increase step.
const ADDITIVE_STEP: usize = 8;

/// Peak shard-inbox occupancy (fraction of `max_inbox`) above which a step
/// counts as pressure even without a rejection.
const OCCUPANCY_HIGH: f64 = 0.75;

/// The range of the [`AimdWindow`].
#[derive(Debug, Clone, Copy)]
pub struct AimdConfig {
    /// Window at gateway start, in walkers.
    pub initial: usize,
    /// Floor the window never decreases below (keeps progress under
    /// sustained pressure; must be ≥ the largest chunk or dispatch stalls).
    pub min: usize,
    /// Ceiling the window never grows past.
    pub max: usize,
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig {
            initial: 64,
            min: 8,
            max: 1024,
        }
    }
}

/// The AIMD window state machine.
#[derive(Debug, Clone)]
pub struct AimdWindow {
    config: AimdConfig,
    window: usize,
    /// Rejection counter at the previous step (`None` before the first
    /// sample — the first step only establishes the baseline, otherwise
    /// rejections from before the gateway existed would read as pressure).
    last_rejections: Option<u64>,
}

impl AimdWindow {
    /// A window starting at `config.initial`, clamped into `[min, max]`.
    pub fn new(config: AimdConfig) -> Self {
        let min = config.min.max(1);
        let max = config.max.max(min);
        let window = config.initial.clamp(min, max);
        AimdWindow {
            config: AimdConfig { min, max, ..config },
            window,
            last_rejections: None,
        }
    }

    /// Current in-flight walker budget.
    pub fn window(&self) -> usize {
        self.window
    }

    /// One control step, taken on each absorbed completion (and each
    /// retry while nothing is in flight): `peak_occupancy` is the fullest
    /// inbox as a fraction of its bound, `rejections_total` the service's
    /// cumulative saturation-rejection counter, and `window_limited`
    /// whether the last dispatch round left work the window held back.
    /// Returns whether the window moved (each move is a flight event).
    pub fn on_tick(
        &mut self,
        peak_occupancy: f64,
        rejections_total: u64,
        window_limited: bool,
    ) -> bool {
        let rejected = self
            .last_rejections
            .is_some_and(|prev| rejections_total > prev);
        self.last_rejections = Some(rejections_total);
        if rejected || peak_occupancy > OCCUPANCY_HIGH {
            self.on_saturated()
        } else {
            let before = self.window;
            if window_limited {
                self.window = (self.window + ADDITIVE_STEP).min(self.config.max);
            }
            self.window != before
        }
    }

    /// Immediate halving — called when a submit comes back `Saturated`
    /// first-hand, without waiting for the next completion. Returns
    /// whether the window moved.
    pub fn on_saturated(&mut self) -> bool {
        let before = self.window;
        self.window = (self.window / 2).max(self.config.min);
        self.window != before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(cfg: AimdConfig) -> AimdWindow {
        AimdWindow::new(cfg)
    }

    #[test]
    fn grows_additively_only_when_window_limited() {
        let mut w = window(AimdConfig {
            initial: 32,
            ..AimdConfig::default()
        });
        assert!(!w.on_tick(0.0, 0, false));
        assert_eq!(w.window(), 32, "unused window does not grow");
        assert!(w.on_tick(0.0, 0, true));
        assert_eq!(w.window(), 40);
    }

    #[test]
    fn halves_on_rejection_delta_and_respects_floor() {
        let mut w = window(AimdConfig {
            initial: 64,
            min: 10,
            ..AimdConfig::default()
        });
        assert!(w.on_tick(0.0, 5, true));
        assert_eq!(w.window(), 72);
        // Counter moved 5 → 7: pressure.
        assert!(w.on_tick(0.0, 7, true));
        assert_eq!(w.window(), 36);
        // Repeated pressure bottoms out at the floor, then holds.
        for total in 8..32 {
            w.on_tick(0.0, total, true);
        }
        assert_eq!(w.window(), 10);
        // At the floor a further decrease is a no-op: the window holds.
        assert!(!w.on_tick(0.0, 100, true));
        assert_eq!(w.window(), 10, "floor");
    }

    #[test]
    fn first_tick_only_baselines_the_rejection_counter() {
        let mut w = window(AimdConfig::default());
        // 1000 rejections happened before this gateway attached; they are
        // history, not pressure.
        assert!(!w.on_tick(0.0, 1000, false));
        assert!(!w.on_tick(0.0, 1000, false));
        assert!(w.on_tick(0.0, 1001, false));
        assert_eq!(w.window(), 32);
    }

    #[test]
    fn high_occupancy_is_pressure_without_rejections() {
        let mut w = window(AimdConfig {
            initial: 100,
            ..AimdConfig::default()
        });
        assert!(!w.on_tick(0.74, 0, false));
        assert!(w.on_tick(0.76, 0, false));
        assert_eq!(w.window(), 50);
    }

    #[test]
    fn saturated_submit_decreases_immediately_and_ceiling_holds() {
        let mut w = window(AimdConfig {
            initial: 40,
            max: 48,
            ..AimdConfig::default()
        });
        assert!(w.on_saturated());
        assert_eq!(w.window(), 20);
        for _ in 0..10 {
            w.on_tick(0.0, 0, true);
        }
        assert_eq!(w.window(), 48, "ceiling");
        assert!(!w.on_tick(0.0, 0, true));
    }
}
