//! NoC latency and load-dependent contention.

/// Zero-load round-trip NoC cycles (request + response traversal) on
/// the Table III network: a 4×4 2D mesh at 3 cycles per hop (2-stage
/// router + 1-cycle link), with uniformly distributed LLC banks at a
/// mean Manhattan distance of ≈ 2.67 hops, so 2 × 2.67 × 3 ≈ 16.
pub const NOC_ROUND_TRIP_CYCLES: u64 = 16;

/// An M/D/1-style queueing model that converts an observed request rate
/// into extra cycles of queueing delay.
///
/// Requests are counted in a sliding window; utilization is the measured
/// rate divided by the service rate, and the queueing delay grows as
/// `rho / (1 - rho)` — negligible at baseline traffic, tens of cycles
/// under an N8L-like 7× request storm.
#[derive(Clone, Debug)]
pub struct ContentionModel {
    /// Requests/cycle the NoC + LLC bank can absorb before queueing.
    service_rate: f64,
    /// Sliding-window length in cycles.
    window: u64,
    /// Standing utilization from other cores / L1d traffic (`[0, 0.9)`).
    background_util: f64,
    /// Timestamps of requests inside the current window.
    recent: std::collections::VecDeque<u64>,
}

impl ContentionModel {
    /// Creates a model. `service_rate` must be positive; `background_util`
    /// must lie in `[0, 0.9)`.
    ///
    /// # Panics
    ///
    /// Panics if the arguments are out of range.
    pub fn new(service_rate: f64, window: u64, background_util: f64) -> Self {
        assert!(service_rate > 0.0, "service rate must be positive");
        assert!(window > 0, "window must be non-zero");
        assert!(
            (0.0..0.9).contains(&background_util),
            "background utilization out of range"
        );
        ContentionModel {
            service_rate,
            window,
            background_util,
            recent: std::collections::VecDeque::new(),
        }
    }

    /// The default calibration: tuned so that baseline server-workload
    /// instruction traffic sees ≈ 0 queueing while a 7× N8L storm
    /// inflates average LLC access latency by roughly a quarter (Fig. 5).
    pub fn calibrated() -> Self {
        ContentionModel::new(0.12, 1024, 0.35)
    }

    /// Records a request at `now` and returns the queueing delay (in
    /// cycles) this request experiences.
    pub fn observe(&mut self, now: u64) -> u64 {
        while let Some(&front) = self.recent.front() {
            if front + self.window <= now {
                self.recent.pop_front();
            } else {
                break;
            }
        }
        self.recent.push_back(now);
        let rate = self.recent.len() as f64 / self.window as f64;
        let rho = (self.background_util + rate / self.service_rate).min(0.95);
        let service_time = 1.0 / self.service_rate;
        // M/D/1 mean queueing delay: rho / (2 (1 - rho)) * service time.
        (rho / (2.0 * (1.0 - rho)) * service_time).round() as u64
    }

    /// The current utilization estimate in `[0, 0.95]`, without recording
    /// a request.
    pub fn utilization(&self, now: u64) -> f64 {
        let live = self
            .recent
            .iter()
            .filter(|&&t| t + self.window > now)
            .count();
        let rate = live as f64 / self.window as f64;
        (self.background_util + rate / self.service_rate).min(0.95)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_default_is_sixteen() {
        let (avg_hops, hop_cycles) = (2.67_f64, 3.0);
        let round_trip = (2.0 * avg_hops * hop_cycles).round() as u64;
        assert_eq!(NOC_ROUND_TRIP_CYCLES, round_trip);
        assert_eq!(NOC_ROUND_TRIP_CYCLES, 16);
    }

    #[test]
    fn idle_network_has_small_delay() {
        let mut c = ContentionModel::calibrated();
        // Sparse requests: one every 200 cycles.
        let mut last = 0;
        for i in 0..50u64 {
            last = c.observe(i * 200);
        }
        assert!(last <= 4, "idle delay too high: {last}");
    }

    #[test]
    fn saturated_network_queues() {
        let mut c = ContentionModel::calibrated();
        let mut idle_delay = 0;
        for i in 0..10u64 {
            idle_delay = c.observe(i * 300);
        }
        let mut c2 = ContentionModel::calibrated();
        let mut storm_delay = 0;
        // A request every cycle — far above the service rate.
        for i in 0..2000u64 {
            storm_delay = c2.observe(i);
        }
        assert!(
            storm_delay > idle_delay + 10,
            "storm {storm_delay} vs idle {idle_delay}"
        );
    }

    #[test]
    fn delay_is_monotonic_in_load() {
        let loads = [64u64, 16, 4, 1]; // inter-arrival gaps, decreasing load -> increasing
        let mut last_delay = 0;
        for gap in loads {
            let mut c = ContentionModel::calibrated();
            let mut d = 0;
            for i in 0..3000u64 {
                d = c.observe(i * gap);
            }
            assert!(d >= last_delay, "gap {gap}: {d} < {last_delay}");
            last_delay = d;
        }
    }

    #[test]
    fn window_forgets_old_traffic() {
        let mut c = ContentionModel::new(0.2, 100, 0.0);
        for i in 0..100u64 {
            c.observe(i);
        }
        assert!(c.utilization(99) > 0.9);
        // Long quiet period: utilization collapses.
        assert!(c.utilization(10_000) < 0.05);
    }

    #[test]
    fn utilization_is_capped() {
        let mut c = ContentionModel::new(0.01, 64, 0.5);
        for i in 0..64u64 {
            c.observe(i);
        }
        assert!(c.utilization(63) <= 0.95);
    }

    #[test]
    #[should_panic(expected = "service rate")]
    fn zero_service_rate_panics() {
        let _ = ContentionModel::new(0.0, 10, 0.0);
    }

    #[test]
    #[should_panic(expected = "background utilization")]
    fn excessive_background_panics() {
        let _ = ContentionModel::new(0.2, 10, 0.95);
    }
}
