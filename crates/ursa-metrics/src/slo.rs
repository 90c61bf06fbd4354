//! SLO monitoring: windowed violation fractions and multi-window burn-rate
//! alerts.
//!
//! An SLA of the form "p99 end-to-end latency ≤ 100 ms" implies an *error
//! budget*: at most 1 % of requests may exceed the target. Each harvest
//! interval the monitor observes, per SLA class, how many requests
//! completed and how many exceeded the target. The **burn rate** over a
//! window is the observed bad fraction divided by the budget — burn rate 1
//! means the budget is being consumed exactly as fast as it accrues; burn
//! rate 10 means the class will exhaust a month's budget in three days.
//!
//! Alerts follow the multi-window pattern (Google SRE workbook): a rule
//! fires only when both its short and long window exceed the threshold —
//! the long window filters transients, the short window makes the alert
//! reset quickly once the incident ends.

/// One monitored SLO: the percentile of a named class's latency SLA. The
/// latency target stays with the caller, which counts the requests above
/// it ([`SloMonitor::observe`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Class name (label value in exported series).
    class: String,
    /// Constrained percentile (e.g. 99.0). The error budget is
    /// `1 - percentile/100`.
    percentile: f64,
}

impl SloSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if the percentile is outside `(0, 100)`.
    pub fn new(class: &str, percentile: f64) -> Self {
        assert!(
            percentile > 0.0 && percentile < 100.0,
            "percentile must be in (0, 100)"
        );
        SloSpec {
            class: class.to_string(),
            percentile,
        }
    }

    /// The error budget: the fraction of requests allowed above the target.
    fn budget(&self) -> f64 {
        1.0 - self.percentile / 100.0
    }
}

/// A multi-window burn-rate alert rule.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BurnRule {
    /// Severity label ("page", "ticket", ...).
    severity: &'static str,
    /// Burn-rate threshold both windows must exceed.
    threshold: f64,
    /// Short window, in harvest intervals.
    short_windows: usize,
    /// Long window, in harvest intervals.
    long_windows: usize,
}

/// Default rules, assuming one-minute harvest intervals: a fast-burn page
/// (14.4x over 5 m confirmed by 1 h) and a slow-burn ticket (6x over 30 m
/// confirmed by 6 h). Long windows clamp to available history, so short
/// runs still alert.
const DEFAULT_RULES: [BurnRule; 2] = [
    BurnRule {
        severity: "page",
        threshold: 14.4,
        short_windows: 5,
        long_windows: 60,
    },
    BurnRule {
        severity: "ticket",
        threshold: 6.0,
        short_windows: 30,
        long_windows: 360,
    },
];

/// A fired alert for one class and rule, at one harvest.
#[derive(Debug, Clone, PartialEq)]
pub struct SloAlert {
    /// Index of the spec in the monitor.
    pub spec: usize,
    /// Class name.
    pub class: String,
    /// Severity of the matched rule.
    pub severity: &'static str,
    /// Burn rate over the rule's short window.
    pub short_burn: f64,
}

/// Per-interval (completions, violations) counts for one class.
#[derive(Debug, Clone, Copy, Default)]
struct WindowCounts {
    total: u64,
    bad: u64,
}

/// The SLO monitor: per-class history of violation counts plus burn-rate
/// evaluation.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    specs: Vec<SloSpec>,
    history: Vec<Vec<WindowCounts>>,
}

impl SloMonitor {
    /// Creates a monitor for the given specs, alerting on `DEFAULT_RULES`.
    pub fn new(specs: Vec<SloSpec>) -> Self {
        let history = vec![Vec::new(); specs.len()];
        SloMonitor { specs, history }
    }

    /// Records one harvest interval for spec `idx`: `total` completions, of
    /// which `bad` exceeded the target.
    ///
    /// # Panics
    ///
    /// Panics if `bad > total`.
    pub fn observe(&mut self, idx: usize, total: u64, bad: u64) {
        assert!(bad <= total, "violations cannot exceed completions");
        self.history[idx].push(WindowCounts { total, bad });
    }

    /// The violation fraction of spec `idx` over the last `windows`
    /// intervals (clamped to history), or `None` if no request completed in
    /// that span.
    pub fn violation_fraction(&self, idx: usize, windows: usize) -> Option<f64> {
        let h = &self.history[idx];
        let tail = &h[h.len().saturating_sub(windows.max(1))..];
        let total: u64 = tail.iter().map(|w| w.total).sum();
        let bad: u64 = tail.iter().map(|w| w.bad).sum();
        if total == 0 {
            None
        } else {
            Some(bad as f64 / total as f64)
        }
    }

    /// The burn rate of spec `idx` over the last `windows` intervals:
    /// violation fraction divided by the error budget.
    pub fn burn_rate(&self, idx: usize, windows: usize) -> Option<f64> {
        self.violation_fraction(idx, windows)
            .map(|f| f / self.specs[idx].budget())
    }

    /// Evaluates every rule of `DEFAULT_RULES` against every spec at the
    /// current history, returning the alerts that fire now.
    pub fn check(&self) -> Vec<SloAlert> {
        let mut alerts = Vec::new();
        for (idx, spec) in self.specs.iter().enumerate() {
            for rule in &DEFAULT_RULES {
                let (Some(short), Some(long)) = (
                    self.burn_rate(idx, rule.short_windows),
                    self.burn_rate(idx, rule.long_windows),
                ) else {
                    continue;
                };
                if short >= rule.threshold && long >= rule.threshold {
                    alerts.push(SloAlert {
                        spec: idx,
                        class: spec.class.clone(),
                        severity: rule.severity,
                        short_burn: short,
                    });
                }
            }
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> SloMonitor {
        SloMonitor::new(vec![SloSpec::new("get", 99.0)])
    }

    #[test]
    fn budget_from_percentile() {
        assert!((SloSpec::new("a", 99.0).budget() - 0.01).abs() < 1e-12);
        assert!((SloSpec::new("a", 50.0).budget() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn violation_fraction_windows() {
        let mut m = monitor();
        m.observe(0, 100, 0);
        m.observe(0, 100, 10);
        assert_eq!(m.violation_fraction(0, 1), Some(0.10));
        assert_eq!(m.violation_fraction(0, 2), Some(0.05));
        // Clamped to available history.
        assert_eq!(m.violation_fraction(0, 100), Some(0.05));
    }

    #[test]
    fn empty_window_is_none() {
        let mut m = monitor();
        assert_eq!(m.violation_fraction(0, 5), None);
        m.observe(0, 0, 0);
        assert_eq!(m.violation_fraction(0, 1), None);
        assert_eq!(m.burn_rate(0, 1), None);
    }

    #[test]
    fn burn_rate_scales_by_budget() {
        let mut m = monitor();
        // 10% bad against a 1% budget: burn rate 10.
        m.observe(0, 1000, 100);
        let burn = m.burn_rate(0, 1).unwrap();
        assert!((burn - 10.0).abs() < 1e-9, "burn {burn}");
    }

    #[test]
    fn multiwindow_alert_fires_and_clears() {
        let mut m = monitor();
        // Sustained hard burn: 30% bad on a 1% budget -> burn 30 > 14.4.
        for _ in 0..6 {
            m.observe(0, 1000, 300);
        }
        let alerts = m.check();
        assert!(
            alerts.iter().any(|a| a.severity == "page"),
            "expected page alert, got {alerts:?}"
        );
        // Recovery: the short window clears first.
        for _ in 0..10 {
            m.observe(0, 1000, 0);
        }
        assert!(m.check().iter().all(|a| a.severity != "page"));
    }

    #[test]
    fn quiet_class_never_alerts() {
        let mut m = monitor();
        for _ in 0..100 {
            m.observe(0, 1000, 5); // 0.5% bad < 1% budget
        }
        assert!(m.check().is_empty());
    }
}
