//! Exporters: Prometheus text format, CSV, and the self-contained HTML
//! dashboard.

pub mod csv;
pub mod dashboard;
pub mod prometheus;

/// Escapes text for HTML element content and double-quoted attribute
/// values: the one HTML escaper behind the dashboard, `ursa-bench diff`
/// and post-mortem reports.
pub fn html_esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}
