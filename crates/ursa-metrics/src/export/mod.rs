//! Human-facing artifacts: the one page template every HTML report renders
//! through, and the metrics dashboard built on it.

pub mod dashboard;
pub mod page;
