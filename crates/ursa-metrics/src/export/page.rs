//! The one page template behind every HTML artifact: the metrics
//! dashboard and `ursa-bench diff`'s `diff.html`.
//!
//! A page is a single self-contained document with zero external
//! dependencies — no JavaScript, no fonts, no CDN — styled by one inline
//! stylesheet whose color tokens follow the viewer's light/dark
//! preference. Pages write their tables through [`table`], which escapes
//! every cell.

use std::fmt::Write as _;

/// Categorical series colors (light mode), in fixed assignment order.
/// Validated for adjacent-pair colorblind separation on the light surface.
pub(crate) const SERIES_LIGHT: [&str; 8] = [
    "#2a78d6", "#eb6834", "#1baf7a", "#eda100", "#e87ba4", "#008300", "#4a3aa7", "#e34948",
];
/// The same eight hues re-stepped for the dark surface.
const SERIES_DARK: [&str; 8] = [
    "#3987e5", "#d95926", "#199e70", "#c98500", "#d55181", "#008300", "#9085e9", "#e66767",
];

/// Escapes text for HTML element content and double-quoted attribute
/// values: the one HTML escaper behind every page.
pub fn html_esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Opens a page: the document head (title and stylesheet), the themed
/// root, and `title` as its heading. Finish it with [`close`].
pub fn open(title: &str) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    let _ = writeln!(out, "<title>{}</title>", html_esc(title));
    out.push_str(&style());
    out.push_str("</head>\n<body>\n<div class=\"viz-root\">\n");
    let _ = writeln!(out, "<h1>{}</h1>", html_esc(title));
    out
}

/// Closes a page begun with [`open`].
pub fn close(mut out: String) -> String {
    out.push_str("</div>\n</body>\n</html>\n");
    out
}

/// Writes a `<table>`: one header row, then one row per `(cells, sig)`.
/// Every header and cell is escaped; rows with `sig` set carry the
/// highlighted `sig` class.
pub fn table<S: AsRef<str>>(
    out: &mut String,
    header: &[S],
    rows: impl IntoIterator<Item = (Vec<String>, bool)>,
) {
    out.push_str("<table>\n<tr>");
    for h in header {
        let _ = write!(out, "<th>{}</th>", html_esc(h.as_ref()));
    }
    out.push_str("</tr>\n");
    for (cells, sig) in rows {
        out.push_str(if sig { "<tr class=\"sig\">" } else { "<tr>" });
        for c in &cells {
            let _ = write!(out, "<td>{}</td>", html_esc(c));
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</table>\n");
}

/// Renders the inline stylesheet with the series tokens substituted from
/// [`SERIES_LIGHT`] and [`SERIES_DARK`] (single source for the palette),
/// and one class per palette slot: stroke for lines, fill for marks and
/// end-label bullets (`s{i}t`), background for legend swatches.
fn style() -> String {
    let tokens = |palette: &[&str]| {
        palette
            .iter()
            .enumerate()
            .map(|(i, c)| format!("--s{i}: {c};"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut classes = String::new();
    for i in 0..SERIES_LIGHT.len() {
        let _ = writeln!(
            classes,
            ".s{i} {{ stroke: var(--s{i}); }} circle.s{i}, .s{i}t {{ fill: var(--s{i}); }} \
             .swatch.s{i} {{ background: var(--s{i}); }}"
        );
    }
    STYLE
        .replace("/*SERIES_LIGHT*/", &tokens(&SERIES_LIGHT))
        .replace("/*SERIES_DARK*/", &tokens(&SERIES_DARK))
        .replace("/*SERIES_CLASSES*/\n", &classes)
}

/// Inline stylesheet template: color tokens for both modes, series classes,
/// chart chrome and tables. Series colors are worn only by marks; all text
/// uses ink tokens.
const STYLE: &str = r#"<style>
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --sig: #fbe3e1;
  /*SERIES_LIGHT*/
  --sx: #898781; --alert: #d03b3b;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  color: var(--ink); background: var(--page);
  max-width: 960px; margin: 0 auto; padding: 24px;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --sig: #4a1f1d;
    /*SERIES_DARK*/
    --sx: #898781; --alert: #d03b3b;
  }
}
body { margin: 0; background: var(--page); }
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 16px 0 6px; color: var(--ink); }
.subtitle { color: var(--ink2); font-size: 13px; margin: 2px 0 10px; }
.panel { background: var(--surface-1); border: 1px solid var(--grid);
         border-radius: 8px; padding: 14px 16px; margin: 16px 0; }
svg { width: 100%; height: auto; display: block; }
.grid { stroke: var(--grid); stroke-width: 1; }
.axis { stroke: var(--axis); stroke-width: 1; }
.tick { fill: var(--muted); font-size: 11px; font-variant-numeric: tabular-nums; }
.line { fill: none; stroke-width: 2; stroke-linejoin: round; stroke-linecap: round; }
.series:hover .line { stroke-width: 3; }
.end { stroke: var(--surface-1); stroke-width: 2; }
.dot { stroke: var(--surface-1); stroke-width: 2; }
.hit { fill: transparent; pointer-events: all; }
.endlabel { fill: var(--ink2); font-size: 11px; }
.leader { stroke: var(--muted); stroke-width: 1; }
/*SERIES_CLASSES*/
.sx { stroke: var(--sx); } circle.sx { fill: var(--sx); } .swatch.sx { background: var(--sx); }
.legend { display: flex; flex-wrap: wrap; gap: 4px 14px; margin: 0 0 8px; }
.key { display: inline-flex; align-items: center; gap: 5px;
       color: var(--ink2); font-size: 12px; }
.key.muted { color: var(--muted); font-style: italic; }
.swatch { width: 12px; height: 12px; border-radius: 3px; display: inline-block; }
line.ann-scale { stroke: var(--s6); stroke-width: 1; stroke-dasharray: 3 3; }
line.ann-alert { stroke: var(--alert); stroke-width: 1; stroke-dasharray: 3 3; }
line.ann-other { stroke: var(--muted); stroke-width: 1; stroke-dasharray: 3 3; }
circle.ann-scale { fill: var(--s6); }
circle.ann-alert { fill: var(--alert); }
circle.ann-other { fill: var(--muted); }
.ann:hover line { stroke-width: 2; }
details { margin-top: 8px; }
summary { color: var(--ink2); font-size: 12px; cursor: pointer; }
table { border-collapse: collapse; font-size: 11px; margin-top: 6px;
        font-variant-numeric: tabular-nums; }
th, td { border: 1px solid var(--grid); padding: 2px 8px; text-align: right; }
th:first-child, td:first-child { text-align: left; }
th { color: var(--ink2); font-weight: 600; }
tr.sig td { background: var(--sig); font-weight: 600; }
</style>
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_is_selfcontained_and_escaped() {
        let mut html = open("R&D <run>");
        let row = |a: &str, b: &str, sig| (vec![a.to_string(), b.to_string()], sig);
        table(
            &mut html,
            &["key", "v"],
            [row("a<b", "1", false), row("seed", "\"7\"", true)],
        );
        let html = close(html);
        assert!(html.starts_with("<!DOCTYPE html>") && html.ends_with("</html>\n"));
        assert!(html.contains("<title>R&amp;D &lt;run&gt;</title>\n"));
        assert!(html.contains("<h1>R&amp;D &lt;run&gt;</h1>\n"));
        assert!(html.contains(
            "<table>\n<tr><th>key</th><th>v</th></tr>\n<tr><td>a&lt;b</td><td>1</td></tr>\n\
             <tr class=\"sig\"><td>seed</td><td>&quot;7&quot;</td></tr>\n</table>\n"
        ));
        assert!(html.contains("--s0: #2a78d6;") && html.contains("--s0: #3987e5;"));
        assert!(html.contains(".s7 { stroke: var(--s7); }") && !html.contains("/*"));
        assert!(!html.contains("<script") && !html.contains("http"));
    }
}
