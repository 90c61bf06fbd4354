//! `BENCHMARK.json` at the root lists exactly what the binary reports.

use ursa_benchmark::catalogue::{END_TO_END, PER_LAYER, WORKLOADS};
use ursa_benchmark::host;
use ursa_benchmark::json::Json;

fn benchmark_json() -> Json {
    let path = host::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    assert!(text.len() <= 64 * 1024);
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).expect(key)
}

#[test]
fn workloads_agree_and_each_why_is_one_short_line() {
    let doc = benchmark_json();
    let listed = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(listed.len(), WORKLOADS.len());
    for (entry, (name, why)) in listed.iter().zip(WORKLOADS) {
        assert_eq!(text(entry, "name"), name);
        assert_eq!(text(entry, "why"), why);
        assert!(why.chars().count() <= 200 && !why.contains('\n'), "{name}");
    }
}

#[test]
fn metrics_agree_in_name_unit_direction_and_bound() {
    let doc = benchmark_json();
    for (key, catalogue) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = doc.get(key).and_then(Json::as_arr).expect(key);
        assert_eq!(listed.len(), catalogue.len(), "{key}");
        for (entry, metric) in listed.iter().zip(catalogue) {
            assert_eq!(text(entry, "name"), metric.name);
            assert_eq!(text(entry, "unit"), metric.unit, "{}", metric.name);
            assert_eq!(
                text(entry, "better"),
                metric.better.label(),
                "{}",
                metric.name
            );
            let bound = entry.get("bound").and_then(Json::as_f64);
            if key == "end_to_end" {
                assert_eq!(bound, Some(metric.bound), "{}", metric.name);
                assert!(metric.bound > 0.0 && metric.bound <= 0.25);
            } else {
                assert_eq!(bound, None, "{}", metric.name);
            }
        }
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}

#[test]
fn names_and_units_fit_the_contract() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .chain(WORKLOADS.iter().map(|w| w.0))
        .collect();
    for name in &names {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(name.len() <= 64 && name.chars().all(ok), "{name}");
        assert!(name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric()));
    }
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "a name is used twice");
    for metric in END_TO_END.iter().chain(&PER_LAYER) {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        assert!(
            metric.unit.len() <= 16 && metric.unit.chars().all(ok),
            "{}",
            metric.unit
        );
    }
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
}

#[test]
fn release_profile_blocks_are_compared_by_content() {
    let root = "[package]\nname = \"x\"\n\n# why\n[profile.release]\ndebug = true\nlto = \"thin\"  # inline across crates\ncodegen-units = 1\n\n[profile.bench]\ndebug = false\n";
    let own = "[profile.release]\ncodegen-units=1\nlto = \"thin\"\ndebug = true\n";
    assert_eq!(host::release_profile(root), host::release_profile(own));
    assert_eq!(host::release_profile(root).len(), 3);
    let drifted = own.replace("thin", "fat");
    assert_ne!(host::release_profile(root), host::release_profile(&drifted));
    assert!(host::release_profile("[package]\nname = \"x\"\n").is_empty());
    // The guard also refuses debug builds; the manifests are only worth
    // checking where it can pass.
    if !cfg!(debug_assertions) {
        host::check_build_parity().expect("benchmark/Cargo.toml copies the root profile");
    }
}
