//! The checked-in manifests, compiled in.
//!
//! `manifests/*.json` is the single source of truth for every experiment of
//! the paper's evaluation: this module embeds those files verbatim and
//! parses them on demand, so `vmsim run table4` and `vmsim run
//! manifests/table4.json` execute the same bytes. Tests that need a
//! variant load a manifest by name and set `seeds` / `measure_ops` on it.

use crate::manifest::ExperimentManifest;

/// Every checked-in manifest as `(name, canonical JSON)`, in `manifests/`
/// directory order. The name is the file stem and the manifest's `name`.
const SOURCES: [(&str, &str); 20] = [
    (
        "ablate_besteffort",
        include_str!("../../../manifests/ablate_besteffort.json"),
    ),
    (
        "ablate_granularity",
        include_str!("../../../manifests/ablate_granularity.json"),
    ),
    (
        "breakdown",
        include_str!("../../../manifests/breakdown.json"),
    ),
    (
        "colocation",
        include_str!("../../../manifests/colocation.json"),
    ),
    ("csv", include_str!("../../../manifests/csv.json")),
    ("fig5", include_str!("../../../manifests/fig5.json")),
    ("fig6", include_str!("../../../manifests/fig6.json")),
    ("fig7", include_str!("../../../manifests/fig7.json")),
    ("hw", include_str!("../../../manifests/hw.json")),
    ("llc", include_str!("../../../manifests/llc.json")),
    ("pressure", include_str!("../../../manifests/pressure.json")),
    ("sec62", include_str!("../../../manifests/sec62.json")),
    ("sec64", include_str!("../../../manifests/sec64.json")),
    ("smoke", include_str!("../../../manifests/smoke.json")),
    ("specint", include_str!("../../../manifests/specint.json")),
    ("table1", include_str!("../../../manifests/table1.json")),
    ("table4", include_str!("../../../manifests/table4.json")),
    ("thp", include_str!("../../../manifests/thp.json")),
    ("threads", include_str!("../../../manifests/threads.json")),
    ("variance", include_str!("../../../manifests/variance.json")),
];

fn parse(name: &str, json: &str) -> ExperimentManifest {
    ExperimentManifest::from_json(json)
        .unwrap_or_else(|e| panic!("checked-in manifest {name} does not parse: {e}"))
}

/// Every checked-in manifest, parsed, in `manifests/` directory order.
///
/// # Panics
///
/// Panics if a checked-in file does not parse (a build defect the tests of
/// this module catch).
pub fn all() -> Vec<ExperimentManifest> {
    SOURCES
        .iter()
        .map(|(name, json)| parse(name, json))
        .collect()
}

/// Looks up a checked-in manifest by name.
///
/// # Panics
///
/// Panics if the named file does not parse (see [`all`]).
pub fn by_name(name: &str) -> Option<ExperimentManifest> {
    SOURCES
        .iter()
        .find(|(stem, _)| *stem == name)
        .map(|(stem, json)| parse(stem, json))
}

/// The tiny observability-enabled CI manifest (`manifests/smoke.json`):
/// solo gcc on a small machine, both headline policies, tracing and epoch
/// sampling on.
pub fn smoke() -> ExperimentManifest {
    by_name("smoke").expect("smoke.json is checked in")
}

#[cfg(test)]
mod tests {
    use super::*;

    // `tests/golden.rs` pins that the table matches `manifests/` and that
    // every file parses canonically and validates.
    #[test]
    fn names_are_sorted_unique_and_resolvable() {
        let names: Vec<&str> = SOURCES.iter().map(|(name, _)| *name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted, "directory order, no duplicates");
        for (name, m) in names.iter().zip(all()) {
            assert_eq!(&m.name, name, "file stem is the manifest name");
            assert_eq!(by_name(name), Some(m));
        }
        assert!(by_name("no-such-manifest").is_none());
    }
}
