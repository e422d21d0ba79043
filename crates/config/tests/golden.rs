//! Golden tests for the checked-in `manifests/` directory.
//!
//! Every file under `manifests/` is the single source of truth for its
//! experiment. Each must already be in canonical form (parse → serialize
//! reproduces the file byte for byte), validate, and be compiled into
//! `builtin` under its file stem.

use vmsim_config::{builtin, ExperimentManifest, SupervisorSpec};

/// Every `manifests/*.json` file as `(stem, contents)`, sorted by name.
fn checked_in() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../manifests");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .map(|path| {
            let stem = path.file_stem().expect("file stem").to_string_lossy();
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (stem.into_owned(), text)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn checked_in_manifests_are_canonical_fixpoints() {
    let files = checked_in();
    assert!(!files.is_empty(), "manifests/ holds the experiments");
    for (stem, disk) in files {
        let manifest = ExperimentManifest::from_json(&disk)
            .unwrap_or_else(|e| panic!("{stem}.json must parse: {e}"));
        assert_eq!(manifest.name, stem, "{stem}.json: name is the file stem");
        assert_eq!(
            manifest.to_json(),
            disk,
            "{stem}.json is not in canonical form (parse -> serialize changed it)"
        );
        let reparsed = ExperimentManifest::from_json(&manifest.to_json()).expect("reparse");
        assert_eq!(reparsed, manifest, "{stem}: value round trip");
        manifest
            .validate()
            .unwrap_or_else(|e| panic!("{stem}.json must validate: {e}"));
    }
}

#[test]
fn builtin_table_is_exactly_the_checked_in_directory() {
    let on_disk: Vec<ExperimentManifest> = checked_in()
        .iter()
        .map(|(_, text)| ExperimentManifest::from_json(text).expect("parses"))
        .collect();
    assert_eq!(
        builtin::all(),
        on_disk,
        "every manifests/*.json is compiled into builtin, and nothing else"
    );
}

/// The optional `supervisor` block survives the round trip in both of its
/// shapes: absent (`null`) and fully populated. The pressure manifest ships
/// a non-null spec so at least one checked-in manifest exercises the
/// populated path.
#[test]
fn supervisor_spec_round_trips_in_both_shapes() {
    let pressure = builtin::by_name("pressure").expect("pressure is checked in");
    assert!(
        pressure.supervisor.is_some(),
        "pressure carries a populated supervisor spec"
    );

    let mut maxed = builtin::smoke();
    assert!(
        maxed.supervisor.is_none(),
        "smoke ships without supervision"
    );
    maxed.supervisor = Some(SupervisorSpec {
        retries: 3,
        seed_stride: 0x9e37,
        max_cell_ops: Some(1_000_000),
        soft_wall_ms: Some(45_000),
    });
    for manifest in [pressure, maxed] {
        let reparsed = ExperimentManifest::from_json(&manifest.to_json())
            .unwrap_or_else(|e| panic!("{}: supervisor JSON must parse: {e}", manifest.name));
        assert_eq!(reparsed.supervisor, manifest.supervisor);
        assert_eq!(reparsed.to_json(), manifest.to_json());
    }
}
