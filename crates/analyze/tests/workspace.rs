//! Meta-tests against the live workspace: the tree must be clean (which,
//! because `malformed-allow`/`unused-allow` are findings, also proves every
//! suppression pragma carries a justification and earns its keep), and
//! seeding a known regression into a protocol crate must trip the gate.

use std::path::{Path, PathBuf};

use ratc_analyze::{analyze_files, collect_workspace, Lint, SourceFile};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze sits two levels below the workspace root")
        .to_path_buf()
}

fn live_files() -> Vec<SourceFile> {
    let files = collect_workspace(&workspace_root()).expect("readable workspace");
    assert!(
        files.len() > 50,
        "workspace walk looks broken: only {} files found",
        files.len()
    );
    assert!(
        files
            .iter()
            .any(|f| f.path == "crates/types/src/certify.rs"),
        "certify.rs must be in scope"
    );
    assert!(
        !files.iter().any(|f| f.path.starts_with("crates/vendor/")),
        "vendor stubs must be excluded"
    );
    files
}

/// The gate the CI step enforces: zero findings on the live tree. Running
/// under `cargo test` means tier-1 itself fails if hygiene regresses.
#[test]
fn live_workspace_is_clean() {
    let files = live_files();
    let findings = analyze_files(&files);
    assert!(
        findings.is_empty(),
        "live workspace has findings:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Acceptance pin: a wildcard arm seeded into a stack's message dispatch is
/// caught. The mutation adds a new core file dispatching `Msg` with `_ =>`.
#[test]
fn seeded_wildcard_dispatch_trips_the_gate() {
    let mut files = live_files();
    files.push(SourceFile {
        path: "crates/core/src/seeded_mutation.rs".to_owned(),
        text: r#"
            use crate::messages::Msg;
            fn sloppy_dispatch(m: Msg) {
                match m {
                    Msg::Certify { .. } => {}
                    _ => {}
                }
            }
        "#
        .to_owned(),
    });
    let findings = analyze_files(&files);
    assert!(
        findings
            .iter()
            .any(|f| f.lint == Lint::WildcardDispatch
                && f.file == "crates/core/src/seeded_mutation.rs"),
        "seeded wildcard must be flagged, got:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Acceptance pin: unsorted `HashMap` iteration seeded into `certify.rs`
/// is caught at the seeded line.
#[test]
fn seeded_hash_iteration_in_certify_trips_the_gate() {
    let mut files = live_files();
    let certify = files
        .iter_mut()
        .find(|f| f.path == "crates/types/src/certify.rs")
        .expect("certify.rs present");
    certify.text.push_str(
        r#"
impl CommittedWriterIndex {
    fn seeded_mutation(&self) -> Vec<Key> {
        let mut out = Vec::new();
        for key in self.newest_writer.keys() {
            out.push(key.clone());
        }
        out
    }
}
"#,
    );
    let findings = analyze_files(&files);
    assert!(
        findings
            .iter()
            .any(|f| f.lint == Lint::HashIter && f.file == "crates/types/src/certify.rs"),
        "seeded hash iteration must be flagged, got:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Seeding wall-clock into a protocol crate is caught (the same class of
/// regression the TCP-transport tentpole could introduce).
#[test]
fn seeded_wall_clock_in_protocol_crate_trips_the_gate() {
    let mut files = live_files();
    files.push(SourceFile {
        path: "crates/rdma/src/seeded_mutation.rs".to_owned(),
        text: "fn t() -> std::time::Instant { std::time::Instant::now() }".to_owned(),
    });
    let findings = analyze_files(&files);
    assert!(findings
        .iter()
        .any(|f| f.lint == Lint::WallClock && f.file == "crates/rdma/src/seeded_mutation.rs"));
}

/// An allow pragma without a justification is itself a finding, so the
/// "zero unjustified allows" guarantee is enforced by `analyze` directly.
#[test]
fn seeded_unjustified_allow_trips_the_gate() {
    let mut files = live_files();
    files.push(SourceFile {
        path: "crates/core/src/seeded_mutation.rs".to_owned(),
        text: "// analyze:allow(hash-iter):\nfn f() {}".to_owned(),
    });
    let findings = analyze_files(&files);
    assert!(findings
        .iter()
        .any(|f| f.lint == Lint::MalformedAllow && f.file == "crates/core/src/seeded_mutation.rs"));
}

/// Acceptance pin: `Submitted` is stamped in one place for every stack —
/// the cluster shell's `submit_via`. Deleting that stamp must leave the
/// milestone unstamped on all three stacks and trip `milestone-parity`.
#[test]
fn seeded_removal_of_the_shell_submitted_stamp_trips_milestone_parity() {
    let mut files = live_files();
    let shell = files
        .iter_mut()
        .find(|f| f.path == "crates/harness/src/cluster.rs")
        .expect("cluster shell present");
    let stamp = "self.world.obs_milestone(tx, TxMilestone::Submitted, client);";
    assert!(shell.text.contains(stamp), "the shell stamps `Submitted`");
    shell.text = shell.text.replace(stamp, "");
    let findings = analyze_files(&files);
    assert!(
        findings.iter().any(|f| f.lint == Lint::MilestoneParity
            && f.message.contains("TxMilestone::Submitted")
            && f.message.contains("core, rdma, baseline")),
        "deleting the shell's stamp must be flagged, got:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
