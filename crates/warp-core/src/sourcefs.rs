//! Versioned storage for application source files.
//!
//! Retroactive patching (paper §3) needs two things from the "filesystem"
//! holding application code: the content that was in effect at any past
//! time, and the ability to splice a patch into the past so re-executed
//! application runs load the fixed code.
//!
//! **The compile-once rule.** Beside its text every version keeps the
//! program that text parses to (or the error it fails with), built when the
//! version is created. Normal execution, repair re-execution and the shard
//! router all run and walk that one artifact, so no request parses a script.
//! The compiled form is *derived*: it is never logged, checkpointed, shipped
//! or compared — [`SourceStore::export_versions`] and equality see text only,
//! and [`SourceStore::import_versions`] rebuilds it. There is nothing to
//! invalidate or evict: a changed file is a new version with its own
//! program. A file that does not parse installs and patches without error;
//! the error surfaces when a request loads it.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use warp_script::{Program, ScriptResult};

/// A security patch: a full replacement for one source file.
///
/// The paper applies unified diffs to PHP files; in this reproduction a
/// patch carries the complete patched source, which keeps the mechanism
/// identical (the file's content changes as of a past time) without needing
/// a diff engine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Patch {
    /// The file being patched.
    pub filename: String,
    /// The fixed source code.
    pub patched_source: String,
    /// A short human-readable description (e.g. the CVE identifier).
    pub description: String,
}

impl Patch {
    /// Creates a patch.
    pub fn new(
        filename: impl Into<String>,
        patched_source: impl Into<String>,
        description: impl Into<String>,
    ) -> Self {
        Patch {
            filename: filename.into(),
            patched_source: patched_source.into(),
            description: description.into(),
        }
    }
}

/// One version of one source file.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SourceVersion {
    /// Time from which this version is effective.
    from_time: i64,
    /// The file content.
    content: Arc<str>,
    /// True if this version was installed by a retroactive patch (it then
    /// also applies to re-execution of actions *after* `from_time`).
    retroactive: bool,
    /// What `content` parses to. Derived from it, so equality ignores it.
    compiled: ScriptResult<Arc<Program>>,
}

impl SourceVersion {
    fn new(from_time: i64, content: impl Into<Arc<str>>, retroactive: bool) -> Self {
        let content = content.into();
        let compiled = warp_script::parse_program(&content).map(Arc::new);
        SourceVersion {
            from_time,
            content,
            retroactive,
            compiled,
        }
    }
}

impl PartialEq for SourceVersion {
    fn eq(&self, other: &Self) -> bool {
        (self.from_time, &self.content, self.retroactive)
            == (other.from_time, &other.content, other.retroactive)
    }
}

impl Eq for SourceVersion {}

/// The versioned application source tree.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceStore {
    files: BTreeMap<String, Vec<SourceVersion>>,
}

impl SourceStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        SourceStore::default()
    }

    /// Installs (or replaces) a source file as of time 0 — the application's
    /// initial deployment.
    pub fn install(&mut self, filename: impl Into<String>, content: impl Into<String>) {
        self.files.insert(
            filename.into(),
            vec![SourceVersion::new(0, content.into(), false)],
        );
    }

    /// Records an ordinary (non-retroactive) code change at `time`, e.g. an
    /// administrator deploying a new application version during normal
    /// operation.
    pub fn update(&mut self, filename: &str, content: impl Into<String>, time: i64) {
        self.files
            .entry(filename.to_string())
            .or_default()
            .push(SourceVersion::new(time, content.into(), false));
    }

    /// Applies a retroactive patch effective from `time` (paper §3.2): during
    /// repair, any application run at or after `time` that loads this file
    /// sees the patched content.
    pub fn apply_retroactive_patch(&mut self, patch: &Patch, time: i64) {
        self.files
            .entry(patch.filename.clone())
            .or_default()
            .push(SourceVersion::new(
                time,
                patch.patched_source.as_str(),
                true,
            ));
    }

    /// True if the store contains the file.
    pub fn contains(&self, filename: &str) -> bool {
        self.files.contains_key(filename)
    }

    /// Names of all files.
    pub fn filenames(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }

    /// The content an execution at `time` sees — normal execution and
    /// re-execution during repair alike: the latest version with
    /// `from_time <= time`, a retroactive patch winning over an ordinary
    /// version of the same time. (A normal execution runs at the current
    /// time, after every patch point, so a patch applied by a finished
    /// repair is simply the current code going forward.)
    pub fn content_at(&self, filename: &str, time: i64) -> Option<&str> {
        self.version_at(filename, time, true).map(|v| &*v.content)
    }

    /// The compiled form of [`SourceStore::content_at`]: the program that
    /// version parses to, or the error it fails with. `None` when the file
    /// does not exist at `time`.
    pub fn program_at(&self, filename: &str, time: i64) -> Option<&ScriptResult<Arc<Program>>> {
        self.version_at(filename, time, true).map(|v| &v.compiled)
    }

    /// The content that was actually in effect at `time` during the original
    /// execution (ignores retroactive patches); useful for forensics.
    pub fn original_content_at(&self, filename: &str, time: i64) -> Option<&str> {
        self.version_at(filename, time, false).map(|v| &*v.content)
    }

    fn version_at(
        &self,
        filename: &str,
        time: i64,
        include_retroactive: bool,
    ) -> Option<&SourceVersion> {
        self.files
            .get(filename)?
            .iter()
            .filter(|v| v.from_time <= time && (include_retroactive || !v.retroactive))
            .max_by_key(|v| (v.from_time, v.retroactive))
    }

    /// Exports every stored version as `(filename, from_time, content,
    /// retroactive)`, in deterministic order — what a checkpoint stores.
    pub fn export_versions(&self) -> Vec<(String, i64, String, bool)> {
        let mut out = Vec::new();
        for (name, versions) in &self.files {
            for v in versions {
                out.push((
                    name.clone(),
                    v.from_time,
                    v.content.to_string(),
                    v.retroactive,
                ));
            }
        }
        out
    }

    /// Rebuilds a store from exported versions (the inverse of
    /// [`SourceStore::export_versions`]; version order within a file is
    /// preserved), compiling each version again.
    pub fn import_versions(
        versions: impl IntoIterator<Item = (String, i64, String, bool)>,
    ) -> Self {
        let mut store = SourceStore::new();
        for (filename, from_time, content, retroactive) in versions {
            store
                .files
                .entry(filename)
                .or_default()
                .push(SourceVersion::new(from_time, content, retroactive));
        }
        store
    }

    /// Total bytes of source stored (all versions), for storage accounting.
    pub fn approximate_bytes(&self) -> usize {
        self.files
            .values()
            .flat_map(|vs| vs.iter())
            .map(|v| v.content.len() + 16)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_and_read_back() {
        let mut s = SourceStore::new();
        s.install("edit.wasl", "v1");
        assert!(s.contains("edit.wasl"));
        assert_eq!(s.content_at("edit.wasl", 100), Some("v1"));
        assert_eq!(s.content_at("missing.wasl", 100), None);
    }

    #[test]
    fn ordinary_updates_take_effect_at_their_time() {
        let mut s = SourceStore::new();
        s.install("a.wasl", "v1");
        s.update("a.wasl", "v2", 50);
        assert_eq!(s.content_at("a.wasl", 10), Some("v1"));
        assert_eq!(s.content_at("a.wasl", 50), Some("v2"));
        assert_eq!(s.content_at("a.wasl", 99), Some("v2"));
    }

    #[test]
    fn retroactive_patch_changes_the_past_but_not_the_forensic_view() {
        let mut s = SourceStore::new();
        s.install("edit.wasl", "vulnerable");
        let patch = Patch::new("edit.wasl", "fixed", "CVE-2009-4589");
        s.apply_retroactive_patch(&patch, 10);
        // An execution at a time after the patch point sees the fix.
        assert_eq!(s.content_at("edit.wasl", 20), Some("fixed"));
        // Before the patch point, the old code.
        assert_eq!(s.content_at("edit.wasl", 5), Some("vulnerable"));
        // The forensic view of what originally ran is unchanged.
        assert_eq!(s.original_content_at("edit.wasl", 20), Some("vulnerable"));
    }

    #[test]
    fn retroactive_patch_wins_over_same_time_original() {
        let mut s = SourceStore::new();
        s.install("a.wasl", "v1");
        s.update("a.wasl", "v2", 30);
        s.apply_retroactive_patch(&Patch::new("a.wasl", "v2-fixed", "fix"), 30);
        assert_eq!(s.content_at("a.wasl", 30), Some("v2-fixed"));
    }

    #[test]
    fn byte_accounting_counts_all_versions() {
        let mut s = SourceStore::new();
        s.install("a.wasl", "aaaa");
        s.update("a.wasl", "bbbbbb", 10);
        assert!(s.approximate_bytes() >= 10);
    }

    #[test]
    fn a_version_is_compiled_once_and_a_new_version_is_a_new_program() {
        let mut s = SourceStore::new();
        s.install("a.wasl", "echo(1);");
        let program = |s: &SourceStore, time| {
            Arc::clone(s.program_at("a.wasl", time).unwrap().as_ref().unwrap())
        };
        let v1 = program(&s, 5);
        // Every lookup of the version, at any time it covers, is that program.
        assert!(Arc::ptr_eq(&v1, &program(&s, 5)));
        assert!(Arc::ptr_eq(&v1, &program(&s, 500)));
        s.update("a.wasl", "echo(2);", 50);
        let v2 = program(&s, 50);
        assert!(!Arc::ptr_eq(&v1, &v2));
        s.apply_retroactive_patch(&Patch::new("a.wasl", "echo(3);", "fix"), 80);
        let v3 = program(&s, 80);
        assert!(!Arc::ptr_eq(&v2, &v3));
        // Earlier times still see the programs of the earlier versions.
        assert!(Arc::ptr_eq(&v1, &program(&s, 49)));
        assert!(Arc::ptr_eq(&v2, &program(&s, 79)));
        assert!(Arc::ptr_eq(&v3, &program(&s, 81)));
        assert!(s.program_at("missing.wasl", 5).is_none());
    }

    #[test]
    fn a_file_that_does_not_parse_is_stored_with_its_error() {
        let mut s = SourceStore::new();
        s.install("a.wasl", "let = ;");
        s.update("a.wasl", "let x = 1;", 10);
        let expected = warp_script::parse_program("let = ;").unwrap_err();
        assert_eq!(s.program_at("a.wasl", 5), Some(&Err(expected)));
        assert_eq!(s.content_at("a.wasl", 5), Some("let = ;"));
        assert!(s.program_at("a.wasl", 10).unwrap().is_ok());
    }

    #[test]
    fn equality_clone_and_export_are_over_text() {
        let mut s = SourceStore::new();
        s.install("a.wasl", "echo(1);");
        s.apply_retroactive_patch(&Patch::new("a.wasl", "echo(2);", "fix"), 7);
        let imported = SourceStore::import_versions(s.export_versions());
        assert_eq!(imported, s);
        assert_eq!(
            imported.program_at("a.wasl", 7),
            s.program_at("a.wasl", 7),
            "recompiled from the text"
        );
        // A clone shares text and programs with the store it came from.
        let copy = s.clone();
        assert!(Arc::ptr_eq(
            copy.program_at("a.wasl", 0).unwrap().as_ref().unwrap(),
            s.program_at("a.wasl", 0).unwrap().as_ref().unwrap()
        ));
        let mut other = s.clone();
        other.update("a.wasl", "echo(3);", 9);
        assert_ne!(other, s);
    }
}
