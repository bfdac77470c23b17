//! The committed artefacts the regression gates compare against.
//!
//! `check-cycles`, `check-cluster`, `check-serve`, `check-cascade` and
//! `check-tuning` read theirs from the working directory (the repository
//! root) with [`Baseline::load`] or [`Baseline::load_with`]; the `paper`
//! collectors write the same paths with [`Baseline::write`]. A missing or
//! unparseable artefact fails the gate with a message naming the file and
//! the command that regenerates it. Every bound is [`within`] a [`rel_delta`].

use std::fmt::Display;

/// A committed artefact: its path relative to the repository root and the
/// `paper` command that writes it there.
pub(crate) struct Baseline<'a> {
    pub(crate) path: &'a str,
    pub(crate) regenerate: &'a str,
}

/// Device cycles per image and the cluster scaling rows.
pub(crate) const ENGINE: Baseline<'static> = Baseline {
    path: "BENCH_engine.json",
    regenerate: "paper bench-engine",
};

/// The serving gate sub-load.
pub(crate) const SERVE: Baseline<'static> = Baseline {
    path: "BENCH_serve.json",
    regenerate: "paper bench-serve",
};

/// The cascade gate block.
pub(crate) const CASCADE: Baseline<'static> = Baseline {
    path: "BENCH_cascade.json",
    regenerate: "paper bench-cascade",
};

/// The kernel-specialiser factor table.
pub(crate) const TUNED_KERNELS: Baseline<'static> = Baseline {
    path: "results/TUNED_KERNELS.txt",
    regenerate: "paper tune-kernels",
};

/// `BENCH_serve.json` and `BENCH_cascade.json` as their gates read them:
/// only the fixed `gate` block, mirrored by `T`.
#[derive(serde::Deserialize)]
pub(crate) struct GateDoc<T> {
    pub(crate) gate: T,
}

impl Baseline<'_> {
    /// Reads the artefact and parses it with `parse`. An error names the
    /// file, the failure and the command that regenerates the file.
    pub(crate) fn load_with<T, E: Display>(
        &self,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, String> {
        let fail = |what: String| {
            format!(
                "baseline `{}` {what}; run `{}` from the repository root to regenerate it",
                self.path, self.regenerate
            )
        };
        let text = std::fs::read_to_string(self.path)
            .map_err(|e| fail(format!("cannot be read ({e})")))?;
        parse(&text).map_err(|e| fail(format!("does not parse ({e})")))
    }

    /// Writes `text` to the artefact's path: the collector's side of the
    /// file the gate reads.
    ///
    /// # Panics
    ///
    /// When the file cannot be written.
    pub(crate) fn write(&self, text: &str) {
        std::fs::write(self.path, text)
            .unwrap_or_else(|e| panic!("cannot write `{}`: {e}", self.path));
    }

    /// Reads the JSON artefact into the gate's mirror type `T`, skipping
    /// the fields `T` does not name. Errors as [`Self::load_with`].
    pub(crate) fn load<T: serde::Deserialize>(&self) -> Result<T, String> {
        self.load_with(serde_json::from_str::<T>)
    }

    /// The cycle-ceiling check of `check-cycles` and `check-cluster`:
    /// every `(label, committed, current)` row may grow by at most `bound`.
    /// Returns the Markdown rows `label | committed | current | delta` and
    /// the worst `(label, delta)` (the first, on ties).
    ///
    /// # Panics
    ///
    /// When the worst row exceeds `bound`, or when there are no rows.
    pub(crate) fn ceiling(
        &self,
        what: &str,
        bound: f64,
        rows: impl IntoIterator<Item = (String, u64, u64)>,
    ) -> (Vec<Vec<String>>, (String, f64)) {
        let mut table = Vec::new();
        let mut worst: Option<(String, f64)> = None;
        for (label, committed, current) in rows {
            let delta = rel_delta(current as f64, committed as f64);
            table.push(vec![
                label.clone(),
                committed.to_string(),
                current.to_string(),
                format!("{:+.2}%", delta * 100.0),
            ]);
            if worst.as_ref().is_none_or(|(_, w)| delta > *w) {
                worst = Some((label, delta));
            }
        }
        let (label, delta) =
            worst.unwrap_or_else(|| panic!("`{}` holds no {what} rows to compare", self.path));
        assert!(
            within(delta, bound),
            "{what} regression: `{label}` is {:.2}% above the committed `{}` (gate: {:.0}%) — \
             investigate, or re-run `{}` and commit the new file if it is intentional",
            delta * 100.0,
            self.path,
            bound * 100.0,
            self.regenerate
        );
        (table, (label, delta))
    }
}

/// Relative change of `current` against `baseline` (`0.03` = 3 % above),
/// as `(current - baseline) / baseline` so that a change of exactly a
/// bound rounds to that bound.
pub(crate) fn rel_delta(current: f64, baseline: f64) -> f64 {
    (current - baseline) / baseline
}

/// The gates' inclusive bound check.
pub(crate) fn within(delta: f64, bound: f64) -> bool {
    delta <= bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::EngineBaseline;
    use crate::{cascadebench, servebench};
    use proptest::prelude::*;

    type ServeBaseline = GateDoc<servebench::BaselineGate>;
    type CascadeBaseline = GateDoc<cascadebench::BaselineGate>;

    const ENGINE_JSON: &str = include_str!("../../../BENCH_engine.json");
    const SERVE_JSON: &str = include_str!("../../../BENCH_serve.json");
    const CASCADE_JSON: &str = include_str!("../../../BENCH_cascade.json");

    /// Parses `text` into every gate's mirror type; each must return.
    fn parse_all(text: &str) {
        let _ = serde_json::from_str::<EngineBaseline>(text);
        let _ = serde_json::from_str::<ServeBaseline>(text);
        let _ = serde_json::from_str::<CascadeBaseline>(text);
    }

    #[test]
    fn committed_baselines_parse_into_their_mirrors() {
        let engine: EngineBaseline = serde_json::from_str(ENGINE_JSON).expect("engine");
        assert!(!engine.device_cycles.is_empty() && !engine.cluster_scaling.is_empty());
        serde_json::from_str::<ServeBaseline>(SERVE_JSON).expect("serve");
        serde_json::from_str::<CascadeBaseline>(CASCADE_JSON).expect("cascade");
    }

    #[test]
    fn missing_file_is_an_error_naming_it_and_its_command() {
        let missing = Baseline {
            path: "no/such/BENCH_engine.json",
            ..ENGINE
        };
        let err = missing
            .load::<EngineBaseline>()
            .err()
            .expect("missing file");
        assert!(err.contains("`no/such/BENCH_engine.json`"), "{err}");
        assert!(err.contains("`paper bench-engine`"), "{err}");
    }

    #[test]
    fn engine_baseline_without_cluster_rows_is_an_error_not_a_skip() {
        let file = std::env::temp_dir().join(format!("kwt_baseline_{}.json", std::process::id()));
        let renamed = ENGINE_JSON.replace("\"cluster_scaling\"", "\"renamed\"");
        std::fs::write(&file, renamed).expect("scratch file");
        let path = file.to_str().expect("utf-8 temp path");
        let loaded = Baseline { path, ..ENGINE }.load::<EngineBaseline>();
        std::fs::remove_file(&file).ok();
        let err = loaded.err().expect("no cluster_scaling field");
        assert!(
            err.contains(path) && err.contains("cluster_scaling"),
            "{err}"
        );
    }

    #[test]
    fn delta_check_is_inclusive_at_the_bound() {
        assert!(within(rel_delta(103.0, 100.0), 0.03), "exactly +3.00 %");
        assert!(!within(rel_delta(103.01, 100.0), 0.03), "+3.01 %");
        assert!(within(-rel_delta(95.0, 100.0), 0.05), "exactly -5.00 %");
        assert!(!within(rel_delta(94.99, 100.0).abs(), 0.05), "-5.01 %");
        let rows = |current| [("a".to_string(), 100, 100), ("b".to_string(), 100, current)];
        let (table, (worst, delta)) = ENGINE.ceiling("test", 0.03, rows(103));
        assert_eq!(
            (table[1][3].as_str(), worst.as_str(), delta),
            ("+3.00%", "b", 0.03)
        );
        let over = std::panic::catch_unwind(|| ENGINE.ceiling("test", 0.03, rows(104)));
        assert!(over.is_err(), "+4 % fails the ceiling");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_text_never_panics_a_mirror(bytes in collection::vec(any::<u8>(), 0..256)) {
            parse_all(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn mutated_committed_baselines_never_panic_a_mirror(
            // (position modulo the length, new byte)
            edits in collection::vec((any::<usize>(), any::<u8>()), 1..8),
            cut in any::<usize>(),
        ) {
            for committed in [ENGINE_JSON, SERVE_JSON, CASCADE_JSON] {
                let mut bytes = committed.as_bytes().to_vec();
                let n = bytes.len();
                for &(at, b) in &edits {
                    bytes[at % n] = b;
                }
                parse_all(&String::from_utf8_lossy(&bytes));
                bytes.truncate(cut % (n + 1));
                parse_all(&String::from_utf8_lossy(&bytes));
            }
        }
    }
}
