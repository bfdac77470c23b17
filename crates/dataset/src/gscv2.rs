//! Google Speech Commands v2 directory loader with an offline subset path.
//!
//! The on-disk layout is the real dataset's:
//!
//! ```text
//! <root>/
//!   <keyword>/<speaker>_nohash_<n>.wav     # 16 kHz mono PCM16, ≤ 1 s
//!   _background_noise_/*.wav               # noise beds for augmentation
//!   MANIFEST.tsv                           # optional integrity manifest
//! ```
//!
//! Splits follow the dataset's **official** algorithm (Warden 2018, §7):
//! the file name up to `_nohash_` — the speaker id — is SHA-1 hashed and
//! the low 27 bits select train/validation/test, so every clip from one
//! speaker lands in one split and re-downloads never reshuffle. This
//! module implements that hash bit-for-bit (see [`which_set`]), which is
//! what makes the committed subset interchangeable with the full set: the
//! loader code path is identical, only `<root>` differs.
//!
//! CI never downloads anything. The repo commits a small subset in this
//! layout (`data/gsc_v2_subset`, generated by [`generate_subset`] from
//! held-out synthetic voices — real GSC audio is not redistributable
//! here) plus a `MANIFEST.tsv` of FNV-1a-64 checksums;
//! [`GscV2::open_checked`] refuses to load a tree that drifted from its
//! manifest. Fetching the real dataset is documented in the README; point
//! [`GscV2::open`] at the extracted archive and everything downstream —
//! augmentation, A8 calibration, the cascade bench — runs unchanged.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::augment::Augmenter;
use crate::gsc::{MfccDataset, Split, Task};
use crate::synth::{KeywordVoice, SynthParams};
use crate::vocab::{keyword_index, GSC_KEYWORDS};
use crate::wav::{self, WavError};
use kwt_audio::MfccExtractor;

/// Canonical clip length: one second at 16 kHz. Shorter real-GSC clips
/// are zero-padded at the end; longer ones are truncated.
pub const CLIP_SAMPLES: usize = 16_000;

/// Name of the background-noise directory in the GSC layout.
pub const NOISE_DIR: &str = "_background_noise_";

/// Name of the integrity manifest file.
pub const MANIFEST_NAME: &str = "MANIFEST.tsv";

/// Errors from loading or validating a GSC v2 tree.
#[derive(Debug)]
pub enum GscV2Error {
    /// Filesystem error while scanning or reading.
    Io(PathBuf, std::io::Error),
    /// A clip failed WAV decoding.
    Wav(PathBuf, WavError),
    /// The root exists but holds no keyword directories.
    NoKeywords(PathBuf),
    /// `MANIFEST.tsv` was required but absent.
    ManifestMissing(PathBuf),
    /// A manifest line could not be parsed.
    ManifestSyntax {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// The tree disagrees with its manifest.
    ManifestMismatch {
        /// Relative path of the clip.
        path: String,
        /// What disagreed (missing file, checksum, extra file…).
        reason: String,
    },
    /// The binary task's target keyword has no clips in this tree.
    MissingTarget(&'static str),
}

impl fmt::Display for GscV2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GscV2Error::Io(p, e) => write!(f, "i/o error at {}: {e}", p.display()),
            GscV2Error::Wav(p, e) => write!(f, "bad wav {}: {e}", p.display()),
            GscV2Error::NoKeywords(p) => {
                write!(f, "{} holds no GSC keyword directories", p.display())
            }
            GscV2Error::ManifestMissing(p) => {
                write!(f, "no {MANIFEST_NAME} under {}", p.display())
            }
            GscV2Error::ManifestSyntax { line, content } => {
                write!(f, "manifest line {line} unparseable: {content:?}")
            }
            GscV2Error::ManifestMismatch { path, reason } => {
                write!(f, "manifest mismatch at {path}: {reason}")
            }
            GscV2Error::MissingTarget(t) => {
                write!(f, "target keyword `{t}` has no clips in this tree")
            }
        }
    }
}

impl std::error::Error for GscV2Error {}

// ---------------------------------------------------------------------------
// Hashing primitives: SHA-1 for the official split, FNV-1a-64 for manifests.
// ---------------------------------------------------------------------------

/// SHA-1 of `data`. Used only for the official split assignment — GSC's
/// `which_set` hashes speaker ids with SHA-1 — so collision resistance is
/// irrelevant; fidelity to the published algorithm is the point.
fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h: [u32; 5] = [
        0x6745_2301,
        0xEFCD_AB89,
        0x98BA_DCFE,
        0x1032_5476,
        0xC3D2_E1F0,
    ];
    let ml = (data.len() as u64).wrapping_mul(8);
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&ml.to_be_bytes());
    let mut w = [0u32; 80];
    for chunk in msg.chunks_exact(64) {
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes([
                chunk[4 * i],
                chunk[4 * i + 1],
                chunk[4 * i + 2],
                chunk[4 * i + 3],
            ]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999u32),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
    }
    let mut out = [0u8; 20];
    for (i, word) in h.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// FNV-1a-64 over raw bytes — the manifest checksum. Chosen because it is
/// dependency-free, byte-order-free, and fast enough to hash the whole
/// subset on every CI run.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// GSC's official split assignment (Warden 2018; `which_set` in the
/// TensorFlow reference code): strip `_nohash_…` from the base file name,
/// SHA-1 the remainder (the speaker id), and map the low 27 bits of the
/// digest to a percentage. Same speaker ⇒ same split, forever.
pub fn which_set(file_base: &str, validation_pct: f64, testing_pct: f64) -> Split {
    let hash_name = match file_base.find("_nohash_") {
        Some(i) => &file_base[..i],
        None => file_base,
    };
    let digest = sha1(hash_name.as_bytes());
    const MAX_NUM_WAVS: u64 = (1 << 27) - 1;
    let low27 = (u32::from_be_bytes([digest[16], digest[17], digest[18], digest[19]]) as u64)
        & MAX_NUM_WAVS;
    let pct = low27 as f64 * (100.0 / MAX_NUM_WAVS as f64);
    if pct < validation_pct {
        Split::Val
    } else if pct < validation_pct + testing_pct {
        Split::Test
    } else {
        Split::Train
    }
}

// ---------------------------------------------------------------------------
// The loader.
// ---------------------------------------------------------------------------

/// One clip discovered in the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ClipEntry {
    /// Path relative to the root, always with `/` separators.
    rel: String,
    /// Keyword directory name.
    keyword: &'static str,
    /// Split assigned by [`which_set`].
    split: Split,
}

/// A Google Speech Commands v2 tree, scanned and split.
///
/// Works identically on the committed subset and a full-dataset download;
/// see the module docs for the layout contract.
#[derive(Debug, Clone)]
pub struct GscV2 {
    root: PathBuf,
    task: Task,
    entries: Vec<ClipEntry>,
    per_split: [Vec<usize>; 3],
    noise_files: Vec<String>,
}

impl GscV2 {
    /// Scans `root` and assigns splits with the official 10 %/10 %
    /// validation/testing fractions.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors, an empty tree, or (for
    /// [`Task::Binary`]) a target keyword with no clips.
    pub fn open(root: impl Into<PathBuf>, task: Task) -> Result<Self, GscV2Error> {
        Self::open_with_split(root, task, 10.0, 10.0)
    }

    /// [`GscV2::open`] with explicit validation/testing percentages.
    ///
    /// # Errors
    ///
    /// As [`GscV2::open`].
    pub fn open_with_split(
        root: impl Into<PathBuf>,
        task: Task,
        validation_pct: f64,
        testing_pct: f64,
    ) -> Result<Self, GscV2Error> {
        let root = root.into();
        let mut entries = Vec::new();
        let mut noise_files = Vec::new();
        let mut dirs: Vec<PathBuf> = Vec::new();
        let rd = std::fs::read_dir(&root).map_err(|e| GscV2Error::Io(root.clone(), e))?;
        for item in rd {
            let item = item.map_err(|e| GscV2Error::Io(root.clone(), e))?;
            let p = item.path();
            if p.is_dir() {
                dirs.push(p);
            }
        }
        dirs.sort();
        for dir in dirs {
            let name = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            let wavs = list_wavs(&dir)?;
            if name == NOISE_DIR {
                for w in wavs {
                    noise_files.push(format!("{NOISE_DIR}/{w}"));
                }
                continue;
            }
            // Directories outside the 35-word vocabulary (e.g. LICENSE
            // scratch dirs) are ignored, as the reference loader does.
            let Some(kw) = GSC_KEYWORDS.iter().find(|k| **k == name) else {
                continue;
            };
            for w in wavs {
                let split = which_set(&w, validation_pct, testing_pct);
                entries.push(ClipEntry {
                    rel: format!("{name}/{w}"),
                    keyword: kw,
                    split,
                });
            }
        }
        if entries.is_empty() {
            return Err(GscV2Error::NoKeywords(root));
        }
        if let Task::Binary { target } = task {
            if !entries.iter().any(|e| e.keyword == target) {
                return Err(GscV2Error::MissingTarget(target));
            }
        }
        entries.sort_by(|a, b| a.rel.cmp(&b.rel));
        let mut per_split: [Vec<usize>; 3] = Default::default();
        for (i, e) in entries.iter().enumerate() {
            per_split[split_index(e.split)].push(i);
        }
        Ok(GscV2 {
            root,
            task,
            entries,
            per_split,
            noise_files,
        })
    }

    /// [`GscV2::open`] plus manifest validation: every clip in
    /// `MANIFEST.tsv` must exist with a matching FNV-1a-64 checksum, and
    /// the tree must contain no unlisted clips. This is the CI entry
    /// point for the committed subset.
    ///
    /// # Errors
    ///
    /// As [`GscV2::open`], plus [`GscV2Error::ManifestMissing`] /
    /// [`GscV2Error::ManifestMismatch`] on drift.
    pub fn open_checked(root: impl Into<PathBuf>, task: Task) -> Result<Self, GscV2Error> {
        let ds = Self::open(root, task)?;
        ds.verify_manifest()?;
        Ok(ds)
    }

    /// Validates the tree against its `MANIFEST.tsv` (both directions:
    /// listed-but-missing/corrupt and present-but-unlisted are errors).
    ///
    /// # Errors
    ///
    /// [`GscV2Error::ManifestMissing`] or [`GscV2Error::ManifestMismatch`].
    pub fn verify_manifest(&self) -> Result<(), GscV2Error> {
        let mpath = self.root.join(MANIFEST_NAME);
        let text = std::fs::read_to_string(&mpath)
            .map_err(|_| GscV2Error::ManifestMissing(self.root.clone()))?;
        let manifest = parse_manifest(&text)?;
        let mut on_disk: BTreeMap<&str, ()> = BTreeMap::new();
        for e in &self.entries {
            on_disk.insert(&e.rel, ());
        }
        for n in &self.noise_files {
            on_disk.insert(n, ());
        }
        for (rel, want) in &manifest {
            if !on_disk.contains_key(rel.as_str()) {
                return Err(GscV2Error::ManifestMismatch {
                    path: rel.clone(),
                    reason: "listed in manifest but absent from tree".into(),
                });
            }
            let p = self.root.join(rel);
            let bytes = std::fs::read(&p).map_err(|e| GscV2Error::Io(p.clone(), e))?;
            let got = fnv1a64(&bytes);
            if got != *want {
                return Err(GscV2Error::ManifestMismatch {
                    path: rel.clone(),
                    reason: format!("checksum {got:016x} != manifest {want:016x}"),
                });
            }
        }
        for rel in on_disk.keys() {
            if !manifest.contains_key(*rel) {
                return Err(GscV2Error::ManifestMismatch {
                    path: (*rel).to_string(),
                    reason: "present in tree but not in manifest".into(),
                });
            }
        }
        Ok(())
    }

    /// The tree root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The task this loader labels for.
    pub fn task(&self) -> Task {
        self.task
    }

    /// Number of output classes (35 or 2).
    pub fn num_classes(&self) -> usize {
        match self.task {
            Task::AllKeywords => GSC_KEYWORDS.len(),
            Task::Binary { .. } => 2,
        }
    }

    /// Number of clips in a split.
    pub fn len(&self, split: Split) -> usize {
        self.per_split[split_index(split)].len()
    }

    /// `true` when a split holds no clips.
    pub fn is_empty(&self, split: Split) -> bool {
        self.len(split) == 0
    }

    /// Keywords that actually have clips in the tree, sorted.
    pub fn present_keywords(&self) -> Vec<&'static str> {
        let mut kws: Vec<&'static str> = Vec::new();
        for e in &self.entries {
            if kws.last() != Some(&e.keyword) {
                kws.push(e.keyword);
            }
        }
        kws.dedup();
        kws
    }

    /// Relative path of clip `idx` of `split`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len(split)`.
    pub fn clip_path(&self, split: Split, idx: usize) -> &str {
        &self.entries[self.per_split[split_index(split)][idx]].rel
    }

    /// Label of clip `idx` of `split` under the active task.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len(split)`.
    pub fn label(&self, split: Split, idx: usize) -> usize {
        let e = &self.entries[self.per_split[split_index(split)][idx]];
        match self.task {
            Task::AllKeywords => keyword_index(e.keyword).expect("scanned from vocabulary"),
            Task::Binary { target } => usize::from(e.keyword == target),
        }
    }

    /// Reads clip `idx` of `split`, padded/truncated to exactly
    /// [`CLIP_SAMPLES`]: `(waveform, label)`.
    ///
    /// # Errors
    ///
    /// I/O or WAV-format failures.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len(split)`.
    pub fn clip(&self, split: Split, idx: usize) -> Result<(Vec<f32>, usize), GscV2Error> {
        let e = &self.entries[self.per_split[split_index(split)][idx]];
        let p = self.root.join(&e.rel);
        let mut wave = wav::read_wav_16k_mono(&p).map_err(|err| GscV2Error::Wav(p.clone(), err))?;
        wave.resize(CLIP_SAMPLES, 0.0);
        Ok((wave, self.label(split, idx)))
    }

    /// Loads every `_background_noise_` clip — the augmentation noise
    /// bank. Noise beds keep their native length (real GSC noise files
    /// are about a minute long).
    ///
    /// # Errors
    ///
    /// I/O or WAV-format failures.
    pub fn noise_bank(&self) -> Result<Vec<Vec<f32>>, GscV2Error> {
        let mut bank = Vec::with_capacity(self.noise_files.len());
        for rel in &self.noise_files {
            let p = self.root.join(rel);
            let wave = wav::read_wav_16k_mono(&p).map_err(|err| GscV2Error::Wav(p.clone(), err))?;
            bank.push(wave);
        }
        Ok(bank)
    }

    /// Materialises a split through an MFCC front end, optionally
    /// augmenting each clip first (keyed by its index within the split,
    /// so results are bit-reproducible and order-independent).
    ///
    /// # Errors
    ///
    /// Clip-loading or MFCC-extraction failures.
    pub fn materialize(
        &self,
        split: Split,
        frontend: &MfccExtractor,
        augment: Option<&Augmenter>,
    ) -> Result<MfccDataset, GscV2Error> {
        let noise_bank = if augment.is_some() {
            self.noise_bank()?
        } else {
            Vec::new()
        };
        let n = self.len(split);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        let mut scratch = kwt_audio::MfccScratch::new();
        let mut augmented = Vec::new();
        for i in 0..n {
            let (wave, label) = self.clip(split, i)?;
            let wave = match augment {
                Some(aug) => {
                    aug.augment_into(&wave, i as u64, &noise_bank, &mut augmented);
                    &augmented
                }
                None => &wave,
            };
            let mut mfcc = kwt_tensor::Mat::default();
            frontend
                .extract_padded_into(wave, &mut mfcc, &mut scratch)
                .map_err(|err| {
                    GscV2Error::Wav(
                        self.root.join(self.clip_path(split, i)),
                        WavError::Io(err.to_string()),
                    )
                })?;
            x.push(mfcc);
            y.push(label);
        }
        Ok(MfccDataset {
            x,
            y,
            num_classes: self.num_classes(),
        })
    }

    /// Writes `MANIFEST.tsv` for the current tree contents (clips and
    /// noise beds, sorted by path, FNV-1a-64 of the raw file bytes).
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn write_manifest(&self) -> Result<(), GscV2Error> {
        let mut rows: Vec<(String, u64)> = Vec::new();
        for rel in self
            .entries
            .iter()
            .map(|e| e.rel.clone())
            .chain(self.noise_files.iter().cloned())
        {
            let p = self.root.join(&rel);
            let bytes = std::fs::read(&p).map_err(|e| GscV2Error::Io(p.clone(), e))?;
            rows.push((rel, fnv1a64(&bytes)));
        }
        rows.sort();
        let mut out = String::from("# gsc-v2 manifest v1\tfnv1a64\n");
        for (rel, sum) in rows {
            out.push_str(&format!("{rel}\t{sum:016x}\n"));
        }
        let p = self.root.join(MANIFEST_NAME);
        std::fs::write(&p, out).map_err(|e| GscV2Error::Io(p, e))?;
        Ok(())
    }
}

fn split_index(s: Split) -> usize {
    match s {
        Split::Train => 0,
        Split::Val => 1,
        Split::Test => 2,
    }
}

fn list_wavs(dir: &Path) -> Result<Vec<String>, GscV2Error> {
    let rd = std::fs::read_dir(dir).map_err(|e| GscV2Error::Io(dir.to_path_buf(), e))?;
    let mut out = Vec::new();
    for item in rd {
        let item = item.map_err(|e| GscV2Error::Io(dir.to_path_buf(), e))?;
        let p = item.path();
        if p.extension().and_then(|e| e.to_str()) == Some("wav") {
            if let Some(name) = p.file_name().and_then(|n| n.to_str()) {
                out.push(name.to_string());
            }
        }
    }
    out.sort();
    Ok(out)
}

fn parse_manifest(text: &str) -> Result<BTreeMap<String, u64>, GscV2Error> {
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split('\t');
        let (Some(rel), Some(sum), None) = (it.next(), it.next(), it.next()) else {
            return Err(GscV2Error::ManifestSyntax {
                line: lineno + 1,
                content: line.to_string(),
            });
        };
        let sum = u64::from_str_radix(sum, 16).map_err(|_| GscV2Error::ManifestSyntax {
            line: lineno + 1,
            content: line.to_string(),
        })?;
        out.insert(rel.to_string(), sum);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Subset generation.
// ---------------------------------------------------------------------------

/// Specification of a committed offline subset.
#[derive(Debug, Clone, PartialEq)]
pub struct SubsetSpec {
    /// Keywords to include (must be GSC vocabulary words).
    pub keywords: Vec<&'static str>,
    /// Clips written per keyword.
    pub clips_per_keyword: usize,
    /// Background-noise beds written to `_background_noise_`.
    pub noise_clips: usize,
    /// Samples per noise bed.
    pub noise_samples: usize,
    /// Master seed. Rendering uses a stream disjoint from
    /// [`crate::SyntheticGsc`]'s, so the subset is held out from anything
    /// a model was trained on.
    pub seed: u64,
    /// Synthesis difficulty for the rendered voices.
    pub synth: SynthParams,
}

impl Default for SubsetSpec {
    fn default() -> Self {
        SubsetSpec {
            keywords: vec!["dog", "cat", "bird", "go", "stop", "yes", "no", "up"],
            clips_per_keyword: 15,
            noise_clips: 3,
            noise_samples: 4 * CLIP_SAMPLES,
            seed: 0x5EED_5B5E,
            synth: SynthParams::paper_difficulty(),
        }
    }
}

/// Renders a GSC-v2-layout subset at `root`: per-keyword clip
/// directories, `_background_noise_` beds, and a `MANIFEST.tsv`.
///
/// Clips are synthesised from the held-out voice stream (real GSC audio
/// cannot be redistributed here), written as PCM16 WAV, and named
/// `<speaker>_nohash_0.wav` with speaker ids *searched* so the official
/// [`which_set`] hash lands each keyword's clips 60/20/20 across
/// train/val/test — the committed tree exercises the real split
/// algorithm and still guarantees every split is populated.
///
/// Returns the number of files written (clips + noise + manifest).
///
/// # Errors
///
/// Filesystem failures; also if `root` already contains a manifest
/// (refuses to clobber an existing subset — delete it first).
///
/// # Panics
///
/// Panics if a keyword is outside the GSC vocabulary.
pub fn generate_subset(root: &Path, spec: &SubsetSpec) -> Result<usize, GscV2Error> {
    if root.join(MANIFEST_NAME).exists() {
        return Err(GscV2Error::ManifestMismatch {
            path: MANIFEST_NAME.into(),
            reason: "refusing to overwrite an existing subset; delete it first".into(),
        });
    }
    let mut written = 0usize;
    let mut st = spec.seed ^ 0x5EED_0000_0000_5B5E;
    for kw in &spec.keywords {
        let cls = keyword_index(kw).unwrap_or_else(|| panic!("`{kw}` not in GSC vocabulary"));
        let dir = root.join(kw);
        std::fs::create_dir_all(&dir).map_err(|e| GscV2Error::Io(dir.clone(), e))?;
        let voice = KeywordVoice::new(cls);
        for i in 0..spec.clips_per_keyword {
            // Steer the official hash: 60/20/20 by position within the
            // keyword, searching speaker ids until which_set agrees.
            let want = match i % 5 {
                3 => Split::Val,
                4 => Split::Test,
                _ => Split::Train,
            };
            let speaker = loop {
                let cand = format!("{:08x}", splitmix64(&mut st) as u32);
                if which_set(&cand, 10.0, 10.0) == want {
                    break cand;
                }
            };
            // Held-out seed namespace: disjoint from SyntheticGsc's
            // (seed, split, idx) stream by construction.
            let useed = splitmix64(&mut st) ^ 0x0FF1_1FE0_5EED_0001;
            let wave = voice.render(&spec.synth, useed);
            let path = dir.join(format!("{speaker}_nohash_0.wav"));
            wav::write_wav_16k_mono(&path, &wave).map_err(|e| GscV2Error::Wav(path.clone(), e))?;
            written += 1;
        }
    }
    let ndir = root.join(NOISE_DIR);
    std::fs::create_dir_all(&ndir).map_err(|e| GscV2Error::Io(ndir.clone(), e))?;
    for i in 0..spec.noise_clips {
        let useed = splitmix64(&mut st);
        let mut bed = Vec::with_capacity(spec.noise_samples);
        // Coloured noise bed: white noise with a slow random-walk
        // amplitude, one-pole low-passed — closer to real room noise than
        // the flat white render_noise clips.
        let mut amp = 0.05f32;
        let mut lp = 0.0f32;
        let mut s = useed;
        for _ in 0..spec.noise_samples {
            let r = (splitmix64(&mut s) >> 11) as f32 / (1u64 << 53) as f32 - 0.5;
            amp = (amp + 0.0005 * ((splitmix64(&mut s) >> 11) as f32 / (1u64 << 53) as f32 - 0.5))
                .clamp(0.01, 0.12);
            lp += 0.2 * (r - lp);
            bed.push(amp * (r + 2.0 * lp));
        }
        let path = ndir.join(format!("synthetic_bed_{i}.wav"));
        wav::write_wav_16k_mono(&path, &bed).map_err(|e| GscV2Error::Wav(path.clone(), e))?;
        written += 1;
    }
    // Scan what we wrote and stamp the manifest.
    let ds = GscV2::open(root, Task::AllKeywords)?;
    ds.write_manifest()?;
    Ok(written + 1)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::AugmentConfig;
    use proptest::prelude::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("kwt_gscv2_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn tiny_spec() -> SubsetSpec {
        SubsetSpec {
            keywords: vec!["dog", "cat"],
            clips_per_keyword: 5,
            noise_clips: 1,
            noise_samples: CLIP_SAMPLES,
            ..SubsetSpec::default()
        }
    }

    #[test]
    fn which_set_matches_reference_vectors() {
        // Cross-checked against the TensorFlow reference implementation
        // (hashlib.sha1 + the %-of-2^27 mapping) for these speaker ids.
        let pct = |name: &str| {
            let d = sha1(name.as_bytes());
            let low27 = (u32::from_be_bytes([d[16], d[17], d[18], d[19]]) as u64) & ((1 << 27) - 1);
            low27 as f64 * (100.0 / (((1u64 << 27) - 1) as f64))
        };
        // SHA-1("abc") = a9993e36...9cd0d89d — low 27 bits of ...9cd0d89d.
        let digest = sha1(b"abc");
        assert_eq!(
            digest[..4],
            [0xa9, 0x99, 0x3e, 0x36],
            "sha1 implementation is wrong"
        );
        assert_eq!(digest[16..20], [0x9c, 0xd0, 0xd8, 0x9d]);
        // _nohash_ suffix must not affect the split.
        let a = which_set("abc_nohash_0.wav", 10.0, 10.0);
        let b = which_set("abc_nohash_17.wav", 10.0, 10.0);
        assert_eq!(a, b);
        // And the percentage drives the assignment.
        let p = pct("abc");
        let expect = if p < 10.0 {
            Split::Val
        } else if p < 20.0 {
            Split::Test
        } else {
            Split::Train
        };
        assert_eq!(a, expect);
    }

    #[test]
    fn sha1_empty_and_long_vectors() {
        let hex = |d: [u8; 20]| d.iter().map(|b| format!("{b:02x}")).collect::<String>();
        assert_eq!(hex(sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        // > one block (64 bytes) to exercise multi-chunk padding.
        assert_eq!(
            hex(sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn generated_subset_loads_offline_and_checks() {
        let d = tmpdir("roundtrip");
        let n = generate_subset(&d, &tiny_spec()).unwrap();
        assert_eq!(n, 2 * 5 + 1 + 1); // clips + noise + manifest
        let ds = GscV2::open_checked(&d, Task::Binary { target: "dog" }).unwrap();
        // 60/20/20 steering: every split populated for every keyword.
        assert_eq!(ds.len(Split::Train), 6);
        assert_eq!(ds.len(Split::Val), 2);
        assert_eq!(ds.len(Split::Test), 2);
        assert_eq!(ds.num_classes(), 2);
        let (wave, label) = ds.clip(Split::Train, 0).unwrap();
        assert_eq!(wave.len(), CLIP_SAMPLES);
        assert!(label <= 1);
        let bank = ds.noise_bank().unwrap();
        assert_eq!(bank.len(), 1);
        assert_eq!(bank[0].len(), CLIP_SAMPLES);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn manifest_catches_corruption_and_extras() {
        let d = tmpdir("corrupt");
        generate_subset(&d, &tiny_spec()).unwrap();
        let ds = GscV2::open(&d, Task::AllKeywords).unwrap();
        ds.verify_manifest().unwrap();
        // Corrupt one clip: checksum mismatch.
        let victim = d.join(ds.clip_path(Split::Train, 0));
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        std::fs::write(&victim, &bytes).unwrap();
        assert!(matches!(
            ds.verify_manifest(),
            Err(GscV2Error::ManifestMismatch { .. })
        ));
        bytes[last] ^= 0x55;
        std::fs::write(&victim, &bytes).unwrap();
        ds.verify_manifest().unwrap();
        // An unlisted extra file is also drift.
        let extra = d.join("dog/deadbeef_nohash_0.wav");
        std::fs::write(&extra, wav::encode_wav_16k_mono(&[0.0; 16])).unwrap();
        let ds2 = GscV2::open(&d, Task::AllKeywords).unwrap();
        assert!(matches!(
            ds2.verify_manifest(),
            Err(GscV2Error::ManifestMismatch { .. })
        ));
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn generation_is_deterministic() {
        let d1 = tmpdir("det1");
        let d2 = tmpdir("det2");
        generate_subset(&d1, &tiny_spec()).unwrap();
        generate_subset(&d2, &tiny_spec()).unwrap();
        let m1 = std::fs::read_to_string(d1.join(MANIFEST_NAME)).unwrap();
        let m2 = std::fs::read_to_string(d2.join(MANIFEST_NAME)).unwrap();
        assert_eq!(m1, m2, "same spec must produce identical trees");
        std::fs::remove_dir_all(&d1).unwrap();
        std::fs::remove_dir_all(&d2).unwrap();
    }

    #[test]
    fn refuses_to_clobber() {
        let d = tmpdir("clobber");
        generate_subset(&d, &tiny_spec()).unwrap();
        assert!(generate_subset(&d, &tiny_spec()).is_err());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn materialize_with_augmentation_is_reproducible() {
        let d = tmpdir("mat");
        generate_subset(&d, &tiny_spec()).unwrap();
        let ds = GscV2::open(&d, Task::Binary { target: "dog" }).unwrap();
        let fe = kwt_audio::kwt_tiny_frontend().unwrap();
        let aug = Augmenter::new(AugmentConfig::default());
        let a = ds.materialize(Split::Train, &fe, Some(&aug)).unwrap();
        let b = ds.materialize(Split::Train, &fe, Some(&aug)).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.x.iter().zip(&b.x) {
            let xb: Vec<u32> = x.as_slice().iter().map(|v| v.to_bits()).collect();
            let yb: Vec<u32> = y.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(xb, yb);
        }
        let plain = ds.materialize(Split::Train, &fe, None).unwrap();
        assert_eq!(plain.len(), a.len());
        assert_eq!(plain.num_classes, 2);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn labels_follow_task() {
        let d = tmpdir("labels");
        generate_subset(&d, &tiny_spec()).unwrap();
        let bin = GscV2::open(&d, Task::Binary { target: "dog" }).unwrap();
        let all = GscV2::open(&d, Task::AllKeywords).unwrap();
        let mut saw = [false; 2];
        for i in 0..bin.len(Split::Train) {
            saw[bin.label(Split::Train, i)] = true;
        }
        assert!(saw[0] && saw[1], "both binary labels present");
        for i in 0..all.len(Split::Train) {
            assert!(all.label(Split::Train, i) < 35);
        }
        assert_eq!(all.present_keywords(), vec!["cat", "dog"]);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn missing_target_is_an_error() {
        let d = tmpdir("target");
        generate_subset(&d, &tiny_spec()).unwrap();
        assert!(matches!(
            GscV2::open(&d, Task::Binary { target: "zero" }),
            Err(GscV2Error::MissingTarget("zero"))
        ));
        std::fs::remove_dir_all(&d).unwrap();
    }

    /// The committed subset's manifest, the seed of the mutation fuzz.
    const COMMITTED_MANIFEST: &str = include_str!("../../../data/gsc_v2_subset/MANIFEST.tsv");

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_never_panic_the_manifest_parser(
            bytes in collection::vec(any::<u8>(), 0..256),
        ) {
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(entries) = parse_manifest(&text) {
                prop_assert!(entries.len() <= text.lines().count());
            }
        }

        #[test]
        fn mutated_manifests_never_panic_the_parser(
            // (position modulo the length, new byte)
            edits in collection::vec((any::<usize>(), any::<u8>()), 1..8),
            cut in any::<usize>(),
        ) {
            let mut bytes = COMMITTED_MANIFEST.as_bytes().to_vec();
            let n = bytes.len();
            for &(at, b) in &edits {
                bytes[at % n] = b;
            }
            bytes.truncate(cut % (n + 1));
            let text = String::from_utf8_lossy(&bytes);
            match parse_manifest(&text) {
                Ok(entries) => prop_assert!(entries.len() <= text.lines().count()),
                Err(e) => prop_assert!(
                    matches!(e, GscV2Error::ManifestSyntax { line, .. } if line >= 1),
                    "unexpected error {e}"
                ),
            }
        }
    }

    #[test]
    fn committed_manifest_parses() {
        let entries = parse_manifest(COMMITTED_MANIFEST).unwrap();
        assert!(entries.len() > 100);
    }
}
