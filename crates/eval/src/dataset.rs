//! Measured datasets: ground-truth throughputs for corpus blocks.

use bhive_asm::BasicBlock;
use bhive_corpus::{Application, Corpus};
use bhive_harness::{
    profile_corpus_supervised, MeasurementCache, ProfileConfig, ProfileStats, Profiler, Supervision,
};
use bhive_uarch::UarchKind;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One successfully profiled corpus block with its measured throughput.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasuredBlock {
    /// Source application.
    pub app: Application,
    /// Execution-frequency weight.
    pub weight: f64,
    /// The block.
    pub block: BasicBlock,
    /// Measured steady-state cycles per iteration.
    pub throughput: f64,
}

/// A measured dataset on one microarchitecture.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasuredCorpus {
    /// Target microarchitecture.
    pub uarch: UarchKind,
    /// The measured blocks (profiling failures are dropped, as in the
    /// paper — only successfully profiled blocks are used for
    /// validation).
    pub blocks: Vec<MeasuredBlock>,
    /// Blocks attempted (for success-rate accounting).
    pub attempted: usize,
}

impl MeasuredCorpus {
    /// Profiles every block of `corpus` on `uarch` with the paper's full
    /// configuration (or a caller-supplied one) and keeps the successes.
    ///
    /// AVX2 blocks are skipped on Ivy Bridge, exactly as the paper
    /// excludes them from Ivy Bridge validation.
    pub fn measure(
        corpus: &Corpus,
        uarch: UarchKind,
        config: &ProfileConfig,
        threads: usize,
    ) -> MeasuredCorpus {
        MeasuredCorpus::measure_with_stats(corpus, uarch, config, threads).0
    }

    /// Like [`MeasuredCorpus::measure`], additionally returning the
    /// profiling pipeline's [`ProfileStats`] (dedup hit rate, worker
    /// utilization, failure mix) for observability.
    pub fn measure_with_stats(
        corpus: &Corpus,
        uarch: UarchKind,
        config: &ProfileConfig,
        threads: usize,
    ) -> (MeasuredCorpus, ProfileStats) {
        MeasuredCorpus::measure_with_stats_supervised(
            corpus,
            uarch,
            config,
            threads,
            None,
            &Supervision::default(),
        )
    }

    /// Like [`MeasuredCorpus::measure_with_stats`], with an optional
    /// on-disk measurement cache rooted at `cache_dir` and explicit
    /// [`Supervision`] — breaker tuning and observability. Warm blocks are
    /// served from disk (bit-identical to measuring them), cold blocks
    /// are measured and persisted as the run progresses, so an
    /// interrupted run resumes where it stopped; a cache directory that
    /// cannot be opened disables caching for the run (with a warning on
    /// stderr) rather than failing it. With
    /// [`Supervision::obs`] enabled the returned stats carry the merged
    /// deterministic run record ([`ProfileStats::obs`]); the measured
    /// blocks themselves are bit-identical to an unobserved run.
    pub fn measure_with_stats_supervised(
        corpus: &Corpus,
        uarch: UarchKind,
        config: &ProfileConfig,
        threads: usize,
        cache_dir: Option<&Path>,
        supervision: &Supervision,
    ) -> (MeasuredCorpus, ProfileStats) {
        let profiler = Profiler::new(uarch.desc(), config.clone());
        let blocks = corpus.basic_blocks();
        let mut cache =
            cache_dir.and_then(|dir| match MeasurementCache::open(dir, uarch, config) {
                Ok(cache) => Some(cache),
                Err(err) => {
                    eprintln!(
                        "warning: measurement cache at {} disabled: {err}",
                        dir.display()
                    );
                    None
                }
            });
        let report =
            profile_corpus_supervised(&profiler, &blocks, threads, cache.as_mut(), supervision);
        let mut measured = Vec::new();
        for (idx, result) in report.results.iter().enumerate() {
            if let Ok(m) = result {
                // Degenerate zero-throughput measurements are useless as
                // ground truth.
                if m.throughput > 1e-6 {
                    let cb = &corpus.blocks()[idx];
                    measured.push(MeasuredBlock {
                        app: cb.app,
                        weight: cb.weight,
                        block: cb.block.clone(),
                        throughput: m.throughput,
                    });
                }
            }
        }
        (
            MeasuredCorpus {
                uarch,
                blocks: measured,
                attempted: blocks.len(),
            },
            report.stats,
        )
    }

    /// Fraction of attempted blocks that profiled successfully.
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.blocks.len() as f64 / self.attempted as f64
    }

    /// `(block, throughput)` pairs for model training.
    pub fn training_pairs(&self) -> Vec<(BasicBlock, f64)> {
        self.blocks
            .iter()
            .map(|m| (m.block.clone(), m.throughput))
            .collect()
    }

    /// Writes the dataset in the published BHive artifact style:
    /// `app,hex,weight,throughput` per line (the original release ships
    /// `hex,throughput` CSVs per microarchitecture).
    ///
    /// # Errors
    ///
    /// Returns an error when a block fails to encode or the writer fails.
    pub fn write_csv<W: std::io::Write>(&self, mut writer: W) -> std::io::Result<()> {
        writeln!(writer, "# uarch: {}", self.uarch.short_name())?;
        for m in &self.blocks {
            let hex = m.block.to_hex().map_err(std::io::Error::other)?;
            writeln!(
                writer,
                "{},{},{},{}",
                m.app.name(),
                hex,
                m.weight,
                m.throughput
            )?;
        }
        Ok(())
    }

    /// Reads a dataset written by [`MeasuredCorpus::write_csv`].
    ///
    /// General `#` comment lines are skipped anywhere; the `# uarch:`
    /// header is honored only *before* the first data row — a header
    /// after data rows would silently retag blocks already parsed under
    /// the old uarch, so it is rejected instead.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed lines, undecodable hex, or a
    /// `# uarch:` header that appears after data rows.
    pub fn read_csv<R: std::io::BufRead>(reader: R) -> std::io::Result<MeasuredCorpus> {
        let mut uarch = UarchKind::Haswell;
        let mut blocks: Vec<MeasuredBlock> = Vec::new();
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            let err = |msg: String| std::io::Error::other(format!("line {}: {msg}", lineno + 1));
            if line.trim_start().starts_with('#') {
                if let Some(rest) = line.trim_start().strip_prefix("# uarch:") {
                    if !blocks.is_empty() {
                        return Err(err(
                            "`# uarch:` header after data rows would retag parsed blocks".into(),
                        ));
                    }
                    uarch = UarchKind::parse(rest.trim())
                        .ok_or_else(|| err(format!("unknown uarch `{rest}`")))?;
                }
                // Any other comment line is annotation, not data.
                continue;
            }
            if line.trim().is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.splitn(4, ',').collect();
            if parts.len() != 4 {
                return Err(err("expected app,hex,weight,throughput".into()));
            }
            let app = Application::parse(parts[0])
                .ok_or_else(|| err(format!("unknown app `{}`", parts[0])))?;
            let block = BasicBlock::from_hex(parts[1]).map_err(|e| err(e.to_string()))?;
            let weight: f64 = parts[2]
                .parse()
                .map_err(|e| err(format!("bad weight: {e}")))?;
            let throughput: f64 = parts[3]
                .parse()
                .map_err(|e| err(format!("bad throughput: {e}")))?;
            blocks.push(MeasuredBlock {
                app,
                weight,
                block,
                throughput,
            });
        }
        let attempted = blocks.len();
        Ok(MeasuredCorpus {
            uarch,
            blocks,
            attempted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bhive_corpus::Scale;

    #[test]
    fn dataset_csv_round_trip() {
        let corpus = Corpus::generate(Scale::PerApp(6), 2);
        let config = ProfileConfig::bhive().quiet();
        let measured = MeasuredCorpus::measure(&corpus, UarchKind::Skylake, &config, 2);
        let mut buf = Vec::new();
        measured.write_csv(&mut buf).unwrap();
        let read = MeasuredCorpus::read_csv(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(read.uarch, UarchKind::Skylake);
        assert_eq!(read.blocks.len(), measured.blocks.len());
        for (a, b) in measured.blocks.iter().zip(&read.blocks) {
            assert_eq!(a.block, b.block);
            assert_eq!(a.app, b.app);
            assert!((a.throughput - b.throughput).abs() < 1e-9);
        }
    }

    #[test]
    fn measures_a_small_corpus() {
        let corpus = Corpus::generate(Scale::PerApp(8), 11);
        let config = ProfileConfig::bhive().quiet();
        let measured = MeasuredCorpus::measure(&corpus, UarchKind::Haswell, &config, 2);
        assert_eq!(measured.attempted, corpus.len());
        assert!(measured.success_rate() > 0.7, "{}", measured.success_rate());
        assert!(measured.blocks.iter().all(|m| m.throughput > 0.0));
        // Training pairs align with blocks.
        assert_eq!(measured.training_pairs().len(), measured.blocks.len());
    }

    #[test]
    fn read_csv_skips_general_comments() {
        let corpus = Corpus::generate(Scale::PerApp(4), 5);
        let config = ProfileConfig::bhive().quiet();
        let measured = MeasuredCorpus::measure(&corpus, UarchKind::Skylake, &config, 2);
        let mut buf = Vec::new();
        measured.write_csv(&mut buf).unwrap();
        // Sprinkle annotations the way hand-edited artifacts have them.
        let annotated = format!(
            "# generated by a measurement run\n{}# trailing note\n",
            String::from_utf8(buf).unwrap()
        );
        let read = MeasuredCorpus::read_csv(std::io::Cursor::new(annotated)).unwrap();
        assert_eq!(read.uarch, UarchKind::Skylake);
        assert_eq!(read.blocks.len(), measured.blocks.len());
    }

    #[test]
    fn read_csv_rejects_uarch_header_after_data() {
        let corpus = Corpus::generate(Scale::PerApp(4), 5);
        let config = ProfileConfig::bhive().quiet();
        let measured = MeasuredCorpus::measure(&corpus, UarchKind::Haswell, &config, 2);
        let mut buf = Vec::new();
        measured.write_csv(&mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("# uarch: skl\n");
        let err = MeasuredCorpus::read_csv(std::io::Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("after data rows"), "{err}");
    }

    #[test]
    fn cached_measure_is_bit_identical_to_cold() {
        let dir = std::env::temp_dir().join(format!("bhive-dataset-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let corpus = Corpus::generate(Scale::PerApp(5), 9);
        let config = ProfileConfig::bhive().quiet();
        let (cold, cold_stats) = MeasuredCorpus::measure_with_stats_supervised(
            &corpus,
            UarchKind::Haswell,
            &config,
            2,
            Some(&dir),
            &Supervision::default(),
        );
        let cold_cache = cold_stats.cache.expect("cache active");
        assert_eq!(cold_cache.hits, 0);
        assert!(cold_cache.misses > 0);
        let (warm, warm_stats) = MeasuredCorpus::measure_with_stats_supervised(
            &corpus,
            UarchKind::Haswell,
            &config,
            2,
            Some(&dir),
            &Supervision::default(),
        );
        let warm_cache = warm_stats.cache.expect("cache active");
        assert_eq!(warm_cache.misses, 0, "everything served from disk");
        assert_eq!(warm_cache.hits, cold_cache.misses);
        assert_eq!(warm.blocks.len(), cold.blocks.len());
        for (a, b) in cold.blocks.iter().zip(&warm.blocks) {
            assert_eq!(a, b, "warm result must be bit-identical");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ivb_excludes_avx2() {
        let corpus = Corpus::for_apps(&[Application::TensorFlow], Scale::PerApp(30), 3);
        let config = ProfileConfig::bhive().quiet();
        let measured = MeasuredCorpus::measure(&corpus, UarchKind::IvyBridge, &config, 2);
        assert!(measured.blocks.iter().all(|m| !m.block.uses_avx2()));
    }
}
