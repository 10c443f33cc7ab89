//! Parallel batch validation.
//!
//! One compiled schema, many documents: the common shape of corpus
//! validation (the paper's experiments re-validate whole document sets
//! per schema). Every parallel path in the workspace — in-memory
//! batches, file batches, `bonxai lint <dir>`, `bonxai diff --jobs` —
//! runs through one primitive, [`map_indexed`]:
//!
//! * `n` scoped workers share one `Mutex` around the enumerated job
//!   iterator; each locks it, claims the next `(index, job)`, releases
//!   the lock and runs the job. A worker claims work only when it is
//!   free, so a straggler document never serializes the tail of the
//!   batch: no worker idles while unclaimed work remains (the
//!   `a_straggler_never_holds_up_unclaimed_work` test pins this).
//!   Every job is a whole document or schema (tens of µs at least), so
//!   one lock taken once per job has nothing to contend for;
//! * every result carries its input index and results are sorted by
//!   it, so reports come back in input order regardless of worker
//!   count or scheduling — `--jobs 1` and `--jobs 8` produce identical
//!   output (`tests/batch_determinism.rs` pins this).
//!
//! Workers share the compiled schema read-only; no job spawns further
//! jobs, so a worker exits as soon as the iterator is exhausted.

use std::path::Path;
use std::sync::Mutex;

use xmltree::Document;

use crate::validate::{BxsdReport, CompiledBxsd, ValidateOptions};

/// The outcome of validating one file of a batch.
#[derive(Clone, Debug)]
pub struct FileReport {
    /// The path as given by the caller.
    pub path: String,
    /// The validation report, or the I/O / parse error that prevented
    /// one from existing (the streamed analogue of "failed to parse").
    pub report: Result<BxsdReport, String>,
}

impl FileReport {
    /// Whether the file was read, parsed, and found conforming.
    pub fn is_valid(&self) -> bool {
        matches!(&self.report, Ok(r) if r.is_valid())
    }
}

/// Default worker count: one per available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Clamps a requested worker count to the cores actually available.
///
/// Every `validate_*` wrapper and every CLI `--jobs` flag funnels
/// through this: the workers are CPU-bound (parsing + automaton runs,
/// no blocking I/O overlap worth speaking of), so asking for more
/// threads than cores just adds context-switch overhead — `--jobs 64`
/// on a 4-core box used to spawn 64 threads that fought over 4 cores.
/// Zero means "pick for me" and resolves to [`default_jobs`].
pub fn clamp_jobs(jobs: usize) -> usize {
    let cores = default_jobs();
    if jobs == 0 {
        cores
    } else {
        jobs.min(cores)
    }
}

/// Runs `f` over `items` on `jobs` scoped workers, returning results in
/// input order — the one parallel primitive, under batch validation
/// and the parallel lint and diff paths. `jobs` is clamped to the item
/// count; `jobs <= 1` maps inline on the calling thread (the
/// deterministic baseline). Workers claim the next unclaimed item from
/// one shared iterator, so a slow item holds up only its own worker.
/// Output is identical for every `jobs` value because each result
/// carries its input index and results are sorted by it.
///
/// Unlike the `validate_*` wrappers this does **not** apply
/// [`clamp_jobs`] — callers that take a user-facing `--jobs` flag clamp
/// first; tests that deliberately oversubscribe pass raw counts.
pub fn map_indexed<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = jobs.min(items.len()).max(1);
    if n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let next = Mutex::new(items.into_iter().enumerate());
    let mut out: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // The guard dies with this statement, so the
                        // lock is released before `f` runs (a `while
                        // let` would hold it for the whole loop body).
                        let claimed = next.lock().expect("job iterators do not panic").next();
                        let Some((i, item)) = claimed else {
                            return done;
                        };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("batch workers do not panic"))
            .collect()
    });
    out.sort_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

impl CompiledBxsd<'_> {
    /// Validates many in-memory documents with one worker per
    /// available core, preserving input order. The compiled schema is
    /// shared read-only across workers.
    pub fn validate_batch(&self, docs: &[Document], opts: ValidateOptions) -> Vec<BxsdReport> {
        self.validate_batch_with_jobs(docs, opts, default_jobs())
    }

    /// [`Self::validate_batch`] with an explicit worker count, passed
    /// through [`clamp_jobs`] and [`map_indexed`]. Reports are identical
    /// for every `jobs` value — input order in, input order out.
    pub fn validate_batch_with_jobs(
        &self,
        docs: &[Document],
        opts: ValidateOptions,
        jobs: usize,
    ) -> Vec<BxsdReport> {
        map_indexed(docs.iter().collect(), clamp_jobs(jobs), |doc| {
            self.validate_with(doc, opts)
        })
    }

    /// Validates many XML *files*, each in one streaming pass (O(depth)
    /// memory per worker, never building trees), on [`clamp_jobs`]`(jobs)`
    /// workers. Reports come back in input order; a file that cannot be
    /// read or parsed yields `Err` in its [`FileReport`] without
    /// disturbing the rest of the batch.
    pub fn validate_paths<P: AsRef<Path>>(
        &self,
        paths: &[P],
        opts: ValidateOptions,
        jobs: usize,
    ) -> Vec<FileReport> {
        let paths: Vec<&Path> = paths.iter().map(AsRef::as_ref).collect();
        map_indexed(paths, clamp_jobs(jobs), |path| {
            let shown = path.display().to_string();
            let report = match std::fs::File::open(path) {
                Err(e) => Err(format!("cannot read {shown}: {e}")),
                Ok(file) => {
                    let mut reader = xmltree::XmlReader::from_reader(file);
                    self.validate_stream_with(&mut reader, opts)
                        .map_err(|e| e.to_string())
                }
            };
            FileReport {
                path: shown,
                report,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::lower::lower;
    use crate::lang::parser::parse_schema;

    fn compiled_schema() -> crate::bxsd::Bxsd {
        let ast = parse_schema(
            "global { doc } grammar { doc = { (element item | element note)* } \
             item = mixed { } note = mixed { } }",
        )
        .expect("schema parses");
        lower(&ast).expect("schema lowers").bxsd
    }

    fn docs(n: usize) -> Vec<Document> {
        (0..n)
            .map(|i| {
                let body = if i % 3 == 0 {
                    "<doc><bogus/></doc>".to_owned()
                } else {
                    format!("<doc>{}</doc>", "<item>x</item>".repeat(i % 7 + 1))
                };
                xmltree::parse_document(&body).expect("doc parses")
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_for_every_worker_count() {
        let bxsd = compiled_schema();
        let compiled = CompiledBxsd::new(&bxsd);
        let docs = docs(23);
        let opts = ValidateOptions::default();
        let sequential: Vec<_> = docs
            .iter()
            .map(|d| compiled.validate_with(d, opts))
            .collect();
        for jobs in [1, 2, 3, 8, 64] {
            let batch = compiled.validate_batch_with_jobs(&docs, opts, jobs);
            assert_eq!(batch.len(), sequential.len());
            for (b, s) in batch.iter().zip(&sequential) {
                assert_eq!(b.violations, s.violations, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn a_straggler_never_holds_up_unclaimed_work() {
        use std::sync::mpsc;
        use std::time::{Duration, Instant};
        // Job 0 finishes only once the other 63 have, so the second
        // worker must run all of them; a scheduler that hands each
        // worker a fixed share up front times out here.
        let (done, finished) = mpsc::channel();
        let finished = Mutex::new(finished);
        let deadline = Instant::now() + Duration::from_secs(10);
        let results = map_indexed((0..64).collect(), 2, |i: usize| {
            if i > 0 {
                done.send(()).expect("the receiver outlives the batch");
                return (i, true);
            }
            let finished = finished.lock().expect("only job 0 locks it");
            let saw_the_rest = (1..64).all(|_| {
                let left = deadline.saturating_duration_since(Instant::now());
                finished.recv_timeout(left).is_ok()
            });
            (0, saw_the_rest)
        });
        let expected: Vec<_> = (0..64).map(|i| (i, true)).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn empty_batch_is_fine() {
        let bxsd = compiled_schema();
        let compiled = CompiledBxsd::new(&bxsd);
        assert!(compiled
            .validate_batch(&[], ValidateOptions::default())
            .is_empty());
        let none: [&str; 0] = [];
        assert!(compiled
            .validate_paths(&none, ValidateOptions::default(), 4)
            .is_empty());
    }

    #[test]
    fn missing_file_reports_error_in_place() {
        let bxsd = compiled_schema();
        let compiled = CompiledBxsd::new(&bxsd);
        let dir = std::env::temp_dir().join("bonxai-batch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.xml");
        std::fs::write(&good, "<doc><item>x</item></doc>").unwrap();
        let bad = dir.join("does-not-exist.xml");
        let paths = vec![good.clone(), bad, good];
        let reports = compiled.validate_paths(&paths, ValidateOptions::default(), 2);
        assert_eq!(reports.len(), 3);
        assert!(reports[0].is_valid());
        assert!(reports[1].report.is_err());
        assert!(reports[2].is_valid());
    }
}
