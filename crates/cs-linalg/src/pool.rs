//! The workspace's one deterministic parallel runtime: a persistent,
//! work-stealing-free **chunk-deal thread pool**.
//!
//! Every embarrassingly parallel fan-out over an index range `0..k` runs
//! here: cs-core's per-schema training (Algorithm 1), per-schema
//! assessment (Algorithm 2) and `v`-grid sweep, and cs-match's ANN query
//! fan-out ([`ThreadPool::run_slots`]). Work that is serial outside those
//! batches splits itself across the same workers
//! ([`ThreadPool::split`]): the large products of [`crate::kernels`] and
//! the encoder's seeded directions. One pool of long-lived workers (sized
//! by the `CS_THREADS` env knob or the machine's available parallelism)
//! is shared by every invocation. The pool lives in cs-linalg, below both
//! users in the crate DAG, next to the [`crate::config`] and
//! [`crate::sanitize`] modules it depends on.
//!
//! # Nested batches run inline
//!
//! A batch started from inside a batch — on a pool worker, or inside an
//! inline run such as [`ExecPolicy::Sequential`]'s — runs inline on the
//! calling thread, on any pool. A worker never waits on jobs queued
//! behind it, so nesting cannot deadlock, and `Sequential` still means
//! no pool thread touches the work.
//!
//! # Determinism contract (DESIGN.md §8)
//!
//! Parallel results must be **bit-identical** to the sequential path:
//!
//! 1. Work is *dealt*, never *stolen*: the index range `0..k` is split
//!    into at most `workers` contiguous chunks up front, so the mapping
//!    from item to chunk is a pure function of `(k, workers)`.
//! 2. Every chunk writes into a pre-sized slot addressed by its chunk
//!    index; the caller reassembles slots in chunk order. Results are
//!    never reduced in arrival order.
//! 3. The per-item closure must be pure (no shared mutable state, no
//!    RNG shared across items). Under that contract the assembled output
//!    is byte-for-byte the same for every worker count, including the
//!    inline sequential path.
//!
//! A panicking closure is caught inside the worker ([`std::panic::catch_unwind`])
//! and surfaced to the caller as [`WorkerPanicked`] — the pool never
//! hangs and the worker survives for the next job.
//!
//! # Runtime sanitizer (DESIGN.md §12)
//!
//! The pool's lock sites are instrumented with the determinism sanitizer
//! ([`crate::sanitize`]): when enabled (the `sanitize` cargo feature or
//! the `CS_SANITIZE` env knob), every acquisition of the worker receiver
//! lock and the fault-arming gate/slot locks records into a
//! process-global lock-order graph, and every worker thread records a
//! float-environment probe. `cs-fault`'s `fault_smoke` binary prints the
//! resulting digest so `scripts/verify.sh` can compare sanitized runs
//! across `CS_THREADS` settings. Off (the default), each instrumented
//! site costs one relaxed atomic load.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

use crate::sanitize;

/// A closure dispatched to the pool panicked; the panic was caught inside
/// the worker and surfaced here instead of poisoning or hanging the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanicked {
    /// The panic payload, stringified.
    pub detail: String,
}

impl std::fmt::Display for WorkerPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a parallel worker panicked: {}", self.detail)
    }
}

impl std::error::Error for WorkerPanicked {}

/// Deterministic fault injection for the pool — a **test-only** hook used
/// by the `cs-fault` harness to prove that worker panics surface as
/// [`WorkerPanicked`] from every entry point.
///
/// The hook fires at the start of every [`ThreadPool::run_slots`] chunk
/// (pooled and inline alike; never in a [`ThreadPool::split`]) with a
/// [`FaultSite`] describing where execution is; an armed closure
/// that panics is caught by the pool's normal `catch_unwind` machinery, so
/// the pool itself stays panic-free. The hook is process-global but
/// gated: [`armed`] holds an exclusive lock for the guard's lifetime, so
/// concurrent armers serialize, and closures should filter on the
/// [`FaultSite`] (pool tag / caller thread) to avoid poisoning innocent
/// batches running on other pools. Production code never arms it; an
/// unarmed hook is a single mutex-protected `Option` read per *chunk*
/// (not per item).
pub mod fault {
    use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

    /// Where a fault hook fires.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FaultSite {
        /// Tag ([`super::ThreadPool::tag`]) of the pool executing the
        /// chunk, or `None` for the poolless sequential path.
        pub pool: Option<usize>,
        /// Chunk index within the batch (0 for the inline path).
        pub chunk: usize,
    }

    type Hook = Arc<dyn Fn(FaultSite) + Send + Sync>;

    fn slot() -> &'static Mutex<Option<Hook>> {
        static SLOT: OnceLock<Mutex<Option<Hook>>> = OnceLock::new();
        SLOT.get_or_init(|| Mutex::new(None))
    }

    fn gate() -> &'static Mutex<()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(()))
    }

    /// Swaps the slot contents under its own short-lived guard. The only
    /// place the slot and gate locks could nest is arming, and routing
    /// every slot write through here keeps each function single-lock:
    /// the order is always gate → slot, never the reverse (`fire` takes
    /// the slot alone), so the pair cannot deadlock. The sanitizer sees
    /// exactly that: a gate→slot edge when called from an armed section,
    /// never a slot→gate edge.
    fn store(hook: Option<Hook>) {
        let _t = super::sanitize::trace("pool.fault.slot");
        *slot().lock().unwrap_or_else(|p| p.into_inner()) = hook;
    }

    /// RAII guard for an armed fault hook; disarms on drop and holds the
    /// exclusive arming gate so armed sections never overlap.
    #[must_use = "the hook disarms when the guard drops"]
    pub struct Armed {
        // Field order is drop order: the gate guard releases before its
        // sanitizer trace pops, keeping the recorded lifetime a superset
        // of the real one.
        _gate: MutexGuard<'static, ()>,
        _trace: Option<super::sanitize::LockTrace>,
    }

    impl Drop for Armed {
        fn drop(&mut self) {
            // Poison only means a previous armer panicked mid-section;
            // the slot itself stays valid.
            store(None);
        }
    }

    /// Arms `hook` until the returned guard drops. Blocks while another
    /// armed section is active. The closure may panic — that is the
    /// point — and the panic surfaces as [`super::WorkerPanicked`].
    pub fn armed(hook: impl Fn(FaultSite) + Send + Sync + 'static) -> Armed {
        let trace = super::sanitize::trace("pool.fault.gate");
        let gate = gate().lock().unwrap_or_else(|p| p.into_inner());
        store(Some(Arc::new(hook)));
        Armed {
            _gate: gate,
            _trace: trace,
        }
    }

    /// Fires the hook (if armed) at a chunk boundary. Called inside the
    /// pool's `catch_unwind`, so a panicking hook is a simulated worker
    /// panic, not an escape.
    pub(super) fn fire(site: FaultSite) {
        // Clone out of the lock before calling: a panicking hook must
        // not poison the slot for the chunks that follow.
        let hook = {
            let _t = super::sanitize::trace("pool.fault.slot");
            slot().lock().unwrap_or_else(|p| p.into_inner()).clone()
        };
        if let Some(h) = hook {
            h(site);
        }
    }
}

/// Upper clamp for `CS_THREADS`; protects against absurd requests like
/// `CS_THREADS=100000` exhausting process resources.
pub const MAX_THREADS: usize = 256;

type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// Set on pool workers, and on any thread while it runs a batch
    /// inline: a batch started where this is set runs inline.
    static IN_BATCH: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as inside a batch until dropped, then
/// restores the previous mark.
struct BatchMark(bool);

impl BatchMark {
    fn enter() -> Self {
        BatchMark(IN_BATCH.with(|mark| mark.replace(true)))
    }
}

impl Drop for BatchMark {
    fn drop(&mut self) {
        IN_BATCH.with(|mark| mark.set(self.0));
    }
}

/// A fixed-size pool of persistent worker threads with deterministic
/// chunk-deal scheduling.
///
/// ```
/// use cs_linalg::pool::ThreadPool;
///
/// let pool = ThreadPool::with_threads(3);
/// let squares = pool.run_slots(10, |i| i * i).unwrap();
/// assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
/// ```
#[derive(Debug)]
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// Generation counter for in-flight batches (diagnostics only).
    batches: AtomicUsize,
    /// Process-unique identity, so fault hooks ([`fault`]) can target one
    /// pool without touching batches on any other.
    tag: usize,
}

impl ThreadPool {
    /// A pool with exactly `threads` workers (clamped to
    /// [`MAX_THREADS`]). `threads == 0` yields a pool that runs every
    /// batch inline on the caller thread — useful as an explicit
    /// sequential executor.
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.min(MAX_THREADS);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("cs-pool-{i}"))
                    .spawn(move || worker_loop(&receiver))
                    .expect("spawning a pool worker")
            })
            .collect();
        static NEXT_TAG: AtomicUsize = AtomicUsize::new(0);
        Self {
            sender: Some(sender),
            workers,
            batches: AtomicUsize::new(0),
            tag: NEXT_TAG.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A pool sized from the environment: `CS_THREADS` when set and
    /// parseable, otherwise the machine's available parallelism.
    pub fn from_env() -> Self {
        let spec = crate::config::env_knob(crate::config::THREADS);
        Self::with_threads(resolve_threads(spec.as_deref(), available_parallelism()))
    }

    /// Number of worker threads (0 = inline execution).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Process-unique pool identity, used by [`fault`] hooks to target a
    /// specific pool's batches.
    pub fn tag(&self) -> usize {
        self.tag
    }

    /// Number of batches dispatched so far (diagnostics).
    pub fn batches_dispatched(&self) -> usize {
        self.batches.load(Ordering::Relaxed)
    }

    /// Runs `work(i)` for every `i in 0..k`, dealing contiguous chunks to
    /// the workers and assembling the results **in index order** into a
    /// pre-sized slot vector. Inside a batch, or with one chunk, it runs
    /// inline on the caller thread.
    ///
    /// Determinism: chunk boundaries depend only on `(k, workers)`, each
    /// chunk evaluates its indices in ascending order, and slots are
    /// reassembled by chunk index — never in completion order. A pure
    /// `work` therefore produces bit-identical output for every worker
    /// count.
    ///
    /// # Errors
    /// [`WorkerPanicked`] if any invocation of `work` panicked; remaining
    /// chunks still run to completion and the pool stays usable.
    pub fn run_slots<T, F>(&self, k: usize, work: F) -> Result<Vec<T>, WorkerPanicked>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        if k == 0 {
            return Ok(Vec::new());
        }
        let chunks = self.split_width().min(k);
        if chunks <= 1 {
            // Inline sequential path: same ascending index order, still
            // panic-safe so `CS_THREADS=0` matches pool semantics.
            return run_inline(k, &work, Some(self.tag));
        }
        self.deal((0..k).collect(), chunks, work, true)
    }

    /// Maps `work` over `inputs`, which move into the workers, and returns
    /// the outputs in input order. The inputs are dealt like
    /// [`Self::run_slots`]' indices: in contiguous chunks, inline inside a
    /// batch. It serves work that is serial outside any batch — a large
    /// product's row blocks, a run of seeded directions filling the
    /// caller's buffers — so it is not a [`fault`] site, and a panic in
    /// `work` resumes on the caller with the worker's message.
    pub fn split<I, T, F>(&self, inputs: Vec<I>, work: F) -> Vec<T>
    where
        I: Send + 'static,
        T: Send + 'static,
        F: Fn(I) -> T + Send + Sync + 'static,
    {
        let chunks = self.split_width().min(inputs.len());
        if chunks <= 1 {
            let _mark = BatchMark::enter();
            return inputs.into_iter().map(work).collect();
        }
        self.deal(inputs, chunks, work, false)
            .unwrap_or_else(|panicked| resume_unwind(Box::new(panicked.detail)))
    }

    /// How many chunks a batch started here is dealt in at most: the
    /// worker count, or 1 inside a batch or on a poolless pool. A caller
    /// that shapes its work to the width (balanced row blocks) asks this
    /// first.
    pub(crate) fn split_width(&self) -> usize {
        if IN_BATCH.with(Cell::get) {
            1
        } else {
            self.workers().max(1)
        }
    }

    /// Deals `inputs` to the workers in `chunks` contiguous runs, maps
    /// each through `work` in order, and reassembles the outputs by chunk
    /// index. `fault` makes every chunk a [`fault`] site.
    fn deal<I, T, F>(
        &self,
        inputs: Vec<I>,
        chunks: usize,
        work: F,
        fault: bool,
    ) -> Result<Vec<T>, WorkerPanicked>
    where
        I: Send + 'static,
        T: Send + 'static,
        F: Fn(I) -> T + Send + Sync + 'static,
    {
        self.batches.fetch_add(1, Ordering::Relaxed);

        let k = inputs.len();
        let mut inputs = inputs.into_iter();
        let work = Arc::new(work);
        let pool_tag = self.tag;
        let (tx, rx) = channel::<(usize, ChunkResult<T>)>();
        for (chunk_idx, range) in chunk_ranges(k, chunks).into_iter().enumerate() {
            let chunk: Vec<I> = inputs.by_ref().take(range.len()).collect();
            let work = Arc::clone(&work);
            let tx = tx.clone();
            let job: Job = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    if fault {
                        fault::fire(fault::FaultSite {
                            pool: Some(pool_tag),
                            chunk: chunk_idx,
                        });
                    }
                    chunk.into_iter().map(|x| work(x)).collect::<Vec<T>>()
                }))
                .map_err(|payload| panic_message(&*payload));
                // Drop the closure before reporting, so the caller holds
                // the last reference to whatever it shares by `Arc` once
                // every chunk has reported.
                drop(work);
                // A worker that failed to send has lost its caller; the
                // value is simply dropped.
                let _ = tx.send((chunk_idx, result));
            });
            self.sender
                .as_ref()
                .expect("pool sender lives until drop")
                .send(job)
                .expect("pool workers live until drop");
        }
        drop(tx);

        let mut slots: Vec<Option<Vec<T>>> = Vec::new();
        slots.resize_with(chunks, || None);
        let mut first_panic: Option<String> = None;
        for _ in 0..chunks {
            match rx.recv() {
                Ok((idx, Ok(values))) => slots[idx] = Some(values),
                Ok((_, Err(detail))) => {
                    if first_panic.is_none() {
                        first_panic = Some(detail);
                    }
                }
                // All senders gone before every chunk reported: workers
                // were torn down mid-batch. Surface, do not hang.
                Err(_) => {
                    first_panic.get_or_insert_with(|| "worker channel closed".to_string());
                    break;
                }
            }
        }
        if let Some(detail) = first_panic {
            return Err(WorkerPanicked { detail });
        }
        let mut out = Vec::with_capacity(k);
        for slot in slots {
            out.extend(slot.expect("every chunk reported exactly once"));
        }
        Ok(out)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop.
        drop(self.sender.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Per-chunk outcome: values in index order, or the panic message.
type ChunkResult<T> = Result<Vec<T>, String>;

fn worker_loop(receiver: &Mutex<Receiver<Job>>) {
    // Every job a worker runs is a batch chunk.
    IN_BATCH.with(|mark| mark.set(true));
    loop {
        // A poisoned lock only means another worker panicked while
        // holding it; the receiver itself is still valid.
        let received = {
            let _t = sanitize::trace("pool.recv");
            receiver.lock().unwrap_or_else(|p| p.into_inner()).recv()
        };
        let job = match received {
            Ok(job) => job,
            Err(_) => return, // pool dropped
        };
        // Each worker asserts its float environment once per job — a
        // cheap enabled-check when the sanitizer is off, and with it on,
        // drift (e.g. flush-to-zero on one thread) lands in the report.
        sanitize::record_probe();
        // Executed outside the lock so other workers can pick up jobs.
        job();
    }
}

/// Runs the batch on the caller thread with the same panic surface as
/// the pooled path. `pool` carries the owning pool's tag when this is the
/// single-chunk fast path of [`ThreadPool::run_slots`], `None` when no
/// pool is involved ([`ExecPolicy::Sequential`]).
fn run_inline<T, F>(k: usize, work: &F, pool: Option<usize>) -> Result<Vec<T>, WorkerPanicked>
where
    F: Fn(usize) -> T,
{
    sanitize::record_probe();
    let _mark = BatchMark::enter();
    catch_unwind(AssertUnwindSafe(|| {
        fault::fire(fault::FaultSite { pool, chunk: 0 });
        (0..k).map(work).collect::<Vec<T>>()
    }))
    .map_err(|payload| {
        WorkerPanicked {
            // `&*` matters: `&payload` would unsize the Box itself to
            // `&dyn Any` and every downcast would miss.
            detail: panic_message(&*payload),
        }
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Splits `0..k` into `chunks` contiguous ranges whose lengths differ by
/// at most one (earlier chunks take the remainder).
fn chunk_ranges(k: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    let base = k / chunks;
    let rem = k % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Resolves a thread-count specification (the `CS_THREADS` value) against
/// the machine's available parallelism.
///
/// Unset, empty, unparsable, or `0` all fall back to `available`
/// (clamped to at least 1); explicit values clamp to [`MAX_THREADS`].
pub fn resolve_threads(spec: Option<&str>, available: usize) -> usize {
    let fallback = available.max(1);
    match spec.map(str::trim) {
        None | Some("") => fallback,
        Some(s) => match s.parse::<usize>() {
            Ok(0) | Err(_) => fallback,
            Ok(n) => n.min(MAX_THREADS),
        },
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The process-wide pool shared by every caller that does not carry its
/// own executor. Sized once, on first use, from `CS_THREADS` /
/// available parallelism.
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(ThreadPool::from_env)
}

/// How a caller executes its fan-out (per schema, per grid point, per
/// ANN query).
#[derive(Debug, Clone, Default)]
pub enum ExecPolicy {
    /// The process-wide [`global()`] pool (default).
    #[default]
    Global,
    /// Inline on the caller thread, no pool involved.
    Sequential,
    /// A caller-owned pool (e.g. a test pinning a worker count).
    Pool(Arc<ThreadPool>),
}

impl ExecPolicy {
    /// Dispatches [`ThreadPool::run_slots`] under this policy. The
    /// sequential path evaluates inline in ascending index order —
    /// bit-identical to the pooled paths for pure `work`.
    pub fn run_slots<T, F>(&self, k: usize, work: F) -> Result<Vec<T>, WorkerPanicked>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        match self {
            ExecPolicy::Sequential => run_inline(k, &work, None),
            ExecPolicy::Global => global().run_slots(k, work),
            ExecPolicy::Pool(pool) => pool.run_slots(k, work),
        }
    }

    /// True unless this policy is [`ExecPolicy::Sequential`].
    pub fn is_parallel(&self) -> bool {
        !matches!(self, ExecPolicy::Sequential)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for k in [1usize, 2, 3, 7, 10, 64, 65] {
            for chunks in 1..=k.min(9) {
                let ranges = chunk_ranges(k, chunks);
                assert_eq!(ranges.len(), chunks);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, k);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "contiguous");
                }
                let (min, max) = ranges
                    .iter()
                    .map(ExactSizeIterator::len)
                    .fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
                assert!(max - min <= 1, "balanced: {ranges:?}");
            }
        }
    }

    #[test]
    fn run_slots_preserves_index_order() {
        for workers in [0usize, 1, 2, 3, 8] {
            let pool = ThreadPool::with_threads(workers);
            assert_eq!(pool.workers(), workers);
            let got = pool.run_slots(23, |i| i * 10).unwrap();
            assert_eq!(got, (0..23).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_slots_empty_batch() {
        let pool = ThreadPool::with_threads(2);
        assert_eq!(pool.run_slots(0, |i| i).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn more_workers_than_items_clamps() {
        let pool = ThreadPool::with_threads(8);
        let got = pool.run_slots(3, |i| i).unwrap();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn panicking_closure_is_error_not_hang() {
        for workers in [0usize, 1, 4] {
            let pool = ThreadPool::with_threads(workers);
            let err = pool
                .run_slots(10, |i| {
                    assert!(i != 7, "boom at {i}");
                    i
                })
                .unwrap_err();
            assert!(err.detail.contains("boom"), "detail: {}", err.detail);
            // The pool survives a panicking batch.
            assert_eq!(pool.run_slots(4, |i| i).unwrap(), vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn worker_panicked_display() {
        let err = WorkerPanicked {
            detail: "boom".into(),
        };
        assert_eq!(err.to_string(), "a parallel worker panicked: boom");
    }

    #[test]
    fn resolve_threads_edge_cases() {
        assert_eq!(resolve_threads(None, 4), 4);
        assert_eq!(resolve_threads(None, 0), 1);
        assert_eq!(resolve_threads(Some(""), 4), 4);
        assert_eq!(resolve_threads(Some("  "), 4), 4);
        assert_eq!(resolve_threads(Some("0"), 4), 4);
        assert_eq!(resolve_threads(Some("3"), 4), 3);
        assert_eq!(resolve_threads(Some(" 12 "), 4), 12);
        assert_eq!(resolve_threads(Some("not-a-number"), 2), 2);
        assert_eq!(resolve_threads(Some("-1"), 2), 2);
        assert_eq!(resolve_threads(Some("99999"), 2), MAX_THREADS);
    }

    #[test]
    fn exec_policy_paths_agree() {
        let work = |i: usize| (i as f64).sqrt();
        let seq = ExecPolicy::Sequential.run_slots(17, work).unwrap();
        let global = ExecPolicy::Global.run_slots(17, work).unwrap();
        let pinned = ExecPolicy::Pool(Arc::new(ThreadPool::with_threads(3)))
            .run_slots(17, work)
            .unwrap();
        assert_eq!(seq, global);
        assert_eq!(seq, pinned);
        assert!(ExecPolicy::Global.is_parallel());
        assert!(!ExecPolicy::Sequential.is_parallel());
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = global() as *const ThreadPool;
        let b = global() as *const ThreadPool;
        assert_eq!(a, b);
        assert!(global().workers() <= MAX_THREADS);
    }

    #[test]
    fn armed_fault_hook_surfaces_as_worker_panicked_then_disarms() {
        let pool = ThreadPool::with_threads(4);
        let target = pool.tag();
        {
            let _guard = fault::armed(move |site| {
                // Filter on the pool tag so concurrent batches on other
                // pools (parallel test threads) are untouched.
                if site.pool == Some(target) && site.chunk == 0 {
                    panic!("injected fault: worker panic");
                }
            });
            let err = pool.run_slots(16, |i| i).unwrap_err();
            assert!(
                err.detail.contains("injected fault"),
                "detail: {}",
                err.detail
            );
        }
        // Guard dropped → hook disarmed → pool healthy again.
        assert_eq!(pool.run_slots(4, |i| i).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn armed_fault_hook_reaches_sequential_and_inline_paths() {
        let me = std::thread::current().id();
        {
            let _guard = fault::armed(move |site| {
                // Sequential runs on the caller thread with no pool tag.
                if site.pool.is_none() && std::thread::current().id() == me {
                    panic!("injected fault: inline panic");
                }
            });
            let err = ExecPolicy::Sequential
                .run_slots(5, |i: usize| i)
                .unwrap_err();
            assert!(err.detail.contains("inline panic"));
        }
        // Single-chunk pooled fast path carries the pool's tag.
        let pool = ThreadPool::with_threads(1);
        let target = pool.tag();
        {
            let _guard = fault::armed(move |site| {
                if site.pool == Some(target) {
                    panic!("injected fault: single-chunk panic");
                }
            });
            let err = pool.run_slots(3, |i| i).unwrap_err();
            assert!(err.detail.contains("single-chunk panic"));
        }
        assert_eq!(
            ExecPolicy::Sequential.run_slots(2, |i| i).unwrap(),
            vec![0, 1]
        );
    }

    /// Runs `f` on a fresh thread and fails the test if it has not
    /// finished within ten seconds: a deadlocked batch fails instead of
    /// hanging the suite.
    fn finishes<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("nested batches deadlocked")
    }

    #[test]
    fn nested_batches_run_inline_and_finish() {
        // Both workers start a batch on their own pool from inside a job.
        // Dealt, each would wait on jobs queued behind the other; inline,
        // both finish.
        let pool: &'static ThreadPool = Box::leak(Box::new(ThreadPool::with_threads(2)));
        let got = finishes(move || {
            let before = pool.batches_dispatched();
            let sums = pool
                .run_slots(2, move |i| {
                    assert_eq!(pool.split_width(), 1, "a worker is inside a batch");
                    let inner = pool.run_slots(4, move |j| i * 10 + j).unwrap();
                    let split = pool.split(vec![0, 1, 2], move |j: usize| i + j);
                    inner.iter().sum::<usize>() + split.iter().sum::<usize>()
                })
                .unwrap();
            (sums, pool.batches_dispatched() - before)
        });
        assert_eq!(got.0, vec![6 + 3, 46 + 6]);
        assert_eq!(got.1, 1, "only the outer batch is dealt");
    }

    #[test]
    fn sequential_runs_nested_batches_inline() {
        let pool = Arc::new(ThreadPool::with_threads(2));
        let inner = Arc::clone(&pool);
        let widths = ExecPolicy::Sequential
            .run_slots(3, move |i| {
                let split = inner.split((0..5).collect(), move |j: usize| i * j);
                (inner.split_width(), split.iter().sum::<usize>())
            })
            .unwrap();
        assert_eq!(widths, vec![(1, 0), (1, 10), (1, 20)]);
        assert_eq!(pool.batches_dispatched(), 0, "Sequential used no pool");
        assert_eq!(pool.split_width(), 2, "the mark ends with the batch");
    }

    #[test]
    fn split_maps_owned_inputs_in_order_and_counts_a_batch() {
        for workers in [0usize, 1, 2, 3, 8] {
            let pool = ThreadPool::with_threads(workers);
            assert_eq!(pool.split_width(), workers.max(1));
            // Owned inputs move in and come back mapped, in order.
            let buffers: Vec<Vec<usize>> = (0..23).map(|i| vec![i; 2]).collect();
            let got = pool.split(buffers, |mut b: Vec<usize>| {
                b.push(b[0] * 3);
                b
            });
            let want: Vec<Vec<usize>> = (0..23).map(|i| vec![i, i, i * 3]).collect();
            assert_eq!(got, want);
            let dealt = usize::from(workers > 1);
            assert_eq!(pool.batches_dispatched(), dealt, "{workers} workers");
            assert!(pool.split(Vec::<usize>::new(), |i| i).is_empty());
        }
    }

    #[test]
    fn split_is_not_a_fault_site_and_resumes_panics() {
        let pool = ThreadPool::with_threads(2);
        let target = pool.tag();
        {
            let _guard = fault::armed(move |site| {
                if site.pool == Some(target) {
                    panic!("injected fault: split");
                }
            });
            assert_eq!(
                pool.split((0..6).collect(), |i: usize| i),
                vec![0, 1, 2, 3, 4, 5]
            );
        }
        let payload = catch_unwind(AssertUnwindSafe(|| {
            pool.split((0..6).collect(), |i: usize| {
                assert!(i != 4, "boom in split at {i}");
                i
            })
        }))
        .expect_err("the worker's panic resumes on the caller");
        let detail = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(detail.contains("boom in split at 4"), "detail: {detail}");
        assert_eq!(pool.split(vec![0, 1], |i: usize| i), vec![0, 1]);
    }

    #[test]
    fn batches_counter_ticks_only_for_pooled_batches() {
        let pool = ThreadPool::with_threads(2);
        let before = pool.batches_dispatched();
        pool.run_slots(8, |i| i).unwrap();
        assert_eq!(pool.batches_dispatched(), before + 1);
        pool.run_slots(1, |i| i).unwrap(); // single chunk → inline
        assert_eq!(pool.batches_dispatched(), before + 1);
    }
}
