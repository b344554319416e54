//! Spans recorded from outside the store: the client times each call into
//! `StoreRouter` (layer `scaleout`), and [`TimedBackend`] — passed to the
//! router through `deploy_with_backends` — times each call the router makes
//! into its cluster (layer `backend`). Spans stay in per-thread memory
//! during the window and are written out once the run ends. Only the
//! operations a client names with [`begin_op`] are timed.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use vrr_core::metrics::Registry;
use vrr_core::{ReadReport, WriteReport};
use vrr_runtime::{ClusterBackend, StoreError};

/// Nanoseconds since the first call in this process: the one clock that
/// every span and every operation record is stamped with.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let nanos = EPOCH.get_or_init(Instant::now).elapsed().as_nanos();
    u64::try_from(nanos).expect("a run lasts less than 584 years")
}

/// The layer a span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `StoreRouter::{try_write, read}`: routing plus everything below.
    Scaleout,
    /// `ClusterBackend::{try_write, read}` as the router calls it.
    Backend,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Scaleout => "scaleout",
            Layer::Backend => "backend",
        }
    }
}

/// One timed call. Spans of one operation share `op`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The operation this call served.
    pub op: u64,
    /// What was timed.
    pub layer: Layer,
    /// [`now_ns`] when the call began.
    pub start: u64,
    /// [`now_ns`] when it returned.
    pub end: u64,
    /// The layer whose span caused this one, if any.
    pub parent: Option<Layer>,
}

thread_local! {
    static CURRENT_OP: Cell<Option<u64>> = const { Cell::new(None) };
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

/// Names the operation the calling thread is about to issue, or `None`
/// when that operation is not to be timed.
pub fn begin_op(op: Option<u64>) {
    CURRENT_OP.with(|c| c.set(op));
}

/// Keeps `span` in the calling thread's buffer.
pub fn record(span: Span) {
    SPANS.with(|s| s.borrow_mut().push(span));
}

/// Empties and returns the calling thread's span buffer.
pub fn take_spans() -> Vec<Span> {
    SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// Writes `spans` as tab-separated rows: op, layer, start, end, parent.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op\tlayer\tstart_ns\tend_ns\tparent")?;
    for s in spans {
        let parent = s.parent.map_or("-", Layer::name);
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.op,
            s.layer.name(),
            s.start,
            s.end,
            parent
        )?;
    }
    out.flush()
}

/// A [`ClusterBackend`] that times the router's calls into `inner` and
/// forwards everything else untouched.
pub struct TimedBackend {
    inner: Arc<dyn ClusterBackend<u64, u64>>,
}

impl TimedBackend {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn ClusterBackend<u64, u64>>) -> Self {
        TimedBackend { inner }
    }

    fn timed<T>(&self, call: impl FnOnce() -> T) -> T {
        let Some(op) = CURRENT_OP.with(Cell::get) else {
            return call();
        };
        let start = now_ns();
        let out = call();
        record(Span {
            op,
            layer: Layer::Backend,
            start,
            end: now_ns(),
            parent: Some(Layer::Scaleout),
        });
        out
    }
}

impl ClusterBackend<u64, u64> for TimedBackend {
    fn try_write(&self, key: u64, value: u64) -> Result<WriteReport, StoreError> {
        self.timed(|| self.inner.try_write(key, value))
    }

    fn read(&self, key: &u64, reader: usize) -> Option<ReadReport<u64>> {
        self.timed(|| self.inner.read(key, reader))
    }

    fn release(&self, key: &u64) -> Option<usize> {
        self.inner.release(key)
    }

    fn keys(&self) -> Vec<u64> {
        self.inner.keys()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn contains_key(&self, key: &u64) -> bool {
        self.inner.contains_key(key)
    }

    fn shard_of(&self, key: &u64) -> Option<usize> {
        self.inner.shard_of(key)
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn free_slots(&self) -> usize {
        self.inner.free_slots()
    }

    fn crash_object(&self, slot: usize, object: usize) {
        self.inner.crash_object(slot, object)
    }

    fn history_lens(&self, slot: usize) -> Vec<usize> {
        self.inner.history_lens(slot)
    }

    fn metrics_snapshot_labelled(&self, cluster: Option<usize>) -> Registry {
        self.inner.metrics_snapshot_labelled(cluster)
    }

    fn scheme(&self) -> &'static str {
        self.inner.scheme()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrr_core::StorageConfig;
    use vrr_runtime::{NoDelay, ProtocolKind, ShardedStore};

    #[test]
    fn the_timed_backend_records_one_span_per_named_data_call() {
        let store: ShardedStore<u64, u64> = ShardedStore::deploy(
            StorageConfig::optimal(1, 1, 1),
            ProtocolKind::RegularOptimized,
            Box::new(NoDelay),
            2,
        );
        let timed = TimedBackend::new(Arc::new(store));
        take_spans();
        begin_op(Some(41));
        timed.write(5, 9);
        begin_op(Some(42));
        assert_eq!(timed.read(&5, 0).unwrap().value, Some(9));
        begin_op(None);
        timed.write(5, 10);
        assert_eq!(timed.len(), 1);
        let spans = take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].op, spans[1].op), (41, 42));
        assert!(spans
            .iter()
            .all(|s| s.layer == Layer::Backend && s.start <= s.end));
        assert!(take_spans().is_empty());
    }
}
