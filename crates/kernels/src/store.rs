//! The process-wide store of generated parameters.
//!
//! A parameter tensor is a pure function of the arguments of the
//! [`crate::params`] generator that makes it, so one generated copy can
//! serve every run that asks for the same bytes. The weights then stay
//! resident across executor runs, the way a deployed model's filters stay
//! in the DRAM banks. [`WeightStore`] keeps them as shared `Arc`s under a
//! fixed byte budget ([`WEIGHT_STORE_BUDGET`]). When an insert would
//! overrun the budget, the least recently used entries are evicted first,
//! skipping every entry the fetching run has already fetched: a model
//! whose parameters exceed the budget keeps the entries that fit resident
//! for its later runs, instead of evicting each entry before its next
//! use. An entry that cannot fit without evicting those is handed out but
//! not stored.
//!
//! An entry's key is everything its bytes depend on: the weight key,
//! role, row count, row length, column window and `fan_in` the generator
//! takes, plus the form (row-major or packed). Weight keys restart at 1
//! in every graph, so the key number alone would hand one model's
//! filters to another.
//!
//! Lookups and inserts take one mutex; generation runs outside it. Two
//! threads that miss the same entry at once both generate it, bit for bit
//! the same, and the later insert keeps the entry already there.

use crate::executor::{self, ExecError, ExecOptions, ExecOutput};
use crate::microkernel::PackedB;
use crate::params::{param_cols, param_cols_packed, ParamRole};
use crate::tensor::Tensor;
use pimflow_ir::Graph;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Byte budget of the process-wide store. Every model perfbench's `infer`
/// runs fits at once (about 100 MiB of weights), and so does resnet-50
/// on both GEMM paths.
pub const WEIGHT_STORE_BUDGET: usize = 256 << 20;

/// One generated parameter tensor: columns `begin..end` of each of the
/// `rows` rows of the row-major `[rows, row_len]` matrix for
/// `(key, role)`, drawn for `fan_in` — the arguments of [`param_cols`] and
/// [`param_cols_packed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ParamSpec {
    pub(crate) key: u64,
    pub(crate) role: ParamRole,
    pub(crate) rows: usize,
    pub(crate) row_len: usize,
    pub(crate) begin: usize,
    pub(crate) end: usize,
    pub(crate) fan_in: usize,
}

impl ParamSpec {
    /// The flat vector [`param_vec`](crate::params::param_vec)`(key, role,
    /// len, fan_in)`: the one-row matrix with the full window, bit for bit.
    pub(crate) fn vector(key: u64, role: ParamRole, len: usize, fan_in: usize) -> Self {
        ParamSpec {
            key,
            role,
            rows: 1,
            row_len: len,
            begin: 0,
            end: len,
            fan_in,
        }
    }
}

/// The form a tensor is generated in: row-major, or packed for the GEMM
/// micro-kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Form {
    RowMajor,
    Packed,
}

#[derive(Clone)]
enum Param {
    RowMajor(Arc<Vec<f32>>),
    Packed(Arc<PackedB>),
}

impl Param {
    fn generate(s: ParamSpec, form: Form) -> Param {
        let (key, role, rows, row_len, begin, end, fan_in) =
            (s.key, s.role, s.rows, s.row_len, s.begin, s.end, s.fan_in);
        match form {
            Form::RowMajor => Param::RowMajor(Arc::new(param_cols(
                key, role, rows, row_len, begin, end, fan_in,
            ))),
            Form::Packed => Param::Packed(Arc::new(param_cols_packed(
                key, role, rows, row_len, begin, end, fan_in,
            ))),
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            Param::RowMajor(v) => std::mem::size_of_val(v.as_slice()),
            Param::Packed(p) => p.size_bytes(),
        }
    }
}

struct Entry {
    param: Param,
    last_use: u64,
}

#[derive(Default)]
struct Entries {
    map: HashMap<(ParamSpec, Form), Entry>,
    /// Ticks once per fetch and once per insert; an entry's `last_use` is
    /// the tick of its latest.
    clock: u64,
    counters: WeightStoreCounters,
}

impl Entries {
    /// Removes the least recently used entry outside `pinned`; false if
    /// every entry is pinned.
    fn evict_lru(&mut self, pinned: &HashSet<(ParamSpec, Form)>) -> bool {
        let Some((&k, _)) = self
            .map
            .iter()
            .filter(|(k, _)| !pinned.contains(k))
            .min_by_key(|(_, e)| e.last_use)
        else {
            return false;
        };
        let old = self.map.remove(&k).expect("key just found");
        self.counters.resident_bytes -= old.param.size_bytes();
        self.counters.evictions += 1;
        true
    }
}

/// Counters of a [`WeightStore`] since it was made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WeightStoreCounters {
    /// Fetches served from the store.
    pub hits: u64,
    /// Fetches that generated their tensor.
    pub misses: u64,
    /// Entries evicted to stay within the budget.
    pub evictions: u64,
    /// Bytes of the entries held now.
    pub resident_bytes: usize,
}

/// Generated parameters kept across executor runs under a byte budget
/// (see the module docs). Every [`run_graph_with`] call fetches from one
/// process-wide store; [`weight_store_counters`] reads its counters.
///
/// [`run_graph_with`]: crate::run_graph_with
pub struct WeightStore {
    budget: usize,
    entries: Mutex<Entries>,
}

impl fmt::Debug for WeightStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WeightStore")
            .field("budget", &self.budget)
            .field("counters", &self.counters())
            .finish()
    }
}

impl WeightStore {
    /// An empty store of its own with a `budget` of bytes, for tests: one
    /// whose budget is below a model's parameters makes eviction happen,
    /// and its counters move with no other run. Executor runs outside
    /// tests share the process-wide store, whose budget is
    /// [`WEIGHT_STORE_BUDGET`]. [`WeightStore::run_graph`] runs the
    /// executor on this one.
    pub fn with_budget(budget: usize) -> Self {
        WeightStore {
            budget,
            entries: Mutex::new(Entries::default()),
        }
    }

    /// This store's counters.
    pub fn counters(&self) -> WeightStoreCounters {
        self.lock().counters
    }

    /// [`run_graph_with`](crate::run_graph_with), fetching parameters from
    /// this store instead of the process-wide one.
    ///
    /// # Errors
    ///
    /// As [`run_graph_with`](crate::run_graph_with).
    pub fn run_graph(
        &self,
        graph: &Graph,
        inputs: &[Tensor],
        opts: &ExecOptions,
    ) -> Result<ExecOutput, ExecError> {
        executor::run_on(self, graph, inputs, opts)
    }

    /// A run's handle on this store.
    pub(crate) fn run(&self) -> RunParams<'_> {
        RunParams {
            store: self,
            fetched: HashSet::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Entries> {
        // Nothing panics while holding the lock, and an entry is inserted
        // whole, so a poisoned store is still consistent.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One executor run's parameter fetches. Every tensor comes from the
/// store; for [`ExecStats`](crate::ExecStats), a fetch of a tensor this
/// run fetched before is a hit and any other fetch a miss, whatever the
/// store held. The store never evicts an entry the run has fetched.
pub(crate) struct RunParams<'s> {
    store: &'s WeightStore,
    fetched: HashSet<(ParamSpec, Form)>,
    pub(crate) hits: usize,
    pub(crate) misses: usize,
}

impl RunParams<'_> {
    /// The row-major tensor `spec`.
    pub(crate) fn rows(&mut self, spec: ParamSpec) -> Arc<Vec<f32>> {
        match self.fetch(spec, Form::RowMajor) {
            Param::RowMajor(v) => v,
            Param::Packed(_) => unreachable!("entries are keyed by form"),
        }
    }

    /// The tensor `spec`, packed for the GEMM micro-kernel.
    pub(crate) fn packed(&mut self, spec: ParamSpec) -> Arc<PackedB> {
        match self.fetch(spec, Form::Packed) {
            Param::Packed(p) => p,
            Param::RowMajor(_) => unreachable!("entries are keyed by form"),
        }
    }

    fn fetch(&mut self, spec: ParamSpec, form: Form) -> Param {
        let k = (spec, form);
        if self.fetched.insert(k) {
            self.misses += 1;
        } else {
            self.hits += 1;
        }
        {
            let mut guard = self.store.lock();
            let e = &mut *guard;
            e.clock += 1;
            if let Some(entry) = e.map.get_mut(&k) {
                entry.last_use = e.clock;
                e.counters.hits += 1;
                return entry.param.clone();
            }
            e.counters.misses += 1;
        }
        let param = Param::generate(spec, form);
        let bytes = param.size_bytes();
        if bytes > self.store.budget {
            return param;
        }
        let mut guard = self.store.lock();
        let e = &mut *guard;
        if let Some(entry) = e.map.get(&k) {
            return entry.param.clone();
        }
        while e.counters.resident_bytes + bytes > self.store.budget {
            if !e.evict_lru(&self.fetched) {
                return param;
            }
        }
        e.counters.resident_bytes += bytes;
        e.clock += 1;
        let last_use = e.clock;
        e.map.insert(
            k,
            Entry {
                param: param.clone(),
                last_use,
            },
        );
        param
    }
}

/// The process-wide store every [`run_graph_with`](crate::run_graph_with)
/// call fetches from.
pub(crate) fn global() -> &'static WeightStore {
    static STORE: OnceLock<WeightStore> = OnceLock::new();
    STORE.get_or_init(|| WeightStore::with_budget(WEIGHT_STORE_BUDGET))
}

/// Counters of the process-wide weight store since the process started.
/// They count across every run, unlike the per-run
/// [`ExecStats`](crate::ExecStats) parameter counters.
pub fn weight_store_counters() -> WeightStoreCounters {
    global().counters()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::param_vec;

    fn weight(key: u64, len: usize) -> ParamSpec {
        ParamSpec::vector(key, ParamRole::Weight, len, 9)
    }

    #[test]
    fn vector_spec_generates_param_vec_bits() {
        let store = WeightStore::with_budget(1 << 20);
        let v = store.run().rows(weight(3, 1000));
        assert_eq!(*v, param_vec(3, ParamRole::Weight, 1000, 9));
    }

    #[test]
    fn shapes_and_forms_of_one_key_are_distinct_entries() {
        let store = WeightStore::with_budget(1 << 20);
        let short = store.run().rows(weight(1, 64));
        let long = store.run().rows(weight(1, 128));
        let packed = store.run().packed(ParamSpec {
            rows: 8,
            row_len: 16,
            end: 16,
            ..weight(1, 0)
        });
        let wider_fan_in = store.run().rows(ParamSpec {
            fan_in: 27,
            ..weight(1, 64)
        });
        let two_rows = store.run().rows(ParamSpec {
            rows: 2,
            ..weight(1, 64)
        });
        assert_eq!(short.len(), 64);
        assert_eq!(long.len(), 128);
        assert_eq!((packed.k(), packed.n()), (8, 16));
        assert_ne!(wider_fan_in, short, "fan_in scales the range");
        assert_eq!(two_rows.len(), 128);
        assert_eq!(store.counters().misses, 5);
        assert!(Arc::ptr_eq(&short, &store.run().rows(weight(1, 64))));
        assert_eq!(store.counters().hits, 1);
    }

    #[test]
    fn full_store_evicts_the_least_recently_used_entry() {
        // Room for two 100-float entries.
        let store = WeightStore::with_budget(800);
        store.run().rows(weight(1, 100));
        store.run().rows(weight(2, 100));
        store.run().rows(weight(1, 100)); // key 2 is now the older
        store.run().rows(weight(3, 100));
        let c = store.counters();
        assert_eq!(
            (c.hits, c.misses, c.evictions, c.resident_bytes),
            (1, 3, 1, 800)
        );
        store.run().rows(weight(1, 100));
        store.run().rows(weight(2, 100));
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.evictions), (2, 4, 2));
    }

    #[test]
    fn eviction_spares_the_entries_the_run_has_fetched() {
        // Room for two 100-float entries.
        let store = WeightStore::with_budget(800);
        let mut run = store.run();
        for k in [1, 2, 3] {
            run.rows(weight(k, 100));
        }
        // Key 3 would evict a fetch of this run: handed out, not stored.
        let c = store.counters();
        assert_eq!((c.misses, c.evictions, c.resident_bytes), (3, 0, 800));
        // A run that has fetched only key 2 evicts key 1, the older.
        let mut run = store.run();
        run.rows(weight(2, 100));
        run.rows(weight(3, 100));
        let c = store.counters();
        assert_eq!(
            (c.hits, c.misses, c.evictions, c.resident_bytes),
            (1, 4, 1, 800)
        );
        assert_eq!((run.hits, run.misses), (0, 2));
    }

    #[test]
    fn a_model_over_the_budget_keeps_hitting_on_later_runs() {
        use crate::executor::input_tensors;
        let g = pimflow_ir::models::toy();
        let inputs = input_tensors(&g, 1);
        let opts = ExecOptions {
            jobs: Some(1),
            ..ExecOptions::default()
        };
        let roomy = WeightStore::with_budget(usize::MAX);
        let want = roomy.run_graph(&g, &inputs, &opts).unwrap().outputs;
        let model_bytes = roomy.counters().resident_bytes;
        let store = WeightStore::with_budget(model_bytes / 2);
        let first = store.run_graph(&g, &inputs, &opts).unwrap();
        let after_first = store.counters();
        assert_eq!(after_first.hits, 0);
        let second = store.run_graph(&g, &inputs, &opts).unwrap();
        let c = store.counters();
        assert!(
            c.hits > 0,
            "the second run hits the entries that fit: {c:?}"
        );
        assert!(c.resident_bytes <= model_bytes / 2);
        assert_eq!(first.outputs, want);
        assert_eq!(second.outputs, want);
    }

    #[test]
    fn an_entry_over_the_whole_budget_is_never_stored() {
        let store = WeightStore::with_budget(400);
        store.run().rows(weight(1, 50));
        let big = store.run().rows(weight(2, 101));
        assert_eq!(big.len(), 101);
        store.run().rows(weight(2, 101));
        let c = store.counters();
        assert_eq!(
            (c.hits, c.misses, c.evictions, c.resident_bytes),
            (0, 3, 0, 200)
        );
    }
}
