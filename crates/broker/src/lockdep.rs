//! Runtime lock-order verification — the generalisation of the old
//! single-counter shard guard rail into a real lockdep subsystem.
//!
//! Every lock participating in the workspace's documented hierarchy
//! (see `docs/INVARIANTS.md`) declares a [`LockClass`]: a name plus its
//! level in the hierarchy (smaller = outer). In debug builds every
//! acquisition of a tracked lock:
//!
//! 1. **Checks the level rule** against the acquiring thread's held
//!    set: a thread holding a class at level `L` may only acquire
//!    classes at levels strictly greater than `L`. Same-level
//!    re-acquisition (shard → shard) is a violation too.
//! 2. **Records an order edge** `held → acquired` in a global graph,
//!    remembering the source locations of both sides the first time
//!    the edge is seen.
//! 3. **Runs cycle detection** over the graph: if a path
//!    `acquired ⇝ held` already exists, some other thread (or an
//!    earlier call) acquired these classes in the opposite order — a
//!    latent deadlock even if the two threads never actually collide.
//!    The report names both classes and both recorded acquisition
//!    sites.
//!
//! Violations panic by default, so the test suite proves the hierarchy
//! on every run; the test-only `with_recording` switches to
//! collect-and-return for the deadlock-injection tests. In release
//! builds the whole subsystem compiles to nothing: [`Held`] is a ZST
//! and [`acquire`] is a no-op, so tracked locks cost exactly what their
//! untracked versions do.
//!
//! [`TrackedMutex`] / [`TrackedRwLock`] wrap the vendored
//! `parking_lot` shims so a lock opts in by construction
//! (`TrackedMutex::new(&CLASS, value)`) and every `lock()` /
//! `read()` / `write()` call site stays textually unchanged — which is
//! also what lets `darkdns-lint`'s static L1 rule see the acquisition.

use parking_lot::{Mutex as PlMutex, RwLock as PlRwLock};
use std::panic::Location;
use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// One lock class in the documented hierarchy: a stable name and a
/// level (smaller = outer; a thread may only acquire strictly
/// increasing levels). Classes are `'static` and compared by address,
/// so two locks share a class by sharing the static.
#[derive(Debug)]
pub struct LockClass {
    pub name: &'static str,
    pub level: u32,
}

impl LockClass {
    pub const fn new(name: &'static str, level: u32) -> LockClass {
        LockClass { name, level }
    }

    #[cfg(debug_assertions)]
    fn id(&'static self) -> usize {
        self as *const LockClass as usize
    }
}

// ---------------------------------------------------------------------------
// Broker-crate lock classes (edge/core declare their own with the same
// levels table; see docs/INVARIANTS.md for the full catalogue).
// ---------------------------------------------------------------------------

/// `Broker`'s shard directory map (swap-on-register routing).
pub static DIRECTORY: LockClass = LockClass::new("broker.directory", 10);
/// The transport's live-connection stats registry (held while probing
/// subscriber queues, hence below them in level).
pub static CONNS: LockClass = LockClass::new("transport.conns", 14);
/// A TLD shard's journal + subscriber registry (one per shard; a
/// thread holds at most one, which same-level checking enforces).
pub static SHARD: LockClass = LockClass::new("broker.shard", 20);
/// A subscriber's message queue.
pub static SUB_QUEUE: LockClass = LockClass::new("broker.sub_queue", 30);
/// A subscriber's reactor-waker cell (held while the waker runs).
pub static SUB_WAKER: LockClass = LockClass::new("broker.sub_waker", 40);
/// A subscriber's sustained-lag SLO clock.
pub static SUB_LAG: LockClass = LockClass::new("broker.sub_lag", 42);
/// One live connection's per-TLD claim map (stats rows).
pub static CONN_CLAIMS: LockClass = LockClass::new("transport.conn_claims", 44);
/// One in-memory pipe half (its ready hook runs under it and may stage
/// reactor work, hence above the pipe in level).
pub static PIPE_HALF: LockClass = LockClass::new("transport.pipe_half", 46);
/// The reactor's pending-work mailbox (leaf: staged under queue/waker/
/// pipe locks, never holds anything itself).
pub static REACTOR_PENDING: LockClass = LockClass::new("transport.reactor_pending", 50);
/// A reactor's thread registry (its loop thread + relay join handles).
pub static THREADS: LockClass = LockClass::new("transport.threads", 70);

/// One reported hierarchy violation.
#[derive(Debug, Clone)]
pub enum Violation {
    /// Acquired a class at a level ≤ one already held by this thread.
    Level {
        held: &'static str,
        held_level: u32,
        held_site: &'static Location<'static>,
        acquired: &'static str,
        acquired_level: u32,
        acquired_site: &'static Location<'static>,
    },
    /// The new acquisition edge closes a cycle in the global order
    /// graph: some earlier acquisition took these classes in the
    /// opposite order.
    Cycle {
        held: &'static str,
        held_site: &'static Location<'static>,
        acquired: &'static str,
        acquired_site: &'static Location<'static>,
        /// The previously recorded reverse path, as `held_class ->
        /// acquired_class @ site` hops.
        reverse: Vec<String>,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Level {
                held,
                held_level,
                held_site,
                acquired,
                acquired_level,
                acquired_site,
            } => write!(
                f,
                "lockdep: level violation: acquiring `{acquired}` (level {acquired_level}) at \
                 {acquired_site} while holding `{held}` (level {held_level}, acquired at \
                 {held_site}); the hierarchy only permits strictly increasing levels"
            ),
            Violation::Cycle { held, held_site, acquired, acquired_site, reverse } => write!(
                f,
                "lockdep: lock-order cycle: acquiring `{acquired}` at {acquired_site} while \
                 holding `{held}` (acquired at {held_site}), but the opposite order was \
                 already recorded: {}",
                reverse.join(", ")
            ),
        }
    }
}

#[cfg(debug_assertions)]
mod imp {
    use super::*;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, OnceLock};

    #[derive(Clone, Copy)]
    struct HeldEntry {
        id: usize,
        name: &'static str,
        level: u32,
        site: &'static Location<'static>,
    }

    thread_local! {
        /// This thread's held tracked locks, in acquisition order.
        static HELD: RefCell<Vec<HeldEntry>> = const { RefCell::new(Vec::new()) };
    }

    #[derive(Clone, Copy)]
    struct EdgeSites {
        holder_site: &'static Location<'static>,
        acquire_site: &'static Location<'static>,
    }

    #[derive(Default)]
    struct DepState {
        /// Acquisition-order graph: `from` held while `to` acquired,
        /// with the first-seen pair of sites per edge.
        edges: HashMap<usize, HashMap<usize, EdgeSites>>,
        /// Class id → name, for reporting paths.
        names: HashMap<usize, &'static str>,
    }

    /// The global order graph. Internal to lockdep — deliberately a raw
    /// std mutex (tracking it would recurse). lock-level: 0
    fn state() -> &'static Mutex<DepState> {
        static STATE: OnceLock<Mutex<DepState>> = OnceLock::new(); // lock-level: 0
        STATE.get_or_init(|| Mutex::new(DepState::default()))
    }

    static RECORDING: AtomicBool = AtomicBool::new(false);

    /// Violations collected while recording mode is on. lock-level: 0
    fn recorded() -> &'static Mutex<Vec<Violation>> {
        static RECORDED: OnceLock<Mutex<Vec<Violation>>> = OnceLock::new(); // lock-level: 0
        RECORDED.get_or_init(|| Mutex::new(Vec::new()))
    }

    /// Serialises [`with_recording`] callers. lock-level: 0
    #[cfg(test)]
    fn record_gate() -> &'static Mutex<()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new(); // lock-level: 0
        GATE.get_or_init(|| Mutex::new(()))
    }

    fn report(v: Violation) {
        if RECORDING.load(Ordering::Relaxed) {
            recorded().lock().unwrap_or_else(|p| p.into_inner()).push(v);
        } else {
            panic!("{v}");
        }
    }

    /// Is there a path `from ⇝ to` in the order graph?
    fn path_exists(st: &DepState, from: usize, to: usize) -> bool {
        let mut stack = vec![from];
        let mut seen = vec![from];
        while let Some(node) = stack.pop() {
            if node == to {
                return true;
            }
            if let Some(next) = st.edges.get(&node) {
                for &n in next.keys() {
                    if !seen.contains(&n) {
                        seen.push(n);
                        stack.push(n);
                    }
                }
            }
        }
        false
    }

    /// Describe the recorded path `from ⇝ to` hop by hop.
    fn describe_path(st: &DepState, from: usize, to: usize) -> Vec<String> {
        // Depth-first with parent tracking; graphs here are tiny.
        let mut parents: HashMap<usize, usize> = HashMap::new();
        let mut stack = vec![from];
        let mut seen = vec![from];
        while let Some(node) = stack.pop() {
            if node == to {
                break;
            }
            if let Some(next) = st.edges.get(&node) {
                for &n in next.keys() {
                    if !seen.contains(&n) {
                        seen.push(n);
                        parents.insert(n, node);
                        stack.push(n);
                    }
                }
            }
        }
        let mut hops = Vec::new();
        let mut node = to;
        while let Some(&parent) = parents.get(&node) {
            let name = |id: usize| st.names.get(&id).copied().unwrap_or("?");
            let site = st
                .edges
                .get(&parent)
                .and_then(|m| m.get(&node))
                .map(|e| format!("{} -> {}", e.holder_site, e.acquire_site))
                .unwrap_or_default();
            hops.push(format!("`{}` held -> `{}` acquired ({site})", name(parent), name(node)));
            node = parent;
            if node == from {
                break;
            }
        }
        hops.reverse();
        hops
    }

    pub(super) fn acquire_at(
        class: &'static LockClass,
        site: &'static Location<'static>,
    ) -> Held {
        let held_snapshot: Vec<HeldEntry> = HELD.with(|h| h.borrow().clone());
        let id = class.id();
        for held in &held_snapshot {
            if class.level <= held.level {
                report(Violation::Level {
                    held: held.name,
                    held_level: held.level,
                    held_site: held.site,
                    acquired: class.name,
                    acquired_level: class.level,
                    acquired_site: site,
                });
            }
        }
        if !held_snapshot.is_empty() {
            let mut st = state().lock().unwrap_or_else(|p| p.into_inner());
            st.names.insert(id, class.name);
            for held in &held_snapshot {
                st.names.insert(held.id, held.name);
                // Cycle check BEFORE inserting the new edge, so the
                // reported reverse path is the pre-existing evidence.
                if held.id != id && path_exists(&st, id, held.id) {
                    let reverse = describe_path(&st, id, held.id);
                    report(Violation::Cycle {
                        held: held.name,
                        held_site: held.site,
                        acquired: class.name,
                        acquired_site: site,
                        reverse,
                    });
                }
                st.edges
                    .entry(held.id)
                    .or_default()
                    .entry(id)
                    .or_insert(EdgeSites { holder_site: held.site, acquire_site: site });
            }
        }
        HELD.with(|h| {
            h.borrow_mut().push(HeldEntry { id, name: class.name, level: class.level, site })
        });
        Held { id }
    }

    /// RAII token for one tracked acquisition; releases on drop.
    #[derive(Debug)]
    pub struct Held {
        id: usize,
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD.with(|h| {
                let mut held = h.borrow_mut();
                if let Some(pos) = held.iter().rposition(|e| e.id == self.id) {
                    held.remove(pos);
                }
            });
        }
    }

    pub fn held_count(class: &'static LockClass) -> usize {
        let id = class.id();
        HELD.with(|h| h.borrow().iter().filter(|e| e.id == id).count())
    }

    /// Run `f` with violations collected instead of panicking, and
    /// return them: the deadlock-injection tests' hook.
    #[cfg(test)]
    pub(super) fn with_recording<R>(f: impl FnOnce() -> R) -> (R, Vec<Violation>) {
        let _gate = record_gate().lock().unwrap_or_else(|p| p.into_inner());
        recorded().lock().unwrap_or_else(|p| p.into_inner()).clear();
        RECORDING.store(true, Ordering::SeqCst);
        let result = f();
        RECORDING.store(false, Ordering::SeqCst);
        let violations =
            std::mem::take(&mut *recorded().lock().unwrap_or_else(|p| p.into_inner()));
        (result, violations)
    }
}

#[cfg(not(debug_assertions))]
mod imp {
    use super::*;

    /// Release builds: a zero-sized no-op token.
    #[derive(Debug)]
    pub struct Held;

    #[inline(always)]
    pub(super) fn acquire_at(_class: &'static LockClass, _site: &'static Location<'static>) -> Held {
        Held
    }

    #[inline(always)]
    pub fn held_count(_class: &'static LockClass) -> usize {
        0
    }
}

pub use imp::Held;

/// Record the acquisition of `class` by the current thread, checking
/// the level rule and the global order graph. Returns the RAII release
/// token; keep it alive exactly as long as the lock guard. No-op (and
/// zero-sized) in release builds.
#[track_caller]
pub fn acquire(class: &'static LockClass) -> Held {
    imp::acquire_at(class, Location::caller())
}

/// How many acquisitions of `class` the current thread holds. Always 0
/// in release builds.
pub fn held_count(class: &'static LockClass) -> usize {
    imp::held_count(class)
}

// ---------------------------------------------------------------------------
// Tracked lock wrappers
// ---------------------------------------------------------------------------

/// A mutex registered with lockdep: every `lock()` checks the
/// hierarchy. Wraps the vendored `parking_lot::Mutex` (poison-free
/// API), so call sites are unchanged.
#[derive(Debug)]
pub struct TrackedMutex<T> {
    class: &'static LockClass,
    // The wrapped lock itself; its hierarchy level is whatever the
    // runtime class carries. lock-level: class
    inner: PlMutex<T>,
}

impl<T> TrackedMutex<T> {
    pub fn new(class: &'static LockClass, value: T) -> Self {
        TrackedMutex { class, inner: PlMutex::new(value) }
    }

    #[track_caller]
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        let held = acquire(self.class);
        TrackedMutexGuard { guard: self.inner.lock(), _held: held }
    }

    /// Non-blocking acquire: `None` if the lock is held elsewhere.
    /// A failed try is not an acquisition, so lockdep only records the
    /// success path.
    #[track_caller]
    pub fn try_lock(&self) -> Option<TrackedMutexGuard<'_, T>> {
        let guard = self.inner.try_lock()?;
        let held = acquire(self.class);
        Some(TrackedMutexGuard { guard, _held: held })
    }
}

/// Guard for [`TrackedMutex`]: the inner std guard plus the lockdep
/// release token.
#[derive(Debug)]
pub struct TrackedMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    _held: Held,
}

impl<T> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A reader-writer lock registered with lockdep; both halves check the
/// class (a read acquisition orders against other classes exactly like
/// a write).
#[derive(Debug)]
pub struct TrackedRwLock<T> {
    class: &'static LockClass,
    // The wrapped lock; level carried by the runtime class. lock-level: class
    inner: PlRwLock<T>,
}

impl<T> TrackedRwLock<T> {
    pub fn new(class: &'static LockClass, value: T) -> Self {
        TrackedRwLock { class, inner: PlRwLock::new(value) }
    }

    #[track_caller]
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        let held = acquire(self.class);
        TrackedReadGuard { guard: self.inner.read(), _held: held }
    }

    #[track_caller]
    pub fn write(&self) -> TrackedWriteGuard<'_, T> {
        let held = acquire(self.class);
        TrackedWriteGuard { guard: self.inner.write(), _held: held }
    }
}

/// Shared-half guard for [`TrackedRwLock`].
#[derive(Debug)]
pub struct TrackedReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    _held: Held,
}

impl<T> std::ops::Deref for TrackedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Exclusive-half guard for [`TrackedRwLock`].
#[derive(Debug)]
pub struct TrackedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    _held: Held,
}

impl<T> std::ops::Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::imp::with_recording;
    use super::*;

    #[test]
    fn nested_acquisition_in_level_order_is_silent() {
        static OUTER: LockClass = LockClass::new("test.legal_outer", 1);
        static INNER: LockClass = LockClass::new("test.legal_inner", 2);
        let ((), violations) = with_recording(|| {
            let _a = acquire(&OUTER);
            let _b = acquire(&INNER);
        });
        assert!(violations.is_empty(), "legal order must not report: {violations:?}");
    }

    #[test]
    fn level_inversion_is_reported_with_both_sites() {
        static OUTER: LockClass = LockClass::new("test.level_outer", 1);
        static INNER: LockClass = LockClass::new("test.level_inner", 2);
        let ((), violations) = with_recording(|| {
            let _b = acquire(&INNER);
            let _a = acquire(&OUTER);
        });
        assert_eq!(violations.len(), 1);
        let text = violations[0].to_string();
        assert!(text.contains("test.level_outer") && text.contains("test.level_inner"));
        assert!(text.contains("lockdep.rs"), "report must carry acquisition sites: {text}");
    }

    #[test]
    fn same_class_reacquisition_is_a_violation() {
        static ONLY: LockClass = LockClass::new("test.same_class", 7);
        let ((), violations) = with_recording(|| {
            let _a = acquire(&ONLY);
            let _b = acquire(&ONLY);
        });
        assert_eq!(violations.len(), 1, "shard -> shard style nesting must be reported");
    }

    #[test]
    fn cross_thread_inverted_order_reports_a_cycle() {
        // Unleveled ordering cannot exist (levels are mandatory), so
        // give both classes the same... no: distinct levels would trip
        // the level rule on thread 2 as well. Use classes whose levels
        // make each *individual* nesting legal-looking to the level
        // rule is impossible with a total order — which is the point of
        // the graph: catch inversions among classes checked only
        // against each other. Here we use two classes at far-apart
        // levels and invert them on the second thread: the level rule
        // fires there, and the cycle rule *also* names the first
        // thread's recorded edge — that pairing is what this test pins.
        static A: LockClass = LockClass::new("test.cycle_a", 100);
        static B: LockClass = LockClass::new("test.cycle_b", 101);
        let ((), violations) = with_recording(|| {
            let t1 = std::thread::spawn(|| {
                let _a = acquire(&A);
                let _b = acquire(&B);
            });
            t1.join().unwrap();
            let t2 = std::thread::spawn(|| {
                let _b = acquire(&B);
                let _a = acquire(&A);
            });
            t2.join().unwrap();
        });
        assert!(
            violations.iter().any(|v| matches!(v, Violation::Cycle { .. })),
            "inverted cross-thread order must report a cycle: {violations:?}"
        );
        let cycle = violations
            .iter()
            .find(|v| matches!(v, Violation::Cycle { .. }))
            .unwrap()
            .to_string();
        assert!(
            cycle.contains("test.cycle_a") && cycle.contains("test.cycle_b"),
            "cycle report must name both classes: {cycle}"
        );
    }

    #[test]
    fn release_restores_the_held_set() {
        static C: LockClass = LockClass::new("test.release", 3);
        assert_eq!(held_count(&C), 0);
        {
            let _a = acquire(&C);
            assert_eq!(held_count(&C), 1);
        }
        assert_eq!(held_count(&C), 0);
    }
}
