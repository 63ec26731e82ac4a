//! Training deferred updates ahead of their readers, on helper threads.
//!
//! A deferred update ([`FlData::deferred`](crate::update::FlData)) is its
//! [`Recipe`]: a pure function of the global model, the shard and the
//! config that draws no random numbers, so every thread that trains it
//! gets the same bits. The simulation thread makes recipes in bursts (on
//! `fl_multiapp` every node trains every app at the same instant) and
//! reads each one later, when a parent folds it in or the root takes the
//! aggregate. In between, helper threads train the oldest recipes, so a
//! reader often finds its result waiting.
//!
//! Helpers use only the cores the simulation threads leave idle: one per
//! core beside the one simulation thread a run always has, less one per
//! further thread that holds a [`Simulating`] guard (a trial runner's
//! `--jobs` workers, each while it runs trials). A helper starts when the first recipe is deferred while its
//! core is idle, or not at all; with no idle core, a recipe is left bare
//! ([`Deferred::Inline`]) and its reader trains it, as if this module did
//! not exist.
//!
//! A queued recipe sits in a [`Pending`] cell, and whichever thread claims
//! the cell first trains it:
//!
//! * a reader that finds the cell unclaimed trains it inline;
//! * a reader that finds a helper training it waits for that result;
//! * a reader that finds a result takes it.
//!
//! A cell read a second time (a clone made by chaos duplication) or one
//! whose helper panicked is trained inline by its reader, so that panic
//! resurfaces on the simulation thread. What a reader gets is always
//! `Recipe::train(None)`, whichever thread ran it and whenever. The
//! simulation thread never reads anything else from a helper: event
//! order, RNG draws, combine order, wire sizes and simulated time are all
//! decided before, and without, any helper (DESIGN.md §16).
//!
//! Trained results that no reader has taken are capped at
//! [`BUDGET_BYTES`] in all; a helper whose next result would pass the
//! cap waits for a reader. Every simulation thread of a process defers to
//! the one [`Trainer::global`] pool.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "DET007: the test-only counts of who trained a recipe; tests compare them at barriers or after the threads stop, and no build outside tests has them"
)]
use std::sync::atomic::AtomicU64;
#[cfg(test)]
use std::sync::atomic::Ordering;
#[expect(
    clippy::disallowed_types,
    reason = "the queue's and the cells' locks decide only which thread trains a recipe; every thread gets the same bits"
)]
use std::sync::Mutex;
use std::sync::{Arc, Condvar, MutexGuard, OnceLock, PoisonError, Weak};
use std::thread::{self, JoinHandle};

use crate::update::Recipe;

/// The cap on trained results no reader has taken yet: 128 updates of
/// table3's model (4,067 parameters, 16,268 B). On `fl_multiapp`, a cap
/// of four results let helpers train 7.6 % of the recipes and saved
/// nothing; 64 results, about 50 %; 128, about 55 % (DESIGN.md §8).
pub(crate) const BUDGET_BYTES: usize = 2 << 20;

/// The shortest queue that is swept for dead and claimed entries.
const SWEEP_MIN: usize = 64;

/// `Mutex::lock`, recovering the guard from a poisoned lock: every
/// critical section in this module is a few assignments that leave the
/// data valid at each step, and none of them can panic.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "a helper's lock guards only its queue or one cell's state; the simulation thread reads nothing from it but Recipe::train's bits, which do not depend on which thread trained them or when"
)]
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A pool of helper threads that train deferred updates ahead of their
/// readers.
pub(crate) struct Trainer {
    pool: Arc<Pool>,
}

/// What the helpers and the cells of one [`Trainer`] share.
#[expect(
    clippy::disallowed_types,
    reason = "the queue lock orders helpers' claims only; which helper trains which recipe cannot reach simulated state. Test builds add the DET007 counts of who trained a recipe, read by tests alone"
)]
struct Pool {
    queue: Mutex<Queue>,
    /// Helpers sleep here until a cell is queued, budget is returned, a
    /// core falls idle, or the pool stops.
    wake: Condvar,
    /// The cap on bytes of results trained and not yet taken.
    budget: usize,
    /// Recipes trained by helpers, by readers of queued cells inline,
    /// and reader waits.
    #[cfg(test)]
    ahead: AtomicU64,
    #[cfg(test)]
    inline: AtomicU64,
    #[cfg(test)]
    waited: AtomicU64,
    /// A helper that has claimed a cell waits here twice, before it
    /// trains: once to say it claimed, once to be let go.
    #[cfg(test)]
    gate: Option<Arc<std::sync::Barrier>>,
}

struct Queue {
    /// Cells in creation order; a helper trains the front one next.
    cells: VecDeque<Weak<Pending>>,
    /// Bytes of results trained, or being trained, and not yet taken.
    held: usize,
    /// The queue length at which the next push sweeps out dead and
    /// claimed entries.
    sweep_at: usize,
    /// Helpers asleep on [`Pool::wake`].
    sleeping: usize,
    stop: bool,
    /// Cores beside the one simulation thread a run always has; lowered
    /// to the helpers started if the OS refuses a thread.
    spare: usize,
    /// Threads holding a [`Simulating`] guard; while there are any, the
    /// thread that started them waits.
    workers: usize,
    /// The helpers started, in order; helper `i` claims cells while
    /// `i < awake()`.
    helpers: Vec<JoinHandle<()>>,
}

impl Queue {
    /// How many helpers may train: one per core no simulation thread uses.
    fn awake(&self) -> usize {
        self.spare.saturating_sub(self.workers.saturating_sub(1))
    }
}

/// A deferred update's values, trained or taken when they are read.
#[derive(Clone, Debug)]
pub(crate) enum Deferred {
    /// No core was idle for a helper: the reader trains the recipe.
    Inline(Arc<Recipe>),
    /// Queued for the helpers.
    Queued(Arc<Pending>),
}

impl Deferred {
    /// The bits of `Recipe::train(None)`, whoever trained them.
    pub(crate) fn take(&self) -> Vec<f32> {
        match self {
            Deferred::Inline(recipe) => recipe.train(None).0.weighted,
            Deferred::Queued(cell) => cell.take(),
        }
    }
}

/// One queued update: its recipe and who has claimed it.
#[expect(
    clippy::disallowed_types,
    reason = "a cell's lock decides only which thread trains its recipe; every thread gets the same bits"
)]
pub(crate) struct Pending {
    recipe: Recipe,
    pool: Arc<Pool>,
    state: Mutex<State>,
    /// Readers sleep here while a helper trains the cell.
    done: Condvar,
}

enum State {
    /// Nobody has claimed the cell; the next helper or reader may.
    Queued,
    /// A helper is training it; readers wait.
    Training,
    /// A helper trained it; the first reader takes the values.
    Trained(Vec<f32>),
    /// A reader claimed it or took its result, or its helper panicked:
    /// every further read trains inline.
    Inline,
}

/// Counts one recipe trained ahead or inline, or one reader wait.
#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "DET007: a test-only count; SeqCst, and read by tests alone"
)]
fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::SeqCst);
}

/// Counts one of several threads that simulate at once, such as a trial
/// runner's worker, until it is dropped; the thread that started them is
/// taken to wait meanwhile. Deferred FL training uses only the cores the
/// counted threads leave idle, so none while they are as many as the
/// cores, and a worker that runs out of trials frees its core at once.
#[must_use = "the thread is counted only while the guard lives"]
pub struct Simulating {
    pool: Arc<Pool>,
}

impl Simulating {
    /// Counts the calling thread in this process's trainer.
    pub fn worker() -> Simulating {
        Trainer::global().simulating()
    }
}

impl Drop for Simulating {
    fn drop(&mut self) {
        lock(&self.pool.queue).workers -= 1;
        self.pool.wake.notify_all();
    }
}

impl Trainer {
    /// The process's pool: one helper at most per core beside the
    /// simulation thread's (`available_parallelism − 1`), none on one
    /// core. There a helper only takes turns with its reader, and on
    /// `fl_multiapp` pinned to one core it cost 3.7 % of `run_s`
    /// (DESIGN.md §8). No helper starts before a recipe is deferred.
    pub(crate) fn global() -> &'static Trainer {
        static GLOBAL: OnceLock<Trainer> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = thread::available_parallelism().map_or(1, usize::from);
            Trainer::new(Pool::new(BUDGET_BYTES, cores - 1))
        })
    }

    fn new(pool: Pool) -> Self {
        Trainer {
            pool: Arc::new(pool),
        }
    }

    fn simulating(&self) -> Simulating {
        lock(&self.pool.queue).workers += 1;
        Simulating {
            pool: Arc::clone(&self.pool),
        }
    }

    /// Starts helpers until one works on each idle core. Helpers are
    /// optional, so a thread the OS refuses lowers the pool's cores to
    /// the helpers it has, and readers train the rest.
    #[expect(
        clippy::disallowed_methods,
        reason = "a helper trains recipes, pure functions whose bits the simulation thread consumes in its own event order"
    )]
    fn start_helpers(&self, queue: &mut Queue) {
        while queue.helpers.len() < queue.awake() {
            let index = queue.helpers.len();
            let pool = Arc::clone(&self.pool);
            let started = thread::Builder::new()
                .name(format!("totoro-ahead-{index}"))
                .spawn(move || pool.help(index));
            match started {
                Ok(helper) => queue.helpers.push(helper),
                Err(_) => queue.spare = index,
            }
        }
    }

    /// Wraps `recipe` for its reader: queued for the helpers when a core
    /// is idle for one, otherwise left bare for the reader to train.
    #[expect(
        clippy::disallowed_types,
        reason = "a cell's lock decides only which thread trains its recipe; every thread gets the same bits"
    )]
    pub(crate) fn defer(&self, recipe: Recipe) -> Deferred {
        // A result larger than the whole budget is left to its reader.
        if recipe.config.model_params() * std::mem::size_of::<f32>() > self.pool.budget {
            return Deferred::Inline(Arc::new(recipe));
        }
        let mut queue = lock(&self.pool.queue);
        self.start_helpers(&mut queue);
        if queue.awake() == 0 {
            return Deferred::Inline(Arc::new(recipe));
        }
        let cell = Arc::new(Pending {
            recipe,
            pool: Arc::clone(&self.pool),
            state: Mutex::new(State::Queued),
            done: Condvar::new(),
        });
        self.pool.push(&mut queue, Arc::downgrade(&cell));
        Deferred::Queued(cell)
    }
}

impl Drop for Trainer {
    fn drop(&mut self) {
        let helpers = {
            let mut queue = lock(&self.pool.queue);
            queue.stop = true;
            std::mem::take(&mut queue.helpers)
        };
        self.pool.wake.notify_all();
        // A test that failed may have left its helper waiting at the gate.
        if thread::panicking() {
            return;
        }
        for helper in helpers {
            let joined = helper.join();
            assert!(joined.is_ok(), "a helper panicked outside Recipe::train");
        }
    }
}

impl Pool {
    /// A pool with `spare` cores for helpers and a `budget` of bytes.
    #[expect(
        clippy::disallowed_types,
        reason = "the queue lock orders helpers' claims only; which helper trains which recipe cannot reach simulated state. Test builds add the DET007 counts of who trained a recipe, read by tests alone"
    )]
    fn new(budget: usize, spare: usize) -> Self {
        Pool {
            queue: Mutex::new(Queue {
                cells: VecDeque::new(),
                held: 0,
                sweep_at: SWEEP_MIN,
                sleeping: 0,
                stop: false,
                spare,
                workers: 0,
                helpers: Vec::new(),
            }),
            wake: Condvar::new(),
            budget,
            #[cfg(test)]
            ahead: AtomicU64::new(0),
            #[cfg(test)]
            inline: AtomicU64::new(0),
            #[cfg(test)]
            waited: AtomicU64::new(0),
            #[cfg(test)]
            gate: None,
        }
    }

    /// Queues a new cell. A queue that has doubled since the last sweep
    /// drops its dead and claimed entries, so it stays within twice the
    /// live, unclaimed cells (or [`SWEEP_MIN`]) even while the budget is
    /// full and no helper pops.
    ///
    /// No cell in the queue holds a result (a helper pops a cell before
    /// it trains it), so the handles dropped here under the queue lock
    /// never return budget, which takes the same lock.
    fn push(&self, queue: &mut Queue, cell: Weak<Pending>) {
        if queue.cells.len() >= queue.sweep_at {
            queue
                .cells
                .retain(|c| c.upgrade().is_some_and(|c| c.is_queued()));
            queue.sweep_at = (2 * queue.cells.len()).max(SWEEP_MIN);
        }
        queue.cells.push_back(cell);
        if queue.sleeping > 0 {
            self.wake.notify_all();
        }
    }

    /// Helper `index`'s claim on the oldest unclaimed cell, once the
    /// helper's core is idle and the cell's result fits the budget; `None`
    /// once the pool stops. Dead and claimed cells at the front are
    /// dropped whether or not the budget has room.
    fn claim(&self, index: usize) -> Option<Arc<Pending>> {
        let mut queue = lock(&self.queue);
        loop {
            if queue.stop {
                return None;
            }
            while let Some(front) = queue.cells.front().map(Weak::upgrade) {
                if index >= queue.awake() {
                    break;
                }
                match front.filter(|c| c.is_queued()) {
                    Some(cell) if queue.held + cell.bytes() > self.budget => break,
                    Some(cell) => {
                        queue.cells.pop_front();
                        if cell.start() {
                            queue.held += cell.bytes();
                            return Some(cell);
                        }
                    }
                    None => {
                        queue.cells.pop_front();
                    }
                }
            }
            queue.sleeping += 1;
            queue = self
                .wake
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
            queue.sleeping -= 1;
        }
    }

    /// Helper `index`'s loop: claim, train, publish, until the pool stops.
    fn help(&self, index: usize) {
        while let Some(cell) = self.claim(index) {
            #[cfg(test)]
            if let Some(gate) = &self.gate {
                gate.wait();
                gate.wait();
            }
            let trained =
                panic::catch_unwind(AssertUnwindSafe(|| cell.recipe.train(None).0.weighted));
            #[cfg(test)]
            if trained.is_ok() {
                bump(&self.ahead);
            }
            cell.finish(trained.ok());
        }
    }

    /// Returns `bytes` of budget and wakes the helpers waiting for it.
    fn release(&self, bytes: usize) {
        let mut queue = lock(&self.queue);
        queue.held -= bytes;
        if queue.sleeping > 0 {
            self.wake.notify_all();
        }
    }
}

impl Pending {
    /// The size of the trained values, charged to the budget.
    fn bytes(&self) -> usize {
        self.recipe.config.model_params() * std::mem::size_of::<f32>()
    }

    fn is_queued(&self) -> bool {
        matches!(*lock(&self.state), State::Queued)
    }

    /// A helper's claim: whether the cell was still unclaimed.
    fn start(&self) -> bool {
        let mut state = lock(&self.state);
        let queued = matches!(*state, State::Queued);
        if queued {
            *state = State::Training;
        }
        queued
    }

    /// A helper's result: the trained values, or `None` when training
    /// panicked (the reader then retrains and meets the panic itself).
    fn finish(&self, values: Option<Vec<f32>>) {
        if values.is_none() {
            self.pool.release(self.bytes());
        }
        *lock(&self.state) = values.map_or(State::Inline, State::Trained);
        self.done.notify_all();
    }

    /// The update's values: the helper's result if one is waiting (or
    /// being trained), otherwise trained here. Always the bits of
    /// `Recipe::train(None)`.
    fn take(&self) -> Vec<f32> {
        let mut state = lock(&self.state);
        loop {
            match std::mem::replace(&mut *state, State::Inline) {
                State::Training => {
                    *state = State::Training;
                    #[cfg(test)]
                    bump(&self.pool.waited);
                    state = self
                        .done
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                State::Trained(values) => {
                    drop(state);
                    self.pool.release(self.bytes());
                    return values;
                }
                State::Queued | State::Inline => {
                    drop(state);
                    #[cfg(test)]
                    bump(&self.pool.inline);
                    return self.recipe.train(None).0.weighted;
                }
            }
        }
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        let state = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        if matches!(state, State::Trained(_)) {
            self.pool.release(self.bytes());
        }
    }
}

impl fmt::Debug for Pending {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pending")
            .field("recipe", &self.recipe)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use totoro_ml::{Compression, Privacy};
    use totoro_simnet::Shared;

    use super::*;
    use crate::update::tests::recipe;
    use crate::update::FlData;

    fn plain(addr: usize) -> Recipe {
        recipe(addr, Privacy::None, Compression::None)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The bits every read of `plain(addr)` must give.
    fn want(addr: usize) -> Vec<u32> {
        bits(&plain(addr).train(None).0.weighted)
    }

    fn bytes() -> usize {
        plain(1).config.model_params() * 4
    }

    /// Yields until `done`; a bug that keeps it false fails the test
    /// instead of hanging it.
    fn wait_until(mut done: impl FnMut() -> bool) {
        for _ in 0..1_000_000 {
            if done() {
                return;
            }
            thread::yield_now();
        }
        panic!("the condition never held");
    }

    impl Pool {
        /// Recipes trained by helpers, by readers inline, and reader waits.
        fn counts(&self) -> [u64; 3] {
            [&self.ahead, &self.inline, &self.waited].map(|c| c.load(Ordering::SeqCst))
        }

        fn held(&self) -> usize {
            lock(&self.queue).held
        }

        fn queued(&self) -> usize {
            lock(&self.queue).cells.len()
        }

        fn helpers(&self) -> usize {
            lock(&self.queue).helpers.len()
        }
    }

    impl Deferred {
        /// The queued cell; panics on a bare recipe.
        fn cell(&self) -> &Pending {
            match self {
                Deferred::Queued(cell) => cell,
                Deferred::Inline(_) => panic!("the recipe was not queued"),
            }
        }

        fn phase(&self) -> &'static str {
            match *lock(&self.cell().state) {
                State::Queued => "queued",
                State::Training => "training",
                State::Trained(_) => "trained",
                State::Inline => "inline",
            }
        }
    }

    /// A trainer with one core for one helper, which starts on the first
    /// deferred recipe.
    fn one_helper(budget: usize) -> Trainer {
        Trainer::new(Pool::new(budget, 1))
    }

    /// A one-helper trainer whose helper stops at `gate` after each claim.
    fn gated() -> (Trainer, Arc<Barrier>) {
        let gate = Arc::new(Barrier::new(2));
        let trainer = Trainer::new(Pool {
            gate: Some(Arc::clone(&gate)),
            ..Pool::new(BUDGET_BYTES, 1)
        });
        (trainer, gate)
    }

    #[test]
    fn a_read_before_a_helper_claims_trains_inline() {
        let (trainer, gate) = gated();
        let busy = trainer.defer(plain(1));
        gate.wait();
        // The helper holds `busy`, so `early` is read unclaimed.
        let early = trainer.defer(plain(2));
        assert_eq!(bits(&early.take()), want(2));
        assert_eq!(trainer.pool.counts(), [0, 1, 0]);
        // The helper then finds the entry claimed, drops it and trains
        // nothing more.
        gate.wait();
        wait_until(|| busy.phase() == "trained" && trainer.pool.queued() == 0);
        assert_eq!(bits(&busy.take()), want(1));
        assert_eq!(trainer.pool.counts(), [1, 1, 0]);
        assert_eq!(trainer.pool.held(), 0);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test's reader thread; the test forces the interleaving with a barrier"
    )]
    fn a_read_while_a_helper_trains_waits_for_the_same_bits() {
        let (trainer, gate) = gated();
        let cell = trainer.defer(plain(1));
        gate.wait();
        assert_eq!(cell.phase(), "training");
        let reader = thread::spawn({
            let cell = cell.clone();
            move || cell.take()
        });
        wait_until(|| trainer.pool.counts()[2] >= 1);
        gate.wait();
        let got = reader.join().expect("the reader does not panic");
        assert_eq!(bits(&got), want(1));
        assert_eq!(trainer.pool.counts()[..2], [1, 0]);
        assert_eq!(trainer.pool.held(), 0);
    }

    #[test]
    fn a_read_after_training_takes_the_result_and_returns_the_budget() {
        let trainer = one_helper(BUDGET_BYTES);
        let cell = trainer.defer(plain(1));
        wait_until(|| cell.phase() == "trained");
        assert_eq!(trainer.pool.held(), bytes());
        assert_eq!(bits(&cell.take()), want(1));
        assert_eq!(trainer.pool.held(), 0);
        assert_eq!(trainer.pool.counts(), [1, 0, 0]);
    }

    #[test]
    fn a_second_clone_retrains_to_the_same_bits() {
        let trainer = one_helper(BUDGET_BYTES);
        let cell = trainer.defer(plain(1));
        let twin = cell.clone();
        wait_until(|| cell.phase() == "trained");
        assert_eq!(bits(&cell.take()), want(1));
        assert_eq!(bits(&twin.take()), want(1));
        assert_eq!(trainer.pool.counts(), [1, 1, 0]);
    }

    #[test]
    fn a_cell_dropped_unread_returns_its_budget() {
        let trainer = one_helper(BUDGET_BYTES);
        let cell = trainer.defer(plain(1));
        wait_until(|| cell.phase() == "trained");
        assert_eq!(trainer.pool.held(), bytes());
        drop(cell);
        assert_eq!(trainer.pool.held(), 0);

        // Dropped while its helper trains it: the helper's handle is the
        // last, and dropping it returns the budget.
        let (trainer, gate) = gated();
        let cell = trainer.defer(plain(2));
        gate.wait();
        drop(cell);
        gate.wait();
        wait_until(|| trainer.pool.counts()[0] == 1 && trainer.pool.held() == 0);
    }

    #[test]
    fn trained_but_unread_bytes_never_exceed_the_budget() {
        let trainer = one_helper(2 * bytes());
        let cells: Vec<_> = (1..=4).map(|a| trainer.defer(plain(a))).collect();
        let phases = || cells.iter().map(Deferred::phase).collect::<Vec<_>>();
        wait_until(|| phases()[..2] == ["trained", "trained"]);
        for _ in 0..100 {
            thread::yield_now();
        }
        assert_eq!(phases(), ["trained", "trained", "queued", "queued"]);
        assert_eq!(trainer.pool.held(), 2 * bytes());
        // A read makes room for one more, in creation order.
        assert_eq!(bits(&cells[0].take()), want(1));
        wait_until(|| cells[2].phase() == "trained");
        assert_eq!(phases()[1..], ["trained", "trained", "queued"]);
        assert_eq!(trainer.pool.held(), 2 * bytes());
        // Dropping a trained cell makes room, so the helper may claim
        // the last one before it too is dropped.
        drop(cells);
        wait_until(|| trainer.pool.held() == 0);
    }

    #[test]
    fn dead_and_claimed_entries_leave_the_queue_while_the_budget_is_full() {
        let trainer = one_helper(bytes());
        let first = trainer.defer(plain(1));
        wait_until(|| first.phase() == "trained");
        // Live and unclaimed, but over budget: it holds the front.
        let kept = trainer.defer(plain(2));
        let mut claimed = Vec::new();
        for i in 0..3 * SWEEP_MIN {
            let cell = trainer.defer(plain(3));
            if i % 16 == 0 {
                assert_eq!(bits(&cell.take()), want(3));
                claimed.push(cell);
            }
            assert!(
                trainer.pool.queued() <= SWEEP_MIN,
                "{}",
                trainer.pool.queued()
            );
        }
        assert_eq!(kept.phase(), "queued");
        assert_eq!(trainer.pool.counts()[0], 1);
        // Room again: the kept cell is trained next.
        assert_eq!(bits(&first.take()), want(1));
        wait_until(|| kept.phase() == "trained");
        assert_eq!(bits(&kept.take()), want(2));
    }

    #[test]
    fn a_helper_panic_resurfaces_on_the_reader_and_the_pool_keeps_working() {
        let message = |payload: Box<dyn std::any::Any + Send>| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .expect("a string panic payload")
        };
        let broken = || Recipe {
            global: Shared::new(FlData::model(vec![0.0; 3])),
            ..plain(1)
        };
        let direct = panic::catch_unwind(AssertUnwindSafe(|| broken().train(None)));
        let direct = message(direct.expect_err("a model of the wrong size panics"));

        let (trainer, gate) = gated();
        let cell = trainer.defer(broken());
        gate.wait();
        gate.wait();
        wait_until(|| cell.phase() == "inline");
        assert_eq!(trainer.pool.held(), 0);
        let read = panic::catch_unwind(AssertUnwindSafe(|| cell.take()));
        assert_eq!(message(read.expect_err("the reader retrains")), direct);

        let good = trainer.defer(plain(1));
        gate.wait();
        gate.wait();
        wait_until(|| good.phase() == "trained");
        assert_eq!(bits(&good.take()), want(1));
        assert_eq!(trainer.pool.counts(), [1, 1, 0]);
    }

    #[test]
    fn no_idle_core_leaves_the_recipe_bare_and_starts_no_helper() {
        // One core: the simulation thread's.
        let lone = Trainer::new(Pool::new(BUDGET_BYTES, 0));
        let bare = lone.defer(plain(1));
        assert!(matches!(bare, Deferred::Inline(_)));
        assert_eq!(bits(&bare.take()), want(1));
        assert_eq!((lone.pool.helpers(), lone.pool.queued()), (0, 0));

        // Two cores, both simulating.
        let trainer = one_helper(BUDGET_BYTES);
        let both = [trainer.simulating(), trainer.simulating()];
        let bare = trainer.defer(plain(2));
        assert!(matches!(bare, Deferred::Inline(_)));
        assert_eq!(bits(&bare.take()), want(2));
        assert_eq!((trainer.pool.helpers(), trainer.pool.queued()), (0, 0));
        // One simulation thread again: the core is idle for a helper.
        drop(both);
        let cell = trainer.defer(plain(3));
        wait_until(|| cell.phase() == "trained");
        assert_eq!(trainer.pool.helpers(), 1);
        assert_eq!(bits(&cell.take()), want(3));
        assert_eq!(trainer.pool.counts(), [1, 0, 0]);
    }

    #[test]
    fn a_helper_whose_core_turns_busy_stops_claiming() {
        let (trainer, gate) = gated();
        let first = trainer.defer(plain(1));
        gate.wait();
        let queued = trainer.defer(plain(2));
        // A second simulation thread takes the helper's core while the
        // helper trains `first`: it finishes that one and claims no more.
        let [one, two] = [trainer.simulating(), trainer.simulating()];
        gate.wait();
        wait_until(|| first.phase() == "trained");
        for _ in 0..100 {
            thread::yield_now();
        }
        assert_eq!(queued.phase(), "queued");
        // One of them runs out of work: its core is idle again, and the
        // helper resumes.
        drop(one);
        wait_until(|| queued.phase() == "training");
        gate.wait();
        gate.wait();
        wait_until(|| queued.phase() == "trained");
        assert_eq!(bits(&queued.take()), want(2));
        assert_eq!(bits(&first.take()), want(1));
        assert_eq!(trainer.pool.counts(), [2, 0, 0]);
        drop(two);
    }
}
