//! One way to run keyed work on threads: [`WorkerSet`] and
//! [`StickyRouter`].
//!
//! The paper's analyses are per volume, so every parallel stage has the
//! same shape: a producer keys work by volume, pins each key to one
//! worker, and feeds that worker over a bounded channel. The streaming
//! shards (`cbs-core`), the sweep lane threads (`cbs-cache`) and the
//! replay issue lanes (`cbs-replay`) sit on the two types here, which
//! own the two decisions those stages share:
//!
//! * **What happens when a worker dies** — [`WorkerSet`]. A worker
//!   drains its channel until it closes, so a refused send ([`Gone`])
//!   means the worker is dead. [`WorkerSet::poison`] then closes every
//!   channel (survivors drain and exit, their results abandoned:
//!   all-or-error), joins the dead worker and re-raises its panic on
//!   the producer — within one send of the death, not at the end of
//!   the stream. [`WorkerSet::finish`] closes, joins in worker order
//!   and re-raises the first panic. No partial result escapes either.
//! * **Which worker owns a key** — [`StickyRouter`].
//!
//! The caller is one more share of each fan-out: the streaming session
//! and the cache sweep run the last share of their work on the caller
//! thread, with the same code a worker runs, so `n` workers keep
//! `n + 1` threads busy. [`default_workers`] is the one default count.
//!
//! Backpressure is accounted try-first: [`WorkerSet::send`] starts a
//! stopwatch only when the channel is full and returns the nanoseconds
//! it blocked, which the caller adds to its own counter.
//!
//! The CSV decoder's `run_pipeline` is deliberately *not* built on
//! this: it is an unkeyed work queue (any worker takes any chunk) with
//! a reorder buffer and an abort flag — a different shape.

use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::thread::JoinHandle;

use cbs_obs::Stopwatch;

use crate::hash::FxHashMap;

/// The default number of worker threads beside the caller: one per
/// core the caller does not occupy itself (zero on a single-core host,
/// where the caller runs everything).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get() - 1)
}

/// The worker's receiver is gone: it panicked, or (where the caller's
/// workers may stop early by design) returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gone;

/// Why [`WorkerSet::try_send`] did not queue the item.
#[derive(Debug)]
pub enum Refused<T> {
    /// The channel is full; the item comes back intact.
    Full(T),
    /// As [`Gone`].
    Gone,
}

/// A fixed set of worker threads, each behind its own bounded channel
/// of `T`, each returning an `R` when its channel closes — see the
/// [module docs](self) for the death protocol. Dropping a set without
/// [`finish`](WorkerSet::finish) abandons the results but leaks no
/// thread: the channels close, the workers drain and exit.
///
/// ```
/// use cbs_trace::workers::WorkerSet;
/// use std::sync::mpsc::Receiver;
///
/// // Two workers, each summing what it is sent.
/// let sum = |rx: Receiver<u64>| rx.iter().sum::<u64>();
/// let set = WorkerSet::spawn(4, [sum, sum]);
/// for i in 0..10 {
///     assert!(set.send((i % 2) as usize, i).is_ok());
/// }
/// assert_eq!(set.finish(), vec![20, 25]);
/// ```
#[derive(Debug)]
pub struct WorkerSet<T, R> {
    senders: Vec<SyncSender<T>>,
    handles: Vec<JoinHandle<R>>,
    poisoned: bool,
}

impl<T: Send + 'static, R: Send + 'static> WorkerSet<T, R> {
    /// Spawns one worker thread per body, each fed by its own channel
    /// of up to `depth` items. A body drains its receiver until the
    /// channel closes, then returns the worker's result.
    pub fn spawn<W>(depth: usize, bodies: impl IntoIterator<Item = W>) -> Self
    where
        W: FnOnce(Receiver<T>) -> R + Send + 'static,
    {
        let (senders, handles) = bodies
            .into_iter()
            .map(|body| {
                let (tx, rx) = sync_channel(depth);
                (tx, std::thread::spawn(move || body(rx)))
            })
            .unzip();
        WorkerSet {
            senders,
            handles,
            poisoned: false,
        }
    }

    /// Number of workers spawned.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Queues `item` for `worker`, blocking while its channel is full.
    /// Returns the nanoseconds spent blocked: `0` when the channel had
    /// room — only a full channel pays for a stopwatch. Fails with
    /// [`Gone`] if the worker no longer receives.
    pub fn send(&self, worker: usize, item: T) -> Result<u64, Gone> {
        match self.try_send(worker, item) {
            Ok(()) => Ok(0),
            Err(Refused::Gone) => Err(Gone),
            Err(Refused::Full(item)) => {
                let clock = Stopwatch::start();
                match self.senders[worker].send(item) {
                    Ok(()) => Ok(clock.elapsed_nanos()),
                    Err(_) => Err(Gone),
                }
            }
        }
    }

    /// Queues `item` for `worker` only if its channel has room;
    /// [`Refused::Full`] hands the item back.
    pub fn try_send(&self, worker: usize, item: T) -> Result<(), Refused<T>> {
        match self.senders[worker].try_send(item) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(item)) => Err(Refused::Full(item)),
            Err(TrySendError::Disconnected(_)) => Err(Refused::Gone),
        }
    }

    /// For sets whose workers never stop early: call when a send to
    /// `worker` reported [`Gone`]. Marks the set poisoned, closes every
    /// channel, joins the dead worker and re-raises its panic here.
    #[cold]
    pub fn poison(&mut self, worker: usize) -> ! {
        self.poisoned = true;
        self.senders.clear();
        match self.handles.swap_remove(worker).join() {
            Err(payload) => std::panic::resume_unwind(payload),
            #[expect(
                clippy::panic,
                reason = "a worker returning while its channel is open contradicts the caller's contract for calling poison"
            )]
            Ok(_) => panic!("worker {worker} exited before its channel closed"),
        }
    }

    /// `true` once [`poison`](WorkerSet::poison) ran (observable only
    /// by a caller that caught the re-raised panic). A poisoned set has
    /// no channels left: do not send to it.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Closes every channel, waits for every worker and returns their
    /// results in worker order.
    ///
    /// # Panics
    ///
    /// Re-raises the first (in worker order) worker panic, and panics
    /// on a poisoned set: a set that lost a worker never yields a
    /// partial result.
    pub fn finish(mut self) -> Vec<R> {
        assert!(
            !self.poisoned,
            "worker set is poisoned: a worker panicked; its results would be partial"
        );
        self.senders.clear();
        // Join every worker before re-raising, so none outlives the call.
        let joined: Vec<_> = self.handles.drain(..).map(JoinHandle::join).collect();
        joined
            .into_iter()
            .map(|result| result.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    }
}

/// Sticky, skew-aware key → worker assignment.
///
/// A key seen for the first time joins the worker with the least
/// traffic routed so far (ties to the lowest index), so a hot key fills
/// its worker's load counter and pushes later arrivals elsewhere —
/// static `key mod workers` routing pins a whole residue class to the
/// hot key's worker. The assignment never changes afterwards, so each
/// key's items reach exactly one worker in send order: per-key order,
/// and with it bit-identical results at any worker count, is kept.
#[derive(Debug, Clone)]
pub struct StickyRouter<K> {
    assigned: FxHashMap<K, u32>,
    /// Items routed to each worker so far — the load signal driving
    /// first-touch assignment.
    loads: Vec<u64>,
    /// One-entry cache: consecutive items overwhelmingly share a key,
    /// so most routes skip the hash lookup entirely.
    last: Option<(K, u32)>,
}

impl<K: Copy + Eq + Hash> StickyRouter<K> {
    /// A router over `workers` (at least one) workers, none loaded.
    pub fn new(workers: usize) -> Self {
        StickyRouter {
            assigned: FxHashMap::default(),
            loads: vec![0; workers],
            last: None,
        }
    }

    /// The worker owning `key`, assigned on first touch; counts one
    /// item against that worker's load.
    #[inline]
    pub fn route(&mut self, key: K) -> usize {
        if let Some((k, w)) = self.last {
            if k == key {
                self.loads[w as usize] += 1;
                return w as usize;
            }
        }
        let worker = match self.assigned.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let lightest = self
                    .loads
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &load)| load)
                    .map_or(0, |(w, _)| w);
                *e.insert(lightest as u32)
            }
        };
        self.last = Some((key, worker));
        self.loads[worker as usize] += 1;
        worker as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc::channel;

    /// A worker that sums its items and panics on the first zero.
    fn summing(rx: Receiver<u64>) -> u64 {
        rx.iter()
            .inspect(|&item| assert!(item != 0, "synthetic worker panic"))
            .sum()
    }

    #[test]
    fn finish_returns_results_in_worker_order() {
        let set = WorkerSet::spawn(2, (0..5u64).map(|w| move |rx| w * 1000 + summing(rx)));
        assert_eq!(set.workers(), 5);
        for i in 1..=50u64 {
            assert!(set.send((i % 5) as usize, i).is_ok());
        }
        let results = set.finish();
        for (w, result) in results.iter().enumerate() {
            assert_eq!(result / 1000, w as u64, "result {w} came from worker {w}");
        }
    }

    #[test]
    fn worker_panic_surfaces_within_depth_plus_two_sends_and_again_at_finish() {
        for depth in [1usize, 3] {
            let mut set = WorkerSet::spawn(depth, [summing, summing]);
            assert!(set.send(1, 7).is_ok());
            // The fatal item: worker 0 panics on it and drops its
            // receiver.
            assert!(set.send(0, 0).is_ok());
            // At most `depth` items fit behind the fatal one and one
            // more send may be mid-flight when the receiver drops, so
            // `Gone` must show within `depth + 2` further sends.
            let died_at = (0..depth + 2).find(|_| set.send(0, 1) == Err(Gone));
            assert!(died_at.is_some(), "depth={depth}: the death went unnoticed");
            assert!(!set.is_poisoned());
            let raised = catch_unwind(AssertUnwindSafe(|| set.poison(0)));
            let payload = raised.expect_err("poison re-raises the worker's panic");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"synthetic worker panic")
            );
            assert!(set.is_poisoned());
            // All-or-error: the surviving worker's sum never escapes.
            let finish = catch_unwind(AssertUnwindSafe(|| set.finish()));
            assert!(finish.is_err(), "finish on a poisoned set must panic");
        }
    }

    #[test]
    fn finish_reraises_a_panic_no_send_noticed() {
        let set = WorkerSet::spawn(4, [summing, summing]);
        assert!(set.send(0, 5).is_ok());
        assert!(set.send(1, 0).is_ok());
        let finish = catch_unwind(AssertUnwindSafe(|| set.finish()));
        let payload = finish.expect_err("never a partial result");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"synthetic worker panic")
        );
    }

    #[test]
    fn poison_names_a_worker_that_returned_early() {
        // A worker that stops receiving without panicking: legitimate
        // only for callers that go to `finish` on `Gone`, so `poison`
        // says what happened instead of re-raising nothing.
        let mut set = WorkerSet::spawn(1, [|rx: Receiver<u64>| drop(rx)]);
        while set.send(0, 1).is_ok() {}
        let raised = catch_unwind(AssertUnwindSafe(|| set.poison(0)));
        let payload = raised.expect_err("poison never returns");
        let message = payload.downcast_ref::<String>().expect("formatted panic");
        assert!(message.contains("exited before its channel closed"));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        clippy::let_underscore_must_use,
        reason = "the test's own channels are unbounded by design, and the gate's recv errs once it drops"
    )]
    fn send_reports_blocked_time_only_after_a_real_block() {
        // The worker holds each item until the test opens the gate, so
        // the channel's fill level is under the test's control.
        let (gate, gated) = channel::<()>();
        let (got, received) = channel::<u64>();
        let set = WorkerSet::spawn(
            1,
            [move |rx: Receiver<u64>| {
                for item in rx {
                    assert!(got.send(item).is_ok());
                    // Errors once the gate is dropped: drain freely.
                    let _ = gated.recv();
                }
            }],
        );
        assert_eq!(set.send(0, 1), Ok(0), "empty channel: no block");
        assert_eq!(received.recv(), Ok(1)); // item 1 is in the worker's hands
        assert_eq!(set.send(0, 2), Ok(0), "room for one: no block");
        // Full now, and stays full until the gate opens: a refused
        // item comes back intact.
        match set.try_send(0, 3) {
            Err(Refused::Full(item)) => assert_eq!(item, 3),
            other => panic!("expected Full(3), got {other:?}"),
        }
        // Open the gate from another thread while this one is blocked
        // in `send`. The delay only has to outlast the few instructions
        // between the spawn and `send`'s internal `try_send`.
        let opener = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(gate.send(()).is_ok());
            gate
        });
        let blocked = set.send(0, 3).expect("worker alive");
        assert!(blocked > 0, "a full channel must report blocked time");
        let gate = opener.join().expect("opener");
        drop(gate); // the worker stops waiting on the gate and drains
        assert_eq!(received.iter().take(2).collect::<Vec<_>>(), vec![2, 3]);
        set.finish();
    }

    #[test]
    fn try_send_reports_a_dead_worker() {
        let set = WorkerSet::spawn(1, [|rx: Receiver<u64>| drop(rx)]);
        // The receiver drops as soon as the worker runs; until then
        // sends queue or find the channel full.
        loop {
            match set.try_send(0, 9) {
                Err(Refused::Gone) => break,
                Ok(()) | Err(Refused::Full(9)) => std::thread::yield_now(),
                Err(Refused::Full(other)) => panic!("item changed in flight: {other}"),
            }
        }
        assert_eq!(set.finish().len(), 1);
    }

    /// The routing decision, restated naively: plain `HashMap`, no
    /// one-entry cache, a linear scan for the lightest worker.
    struct NaiveRouter {
        assigned: HashMap<u32, usize>,
        loads: Vec<u64>,
    }

    impl NaiveRouter {
        fn route(&mut self, key: u32) -> usize {
            let worker = match self.assigned.get(&key) {
                Some(&w) => w,
                None => {
                    let mut lightest = 0;
                    for (w, &load) in self.loads.iter().enumerate() {
                        if load < self.loads[lightest] {
                            lightest = w;
                        }
                    }
                    self.assigned.insert(key, lightest);
                    lightest
                }
            };
            self.loads[worker] += 1;
            worker
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Same assignment for every item and the same final loads as
        /// the naive reference, for any key sequence and worker count.
        #[test]
        fn router_matches_naive_reference(
            // Few distinct keys and repeats: runs that hit the
            // one-entry cache and ties that exercise lowest-index.
            keys in proptest::collection::vec(0u32..24, 0..400),
            repeat in 1usize..4,
            workers in 1usize..9,
        ) {
            let mut router = StickyRouter::new(workers);
            let mut naive = NaiveRouter { assigned: HashMap::new(), loads: vec![0; workers] };
            for &key in &keys {
                for _ in 0..repeat {
                    prop_assert_eq!(router.route(key), naive.route(key), "key {}", key);
                }
            }
            prop_assert_eq!(&router.loads, &naive.loads);
        }
    }

    #[test]
    fn skewed_keys_spread_across_workers() {
        // The stream of `skewed_volumes_spread_across_shards`: one hot
        // key (9 000 items) then seven cold ones (140 each), all in
        // residue class 0 mod 4. Modulus routing would put every one of
        // them on worker 0; first-touch least-loaded gives the cold
        // keys the other three workers.
        let mut router = StickyRouter::new(4);
        let mut owner = HashMap::new();
        let stream = (0..9_000)
            .map(|_| 0u32)
            .chain((1..8u32).flat_map(|k| (0..140).map(move |_| k * 4)));
        for key in stream {
            let worker = router.route(key);
            assert_eq!(*owner.entry(key).or_insert(worker), worker, "sticky");
        }
        assert_eq!(owner[&0], 0, "first key ties to the lowest index");
        assert!((1..8u32).all(|k| owner[&(k * 4)] != 0), "{owner:?}");
        assert_eq!(router.loads, vec![9_000, 420, 280, 280]);
    }
}
