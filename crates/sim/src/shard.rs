//! Conservative sharded execution of one simulation across scoped worker
//! threads.
//!
//! A sharded run splits the simulated system into *regions*, each driven
//! by its own [`ShardWorker`] on a dedicated thread under
//! [`std::thread::scope`]. Workers exchange per-region batches over
//! per-pair mpsc channels and synchronise on a precomputed ladder of
//! *barriers*: conservative lookahead (for a network, the minimum
//! propagation delay of any cut channel) guarantees that work generated
//! inside a window can only take effect after the window's closing
//! barrier, so each worker may drain its whole window without consulting
//! its peers.
//!
//! Every window runs one handshake, and a second only when some region
//! has work at the barrier instant itself:
//!
//! 1. [`ShardWorker::advance`] — drain all local work up to and including
//!    the barrier; return one batch per region and whether this region
//!    has work due at the barrier instant (cross-region work that lands
//!    exactly on it, e.g. retransmit commands or flow-start kicks).
//! 2. exchange — every worker sends each peer exactly one batch (possibly
//!    empty) tagged `(window, phase)`, plus its barrier-work bit. An empty
//!    batch is the classic *null message*: it carries no payload but
//!    proves the sender has reached the barrier, which is what lets
//!    receivers proceed without deadlock. Each worker ORs the bits it
//!    received with its own, so every region reaches the same verdict.
//! 3. If the OR is false, [`ShardWorker::absorb`] the inbox at once: it
//!    holds strictly-future work only.
//! 4. Otherwise [`ShardWorker::finish_window`] applies the inbox *at* the
//!    barrier instant and drains anything that spawned at it, returning a
//!    second batch per region (strictly-future work only); after a second
//!    exchange, [`ShardWorker::absorb`] takes that inbox.
//!
//! Skipping the second exchange is exact when every region's bit is
//! false: phase 1 left no local event at or before the barrier, and the
//! phase-1 inbox is strictly future, so `finish_window` would absorb that
//! inbox, drain nothing and send nothing.
//!
//! The protocol is deterministic by construction: inboxes are assembled
//! in sender-region order with per-sender message order preserved, so the
//! merged view every worker sees is independent of thread scheduling.
//! Determinism of the *simulation* then reduces to each worker being
//! deterministic in its inbox — which the packet engine's shard driver
//! (`inrpp-packetsim`) verifies byte-for-byte against its single-threaded
//! run.

use crate::time::SimTime;
use std::sync::mpsc;

/// One region's event loop, driven window-by-window by [`run_sharded`].
///
/// Batches are indexed by region `0..n`, in both directions: an outgoing
/// `Vec` holds one batch per destination, an inbox one per sender. The
/// batch to the worker's own region is legal and short-circuits locally
/// (it appears in its own inbox at its own position, never touching a
/// channel).
pub trait ShardWorker: Send {
    /// Everything one region sends one region in one exchange.
    type Batch: Send;

    /// Phase 1: drain every local event with `time <= barrier`. Returns
    /// the boundary work generated along the way, one batch per
    /// destination region, and whether this region has work due at the
    /// barrier instant itself, which makes every region run
    /// [`finish_window`](ShardWorker::finish_window).
    fn advance(&mut self, barrier: SimTime) -> (Vec<Self::Batch>, bool);

    /// Phase 2, run only in windows where some region reported barrier
    /// work: apply `inbox` (the phase-1 batches of all regions, own
    /// included, in region order) at the barrier instant, drain anything
    /// newly due at it, and return follow-up batches, one per destination
    /// region — all of whose work must lie strictly beyond the barrier.
    fn finish_window(&mut self, barrier: SimTime, inbox: Vec<Self::Batch>) -> Vec<Self::Batch>;

    /// Absorb an inbox of strictly-future work, in region order: the
    /// phase-1 inbox of a window with no barrier work, else the phase-2
    /// inbox.
    fn absorb(&mut self, inbox: Vec<Self::Batch>);
}

/// Envelope carried on the inter-worker channels; the `(window, phase)`
/// tag makes every batch a timestamped null message even when empty.
struct Envelope<B> {
    window: u32,
    phase: u8,
    /// the sender has work due at the barrier instant (phase 1 only)
    barrier_work: bool,
    batch: B,
}

/// One row of the n×n sender matrix: `row[j]` talks to region `j`, the
/// diagonal (own region) stays `None`.
type SenderRow<B> = Vec<Option<mpsc::Sender<Envelope<B>>>>;
/// One row of the n×n receiver matrix, mirroring [`SenderRow`].
type ReceiverRow<B> = Vec<Option<mpsc::Receiver<Envelope<B>>>>;

struct Mailbox<B> {
    /// `txs[j]` sends to region `j` (own position `None`).
    txs: SenderRow<B>,
    /// `rxs[j]` receives from region `j` (own position `None`).
    rxs: ReceiverRow<B>,
}

impl<B> Mailbox<B> {
    /// Send `out[j]` to each peer `j` for `(window, phase)`, keeping the
    /// own batch; then collect one batch per region, in region order.
    /// Returns that inbox and the OR of every region's `barrier_work`
    /// bit, own included.
    fn exchange(&self, window: u32, phase: u8, out: Vec<B>, barrier_work: bool) -> (Vec<B>, bool) {
        assert_eq!(out.len(), self.txs.len(), "one batch per region");
        let mut own = None;
        for (batch, tx) in out.into_iter().zip(&self.txs) {
            match tx {
                Some(tx) => tx
                    .send(Envelope {
                        window,
                        phase,
                        barrier_work,
                        batch,
                    })
                    .expect("peer worker hung up mid-window"),
                None => own = Some(batch),
            }
        }
        let mut any_work = barrier_work;
        let inbox = self
            .rxs
            .iter()
            .map(|rx| match rx {
                Some(rx) => {
                    let env = rx.recv().expect("peer worker hung up mid-window");
                    assert_eq!(
                        (env.window, env.phase),
                        (window, phase),
                        "shard protocol desync"
                    );
                    any_work |= env.barrier_work;
                    env.batch
                }
                None => own.take().expect("one own position"),
            })
            .collect();
        (inbox, any_work)
    }
}

/// One window of `w`: phase 1, an exchange, and — only when the exchange
/// reports barrier work in some region — phase 2 and a second exchange.
/// `exchange(phase, out, barrier_work)` returns the inbox and the OR of
/// the bits.
fn run_window<W: ShardWorker>(
    w: &mut W,
    barrier: SimTime,
    mut exchange: impl FnMut(u8, Vec<W::Batch>, bool) -> (Vec<W::Batch>, bool),
) {
    let (out, work) = w.advance(barrier);
    let (mut inbox, any_work) = exchange(1, out, work);
    if any_work {
        let out = w.finish_window(barrier, inbox);
        inbox = exchange(2, out, false).0;
    }
    w.absorb(inbox);
}

/// Drive `workers` through `barriers` (strictly increasing) in lockstep
/// and hand the workers back once every window has run.
///
/// With one worker no threads are spawned — the windows run inline on the
/// caller's thread, its batches handed straight back as its inbox,
/// byte-identically to the multi-worker path.
///
/// # Panics
/// Panics if any worker panics (the scope propagates the first panic), if
/// `barriers` is not strictly increasing, or if a worker returns other
/// than one batch per region.
pub fn run_sharded<W: ShardWorker>(mut workers: Vec<W>, barriers: &[SimTime]) -> Vec<W> {
    for w in barriers.windows(2) {
        assert!(w[0] < w[1], "barriers must be strictly increasing");
    }
    let n = workers.len();
    if n <= 1 {
        if let Some(w) = workers.first_mut() {
            for &b in barriers {
                run_window(w, b, |_, out, work| {
                    assert_eq!(out.len(), 1, "one batch per region");
                    (out, work)
                });
            }
        }
        return workers;
    }

    // n×n channel matrix (diagonal unused)
    let mut txs: Vec<SenderRow<W::Batch>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    let mut rxs: Vec<ReceiverRow<W::Batch>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    for from in 0..n {
        for to in 0..n {
            if from == to {
                continue;
            }
            let (tx, rx) = mpsc::channel();
            txs[from][to] = Some(tx);
            rxs[to][from] = Some(rx);
        }
    }

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (mut worker, (txs, rxs)) in workers.drain(..).zip(txs.drain(..).zip(rxs.drain(..))) {
            let mailbox = Mailbox { txs, rxs };
            handles.push(scope.spawn(move || {
                for (wi, &b) in barriers.iter().enumerate() {
                    run_window(&mut worker, b, |phase, out, work| {
                        mailbox.exchange(wi as u32, phase, out, work)
                    });
                }
                worker
            }));
        }
        for h in handles.drain(..) {
            workers.push(h.join().expect("shard worker panicked"));
        }
    });
    workers
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Echo worker: greets every region (itself included) in each phase
    /// it runs, and records everything it hears, tagged with the sender.
    /// Only the last region flags barrier work, at the windows in
    /// `work_at` (numbered from 1), so every region must run
    /// `finish_window` at those windows and at no other. Exercises
    /// routing, self-sends, ordering and the barrier-work verdict.
    struct Echo {
        me: usize,
        n: usize,
        work_at: &'static [usize],
        windows: Vec<SimTime>,
        finished: Vec<usize>,
        heard: Vec<(usize, String)>,
    }

    impl Echo {
        fn greet(&self, tag: &str) -> Vec<Vec<String>> {
            let w = self.windows.len();
            (0..self.n)
                .map(|dest| vec![format!("w{w}{tag}@{}->{dest}", self.me)])
                .collect()
        }

        fn hear(&mut self, inbox: Vec<Vec<String>>) {
            assert_eq!(inbox.len(), self.n);
            for (sender, batch) in inbox.into_iter().enumerate() {
                self.heard.extend(batch.into_iter().map(|m| (sender, m)));
            }
        }
    }

    impl ShardWorker for Echo {
        type Batch = Vec<String>;

        fn advance(&mut self, barrier: SimTime) -> (Vec<Vec<String>>, bool) {
            self.windows.push(barrier);
            let work = self.me == self.n - 1 && self.work_at.contains(&self.windows.len());
            (self.greet(""), work)
        }

        fn finish_window(
            &mut self,
            _barrier: SimTime,
            inbox: Vec<Vec<String>>,
        ) -> Vec<Vec<String>> {
            self.finished.push(self.windows.len());
            self.hear(inbox);
            self.greet(" late")
        }

        fn absorb(&mut self, inbox: Vec<Vec<String>>) {
            self.hear(inbox);
        }
    }

    fn barriers(k: u64) -> Vec<SimTime> {
        (1..=k).map(SimTime::from_millis).collect()
    }

    #[test]
    fn inboxes_arrive_in_region_order_every_window() {
        const WORK_AT: &[usize] = &[2, 5, 6];
        for n in [1usize, 2, 4] {
            let workers: Vec<Echo> = (0..n)
                .map(|me| Echo {
                    me,
                    n,
                    work_at: WORK_AT,
                    windows: Vec::new(),
                    finished: Vec::new(),
                    heard: Vec::new(),
                })
                .collect();
            let done = run_sharded(workers, &barriers(6));
            for (me, w) in done.iter().enumerate() {
                assert_eq!(w.windows, barriers(6));
                assert_eq!(w.finished, WORK_AT, "second phases at n={n}, region {me}");
                // each phase's inbox holds one greeting per sender, in
                // sender order; a second phase adds a late round
                let mut want = Vec::new();
                for wi in 1..=6 {
                    let tags: &[&str] = if WORK_AT.contains(&wi) {
                        &["", " late"]
                    } else {
                        &[""]
                    };
                    for tag in tags {
                        want.extend((0..n).map(|s| (s, format!("w{wi}{tag}@{s}->{me}"))));
                    }
                }
                assert_eq!(w.heard, want, "inboxes at n={n}, region {me}");
            }
        }
    }

    /// Sleep-bound worker recording wall-clock spans of its `advance`
    /// calls. On any machine — including a 1-vCPU container, where
    /// sleeping threads still yield to each other — the per-window spans
    /// of two workers must overlap if the windows truly run concurrently.
    struct Sleeper {
        spans: Vec<(Instant, Instant)>,
    }

    impl ShardWorker for Sleeper {
        type Batch = ();

        fn advance(&mut self, _barrier: SimTime) -> (Vec<()>, bool) {
            let start = Instant::now();
            std::thread::sleep(Duration::from_millis(30));
            self.spans.push((start, Instant::now()));
            // one empty batch for each of the test's two regions
            (vec![(); 2], false)
        }

        fn finish_window(&mut self, _b: SimTime, _i: Vec<()>) -> Vec<()> {
            unreachable!("no region reports barrier work")
        }

        fn absorb(&mut self, _i: Vec<()>) {}
    }

    #[test]
    fn windows_of_different_workers_overlap_in_wall_time() {
        let workers = vec![Sleeper { spans: Vec::new() }, Sleeper { spans: Vec::new() }];
        let done = run_sharded(workers, &barriers(3));
        let (a, b) = (&done[0].spans, &done[1].spans);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 3);
        let overlapping = a
            .iter()
            .zip(b.iter())
            .filter(|((s0, e0), (s1, e1))| s0.max(s1) < e0.min(e1))
            .count();
        assert!(
            overlapping >= 1,
            "no window overlapped: workers ran serially"
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_barriers_are_rejected() {
        let workers: Vec<Echo> = Vec::new();
        let _ = run_sharded(workers, &[SimTime::from_millis(2), SimTime::from_millis(1)]);
    }
}
