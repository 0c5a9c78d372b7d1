//! Deterministic allocation gate for steady-state rounds.
//!
//! Payloads of at most 64 bits live inline in their `BitString`, and the
//! round engine recycles its slab, active lists and message shells, so
//! once a round has warmed those buffers up a flood of small labels
//! runs without touching the allocator: what is left is the occasional
//! growth of a reused buffer, not one allocation per message. A counting
//! global allocator measures every round of a min-label `broadcast`
//! flood on the Theorem 3.5 network N(31, 129) after the first.
//! Allocation counts repeat exactly between runs, unlike wall clock.
//!
//! This binary holds a single test, so no other test thread allocates
//! while a measurement is taken.

use qdc::congest::{CongestConfig, Inbox, Message, NodeAlgorithm, NodeInfo, Outbox, Stepper};
use qdc::simthm::SimulationNetwork;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting allocation events: every `alloc`,
/// `alloc_zeroed` and `realloc`. The counter is a statistic that
/// publishes no other data, so relaxed ordering suffices.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter only
// observes the calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (hence `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Label width in bits: every node id of N(31, 129) fits.
const WIDTH: usize = 16;

/// Min-label flood: every node broadcasts its label at start and again
/// whenever a neighbor's smaller label improves it.
struct MinLabel {
    label: u64,
}

impl NodeAlgorithm for MinLabel {
    fn on_start(&mut self, _info: &NodeInfo, out: &mut Outbox) {
        out.broadcast(Message::from_uint(self.label, WIDTH));
    }

    fn on_round(&mut self, _info: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
        let best = inbox
            .iter()
            .filter_map(|(_, msg)| msg.as_uint(WIDTH))
            .min()
            .unwrap_or(u64::MAX);
        if best < self.label {
            self.label = best;
            out.broadcast(Message::from_uint(self.label, WIDTH));
        }
    }

    fn is_terminated(&self) -> bool {
        true
    }
}

/// At most this many allocations per steady round, on average over the
/// run: growth of the payload slab, the two active lists and the shell
/// pool. The pool fills in round 2, when the first slots go idle, so
/// that round alone may take more; later rounds mostly take none.
const MAX_ALLOCS_PER_ROUND: usize = 4;

#[test]
fn steady_flood_rounds_do_not_allocate_per_message() {
    let net = SimulationNetwork::build(31, 129);
    let graph = net.graph();
    assert!(
        graph.node_count() <= 1 << WIDTH,
        "labels fit in {WIDTH} bits"
    );
    let mut stepper = Stepper::new(graph, CongestConfig::quantum(32), |info| MinLabel {
        label: info.id.0 as u64,
    });
    // Round 1 sizes the slab, the active lists and the inbox shells.
    let warm_up = stepper.step();
    assert!(warm_up.messages > 0);

    // (round, messages, allocations) per steady round.
    let mut per_round = Vec::new();
    while !stepper.is_quiescent() {
        let before = ALLOCS.load(Relaxed);
        let summary = stepper.step();
        let allocs = ALLOCS.load(Relaxed) - before;
        per_round.push((summary.round, summary.messages, allocs));
        assert!(per_round.len() < 1000, "the flood must quiesce");
    }

    let rounds = per_round.len();
    let messages: u64 = per_round.iter().map(|r| r.1).sum();
    let allocs: usize = per_round.iter().map(|r| r.2).sum();
    assert!(rounds >= 5, "too few steady rounds: {per_round:?}");
    assert!(
        messages >= 10_000,
        "too little traffic to tell: {messages} messages"
    );
    assert!(
        allocs <= MAX_ALLOCS_PER_ROUND * rounds,
        "{rounds} steady rounds carried {messages} messages with {allocs} \
         allocations (at most {MAX_ALLOCS_PER_ROUND} per round); \
         (round, messages, allocations): {per_round:?}"
    );
}
