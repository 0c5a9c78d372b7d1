//! Deterministic allocation gate for steady-state rounds.
//!
//! The round engine moves each message from its outbox cell straight
//! into its inbox cell, so delivery itself never allocates. Payloads of
//! at most 64 bits live inline in their `BitString`, so once the first
//! round has warmed the engine's buffers up a flood of small labels runs
//! without touching the allocator: what is left is the occasional
//! growth of a reused buffer, not one allocation per message. A flood of
//! 96-bit payloads may allocate once per message, for the heap payload
//! its sender builds, and nothing more. A counting global allocator
//! measures every round after the first of min-label `broadcast` floods
//! on the Theorem 3.5 network N(31, 129). Allocation counts repeat
//! exactly between runs, unlike wall clock.
//!
//! This binary holds a single test, so no other test thread allocates
//! while a measurement is taken.

use qdc::congest::{
    BitString, CongestConfig, Inbox, Message, NodeAlgorithm, NodeInfo, Outbox, Stepper,
};
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
/// whenever a neighbor's smaller label improves it. The label leads a
/// payload of `payload_bits` bits, zero-padded past the label.
struct MinLabel {
    label: u64,
    payload_bits: usize,
}

impl MinLabel {
    fn message(&self) -> Message {
        let mut bits = BitString::new();
        bits.push_uint(self.label, WIDTH);
        let mut pad = self.payload_bits - WIDTH;
        while pad > 0 {
            let chunk = pad.min(64);
            bits.push_uint(0, chunk);
            pad -= chunk;
        }
        Message::from_bits(bits)
    }
}

impl NodeAlgorithm for MinLabel {
    fn on_start(&mut self, _info: &NodeInfo, out: &mut Outbox) {
        out.broadcast(self.message());
    }

    fn on_round(&mut self, _info: &NodeInfo, inbox: &Inbox, out: &mut Outbox) {
        let best = inbox
            .iter()
            .filter_map(|(_, msg)| msg.reader().read_uint(WIDTH))
            .min()
            .unwrap_or(u64::MAX);
        if best < self.label {
            self.label = best;
            out.broadcast(self.message());
        }
    }

    fn is_terminated(&self) -> bool {
        true
    }
}

/// At most this many allocations per steady round beyond the payloads
/// the senders build, on average over the run: growth of the delivered
/// list and of the reused outgoing slot vectors.
const MAX_ALLOCS_PER_ROUND: usize = 4;

/// Floods N(31, 129) with `payload_bits`-bit min-label messages and
/// counts allocations in every steady round (all rounds after the
/// first). Returns `(round, messages, allocations)` per steady round.
fn flood(payload_bits: usize) -> Vec<(usize, u64, usize)> {
    let net = SimulationNetwork::build(31, 129);
    let graph = net.graph();
    assert!(
        graph.node_count() <= 1 << WIDTH,
        "labels fit in {WIDTH} bits"
    );
    let cfg = CongestConfig::quantum(128);
    let mut stepper = Stepper::new(graph, cfg, |info| MinLabel {
        label: info.id.0 as u64,
        payload_bits,
    });
    // Round 1 sizes the delivered list and fills the inbox cells.
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

    let (rounds, messages, _) = totals(&per_round);
    assert!(rounds >= 5, "too few steady rounds: {per_round:?}");
    assert!(
        messages >= 10_000,
        "too little traffic to tell: {messages} messages"
    );
    per_round
}

/// `(rounds, messages, allocations)` summed over a flood's steady rounds.
fn totals(per_round: &[(usize, u64, usize)]) -> (usize, u64, usize) {
    let messages = per_round.iter().map(|r| r.1).sum();
    let allocs = per_round.iter().map(|r| r.2).sum();
    (per_round.len(), messages, allocs)
}

#[test]
fn steady_flood_rounds_do_not_allocate_per_message() {
    // Inline payloads: delivery moves them, nobody allocates.
    let per_round = flood(WIDTH);
    let (rounds, messages, allocs) = totals(&per_round);
    assert!(
        allocs <= MAX_ALLOCS_PER_ROUND * rounds,
        "{rounds} steady rounds carried {messages} {WIDTH}-bit messages with \
         {allocs} allocations (at most {MAX_ALLOCS_PER_ROUND} per round); \
         (round, messages, allocations): {per_round:?}"
    );

    // Spilled payloads: each sender builds its own 96-bit payload on the
    // heap (one allocation per message sent), and delivery moves that
    // allocation into the inbox without copying or allocating again.
    let per_round = flood(96);
    let (rounds, messages, allocs) = totals(&per_round);
    let budget = messages as usize + MAX_ALLOCS_PER_ROUND * rounds;
    assert!(
        allocs <= budget,
        "{rounds} steady rounds carried {messages} 96-bit messages with \
         {allocs} allocations (at most one per message plus \
         {MAX_ALLOCS_PER_ROUND} per round); (round, messages, allocations): \
         {per_round:?}"
    );
}
