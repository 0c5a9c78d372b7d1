//! Deterministic memory gate for trace retention.
//!
//! A campaign that neither keeps nor archives traces must not build
//! them: its Theorem 3.5 audit is folded per delivery, so a point's
//! heap does not grow with the messages it delivers. A counting global
//! allocator measures the live-byte high-water mark of one mid-size
//! point run through the journaled runner and through the traced
//! `run_point`; the difference must cover at least half of the trace's
//! message bytes. Byte counts repeat exactly between runs, unlike wall
//! clock or RSS.
//!
//! This binary holds a single test, so no other test thread allocates
//! while a measurement is taken.

use qdc::congest::TracedMessage;
use qdc::harness::{
    run_campaign_journaled, CampaignGrid, CampaignSpec, CancelToken, JournalConfig, RunOptions,
};
use qdc::simthm::campaign::run_point;
use qdc::simthm::SimThmPoint;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live bytes and their high-water mark.
/// The counters are statistics that publish no other data, so relaxed
/// ordering suffices; readers look at them after joining every thread
/// that allocated.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (hence `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the heap high-water mark it
/// reached above the live bytes at entry.
fn peak_above_entry<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - base)
}

#[test]
fn untraced_campaign_point_peak_heap_excludes_the_trace() {
    let point = SimThmPoint {
        gamma: 31,
        l: 129,
        bandwidth: 32,
    };
    let spec = CampaignSpec {
        name: "trace_memory".to_string(),
        grid: CampaignGrid::SimThm {
            gammas: vec![point.gamma],
            lengths: vec![point.l],
            bandwidth: point.bandwidth,
        },
    };
    let dir = std::env::temp_dir().join(format!("qdc_trace_memory_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let config = JournalConfig {
        out_path: dir.join("journal.jsonl").to_string_lossy().into_owned(),
        ..JournalConfig::default()
    };

    let (journaled, untraced_peak) = peak_above_entry(|| {
        run_campaign_journaled(&spec, &RunOptions::default(), &config, &CancelToken::new())
            .expect("campaign runs")
    });
    let (outcome, traced_peak) = peak_above_entry(|| run_point(&point));
    std::fs::remove_dir_all(&dir).expect("remove temp dir");

    assert_eq!(
        journaled.aggregate.accepted, 1,
        "the point passes its audit"
    );
    assert_eq!(journaled.aggregate.messages, outcome.metrics.messages_sent);
    let messages = outcome.metrics.messages_sent as usize;
    let traced: usize = outcome.trace.rounds.iter().map(Vec::len).sum();
    assert_eq!(traced, messages, "run_point keeps every delivered message");
    let half_trace = messages * std::mem::size_of::<TracedMessage>() / 2;
    println!("{messages} messages: untraced peak {untraced_peak} B, traced peak {traced_peak} B");
    assert!(
        untraced_peak + half_trace <= traced_peak,
        "untraced peak {untraced_peak} B is not {half_trace} B below traced peak {traced_peak} B"
    );
}
