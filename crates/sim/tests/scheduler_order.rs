//! Property tests pinning the calendar queue's pop order identical to
//! the binary heap's on randomized event streams.
//!
//! The [`Scheduler`] contract — strict `(time, seq)` earliest-first order
//! — is what makes the backends interchangeable without perturbing a
//! single event of a seeded run. Each property drives both backends with
//! the same interleaved schedule/pop workload a discrete-event loop
//! produces (inserts never travel into the past) and asserts every popped
//! event matches bitwise: time bits, sequence number, payload.
//!
//! Four timestamp shapes are exercised, mirroring what the engines emit:
//! clustered bands (segment finish times share bottleneck structure),
//! uniform gaps, same-instant ties (simultaneous releases), and bursts
//! whose offsets *decrease* toward the current time (a release schedule
//! walks a segment backwards, emitting near-`now` events last). Every pop
//! is preceded by a `peek` that must name the same event.
//!
//! A second family pins the split the worm engine runs on: a traffic
//! scheduler plus a side min-heap whose events carry sequence numbers
//! reserved from that scheduler must pop exactly the stream of one
//! scheduler holding every event, exact-time ties across the two lists
//! included.

use cocnet_sim::{CalendarQueue, EventQueue, Scheduler, Timed};
use proptest::prelude::*;
use std::collections::BinaryHeap;

/// One step of a workload: schedule this many events (with the given
/// offset picks), then pop this many.
#[derive(Debug, Clone)]
struct Step {
    offsets: Vec<f64>,
    pops: usize,
}

/// Runs the same workload through both backends, popping with the
/// non-decreasing `now` of a real event loop, and asserts bitwise-equal
/// pop streams. Finishes by draining both queues dry.
fn assert_identical_order(steps: &[Step], offset_of: impl Fn(f64) -> f64) {
    let mut heap = EventQueue::<u32>::new();
    let mut cal = CalendarQueue::<u32>::new();
    let mut now = 0.0f64;
    let mut payload = 0u32;
    let pop_both = |heap: &mut EventQueue<u32>, cal: &mut CalendarQueue<u32>| {
        let h = pop_checking_peek(heap);
        let c = pop_checking_peek(cal);
        match (&h, &c) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.time.to_bits(), b.time.to_bits(), "time diverged");
                assert_eq!(a.seq, b.seq, "sequence diverged");
                assert_eq!(a.kind, b.kind, "payload diverged");
            }
            _ => panic!("one backend empty while the other is not"),
        }
        h
    };
    for step in steps {
        for &raw in &step.offsets {
            // Events never travel into the past: schedule at `now + off`.
            let t = now + offset_of(raw);
            heap.schedule(t, payload);
            cal.schedule(t, payload);
            payload += 1;
        }
        assert_eq!(heap.len(), cal.len());
        for _ in 0..step.pops {
            if let Some(ev) = pop_both(&mut heap, &mut cal) {
                now = ev.time;
            }
        }
    }
    while let Some(ev) = pop_both(&mut heap, &mut cal) {
        now = ev.time;
    }
    let _ = now;
    assert!(heap.is_empty() && cal.is_empty());
}

/// Pops one event after asserting that `peek` names it.
fn pop_checking_peek<S: Scheduler<u32>>(q: &mut S) -> Option<Timed<u32>> {
    let peeked = q.peek().map(|(time, seq)| (time.to_bits(), seq));
    let ev = q.pop();
    assert_eq!(
        peeked,
        ev.as_ref().map(|e| (e.time.to_bits(), e.seq)),
        "peek != pop"
    );
    ev
}

/// One step of a split workload: events to schedule, each with whether
/// it goes to the side list, then pops.
#[derive(Debug, Clone)]
struct SplitStep {
    events: Vec<(f64, bool)>,
    pops: usize,
}

/// A traffic scheduler plus a side min-heap, merged the way the worm
/// engine merges its generate list: the earlier `(time, seq)` head pops.
struct Split<S> {
    traffic: S,
    side: BinaryHeap<Timed<u32>>,
}

impl<S: Scheduler<u32>> Split<S> {
    fn schedule(&mut self, time: f64, kind: u32, side: bool) {
        if side {
            let seq = self.traffic.reserve_seq();
            self.side.push(Timed { time, seq, kind });
        } else {
            self.traffic.schedule(time, kind);
        }
    }

    fn pop(&mut self) -> Option<Timed<u32>> {
        let side_first = match (self.side.peek(), self.traffic.peek()) {
            (Some(g), Some((time, seq))) => g.time.total_cmp(&time).then(g.seq.cmp(&seq)).is_lt(),
            (g, _) => g.is_some(),
        };
        if side_first {
            self.side.pop()
        } else {
            pop_checking_peek(&mut self.traffic)
        }
    }
}

/// Drives one scheduler holding every event and a [`Split`] of the same
/// backend through the same workload and asserts bitwise-equal streams.
fn assert_split_matches_single<S: Scheduler<u32>>(
    steps: &[SplitStep],
    offset_of: impl Fn(f64) -> f64,
) {
    let mut single = S::new();
    let mut split = Split {
        traffic: S::new(),
        side: BinaryHeap::new(),
    };
    let mut now = 0.0f64;
    let mut payload = 0u32;
    let pop_both = |single: &mut S, split: &mut Split<S>, now: &mut f64| {
        let a = single.pop();
        let b = split.pop();
        match (&a, &b) {
            (None, None) => false,
            (Some(a), Some(b)) => {
                assert_eq!(a.time.to_bits(), b.time.to_bits(), "time diverged");
                assert_eq!((a.seq, a.kind), (b.seq, b.kind), "order diverged");
                *now = a.time;
                true
            }
            _ => panic!("split and single differ in occupancy"),
        }
    };
    for step in steps {
        for &(raw, side) in &step.events {
            let t = now + offset_of(raw);
            single.schedule(t, payload);
            split.schedule(t, payload, side);
            payload += 1;
        }
        for _ in 0..step.pops {
            pop_both(&mut single, &mut split, &mut now);
        }
    }
    while pop_both(&mut single, &mut split, &mut now) {}
}

fn arb_split_steps(max_batch: usize) -> impl Strategy<Value = Vec<SplitStep>> {
    prop::collection::vec(
        (
            prop::collection::vec(
                (0.0f64..1.0, 0u32..2).prop_map(|(raw, side)| (raw, side == 1)),
                1..max_batch,
            ),
            0usize..6,
        )
            .prop_map(|(events, pops)| SplitStep { events, pops }),
        1..30,
    )
}

fn arb_steps(max_batch: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (prop::collection::vec(0.0f64..1.0, 1..max_batch), 0usize..6)
            .prop_map(|(offsets, pops)| Step { offsets, pops }),
        1..30,
    )
}

proptest! {
    #[test]
    fn uniform_gaps_pop_identically(steps in arb_steps(8)) {
        // Offsets spread uniformly over ~10 time units.
        assert_identical_order(&steps, |raw| raw * 10.0);
    }

    #[test]
    fn clustered_bands_pop_identically(steps in arb_steps(8)) {
        // Three widely separated bands with small jitter — the banded
        // distribution a transfer-time model produces (and the shape
        // calendar queues are built for).
        assert_identical_order(&steps, |raw| {
            let band = (raw * 3.0).floor().min(2.0);
            band * 250.0 + (raw * 3.0 - band) * 0.05
        });
    }

    #[test]
    fn same_instant_ties_pop_in_insertion_order(steps in arb_steps(10)) {
        // Quantized offsets (including exactly `now`) make simultaneous
        // events common; the tie-break must be pure insertion order.
        assert_identical_order(&steps, |raw| (raw * 4.0).floor() * 0.5);
    }

    #[test]
    fn decreasing_offsets_near_now_pop_identically(steps in arb_steps(8)) {
        // Within a batch the raw draws are independent, but mapping
        // through 1/x-ish decay concentrates mass just above `now`,
        // and the per-batch reversal below emits the nearest event last
        // — the release-schedule pattern that walks a segment backwards.
        let reversed: Vec<Step> = steps
            .iter()
            .map(|s| {
                let mut sorted = s.offsets.clone();
                sorted.sort_by(|a, b| b.total_cmp(a));
                Step { offsets: sorted, pops: s.pops }
            })
            .collect();
        assert_identical_order(&reversed, |raw| 0.01 + raw * raw * 2.0);
    }
}

proptest! {
    #[test]
    fn split_lists_pop_as_one_scheduler(steps in arb_split_steps(8)) {
        assert_split_matches_single::<EventQueue<u32>>(&steps, |raw| raw * 10.0);
        assert_split_matches_single::<CalendarQueue<u32>>(&steps, |raw| raw * 10.0);
    }

    #[test]
    fn split_lists_break_exact_ties_by_sequence(steps in arb_split_steps(10)) {
        // Quantized offsets put events of both lists at the same instant
        // (including exactly `now`); only the shared sequence can order them.
        let tie = |raw: f64| (raw * 3.0).floor() * 0.5;
        assert_split_matches_single::<EventQueue<u32>>(&steps, tie);
        assert_split_matches_single::<CalendarQueue<u32>>(&steps, tie);
    }

    #[test]
    fn split_lists_pop_as_one_across_far_bands(steps in arb_split_steps(8)) {
        // Far-apart bands push calendar events into its overflow and force
        // year jumps while the side list holds earlier events.
        let bands = |raw: f64| {
            let band = (raw * 3.0).floor().min(2.0);
            band * 1e4 + (raw * 3.0 - band) * 0.05
        };
        assert_split_matches_single::<EventQueue<u32>>(&steps, bands);
        assert_split_matches_single::<CalendarQueue<u32>>(&steps, bands);
    }
}

/// Exact-time ties forced across the two lists: every event of a burst
/// shares one instant and the lists alternate irregularly, so the merged
/// order rests on the reserved sequence numbers alone.
#[test]
fn split_lists_forced_cross_list_ties() {
    let steps: Vec<SplitStep> = (0..40)
        .map(|round| SplitStep {
            events: (0..6).map(|k| (0.0, (round + k * k) % 3 == 0)).collect(),
            pops: round % 4,
        })
        .collect();
    // Every offset maps to `now` itself or one fixed step ahead.
    let tie = |_: f64| 0.0;
    assert_split_matches_single::<EventQueue<u32>>(&steps, tie);
    assert_split_matches_single::<CalendarQueue<u32>>(&steps, tie);
    let step_ahead = |_: f64| 1.0;
    assert_split_matches_single::<EventQueue<u32>>(&steps, step_ahead);
    assert_split_matches_single::<CalendarQueue<u32>>(&steps, step_ahead);
}

/// Deterministic cross-check at a scale that forces several calendar
/// resizes in both directions, with interleaved pops.
#[test]
fn large_interleaved_stream_matches_heap() {
    let mut heap = EventQueue::<usize>::new();
    let mut cal = CalendarQueue::<usize>::new();
    let mut now = 0.0f64;
    let mut x = 88172645463325252u64; // xorshift64 state
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    for round in 0..2000usize {
        let burst = 1 + (round % 7);
        for k in 0..burst {
            let t = now + rand() * 5.0;
            heap.schedule(t, round * 16 + k);
            cal.schedule(t, round * 16 + k);
        }
        for _ in 0..(round % 5) {
            match (heap.pop(), cal.pop()) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.time.to_bits(), b.time.to_bits());
                    assert_eq!((a.seq, a.kind), (b.seq, b.kind));
                    now = a.time;
                }
                (None, None) => {}
                _ => panic!("backends diverged in occupancy"),
            }
        }
    }
    loop {
        match (heap.pop(), cal.pop()) {
            (Some(a), Some(b)) => {
                assert_eq!(a.time.to_bits(), b.time.to_bits());
                assert_eq!((a.seq, a.kind), (b.seq, b.kind));
            }
            (None, None) => break,
            _ => panic!("backends diverged while draining"),
        }
    }
}

/// `Timed` is public API now; its ordering contract (earliest-first
/// through a max-heap reversal, sequence tie-break) is what both
/// backends implement.
#[test]
fn timed_ordering_contract() {
    let a = Timed {
        time: 1.0,
        seq: 0,
        kind: (),
    };
    let b = Timed {
        time: 1.0,
        seq: 1,
        kind: (),
    };
    let c = Timed {
        time: 2.0,
        seq: 2,
        kind: (),
    };
    // Reversed order: "greater" pops first from a max-heap.
    assert!(a > b && b > c && a > c);
    assert_eq!(a, a);
    assert_ne!(a, b);
}
