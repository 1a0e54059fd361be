//! Schema tests for the JSONL trace codec (docs/INTERNALS.md,
//! "Observability").
//!
//! Three guarantees of the codec, which every build compiles:
//!
//! * **Round-trip**: every event type survives encode → decode exactly,
//!   for arbitrary field values — property-tested across the full `u64`
//!   range, so the 20-digit extremes exercise the hand-rolled integer
//!   parser.
//! * **Stability**: the byte-level encoding of the current schema
//!   version (6) is pinned against
//!   `tests/fixtures/trace_schema.v6.jsonl`. A failure here means the
//!   wire format changed: bump `ipregel::trace::SCHEMA_VERSION` and
//!   regenerate the fixture deliberately (there is an `#[ignore]`d
//!   `regenerate_the_pinned_fixture` test for exactly that) instead of
//!   silently breaking stored traces.
//! * **One version**: the decoder reads the current schema only; every
//!   writer emits it. Headers of schemas 0 to 5 get the typed
//!   "unsupported trace schema" error, and so do the `io` event and the
//!   `ooc` engine that schema 5 dropped.

use std::path::Path;

use ipregel::trace::{
    decode_line, decode_trace, encode_event, encode_meta, encode_trace, EngineKind, ServerOutcome,
    TraceEvent, SCHEMA_VERSION,
};
use proptest::prelude::*;

fn fixture_text(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The event list whose encoding the committed v6 fixture pins: one of
/// every variant, every engine-independent field exercised.
fn fixture_events() -> Vec<TraceEvent> {
    vec![
        TraceEvent::RunBegin { engine: EngineKind::Push, slots: 24, threads: 4 },
        TraceEvent::SuperstepBegin { superstep: 0 },
        TraceEvent::Chunk {
            superstep: 0,
            chunk: 0,
            planned_edges: 100,
            duration_ns: 2500,
            lock_acquisitions: 7,
            spin_iterations: 31,
            worker: 3,
        },
        TraceEvent::Rss { superstep: 0, bytes: 1_048_576 },
        TraceEvent::Pool { superstep: 0, steals: 5, overflow: 2 },
        TraceEvent::SuperstepEnd {
            superstep: 0,
            active: 24,
            messages: 48,
            duration_ns: 9000,
            selection_ns: 150,
            chunks: 1,
        },
        TraceEvent::WorklistDrain { superstep: 1, queued: 12, drained: 9 },
        TraceEvent::CheckpointSave { superstep: 1, duration_ns: 4000 },
        TraceEvent::CheckpointRestore { superstep: 1, duration_ns: 3000 },
        TraceEvent::ServerQueueDepth { seq: 1, depth: 3 },
        TraceEvent::ServerRequest {
            id: 7,
            queue_ns: 1200,
            run_ns: 86000,
            attempts: 2,
            lane: 1,
            lanes: 4,
            outcome: ServerOutcome::Ok,
        },
        TraceEvent::ServerRequest {
            id: 8,
            queue_ns: 0,
            run_ns: 0,
            attempts: 0,
            lane: 0,
            lanes: 0,
            outcome: ServerOutcome::ShedQueueFull,
        },
        TraceEvent::RunEnd { supersteps: 2, messages: 96, duration_ns: 20000 },
    ]
}

#[test]
fn current_schema_encoding_is_pinned_byte_for_byte() {
    assert_eq!(SCHEMA_VERSION, 6, "fixture pins version 6; regenerate it for a new schema");
    let encoded = encode_trace(&fixture_events());
    let fixture = fixture_text("trace_schema.v6.jsonl");
    // Compare line by line first for a readable failure, then exactly.
    for (i, (got, want)) in encoded.lines().zip(fixture.lines()).enumerate() {
        assert_eq!(got, want, "line {i} of the trace encoding drifted from the fixture");
    }
    assert_eq!(encoded, fixture, "trace encoding drifted from tests/fixtures/trace_schema.v6.jsonl");
}

/// Not a test of anything: run with `--ignored` to rewrite the pinned
/// fixture after a deliberate schema bump.
#[test]
#[ignore = "writes tests/fixtures/trace_schema.v6.jsonl; run only on a deliberate schema change"]
fn regenerate_the_pinned_fixture() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("trace_schema.v{SCHEMA_VERSION}.jsonl"));
    std::fs::write(&path, encode_trace(&fixture_events())).unwrap();
}

#[test]
fn the_committed_fixture_decodes_to_the_pinned_events() {
    assert_eq!(decode_trace(&fixture_text("trace_schema.v6.jsonl")).unwrap(), fixture_events());
}

#[test]
fn meta_header_is_pinned() {
    assert_eq!(encode_meta(), "{\"type\":\"meta\",\"schema\":6}");
    assert_eq!(decode_line("{\"type\":\"meta\",\"schema\":6}").unwrap(), None);
}

#[test]
fn unsupported_schema_versions_are_rejected() {
    let newer = "{\"type\":\"meta\",\"schema\":999}\n";
    assert!(decode_trace(newer).unwrap_err().contains("999"));
    // Everything before the current schema, the five once-readable
    // versions included.
    for ancient in [0, 1, 2, 3, 4, 5] {
        let header = format!("{{\"type\":\"meta\",\"schema\":{ancient}}}\n");
        let err = decode_trace(&header).expect_err("predates SCHEMA_VERSION");
        assert!(err.contains("unsupported trace schema"), "schema {ancient}: {err}");
        assert!(decode_line(header.trim_end()).is_err(), "schema {ancient} as a standalone line");
    }
}

#[test]
fn malformed_lines_are_rejected_with_context() {
    for bad in [
        "not json",
        "{\"type\":\"chunk\"}",                       // missing fields
        "{\"type\":\"wibble\",\"superstep\":0}",      // unknown event
        "{\"type\":\"rss\",\"superstep\":0,\"bytes\":\"big\"}", // string where number expected
        "{\"type\":\"run_begin\",\"engine\":\"gpu\",\"slots\":1,\"threads\":1}", // unknown engine
        "{\"type\":\"pool\",\"superstep\":0}",        // pool missing counters
        // A server request without `lane`/`lanes`, as schema 3 wrote it.
        "{\"type\":\"server_request\",\"id\":7,\"queue_ns\":1,\"run_ns\":2,\"attempts\":1,\"outcome\":\"ok\"}",
    ] {
        assert!(decode_line(bad).is_err(), "{bad:?} should not parse");
    }
    // The out-of-core event and engine, as schema 4 wrote them: the
    // names schema 5 dropped are unknown, not half-supported.
    let io = decode_line("{\"type\":\"io\",\"superstep\":1,\"bytes_read\":4096,\"seeks\":3,\"retries\":1}")
        .unwrap_err();
    assert!(io.contains("unknown event type"), "{io}");
    let ooc = decode_line("{\"type\":\"run_begin\",\"engine\":\"ooc\",\"slots\":1,\"threads\":1}")
        .unwrap_err();
    assert!(ooc.contains("unknown engine"), "{ooc}");
    assert!(
        decode_trace("{\"type\":\"superstep_begin\",\"superstep\":0}\n").is_err(),
        "an event before the meta header must be rejected"
    );
}

/// Strategy over every event variant with arbitrary field values.
fn any_event() -> impl Strategy<Value = TraceEvent> {
    let engine = prop_oneof![
        Just(EngineKind::Push),
        Just(EngineKind::Pull),
        Just(EngineKind::Seq),
    ];
    prop_oneof![
        (engine, any::<u64>(), any::<u64>())
            .prop_map(|(engine, slots, threads)| TraceEvent::RunBegin { engine, slots, threads }),
        any::<u64>().prop_map(|superstep| TraceEvent::SuperstepBegin { superstep }),
        (
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>(), any::<u64>()),
        )
            .prop_map(
                |(
                    (superstep, chunk, planned_edges, duration_ns),
                    (lock_acquisitions, spin_iterations, worker),
                )| {
                    TraceEvent::Chunk {
                        superstep,
                        chunk,
                        planned_edges,
                        duration_ns,
                        lock_acquisitions,
                        spin_iterations,
                        worker,
                    }
                },
            ),
        (any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(superstep, steals, overflow)| TraceEvent::Pool { superstep, steals, overflow }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(superstep, active, messages, duration_ns, selection_ns, chunks)| {
                TraceEvent::SuperstepEnd { superstep, active, messages, duration_ns, selection_ns, chunks }
            }),
        (any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(superstep, queued, drained)| TraceEvent::WorklistDrain { superstep, queued, drained }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(superstep, duration_ns)| TraceEvent::CheckpointSave { superstep, duration_ns }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(superstep, duration_ns)| TraceEvent::CheckpointRestore { superstep, duration_ns }),
        (any::<u64>(), any::<u64>()).prop_map(|(superstep, bytes)| TraceEvent::Rss { superstep, bytes }),
        (any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(supersteps, messages, duration_ns)| TraceEvent::RunEnd { supersteps, messages, duration_ns }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any_outcome())
            .prop_map(|(id, queue_ns, run_ns, attempts, lane, lanes, outcome)| {
                TraceEvent::ServerRequest { id, queue_ns, run_ns, attempts, lane, lanes, outcome }
            }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(seq, depth)| TraceEvent::ServerQueueDepth { seq, depth }),
    ]
}

/// Strategy over every terminal server outcome.
fn any_outcome() -> impl Strategy<Value = ServerOutcome> {
    prop_oneof![
        Just(ServerOutcome::Ok),
        Just(ServerOutcome::ShedQueueFull),
        Just(ServerOutcome::ShedShutdown),
        Just(ServerOutcome::Deadline),
        Just(ServerOutcome::Reaped),
        Just(ServerOutcome::Panicked),
    ]
}

proptest! {
    #[test]
    fn every_event_round_trips_through_the_codec(e in any_event()) {
        let line = encode_event(&e);
        prop_assert_eq!(decode_line(&line).unwrap(), Some(e));
    }

    #[test]
    fn whole_traces_round_trip(events in proptest::collection::vec(any_event(), 0..64)) {
        let text = encode_trace(&events);
        prop_assert_eq!(decode_trace(&text).unwrap(), events);
    }
}

#[test]
fn u64_extremes_round_trip() {
    let e = TraceEvent::Rss { superstep: u64::MAX, bytes: u64::MAX };
    assert_eq!(decode_line(&encode_event(&e)).unwrap(), Some(e));
}
