//! Round-trip property for the wire codec: `decode_body(encode_frame(f)) ==
//! f` for arbitrary protocol frames, including `Reshard` frames carrying
//! full [`ReshardPlan`] payloads. The codec is canonical (one encoding per
//! frame), so the inverse direction — re-encoding a decoded frame
//! reproduces the original bytes — is asserted too.

use proptest::prelude::*;
use satn_serve::{
    decode_body, encode_frame, EngineMetrics, Frame, HandoverMode, IngestMessage, LookupAnswer,
    MetricsSnapshot, ReshardPlan,
};
use satn_tree::{ElementId, NodeId};
use std::time::Duration;

/// Encodes `frame`, strips the length prefix, and decodes the body back.
fn roundtrip(frame: &Frame) -> Frame {
    let mut bytes = Vec::new();
    encode_frame(frame, &mut bytes).expect("roundtrip frames fit the cap");
    let (prefix, body) = bytes.split_at(4);
    assert_eq!(
        u32::from_le_bytes(prefix.try_into().unwrap()) as usize,
        body.len(),
        "the length prefix must describe the body exactly"
    );
    let decoded = decode_body(body).expect("a canonical encoding always decodes");

    // Canonicality: re-encoding the decoded frame reproduces the bytes.
    let mut reencoded = Vec::new();
    encode_frame(&decoded, &mut reencoded).expect("roundtrip frames fit the cap");
    assert_eq!(reencoded, bytes, "the codec must be canonical");
    decoded
}

/// Builds a `Reshard` frame from raw `(element, shard)` pairs, deduplicating
/// elements the same way a well-formed producer would.
fn reshard_frame(moves: &[(u32, u32)]) -> Frame {
    let mut seen = std::collections::BTreeMap::new();
    for &(element, shard) in moves {
        seen.insert(ElementId::new(element), shard % 64);
    }
    Frame::Ingest(IngestMessage::Reshard(
        ReshardPlan::new(seen),
        HandoverMode::Warm,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_frames_roundtrip(element in 0u32..2_000_000) {
        let frame = Frame::Ingest(IngestMessage::Request(ElementId::new(element)));
        prop_assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn burst_frames_roundtrip(elements in proptest::collection::vec(0u32..1_000_000, 0..200)) {
        let burst: Vec<ElementId> = elements.iter().copied().map(ElementId::new).collect();
        let frame = Frame::Ingest(IngestMessage::Burst(burst));
        prop_assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn reshard_frames_roundtrip(
        moves in proptest::collection::vec((0u32..10_000, 0u32..1_000), 0..64),
    ) {
        let frame = reshard_frame(&moves);
        prop_assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn ack_frames_roundtrip(seq in 0u64..u64::MAX) {
        let frame = Frame::Ack { seq };
        prop_assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn lookup_frames_roundtrip(element in 0u32..2_000_000) {
        let frame = Frame::Lookup { element: ElementId::new(element) };
        prop_assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn found_frames_roundtrip(
        element in 0u32..2_000_000,
        shard in 0u32..1_024,
        node in 0u32..1_000_000,
        epoch in 0u32..10_000,
        served in 0u64..u64::MAX,
    ) {
        let frame = Frame::Found(LookupAnswer {
            element: ElementId::new(element),
            shard,
            node: NodeId::new(node),
            epoch,
            served,
        });
        prop_assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn stats_reply_frames_roundtrip(
        shards in 1u32..9,
        served in 0u64..1_000_000,
        depth in 0u64..1_000,
        samples in proptest::collection::vec(0u64..1 << 42, 0..32),
    ) {
        // A live registry with traffic on every section of the encoding:
        // counters, gauges, per-shard gauges, and a sparse histogram.
        let metrics = EngineMetrics::new(shards);
        metrics.requests_served.add(served);
        metrics.ingest_queue_depth.set(depth);
        metrics.shard_buffered[(shards - 1) as usize].set(depth / 2);
        for &nanos in &samples {
            metrics.drain_latency.record(Duration::from_nanos(nanos));
        }
        let frame = Frame::StatsReply(metrics.snapshot());
        prop_assert_eq!(roundtrip(&frame), frame);
    }
}

#[test]
fn stats_frames_roundtrip() {
    let frame = Frame::Stats;
    assert_eq!(roundtrip(&frame), frame);
    let frame = Frame::StatsReply(MetricsSnapshot::default());
    assert_eq!(roundtrip(&frame), frame);
}

#[test]
fn flush_frames_roundtrip() {
    let frame = Frame::Ingest(IngestMessage::Flush);
    assert_eq!(roundtrip(&frame), frame);
}

#[test]
fn the_empty_reshard_plan_roundtrips() {
    let frame = Frame::Ingest(IngestMessage::Reshard(
        ReshardPlan::empty(),
        HandoverMode::Warm,
    ));
    assert_eq!(roundtrip(&frame), frame);
}
