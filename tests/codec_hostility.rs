//! Hostile-input properties for the wire codec and framing layer.
//!
//! The TCP transport feeds whatever arrives off the socket into these
//! decoders, and the fault-injection harness deliberately truncates and
//! corrupts frames in flight. The contract under hostility is uniform:
//! **a structured error, never a panic** — for truncations at arbitrary
//! offsets, single-bit flips, absurd length prefixes, garbage bodies,
//! and pathologically nested payloads.

use std::io::Cursor;

use proptest::prelude::*;

use simcal::sim::codec::{
    decode_msg, decode_scenario, encode_msg, encode_scenario, read_frame, write_frame, CodecError,
    FrameError, Json, WireMsg, MAX_FRAME_LEN,
};
use simcal::sim::ScenarioRegistry;
use simcal::study::dist::{decode_sweep_result, encode_sweep_result};
use simcal::study::SweepRunner;

/// A representative corpus of valid wire texts to mutate: a scenario, a
/// sweep result, and one of each protocol message (v4 lock-step forms
/// and the v5 windowed/auth forms alike).
fn corpus() -> Vec<String> {
    let grid = ScenarioRegistry::reduced().scenarios();
    let sc = &grid[0];
    let scenario_json = || Json::parse(&encode_scenario(sc)).unwrap();
    let result = &SweepRunner::new().with_workers(1).run(&grid[..1])[0];
    let payload = Json::parse(&encode_sweep_result(result)).unwrap();
    vec![
        encode_scenario(sc),
        encode_sweep_result(result),
        encode_msg(&WireMsg::Hello { worker: "prop-worker".to_string(), threads: 4 }),
        encode_msg(&WireMsg::Claim),
        encode_msg(&WireMsg::ClaimN { max: 8, holding: vec![3, 11, u64::MAX] }),
        encode_msg(&WireMsg::Task { index: 7, scenario: scenario_json() }),
        encode_msg(&WireMsg::TaskBatch { tasks: vec![(7, scenario_json()), (9, scenario_json())] }),
        encode_msg(&WireMsg::TaskBatch { tasks: vec![] }),
        encode_msg(&WireMsg::AuthChallenge { nonce: 0x5EED_CAFE_1234_5678 }),
        encode_msg(&WireMsg::AuthProof { mac: "ab".repeat(32) }),
        encode_msg(&WireMsg::Reject { reason: "bad auth token".to_string() }),
        encode_msg(&WireMsg::Result { index: 7, sum: 0xDEAD_BEEF, payload }),
        encode_msg(&WireMsg::Heartbeat { inflight: Some(3) }),
        encode_msg(&WireMsg::Drain),
        encode_msg(&WireMsg::Bye),
    ]
}

/// Run every decoder over the text. The only acceptable outcomes are
/// `Ok` or a structured `Err`; a panic fails the test by unwinding.
fn feed_all_decoders(text: &str) {
    let _ = decode_scenario(text);
    let _ = decode_sweep_result(text);
    let _ = decode_msg(text);
    let _ = Json::parse(text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Truncating a valid payload at any byte offset never panics any
    /// decoder, and a strict prefix of a message never decodes to a
    /// well-formed protocol message (the framing layer relies on this:
    /// a cut-short body surfaces as an error, not a silent half-task).
    #[test]
    fn truncations_at_every_offset_are_structured_errors(which in 0usize..15, cut in 0usize..4096) {
        let corpus = corpus();
        let text = &corpus[which % corpus.len()];
        let cut = cut % text.len();
        if let Some(prefix) = text.get(..cut) {
            feed_all_decoders(prefix);
            if cut > 0 {
                prop_assert!(
                    decode_msg(prefix).is_err(),
                    "a strict prefix decoded as a protocol message"
                );
            }
        }
    }

    /// Flipping a single bit anywhere in a valid payload never panics.
    /// (Mutations that break UTF-8 are exercised at the framing layer
    /// below, where raw bytes arrive before any `str` exists.)
    #[test]
    fn single_bit_flips_never_panic(which in 0usize..15, byte in 0usize..4096, bit in 0u32..8) {
        let corpus = corpus();
        let mut bytes = corpus[which % corpus.len()].clone().into_bytes();
        let i = byte % bytes.len();
        bytes[i] ^= 1u8 << bit;
        if let Ok(text) = String::from_utf8(bytes) {
            feed_all_decoders(&text);
        }
    }

    /// Arbitrary garbage bytes through the framing layer: a syntactically
    /// valid frame (length prefix + body) whose body is noise must come
    /// back as `Codec`, never a panic — whatever the bytes.
    #[test]
    fn garbage_frame_bodies_are_codec_errors(body in proptest::collection::vec(0u32..256, 0..512)) {
        let body: Vec<u8> = body.into_iter().map(|b| b as u8).collect();
        let mut framed = (body.len() as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(&body);
        match read_frame(&mut Cursor::new(framed)) {
            Ok(_) => {} // astronomically unlikely, but legal
            Err(FrameError::Codec(_)) => {}
            Err(other) => prop_assert!(false, "garbage body gave {other:?}, expected Codec"),
        }
    }

    /// A frame whose length prefix promises more bytes than follow is a
    /// truncated frame: `Io`, not a hang and not a panic.
    #[test]
    fn short_frame_bodies_are_io_errors(declared in 1u32..4096, supplied in 0usize..2048) {
        let supplied = supplied.min(declared as usize - 1);
        let mut framed = declared.to_be_bytes().to_vec();
        framed.extend(std::iter::repeat_n(b'x', supplied));
        match read_frame(&mut Cursor::new(framed)) {
            Err(FrameError::Io(_)) => {}
            other => prop_assert!(false, "truncated frame gave {other:?}, expected Io"),
        }
    }
}

#[test]
fn oversized_length_prefixes_are_rejected_before_allocation() {
    for len in [MAX_FRAME_LEN as u32 + 1, u32::MAX, u32::MAX - 7] {
        let mut framed = len.to_be_bytes().to_vec();
        framed.extend_from_slice(b"whatever");
        match read_frame(&mut Cursor::new(framed)) {
            Err(FrameError::Oversized(n)) => assert_eq!(n, len as usize),
            other => panic!("length {len} gave {other:?}, expected Oversized"),
        }
    }
}

#[test]
fn non_utf8_frame_bodies_are_codec_errors() {
    let body = [0xFFu8, 0xFE, 0x80, 0x80];
    let mut framed = (body.len() as u32).to_be_bytes().to_vec();
    framed.extend_from_slice(&body);
    match read_frame(&mut Cursor::new(framed)) {
        Err(FrameError::Codec(CodecError::Parse { msg, .. })) => {
            assert!(msg.contains("UTF-8"), "unexpected message: {msg}")
        }
        other => panic!("non-UTF-8 body gave {other:?}, expected a Parse error"),
    }
}

#[test]
fn empty_and_zero_length_frames_are_handled() {
    // A zero-length body is an empty string: a parse error, not a panic.
    let framed = 0u32.to_be_bytes().to_vec();
    assert!(matches!(read_frame(&mut Cursor::new(framed)), Err(FrameError::Codec(_))));
    // No bytes at all is a clean close at a frame boundary.
    assert!(matches!(read_frame(&mut Cursor::new(Vec::new())), Err(FrameError::Closed)));
    // A partial length prefix is a truncated frame.
    assert!(matches!(read_frame(&mut Cursor::new(vec![0u8, 0])), Err(FrameError::Io(_))));
}

#[test]
fn deeply_nested_payloads_are_depth_errors_not_stack_overflows() {
    for depth in [200usize, 2_000, 200_000] {
        let text = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        for outcome in
            [Json::parse(&text).err(), decode_scenario(&text).err(), decode_msg(&text).err()]
        {
            let err = outcome.expect("pathological nesting must not decode");
            let msg = err.to_string();
            assert!(
                msg.contains("depth") || msg.contains("nest"),
                "depth {depth}: unexpected error {msg:?}"
            );
        }
        // The same bytes arriving as a frame body get the same treatment.
        let mut framed = (text.len() as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(text.as_bytes());
        assert!(matches!(read_frame(&mut Cursor::new(framed)), Err(FrameError::Codec(_))));
    }
}

#[test]
fn batch_size_extremes_round_trip_and_fail_cleanly_when_cut() {
    // A zero-length batch is a legal nudge frame, not an error.
    let empty = encode_msg(&WireMsg::TaskBatch { tasks: vec![] });
    match decode_msg(&empty) {
        Ok(WireMsg::TaskBatch { tasks }) => assert!(tasks.is_empty()),
        other => panic!("empty batch gave {other:?}"),
    }

    // A 65,536-element batch round-trips intact: every index survives,
    // in order, with its payload. (Indices are encoded as decimal
    // strings, so large values are exact.)
    let tasks: Vec<(u64, Json)> =
        (0..65_536u64).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), Json::Null)).collect();
    let text = encode_msg(&WireMsg::TaskBatch { tasks: tasks.clone() });
    match decode_msg(&text) {
        Ok(WireMsg::TaskBatch { tasks: back }) => assert_eq!(back, tasks),
        other => panic!("65k batch failed to decode: {other:?}"),
    }

    // The same giant batch cut anywhere short of its full length is a
    // structured error, never a partial batch: a truncated frame body
    // must not surface as a shorter-but-plausible task list.
    for cut in [1, text.len() / 2, text.len() - 1] {
        if let Some(prefix) = text.get(..cut) {
            assert!(decode_msg(prefix).is_err(), "a cut batch decoded at offset {cut}");
        }
    }
    // And through the framing layer: a frame whose length prefix claims
    // the full body but delivers half of it is an Io error.
    let body = text.as_bytes();
    let mut framed = (body.len() as u32).to_be_bytes().to_vec();
    framed.extend_from_slice(&body[..body.len() / 2]);
    assert!(matches!(read_frame(&mut Cursor::new(framed)), Err(FrameError::Io(_))));
}

#[test]
fn nested_but_legal_unknown_fields_still_decode() {
    // Hostility must not cost forward compatibility: a message carrying a
    // deeply-but-legally nested unknown field still decodes.
    let mut nested = String::from("null");
    for _ in 0..100 {
        nested = format!("[{nested}]");
    }
    let text = format!(r#"{{"v":4,"type":"heartbeat","inflight":2,"future_field":{nested}}}"#);
    match decode_msg(&text) {
        Ok(WireMsg::Heartbeat { inflight: Some(2) }) => {}
        other => panic!("forward-compatible payload gave {other:?}"),
    }
}

/// A frame round trip through `write_frame` and a hostile mid-stream cut:
/// every split point of a multi-frame stream either yields the frames
/// before the cut plus a structured error, or a clean `Closed`.
#[test]
fn every_split_of_a_frame_stream_fails_cleanly() {
    let msgs =
        [WireMsg::Claim, WireMsg::Heartbeat { inflight: None }, WireMsg::Drain, WireMsg::Bye];
    let mut stream = Vec::new();
    let mut boundaries = vec![0usize];
    for m in &msgs {
        write_frame(&mut stream, m).unwrap();
        boundaries.push(stream.len());
    }
    for cut in 0..=stream.len() {
        let mut cursor = Cursor::new(&stream[..cut]);
        let mut decoded = 0;
        loop {
            match read_frame(&mut cursor) {
                Ok(_) => decoded += 1,
                Err(FrameError::Closed) => {
                    // Clean close: only legal exactly on a frame boundary.
                    assert!(boundaries.contains(&cut), "clean close mid-frame at {cut}");
                    break;
                }
                Err(FrameError::Io(_)) => {
                    assert!(!boundaries.contains(&cut), "truncation error on a boundary at {cut}");
                    break;
                }
                Err(other) => panic!("cut at {cut}: unexpected {other}"),
            }
        }
        let whole_frames = boundaries.iter().filter(|b| **b <= cut && **b > 0).count();
        assert_eq!(decoded, whole_frames, "cut at {cut} decoded the wrong frame count");
    }
}
