//! Property-based invariants of the rig simulation.

use proptest::prelude::*;
use pufbits::BitVec;
use puftestbed::i2c::{decode_message, encode_message};
use puftestbed::store::json::{self, JsonValue};
use puftestbed::store::{ParseRecordError, Record};
use puftestbed::{BoardId, CalendarDate, Timestamp};

proptest! {
    #[test]
    fn i2c_messages_round_trip(payload in prop::collection::vec(any::<u8>(), 0..200)) {
        let frames = encode_message(&payload);
        prop_assert_eq!(decode_message(&frames).unwrap(), payload);
    }

    #[test]
    fn i2c_detects_any_single_bit_flip(payload in prop::collection::vec(any::<u8>(), 1..100), frame_pick in any::<u16>(), bit_pick in any::<u16>()) {
        let mut frames = encode_message(&payload);
        let fi = usize::from(frame_pick) % frames.len();
        if !frames[fi].is_empty() {
            let bi = usize::from(bit_pick) % (frames[fi].len() * 8);
            frames[fi][bi / 8] ^= 1 << (bi % 8);
            prop_assert!(decode_message(&frames).is_err(), "flip went undetected");
        }
    }

    #[test]
    fn calendar_round_trips(days in -100_000i64..100_000) {
        let date = CalendarDate::from_days_since_epoch(days);
        prop_assert_eq!(date.days_since_epoch(), days);
        prop_assert!((1..=12).contains(&date.month));
        prop_assert!((1..=31).contains(&date.day));
    }

    #[test]
    fn timestamps_decompose_consistently(secs in -4_000_000_000i64..4_000_000_000) {
        let t = Timestamp(secs);
        let dt = t.datetime();
        prop_assert!(dt.hour < 24 && dt.minute < 60 && dt.second < 60);
        // Rebuild the timestamp from the decomposition.
        let rebuilt = Timestamp::from_date(dt.date).0
            + i64::from(dt.hour) * 3600
            + i64::from(dt.minute) * 60
            + i64::from(dt.second);
        prop_assert_eq!(rebuilt, secs);
    }

    #[test]
    fn records_survive_the_json_store(device in 0u8..32, seq in any::<u32>(), ts in -2_000_000_000i64..2_000_000_000, bits in prop::collection::vec(any::<bool>(), 0..200)) {
        let record = Record::new(
            BoardId(device),
            u64::from(seq),
            Timestamp(ts),
            BitVec::from_bits(bits),
        );
        let line = record.to_json_line();
        prop_assert_eq!(Record::parse_json_line(&line).unwrap(), record);
    }

    #[test]
    fn extreme_records_round_trip_losslessly(device in any::<u8>(), seq in any::<u64>(), ts in any::<i64>(), bits in prop::collection::vec(any::<bool>(), 1..64)) {
        // The whole u64/i64 domains, including values a f64 cannot hold
        // exactly: the store must never route integers through floats.
        let record = Record::new(BoardId(device), seq, Timestamp(ts), BitVec::from_bits(bits));
        let parsed = Record::parse_json_line(&record.to_json_line()).unwrap();
        prop_assert_eq!(parsed.seq, record.seq);
        prop_assert_eq!(parsed.timestamp, record.timestamp);
        prop_assert_eq!(parsed, record);
    }

    #[test]
    fn records_survive_the_binary_store(device in any::<u8>(), seq in any::<u64>(), ts in any::<i64>(), bits in prop::collection::vec(any::<bool>(), 0..300)) {
        // Full u64/i64 domains including negative timestamps, plus empty
        // and non-byte-aligned patterns.
        let record = Record::new(BoardId(device), seq, Timestamp(ts), BitVec::from_bits(bits));
        let mut buf = Vec::new();
        record.encode_binary(&mut buf);
        let (back, used) = Record::decode_binary(&buf).unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(back, record);
    }

    #[test]
    fn binary_and_json_stores_agree(device in 0u8..32, seq in any::<u64>(), ts in any::<i64>(), bits in prop::collection::vec(any::<bool>(), 0..300)) {
        let record = Record::new(BoardId(device), seq, Timestamp(ts), BitVec::from_bits(bits));
        let mut buf = Vec::new();
        record.encode_binary(&mut buf);
        let via_binary = Record::decode_binary(&buf).unwrap().0;
        let via_json = Record::parse_json_line(&record.to_json_line()).unwrap();
        prop_assert_eq!(via_binary, via_json);
    }

    #[test]
    fn binary_store_detects_any_single_byte_corruption(seq in any::<u64>(), ts in any::<i64>(), bits in prop::collection::vec(any::<bool>(), 1..300), pos_pick in any::<u16>(), xor in 1u8..=255) {
        let record = Record::new(BoardId(7), seq, Timestamp(ts), BitVec::from_bits(bits));
        let mut buf = Vec::new();
        record.encode_binary(&mut buf);
        // Corrupt any byte past the length prefix (a corrupt prefix is a
        // framing error with its own tests); the CRC must catch it.
        let pos = 4 + usize::from(pos_pick) % (buf.len() - 4);
        buf[pos] ^= xor;
        prop_assert!(Record::decode_binary(&buf).is_err(), "flip at {} went undetected", pos);
    }

    #[test]
    fn oversized_devices_are_rejected_not_truncated(device in 256u64..=u64::MAX) {
        let line = format!(
            r#"{{"device":{device},"seq":0,"timestamp":0,"bits":8,"data":"00"}}"#
        );
        let err = Record::parse_json_line(&line).unwrap_err();
        prop_assert!(matches!(err, ParseRecordError::OutOfRange { field: "device", .. }), "{:?}", err);
    }

    #[test]
    fn negative_sequence_numbers_are_rejected_not_clamped(seq in i64::MIN..0) {
        let line = format!(
            r#"{{"device":0,"seq":{seq},"timestamp":0,"bits":8,"data":"00"}}"#
        );
        let err = Record::parse_json_line(&line).unwrap_err();
        prop_assert!(matches!(err, ParseRecordError::OutOfRange { field: "seq", .. }), "{:?}", err);
    }

    #[test]
    fn json_strings_round_trip(s in "\\PC{0,60}") {
        let v = JsonValue::String(s.clone());
        let parsed = json::parse(&v.to_string()).unwrap();
        prop_assert_eq!(parsed, v);
    }
}
