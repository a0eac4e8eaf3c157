//! Assessment over sparse data: a fault plan removes whole device-months
//! and starves windows mid-month, and the assessment must account for every
//! hole — coverage counters, finite (never NaN) aggregates, and typed
//! errors — instead of silently averaging over what remains.

use pufassess::monthly::{select_windows_counted, EvaluationProtocol};
use pufassess::{AssessError, Assessment, WindowAccumulator};
use pufbits::BitVec;
use puftestbed::faults::{Brownout, I2cBurst};
use puftestbed::{BoardId, CalendarDate, Campaign, CampaignConfig, FaultPlan, Record, Timestamp};

fn config(boards: usize) -> CampaignConfig {
    CampaignConfig {
        boards,
        sram_bits: 256,
        read_bits: 256,
        months: 2,
        reads_per_window: 10,
        ..CampaignConfig::default()
    }
}

fn protocol() -> EvaluationProtocol {
    EvaluationProtocol {
        reads_per_window: 10,
        ..EvaluationProtocol::default()
    }
}

fn assert_all_finite(a: &Assessment) {
    for d in a.device_months() {
        for v in [d.wchd, d.fhw, d.noise_entropy, d.stable_ratio] {
            assert!(v.is_finite(), "device-month metric NaN/inf: {d:?}");
        }
    }
    for m in a.aggregates() {
        for s in [&m.wchd, &m.fhw, &m.noise_entropy, &m.stable_ratio, &m.bchd] {
            for v in [s.mean, s.variance, s.std_dev, s.min, s.max] {
                assert!(
                    v.is_finite(),
                    "aggregate NaN/inf in month {:?}",
                    m.year_month
                );
            }
        }
        assert!(m.puf_entropy.is_finite());
    }
}

/// Brownouts erase board 2's months 1 and 2 entirely. The coverage report
/// must name the hole in both months, the aggregates must stay finite, and
/// the streaming path must agree bit-for-bit with the in-memory path.
#[test]
fn missing_device_months_are_flagged_not_averaged() {
    let cfg = CampaignConfig {
        faults: FaultPlan {
            brownouts: vec![Brownout {
                board: Some(2),
                from_window: 1,
                until_window: 2,
            }],
            ..FaultPlan::default()
        },
        ..config(4)
    };
    let records = Campaign::new(cfg, 41).run_in_memory();
    let a = Assessment::from_records(&records, &protocol()).unwrap();
    assert_all_finite(&a);

    let cov = a.coverage();
    assert!(!cov.is_complete());
    assert_eq!(cov.expected_devices(), 4);
    assert_eq!(cov.months().len(), 3);
    // Month zero is whole; months 1 and 2 miss exactly board 2.
    let m0 = &cov.months()[0];
    assert!(!m0.is_sparse());
    assert_eq!(m0.devices_present, 4);
    assert_eq!(m0.reads, 40);
    for m in &cov.months()[1..] {
        assert!(m.is_sparse());
        assert_eq!(m.devices_present, 3);
        assert_eq!(m.reads, 30);
        assert_eq!(m.missing_devices, vec![BoardId(2)]);
        assert!(m.underfilled_devices.is_empty());
    }
    assert_eq!(cov.sparse_months().len(), 2);

    // Sparse months still aggregate over the surviving three devices.
    for agg in a.aggregates() {
        assert!(agg.bchd.n > 0);
        assert!(agg.puf_entropy > 0.0);
    }

    // The streaming path sees the same holes and produces the identical
    // assessment, coverage included.
    let streamed = Assessment::from_record_stream(&records, &protocol()).unwrap();
    assert_eq!(a, streamed);
}

/// With only two boards, browning one out leaves later months with a single
/// device: no pairs exist, so uniqueness gets the defined zero placeholder
/// (`n == 0` summary, zero entropy) and the month is flagged sparse —
/// previously a panic in `between_class_hds`.
#[test]
fn single_survivor_months_get_placeholder_uniqueness() {
    let cfg = CampaignConfig {
        faults: FaultPlan {
            brownouts: vec![Brownout {
                board: Some(1),
                from_window: 1,
                until_window: 2,
            }],
            ..FaultPlan::default()
        },
        ..config(2)
    };
    let records = Campaign::new(cfg, 43).run_in_memory();
    let a = Assessment::from_records(&records, &protocol()).unwrap();
    assert_all_finite(&a);

    let m0 = &a.aggregates()[0];
    assert!(m0.bchd.n > 0, "month zero has both devices");
    for agg in &a.aggregates()[1..] {
        assert_eq!(agg.bchd.n, 0, "no pairs → placeholder summary");
        assert_eq!(agg.bchd.mean, 0.0);
        assert_eq!(agg.puf_entropy, 0.0);
        assert_eq!(agg.wchd.n, 1, "the survivor still aggregates");
    }
    for m in &a.coverage().months()[1..] {
        assert!(m.is_sparse());
        assert_eq!(m.devices_present, 1);
        assert_eq!(m.missing_devices, vec![BoardId(1)]);
    }
    let streamed = Assessment::from_record_stream(&records, &protocol()).unwrap();
    assert_eq!(a, streamed);
}

/// An I2C burst with a tiny retry budget starves a window without erasing
/// it: the device stays present but underfilled, and is flagged as such.
#[test]
fn starved_windows_are_reported_as_underfilled() {
    let cfg = CampaignConfig {
        i2c_retries: 1,
        faults: FaultPlan {
            i2c_bursts: vec![I2cBurst {
                board: Some(1),
                from_window: 0,
                until_window: 2,
                nack_rate: 0.6,
                corruption_rate: 0.4,
            }],
            ..FaultPlan::default()
        },
        ..config(4)
    };
    let mut records = Vec::new();
    let summary = Campaign::new(cfg, 47).run(&mut records).unwrap();
    assert!(summary.dropped > 0, "burst must actually drop read-outs");

    let a = Assessment::from_records(&records, &protocol()).unwrap();
    assert_all_finite(&a);
    let cov = a.coverage();
    assert!(!cov.is_complete());
    let starved: Vec<_> = cov
        .months()
        .iter()
        .filter(|m| !m.underfilled_devices.is_empty())
        .collect();
    assert!(!starved.is_empty(), "seed 47 drops reads in some window");
    for m in starved {
        assert_eq!(m.underfilled_devices, vec![BoardId(1)]);
        assert!(m.missing_devices.is_empty());
        assert!(m.reads < 40);
        assert!(m.is_sparse());
    }
    // Underfilled windows carry their true read count.
    for d in a.device_months() {
        if d.device == BoardId(1) {
            assert!(d.reads <= 10);
        } else {
            assert_eq!(d.reads, 10);
        }
    }
    let streamed = Assessment::from_record_stream(&records, &protocol()).unwrap();
    assert_eq!(a, streamed);
}

/// A device absent from month zero has no reference: the assessment refuses
/// with the typed error rather than inventing a baseline.
#[test]
fn device_browned_out_of_month_zero_is_a_missing_reference() {
    let cfg = CampaignConfig {
        faults: FaultPlan {
            brownouts: vec![Brownout {
                board: Some(3),
                from_window: 0,
                until_window: 0,
            }],
            ..FaultPlan::default()
        },
        ..config(4)
    };
    let records = Campaign::new(cfg, 53).run_in_memory();
    let err = Assessment::from_records(&records, &protocol()).unwrap_err();
    assert_eq!(err, AssessError::MissingReference { device: BoardId(3) });
    let streamed = Assessment::from_record_stream(&records, &protocol()).unwrap_err();
    assert_eq!(streamed, err);
}

/// One read of `bits` bits by `device` at midnight of 2017-`month`-08.
fn read_at(device: u8, month: u8, bits: usize) -> Record {
    Record::new(
        BoardId(device),
        u64::from(month),
        Timestamp::from_date(CalendarDate::new(2017, month, 8)),
        BitVec::from_bits((0..bits).map(|i| i % (3 + usize::from(device)) == 0)),
    )
}

fn one_read_protocol() -> EvaluationProtocol {
    EvaluationProtocol {
        reads_per_window: 1,
        ..EvaluationProtocol::default()
    }
}

/// Device 0 reads 1 024 bits in February and 2 048 bits in March; its
/// reference is the February read, so the March read is skipped and
/// counted on both paths, and March's coverage shows device 0 missing.
#[test]
fn a_device_whose_read_width_changes_is_skipped_on_both_paths() {
    let records = [
        read_at(0, 2, 1024),
        read_at(1, 2, 1024),
        read_at(0, 3, 2048),
        read_at(1, 3, 1024),
    ];
    let in_memory = Assessment::from_records(&records, &one_read_protocol()).unwrap();
    let streamed = Assessment::from_record_stream(&records, &one_read_protocol()).unwrap();
    assert_eq!(streamed, in_memory);

    let selection = select_windows_counted(&records, &one_read_protocol());
    assert_eq!(selection.skipped_width_mismatch, 1);
    let mut accumulator = WindowAccumulator::new(one_read_protocol());
    for record in &records {
        accumulator.push(record);
    }
    assert_eq!(accumulator.skipped_width_mismatch(), 1);

    let march = &in_memory.coverage().months()[1];
    assert_eq!(march.year_month, (2017, 3));
    assert_eq!(march.missing_devices, vec![BoardId(0)]);
}

/// Two devices that read different widths have no cross-device metric:
/// both paths name the first device whose width differs, with both widths.
#[test]
fn devices_of_different_widths_are_a_typed_error_on_both_paths() {
    let records = [
        read_at(0, 2, 1024),
        read_at(1, 2, 2048),
        read_at(2, 2, 1024),
    ];
    let err = Assessment::from_records(&records, &one_read_protocol()).unwrap_err();
    assert_eq!(
        err,
        AssessError::MixedWidths {
            device: BoardId(1),
            bits: 2048,
            expected_bits: 1024,
        }
    );
    let streamed = Assessment::from_record_stream(&records, &one_read_protocol()).unwrap_err();
    assert_eq!(streamed, err);
}
