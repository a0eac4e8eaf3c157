//! Allocation-count regression guard for the steady-state decode paths.
//!
//! The JSON fast path decodes a canonical line with exactly one heap
//! allocation (the record's own word storage); the line's bytes and
//! batching overhead add a few more. If the reader regresses to the
//! tree-parsing path — which builds a `JsonValue` object per line, with
//! per-field key strings — the per-record allocation count jumps by an
//! order of magnitude, and this test fails long before anyone profiles it.

use pufbits::BitVec;
use puftestbed::store::{AnyRecordReader, RecordFormat, RecordSink, RecordWriter};
use puftestbed::{BoardId, Record, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn dataset(n: u64, bits: usize) -> Vec<Record> {
    (0..n)
        .map(|seq| {
            let data: BitVec = (0..bits)
                .map(|i| (seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 64)) & 1 == 1)
                .collect();
            Record::new(
                BoardId((seq % 16) as u8),
                seq,
                Timestamp(1_486_512_000 + seq as i64 * 5),
                data,
            )
        })
        .collect()
}

/// One test (not several) so the global counter is never shared between
/// concurrently running measurements.
#[test]
fn steady_state_decode_allocates_a_small_constant_per_record() {
    const RECORDS: u64 = 2000;
    const BITS: usize = 1024;
    let records = dataset(RECORDS, BITS);

    let mut json = RecordWriter::new(Vec::new(), RecordFormat::Json, 0).unwrap();
    let mut binary = RecordWriter::new(Vec::new(), RecordFormat::Binary, 0).unwrap();
    for r in &records {
        json.record(r).unwrap();
        binary.record(r).unwrap();
    }
    let json_bytes = json.into_inner().unwrap();
    let binary_bytes = binary.into_inner().unwrap();

    // JSON: line bytes + word storage per record, plus amortized batch
    // overhead. The tree parser would spend dozens per record.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let reader = AnyRecordReader::spawn(
        std::io::Cursor::new(json_bytes),
        RecordFormat::Json,
        2,
        64,
        None,
    );
    let mut decoded = 0u64;
    for item in reader {
        let record = item.unwrap();
        assert_eq!(record.data.len(), BITS);
        decoded += 1;
    }
    let json_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(decoded, RECORDS);
    let per_record = json_allocs as f64 / RECORDS as f64;
    assert!(
        per_record <= 8.0,
        "json decode allocates {per_record:.1} times per record ({json_allocs} total)"
    );

    // Binary: frame buffer reuse keeps it at least as lean.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let reader = AnyRecordReader::spawn(
        std::io::Cursor::new(binary_bytes),
        RecordFormat::Binary,
        2,
        64,
        None,
    );
    let mut decoded = 0u64;
    for item in reader {
        let record = item.unwrap();
        assert_eq!(record.data.len(), BITS);
        decoded += 1;
    }
    let binary_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(decoded, RECORDS);
    let per_record = binary_allocs as f64 / RECORDS as f64;
    assert!(
        per_record <= 8.0,
        "binary decode allocates {per_record:.1} times per record ({binary_allocs} total)"
    );
}
