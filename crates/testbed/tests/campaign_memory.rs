//! Memory guard for the campaign engine: records reach the sink batch by
//! batch, so the engine never holds a whole evaluation window of
//! read-outs. A regression to window-at-a-time merging holds every record
//! of the window at once and fails here.

use puftestbed::{Campaign, CampaignConfig, Record, RecordSink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};

struct TrackingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` puts on the caller; the counters touch
// no memory the allocator hands out.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` meets `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's `new_size` meets `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

/// Counts the records it is handed and keeps none.
#[derive(Default)]
struct CountingSink {
    records: u64,
}

impl RecordSink for CountingSink {
    fn record(&mut self, _record: &Record) -> io::Result<()> {
        self.records += 1;
        Ok(())
    }
}

/// One test (not several) so the global counters are never shared between
/// concurrently running measurements.
#[test]
fn a_window_of_read_outs_never_sits_in_memory_whole() {
    const BOARDS: usize = 4;
    const READS: u32 = 1000;
    const READ_BYTES: usize = 1024;
    let config = CampaignConfig {
        boards: BOARDS,
        read_bits: 8 * READ_BYTES,
        months: 0,
        reads_per_window: READS,
        ..CampaignConfig::default()
    };
    let half_window = BOARDS * READS as usize * READ_BYTES / 2;
    for threads in [1, 2] {
        let mut campaign = Campaign::new(config.clone(), 5).threads(threads);
        let baseline = LIVE.load(Ordering::Relaxed);
        PEAK.store(baseline, Ordering::Relaxed);
        let mut sink = CountingSink::default();
        campaign
            .run(&mut sink)
            .expect("a counting sink cannot fail");
        let held = PEAK.load(Ordering::Relaxed) - baseline;
        assert_eq!(sink.records, BOARDS as u64 * u64::from(READS));
        assert!(
            held < half_window,
            "threads={threads}: the run held {held} bytes above its set-up, \
             half a window of read-outs is {half_window}"
        );
    }
}
