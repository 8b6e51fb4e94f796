//! The counting allocator's peak. A test binary of its own: the counters
//! are process-wide, and a concurrent test would move them.

use demt_perfbench::mem::{live_bytes, peak_bytes, reset_peak, restore_peak};

#[test]
fn peak_counts_what_is_allocated_after_the_reset() {
    const MIB: usize = 1 << 20;
    let held = reset_peak();
    assert_eq!(peak_bytes(), held);

    let mut v: Vec<u8> = Vec::with_capacity(MIB);
    v.push(1);
    assert!(live_bytes() >= held + MIB);
    v.reserve_exact(3 * MIB); // realloc: grows by the difference
    assert!(peak_bytes() >= held + 3 * MIB);
    drop(v);
    assert!(live_bytes() < held + MIB);

    // Freed memory leaves the peak; a reset drops it again.
    let peak = peak_bytes();
    assert!(peak >= held + 3 * MIB);
    assert_eq!(reset_peak(), live_bytes());
    assert!(peak_bytes() < peak);

    // Memory allocated and freed between a read and a restore leaves no
    // trace in the peak.
    let before = peak_bytes();
    drop(std::hint::black_box(Vec::<u8>::with_capacity(2 * MIB)));
    assert!(peak_bytes() >= before + 2 * MIB);
    restore_peak(before);
    assert_eq!(peak_bytes(), before);
}
