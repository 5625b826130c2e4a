// Fixture: wall-clock reads outside the repro driver and serve request logs.
// Replayed under the pretend path `crates/core/src/energy.rs`.

use std::time::SystemTime; // BAD: wallclock

fn stamp() -> u64 {
    let t = std::time::Instant::now(); // BAD: wallclock
    t.elapsed().as_nanos() as u64
}
