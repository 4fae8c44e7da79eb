//! Wall-clock timing normalised to an in-run reference loop.
//!
//! On a shared host the same simulation runs up to 1.7× slower for
//! seconds at a time while neighbours load the memory system, so raw
//! wall times of separate processes spread by ±20 %. A fixed reference
//! loop with the simulator's access pattern (a timer heap, a hash-map
//! store of small heap blocks, pseudo-random keys) slows down with it.
//! Every timed sample is therefore followed by one reference loop and
//! reported as `sample wall ÷ reference wall × REFERENCE_S`: wall seconds
//! on a host whose reference loop takes exactly [`REFERENCE_S`]. The loop
//! is frozen benchmark code; a change to the program never changes it.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Nominal wall time of one [`reference_loop`], seconds (about its
/// median on the 2-core Intel Xeon host the benchmark was tuned on).
pub const REFERENCE_S: f64 = 0.040;

/// Wall seconds `f` took.
pub fn wall_s(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Runs the reference loop once and returns its wall seconds.
pub fn reference_loop() -> f64 {
    wall_s(|| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        // A fixed-key hasher, so every process probes the same buckets.
        let mut store: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>> =
            HashMap::default();
        let mut acc = 0u64;
        for i in 0..4_096u64 {
            heap.push(Reverse((next() % 1_000, i)));
        }
        for i in 0..300_000u64 {
            let Reverse((now, id)) = heap.pop().expect("the heap never empties");
            let r = next();
            let key = r % 50_000;
            match r % 4 {
                0 => {
                    store.insert(key, vec![i as u8; 16 + (r >> 56) as usize]);
                }
                1 => {
                    if let Some(v) = store.remove(&key) {
                        acc = acc.wrapping_add(v.len() as u64);
                    }
                }
                _ => {
                    if let Some(v) = store.get(&key) {
                        acc = acc.wrapping_add(u64::from(v[0]));
                    }
                }
            }
            heap.push(Reverse((now + 1 + (r >> 40) % 1_000, id ^ acc)));
        }
        black_box((acc, store.len()));
    })
}

/// Times `f`, then the reference loop: `(raw wall s, normalised wall s)`.
pub fn timed(f: impl FnOnce()) -> (f64, f64) {
    let wall = wall_s(f);
    (wall, wall / reference_loop() * REFERENCE_S)
}
