//! The reference kernel: a fixed piece of integer hashing and sorting
//! that belongs to the benchmark, not to the program, timed between the
//! program's calls.
//!
//! The host's speed drifts by up to 2× over seconds to minutes, in CPU
//! time as much as in wall time (contention the guest cannot see), and
//! a 30 s run can sit wholly in a slow or a fast stretch. Time spent in
//! the program is therefore reported in reference units: each stretch
//! of program time is divided by the mean of the two kernel readings
//! taken right before and right after it (`Tracer::ref_lap`). A change
//! to the program moves the figure; a change in the host's speed moves
//! the program and the kernel alike and cancels out.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// SplitMix64 rounds per run.
const HASH_ROUNDS: u64 = 1_000_000;
/// Keys sorted per run (256 KiB, inside a core's L2).
const SORT_KEYS: usize = 1 << 15;
/// Kernel runs per reading.
const RUNS_PER_READING: usize = 3;

thread_local! {
    /// The sort buffer, allocated and touched once per thread so that
    /// readings pay no page faults.
    static KEYS: RefCell<Vec<u64>> = RefCell::new(vec![0; SORT_KEYS]);
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Time one run of the kernel (~2.5 ms on the reference host).
fn run_once(keys: &mut [u64]) -> f64 {
    let t0 = Instant::now();
    let mut state = black_box(1u64);
    let mut acc = 0u64;
    for _ in 0..HASH_ROUNDS {
        acc ^= splitmix(&mut state);
    }
    for k in keys.iter_mut() {
        *k = splitmix(&mut state);
    }
    keys.sort_unstable();
    black_box((acc, keys[SORT_KEYS / 2]));
    t0.elapsed().as_secs_f64()
}

/// One reading of the host's speed: the least of `RUNS_PER_READING`
/// back-to-back runs of the kernel, in seconds. The first run after a
/// pass finds the caches holding the program's data, and any run can
/// be interrupted; the least is the core's speed at that moment.
pub fn kernel_s() -> f64 {
    KEYS.with(|keys| {
        let mut keys = keys.borrow_mut();
        (0..RUNS_PER_READING)
            .map(|_| run_once(&mut keys))
            .fold(f64::INFINITY, f64::min)
    })
}
