//! Host-speed yardstick.
//!
//! The development host runs the simulator up to 1.8× slower in phases
//! that last from seconds to many minutes, for reasons outside the
//! program (see `README.md`). Two sets of runs of the same code minutes
//! apart differed by up to 27% in raw host time. To take that drift out
//! of the end-to-end timings, every measured rep is bracketed by a fixed
//! piece of work that never changes with the simulator: a toy
//! cycle-level memory model (PEs issuing reads into a set-associative
//! cache with an MSHR table in front of a fixed-latency memory queue),
//! written in the same style as the simulator. A rep's host time is then
//! scaled to a host on which the yardstick takes [`NOMINAL_S`]:
//! `secs × NOMINAL_S / yardstick_secs`.
//!
//! This file is the benchmark's unit of host speed; changing it changes
//! every scaled timing, so it stays as it is.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Simulated cycles of one half of the yardstick (one half runs before a
/// rep's set-up, the other after the rep).
pub const HALF_CYCLES: u64 = 1_000_000;

/// Seconds both halves took on the development host in a typical phase;
/// scaled timings are host seconds on a host where the yardstick takes
/// exactly this long.
pub const NOMINAL_S: f64 = 0.15;

/// Checksum of one half; any other value means the yardstick did not do
/// its work and the scaling would be meaningless.
pub const HALF_CHECKSUM: u64 = 135_260_088_951;

const PES: usize = 16;
const SETS: usize = 1 << 16;
const WAYS: usize = 4;
const MSHRS: usize = 256;
const LATENCY: u64 = 120;
/// Line address ranges: one request in four goes anywhere in `FAR`, the
/// rest fall in the `HOT` lines.
const FAR: u64 = 1 << 24;
const HOT: u64 = 1 << 17;

/// Runs the toy model for `cycles` cycles; returns a checksum of its
/// hit, miss and stall counts.
pub fn work(cycles: u64) -> u64 {
    let mut tags = vec![u64::MAX; SETS * WAYS];
    let mut age = vec![0u64; SETS * WAYS];
    let mut mshr: HashMap<u64, Vec<u16>> = HashMap::with_capacity(MSHRS);
    let mut mem: VecDeque<(u64, u64)> = VecDeque::new();
    let mut rng = [0u64; PES];
    for (i, r) in rng.iter_mut().enumerate() {
        *r = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1) | 1;
    }
    let mut waiting = [false; PES];
    let mut pending: [Option<u64>; PES] = [None; PES];
    let (mut hits, mut misses, mut stalls) = (0u64, 0u64, 0u64);
    for now in 0..cycles {
        // One memory response per cycle fills the cache and wakes its PEs.
        if let Some(&(ready, line)) = mem.front() {
            if ready <= now {
                mem.pop_front();
                let base = (line as usize % SETS) * WAYS;
                let victim = (0..WAYS).min_by_key(|&w| age[base + w]).unwrap_or(0);
                tags[base + victim] = line;
                age[base + victim] = now;
                for p in mshr.remove(&line).unwrap_or_default() {
                    waiting[p as usize] = false;
                }
            }
        }
        for p in 0..PES {
            if waiting[p] {
                continue;
            }
            let line = pending[p].take().unwrap_or_else(|| {
                let mut x = rng[p];
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                rng[p] = x;
                if x % 4 == 0 {
                    x % FAR
                } else {
                    x % HOT
                }
            });
            let base = (line as usize % SETS) * WAYS;
            if let Some(w) = (0..WAYS).find(|&w| tags[base + w] == line) {
                age[base + w] = now;
                hits += 1;
            } else if let Some(v) = mshr.get_mut(&line) {
                v.push(p as u16);
                waiting[p] = true;
                misses += 1;
            } else if mshr.len() < MSHRS {
                mshr.insert(line, vec![p as u16]);
                mem.push_back((now + LATENCY + line % 7, line));
                waiting[p] = true;
                misses += 1;
            } else {
                pending[p] = Some(line);
                stalls += 1;
            }
        }
    }
    hits ^ (misses << 20) ^ (stalls << 40)
}

/// Host seconds of one half of the yardstick.
///
/// # Errors
///
/// When the checksum is not [`HALF_CHECKSUM`].
pub fn half() -> Result<f64, String> {
    let t = Instant::now();
    let sum = std::hint::black_box(work(std::hint::black_box(HALF_CYCLES)));
    let secs = t.elapsed().as_secs_f64();
    if sum == HALF_CHECKSUM {
        Ok(secs)
    } else {
        Err(format!("yardstick checksum {sum} != {HALF_CHECKSUM}"))
    }
}
