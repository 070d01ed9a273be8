//! The host-speed probe timed around every measured repetition.
//!
//! On a shared host the simulator's speed drifts by a third over minutes
//! (other tenants' cache, memory and core use), while a tight ALU loop
//! barely moves.  The probe therefore mimics what makes the simulator
//! sensitive, in code of the benchmark's own that no change to the
//! program can touch: a large code footprint (2048 distinct functions
//! called in a pseudo-random order) and a small discrete-event loop over a
//! heap, per-flow sample vectors and a 4 MiB table.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

use crate::timing::host_now;

/// Probe time of the reference host, ns: the unit the normalized
/// end-to-end metrics are expressed in (a 2-vCPU Xeon VM measured about
/// this much).
pub const REFERENCE_NS: f64 = 8.0e6;

/// One xorshift step: the input stream of the probe and the layer drivers
/// (the simulator's own generator is never used, so no program change can
/// alter their inputs).
pub(crate) fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One of the footprint kernel's functions; each `N` is separate machine
/// code with its own constants and branch pattern.
#[inline(never)]
fn step<const N: u64>(x: u64) -> u64 {
    let mut y = x ^ N;
    for _ in 0..N % 3 + 1 {
        y = y
            .wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ N)
            .rotate_left((N % 61) as u32 + 1);
        if y & (1 << (N % 13)) != 0 {
            y ^= N.wrapping_mul(31);
        } else {
            y = y.wrapping_add(N >> 2);
        }
    }
    y
}

type Step = fn(u64) -> u64;

macro_rules! steps16 {
    ($b:expr) => {
        [
            step::<{ $b * 16 }> as Step,
            step::<{ $b * 16 + 1 }>,
            step::<{ $b * 16 + 2 }>,
            step::<{ $b * 16 + 3 }>,
            step::<{ $b * 16 + 4 }>,
            step::<{ $b * 16 + 5 }>,
            step::<{ $b * 16 + 6 }>,
            step::<{ $b * 16 + 7 }>,
            step::<{ $b * 16 + 8 }>,
            step::<{ $b * 16 + 9 }>,
            step::<{ $b * 16 + 10 }>,
            step::<{ $b * 16 + 11 }>,
            step::<{ $b * 16 + 12 }>,
            step::<{ $b * 16 + 13 }>,
            step::<{ $b * 16 + 14 }>,
            step::<{ $b * 16 + 15 }>,
        ]
    };
}

macro_rules! steps256 {
    ($b:expr) => {
        [
            steps16!($b * 16),
            steps16!($b * 16 + 1),
            steps16!($b * 16 + 2),
            steps16!($b * 16 + 3),
            steps16!($b * 16 + 4),
            steps16!($b * 16 + 5),
            steps16!($b * 16 + 6),
            steps16!($b * 16 + 7),
            steps16!($b * 16 + 8),
            steps16!($b * 16 + 9),
            steps16!($b * 16 + 10),
            steps16!($b * 16 + 11),
            steps16!($b * 16 + 12),
            steps16!($b * 16 + 13),
            steps16!($b * 16 + 14),
            steps16!($b * 16 + 15),
        ]
    };
}

static STEPS: [[[Step; 16]; 16]; 8] = [
    steps256!(0),
    steps256!(1),
    steps256!(2),
    steps256!(3),
    steps256!(4),
    steps256!(5),
    steps256!(6),
    steps256!(7),
];

/// 60 000 calls spread over the 2048 functions.
fn footprint_kernel() -> u64 {
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut acc = 0u64;
    for _ in 0..60_000 {
        let i = (xorshift(&mut x) % 2048) as usize;
        acc = acc.wrapping_add(STEPS[i >> 8][(i >> 4) & 15][i & 15](x ^ acc));
    }
    acc
}

/// 40 000 events of a discrete-event loop: 400 pending events, 64 flows
/// each recording a sample per event, and a 4 MiB table touched per event.
fn event_loop_kernel() -> u64 {
    struct Flow {
        samples: Vec<f64>,
        last: u64,
    }
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(512);
    let mut flows: Vec<Flow> = (0..64)
        .map(|_| Flow {
            samples: Vec::new(),
            last: 0,
        })
        .collect();
    let mut table = vec![0u64; 1 << 19];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for id in 0..400u32 {
        heap.push(Reverse((xorshift(&mut x) % 1_000_000, id)));
    }
    for _ in 0..40_000 {
        let Reverse((now, id)) = heap.pop().expect("the heap holds 400 events");
        let r = xorshift(&mut x);
        let f = &mut flows[id as usize & 63];
        let wait = now.saturating_sub(f.last);
        f.last = now;
        f.samples.push(wait as f64 * 1e-9);
        let slot = (r as usize ^ id as usize) & ((1 << 19) - 1);
        table[slot] = table[slot].wrapping_add(wait);
        let gap = if r & 3 == 0 {
            5_000 + r % 2_000_000
        } else {
            1_000 + r % 100_000
        };
        heap.push(Reverse((now + gap, id)));
    }
    table[(x & ((1 << 19) - 1)) as usize]
        ^ flows.iter().map(|f| f.samples.len() as u64).sum::<u64>()
}

/// Host nanoseconds of one probe: each kernel's fastest of three runs,
/// summed, so a single interruption does not read as a slow host.
pub fn probe_ns() -> f64 {
    let fastest = |kernel: fn() -> u64| {
        (0..3)
            .map(|_| {
                let t = host_now();
                black_box(kernel());
                t.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    fastest(footprint_kernel) + fastest(event_loop_kernel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernels_are_fixed_work() {
        assert_eq!(footprint_kernel(), footprint_kernel());
        assert_eq!(event_loop_kernel(), event_loop_kernel());
        assert_ne!(step::<1>(7), step::<2>(7));
        assert!(probe_ns() > 0.0);
    }
}
