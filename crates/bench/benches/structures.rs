//! Microbenchmarks of the MOMS core data structures: cuckoo MSHR table
//! and subentry buffer — the per-cycle-critical paths of the bank.

use std::collections::VecDeque;

use bench::microbench::Group;

use moms::cuckoo::{CuckooMshr, InsertOutcome, MshrEntry};
use moms::subentry::{Subentry, SubentryBuffer};
use simkit::SplitMix64;

fn bench_cuckoo() {
    let mut group = Group::new("cuckoo_mshr", 10);
    let n = 3_000u64;
    group.throughput_elements(n);

    for load in [0.5f64, 0.85] {
        group.bench(
            &format!("insert_lookup_remove_load{load}"),
            || {
                let cap = (n as f64 / load) as usize / 4 * 4 + 4;
                let mut rng = SplitMix64::new(7);
                let lines: Vec<u64> = (0..n).map(|_| rng.next_u64() >> 20).collect();
                (CuckooMshr::new(cap, 4, 16), lines)
            },
            |(mut t, lines)| {
                let mut placed = 0u64;
                for &l in &lines {
                    if matches!(
                        t.insert(MshrEntry {
                            line: l,
                            head_row: 0,
                            tail_row: 0,
                            pending: 1,
                        }),
                        InsertOutcome::Placed { .. }
                    ) {
                        placed += 1;
                    }
                }
                for &l in &lines {
                    std::hint::black_box(t.lookup(l));
                }
                for &l in &lines {
                    t.remove(l);
                }
                std::hint::black_box(placed)
            },
        );
    }
}

fn bench_subentries() {
    let mut group = Group::new("subentry_buffer", 10);
    let n = 10_000u32;
    group.throughput_elements(n as u64);

    group.bench(
        "append_drain_chained",
        || {
            (
                SubentryBuffer::new(16_384, 4, true),
                VecDeque::with_capacity(n as usize),
            )
        },
        |(mut buf, mut replay)| {
            let head = buf.alloc_row().expect("space");
            let mut tail = head;
            for i in 0..n {
                tail = buf
                    .append(
                        tail,
                        Subentry {
                            id: i % 65536,
                            word: (i % 16) as u8,
                        },
                    )
                    .expect("space");
            }
            std::hint::black_box(buf.drain_chain_into(head, 0, &mut replay))
        },
    );
}

fn main() {
    bench_cuckoo();
    bench_subentries();
}
