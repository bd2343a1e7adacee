//! `bfs-wt-fabric8`: BFS from node 0 on the WT stand-in over an 8-device
//! all-to-all fabric with two-level 16/16 MOMS, at one simulation thread
//! on purpose (on a small shared host a threaded fabric measures the
//! neighbours, not the simulator).

use std::time::Instant;

use accel::{Fabric, FabricError, FabricRunResult};
use algos::Algorithm;
use bench::arch::ArchPoint;
use bench::runner::{prepare_graph, RunSpec};
use graph::benchmarks::BenchmarkId;
use graph::reorder::Preprocess;
use graph::CooGraph;

use crate::spans::Recorder;
use crate::{median, Case, Layers, Rep, Tally};

const SHRINK: u64 = 16;
const DEVICES: usize = 8;
const ALGO: Algorithm = Algorithm::Bfs { source: 0 };

pub(crate) struct BfsWtFabric8 {
    g: CooGraph,
    built: Option<Fabric>,
    last: Option<FabricRunResult>,
}

fn fingerprint(r: &FabricRunResult) -> String {
    format!(
        "cycles={} iters={} edges={} pe={:?} link={:?} stats={:?} recovery={:?}",
        r.cycles, r.iterations, r.edges_processed, r.pe_cycles, r.link, r.stats, r.recovery
    )
}

impl BfsWtFabric8 {
    fn rep_of(
        &mut self,
        out: Result<FabricRunResult, FabricError>,
        golden: &[u32],
        secs: f64,
    ) -> Rep {
        let mut rep = Rep {
            secs,
            attempted: 1,
            ..Rep::default()
        };
        match out {
            Ok(r) => {
                rep.cycles = r.cycles;
                rep.requests = 1;
                rep.fingerprint = fingerprint(&r);
                if r.values != golden {
                    let i = (0..golden.len()).find(|&i| r.values.get(i) != Some(&golden[i]));
                    rep.failed = 1;
                    rep.error = Some(format!("values differ from golden (first at node {i:?})"));
                }
                self.last = Some(r);
            }
            Err(e) => {
                rep.failed = 1;
                rep.error = Some(format!("run_to_outcome: {e}"));
            }
        }
        rep
    }
}

impl Case for BfsWtFabric8 {
    fn setup(_seed: u64, rec: &mut Recorder) -> Result<Self, String> {
        let g = rec.sub("graph.prepare", |_| {
            prepare_graph(BenchmarkId::Wt, Preprocess::DbgHash, SHRINK, false)
        });
        let mut spec = RunSpec::new(ArchPoint::two_level_16_16());
        spec.shrink = SHRINK;
        let mut rc = spec.run_config();
        rc.devices = DEVICES;
        rc.sim_threads = 1;
        let fab = rec.sub("fabric.new", |_| Fabric::new(&g, ALGO, &rc));
        Ok(BfsWtFabric8 {
            g,
            built: Some(fab),
            last: None,
        })
    }

    fn golden(&self) -> Vec<u32> {
        algos::golden::run(&ALGO, &self.g)
    }

    fn rep(&mut self, golden: &[u32], rec: &mut Recorder) -> Rep {
        let mut fab = self.built.take().expect("one rep per set-up");
        let t = Instant::now();
        let out = rec.sub("fabric.run", |_| fab.run_to_outcome(None));
        let secs = t.elapsed().as_secs_f64();
        self.rep_of(out, golden, secs)
    }

    fn layers(
        &mut self,
        rec: &mut Recorder,
        reference: &Rep,
        layers: &mut Layers,
        _tally: &mut Tally,
    ) {
        layers.insert("graph.prepare_s", median(&rec.durations("graph.prepare")));
        layers.insert("fabric.new_s", median(&rec.durations("fabric.new")));
        let run_s = median(&rec.durations("fabric.run"));
        layers.insert("fabric.run_s", run_s);
        layers.insert(
            "fabric.host_ns_per_device_cycle",
            run_s * 1e9 / (DEVICES as f64 * reference.cycles as f64),
        );
        let Some(r) = &self.last else { return };
        layers.insert(
            "fabric.link_words",
            r.link.per_link.iter().map(|l| l.words).sum::<u64>() as f64,
        );
        layers.insert("fabric.messages", r.link.messages_sent as f64);
        layers.insert("fabric.exchange_cycles", r.link.exchange_cycles as f64);
        layers.insert("fabric.retransmissions", r.link.retransmissions as f64);
        crate::single::pe_layers(&r.pe_cycles, layers);
        // Merged device statistics carry the MOMS and DRAM counters.
        let s = &r.stats;
        let (hits, misses) = (s.get("cache_probe_hits"), s.get("cache_probe_misses"));
        layers.insert("moms.hits", hits as f64);
        layers.insert("moms.misses", misses as f64);
        layers.insert("moms.hit_rate", hits as f64 / (hits + misses).max(1) as f64);
        layers.insert("moms.stall_mshr_full", s.get("stall_mshr_insert") as f64);
        layers.insert(
            "moms.stall_subentry_full",
            s.get("stall_subentry_full") as f64,
        );
        let (row_hits, row_misses) = (s.get("row_hits"), s.get("row_misses"));
        layers.insert("dram.read_lines", s.get("read_lines") as f64);
        layers.insert(
            "dram.row_hit_rate",
            row_hits as f64 / (row_hits + row_misses).max(1) as f64,
        );
        layers.insert("dram.bus_busy_cycles", s.get("bus_busy_cycles") as f64);
    }
}
