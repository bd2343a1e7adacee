//! Shared, private, and two-level MOMS topologies (Fig. 8), with
//! multidie-aware crossbars (Figs. 5/7) and static bank→channel binding.
//!
//! * **Shared** — all PEs reach all banks through a crossbar; each bank is
//!   statically bound to the DRAM channel (and SLR) that owns its address
//!   range, so bank→DRAM never crosses dies.
//! * **Private** — one bank per PE, no inter-PE coalescing, banks reach any
//!   channel.
//! * **Two-level** — private banks filter requests; their line misses go
//!   through the crossbar to shared banks, whose responses return over a
//!   64-bit-wide link (8 cycles per 64 B line).
//!
//! Die crossings add [`MomsSystemConfig::crossing_latency`] cycles per SLR
//! hop in each direction; requests and responses between same-SLR endpoints
//! pay only the base network latency.

use std::collections::VecDeque;

use simkit::trace::{TraceConfig, TraceEvent, Tracer, Track};
use simkit::{BitSet, Cycle, Fifo, Stats, TickCount};

use dram::{DramRequest, MemorySystem, INTERLEAVE_BYTES, LINE_BYTES};

use crate::bank::{MomsBank, MomsBankSnapshot, MomsReq, MomsResp};
use crate::config::MomsConfig;

/// Point-in-time view of a whole MOMS topology, returned by
/// [`MomsSystem::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MomsSnapshot {
    /// Accumulated per-bank counters across both levels.
    pub banks: MomsBankSnapshot,
    /// Peak simultaneous pending misses, counted at the level the PEs talk
    /// to (private when present, else shared) to avoid double-counting a
    /// miss that is pending in both levels.
    pub peak_outstanding_misses: usize,
    /// Peak simultaneous outstanding lines (live MSHRs) over all banks.
    pub peak_outstanding_lines: usize,
}

/// MOMS organisation (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// A single level of banks shared by every PE.
    Shared,
    /// One bank per PE, no shared level.
    Private,
    /// Private banks backed by shared banks.
    TwoLevel,
}

impl Topology {
    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Topology::Shared => "shared",
            Topology::Private => "private",
            Topology::TwoLevel => "two-level",
        }
    }
}

/// Configuration of a [`MomsSystem`].
#[derive(Debug, Clone)]
pub struct MomsSystemConfig {
    /// Organisation of the banks.
    pub topology: Topology,
    /// Number of PE-side ports.
    pub num_pes: usize,
    /// Number of DRAM channels the shared level is bound to.
    pub num_channels: usize,
    /// Total shared banks (must be a multiple of `num_channels`); ignored
    /// for [`Topology::Private`].
    pub shared_banks: usize,
    /// Shared-bank configuration.
    pub shared: MomsConfig,
    /// Private-bank configuration; ignored for [`Topology::Shared`].
    pub private: MomsConfig,
    /// SLR hosting each PE.
    pub pe_slr: Vec<u8>,
    /// SLR hosting each DRAM channel (its banks live there too).
    pub channel_slr: Vec<u8>,
    /// Extra latency per SLR boundary crossed, each direction (Fig. 5).
    pub crossing_latency: u64,
    /// Network latency between same-SLR endpoints.
    pub base_net_latency: u64,
    /// Cycles a 64 B line occupies the shared→private response link
    /// (64-bit width ⇒ 8).
    pub resp_link_cycles_per_line: u64,
}

impl MomsSystemConfig {
    /// A paper-like two-level 16 PE / 16 bank configuration on 4 channels.
    pub fn paper_two_level_16_16() -> Self {
        MomsSystemConfig {
            topology: Topology::TwoLevel,
            num_pes: 16,
            num_channels: 4,
            shared_banks: 16,
            shared: MomsConfig::paper_shared_bank(),
            private: MomsConfig::paper_private_bank(false),
            pe_slr: default_pe_slrs(16),
            channel_slr: default_channel_slrs(4),
            crossing_latency: 4,
            base_net_latency: 2,
            resp_link_cycles_per_line: 8,
        }
    }

    /// Validates structural invariants.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent sizes (see source for the exact conditions).
    pub fn validate(&self) {
        assert!(self.num_pes > 0, "at least one PE");
        assert!(self.num_channels > 0, "at least one channel");
        assert_eq!(self.pe_slr.len(), self.num_pes, "one SLR per PE");
        assert_eq!(
            self.channel_slr.len(),
            self.num_channels,
            "one SLR per channel"
        );
        if !matches!(self.topology, Topology::Private) {
            assert!(self.shared_banks > 0, "shared level needs banks");
            assert_eq!(
                self.shared_banks % self.num_channels,
                0,
                "banks must split evenly across channels"
            );
        }
        if matches!(self.topology, Topology::TwoLevel) {
            assert!(
                self.private.burst_assembly.is_none(),
                "burst assembly only applies to banks that talk to DRAM;                  two-level private banks talk to the shared MOMS"
            );
        }
    }
}

/// The paper's SLR split for PEs: 30% bottom (SLR0), 15% central (SLR1),
/// 55% top (SLR2) (§V-A).
pub fn default_pe_slrs(n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| {
            let f = (i as f64 + 0.5) / n as f64;
            if f < 0.30 {
                0
            } else if f < 0.45 {
                1
            } else {
                2
            }
        })
        .collect()
}

/// The f1 channel placement: central SLR hosts two controllers, the outer
/// SLRs one each (§V-A).
pub fn default_channel_slrs(n: usize) -> Vec<u8> {
    match n {
        1 => vec![1],
        2 => vec![1, 1],
        3 => vec![0, 1, 1],
        _ => (0..n)
            .map(|i| match i % 4 {
                0 => 0,
                1 | 2 => 1,
                _ => 2,
            })
            .collect(),
    }
}

/// Lines per channel-interleave block.
const LINES_PER_BLOCK: u64 = INTERLEAVE_BYTES / LINE_BYTES;

/// DRAM id bit marking MOMS ownership.
const MOMS_ID_FLAG: u64 = 1 << 63;

fn encode_dram_id(bank: usize, line: u64) -> u64 {
    debug_assert!(line < 1 << 48, "line address exceeds 48 bits");
    MOMS_ID_FLAG | (bank as u64) << 48 | line
}

fn decode_dram_id(id: u64) -> (usize, u64) {
    (((id >> 48) & 0x7FFF) as usize, id & ((1 << 48) - 1))
}

/// An item travelling through a network with a per-item ready time.
#[derive(Debug, Clone, Copy)]
struct InFlight<T> {
    ready: Cycle,
    item: T,
}

/// Round-robin pointer helper.
fn rr_next(ptr: &mut usize, n: usize) -> usize {
    let v = *ptr;
    *ptr = (v + 1) % n.max(1);
    v
}

/// A complete MOMS as seen by the accelerator: per-PE request/response
/// ports on one side, one or more DRAM channels on the other.
///
/// Drive with [`tick`](Self::tick); route DRAM responses whose id has bit
/// 63 set back via [`dram_response`](Self::dram_response).
///
/// Every scan of the tick visits only the components that can act: the
/// ports, network lanes, and banks holding work are tracked in
/// [`BitSet`]s and walked in index order, which is the order of the full
/// scans they replace. With [`set_skip_quiet`](Self::set_skip_quiet) on,
/// a bank whose tick would be a no-op leaves its awake set and costs
/// nothing until a request or a memory response is pushed into it.
#[derive(Debug)]
pub struct MomsSystem {
    cfg: MomsSystemConfig,
    /// Private banks (one per PE); empty for [`Topology::Shared`].
    private: Vec<MomsBank>,
    /// Shared banks; empty for [`Topology::Private`].
    shared: Vec<MomsBank>,
    /// Per-PE request entry queues.
    pe_req: Vec<Fifo<MomsReq>>,
    /// Per-PE response exit queues.
    pe_resp: Vec<Fifo<MomsResp>>,
    /// Requests in flight towards each shared bank.
    req_net: Vec<Vec<InFlight<MomsReq>>>,
    /// Responses in flight towards each PE (from the shared level in
    /// Shared topology).
    resp_net: Vec<Vec<InFlight<MomsResp>>>,
    /// Two-level only: line responses in flight to each PE's private bank.
    line_net: Vec<Vec<InFlight<u64>>>,
    /// Two-level only: cycle at which each PE's response link frees up.
    link_free: Vec<Cycle>,
    /// Per-bank stash of DRAM responses awaiting bank queue space.
    dram_stash: Vec<VecDeque<(u64, u32)>>,
    /// Round-robin arbitration pointers per shared bank.
    req_rr: Vec<usize>,
    /// Skip the ticks of quiet banks.
    skip_quiet: bool,
    /// Banks that may have work, a superset of the non-quiet ones (and
    /// of those with stashed DRAM responses). Only quiet-bank skipping
    /// removes members, so with it off every bank ticks every cycle.
    awake_private: BitSet,
    awake_shared: BitSet,
    /// PEs whose request / response port holds items, visible or staged.
    req_ports: BitSet,
    resp_ports: BitSet,
    /// Network lanes holding in-flight items: `req_net` per shared bank,
    /// `resp_net` and `line_net` per PE.
    req_lanes: BitSet,
    resp_lanes: BitSet,
    line_lanes: BitSet,
    /// Crossbar memo, rebuilt every tick: per shared bank, the PEs whose
    /// head line request targets it (hashed once per head, not once per
    /// round-robin probe), and the banks with any such PE.
    targets: Vec<BitSet>,
    target_banks: BitSet,
    banks_per_channel: usize,
    /// Calls to [`tick`](Self::tick), and bank ticks actually executed.
    ticks: u64,
    bank_ticks: u64,
    /// DRAM-side transaction counters kept as plain fields (hot path);
    /// folded into the [`stats`](Self::stats) aggregate on demand.
    n_dram_line_requests: u64,
    n_dram_transactions: u64,
    /// Optional request trace: accepted `(pe, line)` pairs, capped.
    trace: Option<Vec<(u16, u64)>>,
    trace_cap: usize,
}

impl MomsSystem {
    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: MomsSystemConfig) -> Self {
        cfg.validate();
        let private = match cfg.topology {
            Topology::Shared => Vec::new(),
            _ => (0..cfg.num_pes)
                .map(|_| MomsBank::new(cfg.private.clone()))
                .collect(),
        };
        let shared = match cfg.topology {
            Topology::Private => Vec::new(),
            _ => (0..cfg.shared_banks)
                .map(|_| MomsBank::new(cfg.shared.clone()))
                .collect(),
        };
        let nb = shared.len().max(1);
        let banks_per_channel = if shared.is_empty() {
            0
        } else {
            cfg.shared_banks / cfg.num_channels
        };
        let n_dram_requesters = match cfg.topology {
            Topology::Private => cfg.num_pes,
            _ => cfg.shared_banks,
        };
        let npes = cfg.num_pes;
        MomsSystem {
            pe_req: (0..cfg.num_pes).map(|_| Fifo::new(4)).collect(),
            pe_resp: (0..cfg.num_pes).map(|_| Fifo::new(16)).collect(),
            // Network occupancy is credit-bounded by the destination
            // queues; reserve enough up front that steady state never
            // grows these buffers.
            req_net: (0..nb).map(|_| Vec::with_capacity(32)).collect(),
            resp_net: (0..cfg.num_pes).map(|_| Vec::with_capacity(32)).collect(),
            line_net: (0..cfg.num_pes).map(|_| Vec::with_capacity(32)).collect(),
            link_free: vec![0; cfg.num_pes],
            dram_stash: vec![VecDeque::new(); n_dram_requesters],
            req_rr: vec![0; nb],
            skip_quiet: false,
            awake_private: BitSet::full(private.len()),
            awake_shared: BitSet::full(shared.len()),
            req_ports: BitSet::new(npes),
            resp_ports: BitSet::new(npes),
            req_lanes: BitSet::new(nb),
            resp_lanes: BitSet::new(npes),
            line_lanes: BitSet::new(npes),
            targets: vec![BitSet::new(npes); nb],
            target_banks: BitSet::new(nb),
            banks_per_channel,
            ticks: 0,
            bank_ticks: 0,
            n_dram_line_requests: 0,
            n_dram_transactions: 0,
            trace: None,
            trace_cap: 0,
            private,
            shared,
            cfg,
        }
    }

    /// Which shared bank owns a line: the channel that owns the address,
    /// then a hash over that channel's banks.
    fn shared_bank_for_line(&self, line: u64) -> usize {
        let ch = simkit::fast_mod(line / LINES_PER_BLOCK, self.cfg.num_channels as u64) as usize;
        let mut z = line ^ 0xD6E8_FEB8_6659_FD93;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 31;
        let within = simkit::fast_mod(z, self.banks_per_channel as u64) as usize;
        ch * self.banks_per_channel + within
    }

    fn net_latency(&self, slr_a: u8, slr_b: u8) -> u64 {
        let hops = slr_a.abs_diff(slr_b) as u64;
        self.cfg.base_net_latency + self.cfg.crossing_latency * hops
    }

    fn shared_bank_slr(&self, bank: usize) -> u8 {
        let ch = bank / self.banks_per_channel.max(1);
        self.cfg.channel_slr[ch.min(self.cfg.num_channels - 1)]
    }

    /// When `on`, [`tick`](Self::tick) skips every bank whose tick would
    /// be a no-op ([`MomsBank::is_quiet`]) until a request or a memory
    /// response wakes it. Off by default: the reference schedule ticks
    /// every bank every cycle.
    pub fn set_skip_quiet(&mut self, on: bool) {
        self.skip_quiet = on;
        self.awake_private = BitSet::full(self.private.len());
        self.awake_shared = BitSet::full(self.shared.len());
    }

    /// Bank ticks executed vs skipped since construction, over both
    /// levels.
    pub fn bank_work(&self) -> TickCount {
        TickCount::of(
            self.private.len() + self.shared.len(),
            self.ticks,
            self.bank_ticks,
        )
    }

    /// `true` when PE `pe` can enqueue a request this cycle.
    pub fn can_accept(&self, pe: usize) -> bool {
        self.pe_req[pe].can_push()
    }

    /// Offers a request from PE `pe`; the id must fit 16 bits (it is
    /// combined with the PE index inside shared banks). Returns `false`
    /// when the port is full.
    ///
    /// # Panics
    ///
    /// Panics if `req.id` exceeds 16 bits or `pe` is out of range.
    pub fn try_request(&mut self, pe: usize, req: MomsReq) -> bool {
        assert!(req.id < 1 << 16, "request id must fit 16 bits");
        let accepted = self.pe_req[pe].push(req).is_ok();
        if accepted {
            self.req_ports.insert(pe);
            if let Some(t) = &mut self.trace {
                if t.len() < self.trace_cap {
                    t.push((pe as u16, req.line));
                }
            }
        }
        accepted
    }

    /// Starts recording accepted requests as a `(pe, line)` trace, keeping
    /// at most `cap` entries. Replay it against other configurations with
    /// [`crate::harness::TraceRun::execute_tagged`].
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace = Some(Vec::with_capacity(cap.min(1 << 20)));
        self.trace_cap = cap;
    }

    /// Takes the recorded trace (empty if tracing was never enabled).
    pub fn take_trace(&mut self) -> Vec<(u16, u64)> {
        self.trace.take().unwrap_or_default()
    }

    /// Installs event tracers on every bank of both levels (private banks
    /// on `moms.private[i]` tracks, shared banks on `moms.shared[i]`).
    /// Distinct from [`enable_trace`](Self::enable_trace), which records
    /// `(pe, line)` request pairs for replay harnesses.
    pub fn enable_event_tracing(&mut self, cfg: &TraceConfig) {
        for (i, b) in self.private.iter_mut().enumerate() {
            b.set_tracer(Tracer::for_track(Track::moms_private(i), cfg));
        }
        for (i, b) in self.shared.iter_mut().enumerate() {
            b.set_tracer(Tracer::for_track(Track::moms_shared(i), cfg));
        }
    }

    /// Drains every bank's event stream, one `Vec` per bank in a
    /// deterministic order (private banks first, then shared).
    pub fn take_trace_events(&mut self) -> Vec<Vec<TraceEvent>> {
        self.private
            .iter_mut()
            .chain(self.shared.iter_mut())
            .map(|b| b.take_trace_events())
            .collect()
    }

    /// The last `n` events across all banks, merged in time order.
    pub fn trace_tail(&self, n: usize) -> Vec<TraceEvent> {
        let streams = self
            .private
            .iter()
            .chain(self.shared.iter())
            .map(|b| b.trace_tail(n))
            .collect();
        let merged = simkit::trace::merge_events(streams);
        let skip = merged.len().saturating_sub(n);
        merged.into_iter().skip(skip).collect()
    }

    /// Events lost to ring wraparound, summed over banks.
    pub fn trace_dropped(&self) -> u64 {
        self.private
            .iter()
            .chain(self.shared.iter())
            .map(|b| b.trace_dropped())
            .sum()
    }

    /// Current live MSHR entries summed over every bank (for sampling).
    pub fn mshr_occupancy(&self) -> usize {
        self.private
            .iter()
            .chain(self.shared.iter())
            .map(|b| b.snapshot().mshr_occupancy)
            .sum()
    }

    /// Current live subentries (pending misses) summed over every bank.
    pub fn subentry_used(&self) -> usize {
        self.private
            .iter()
            .chain(self.shared.iter())
            .map(|b| b.subentry_used())
            .sum()
    }

    /// Pops a completed response for PE `pe`, with the original id.
    #[inline]
    pub fn pop_response(&mut self, pe: usize) -> Option<MomsResp> {
        let resp = self.pe_resp[pe].pop();
        if self.pe_resp[pe].is_empty() {
            self.resp_ports.remove(pe);
        }
        resp
    }

    /// `true` when [`pop_response`](Self::pop_response) for PE `pe` would
    /// return a response this cycle.
    #[inline]
    pub fn has_response(&self, pe: usize) -> bool {
        self.pe_resp[pe].visible_len() > 0
    }

    /// `true` when `id` belongs to this MOMS (set bit 63).
    pub fn owns_dram_id(id: u64) -> bool {
        id & MOMS_ID_FLAG != 0
    }

    /// Delivers a DRAM read completion previously issued by this system;
    /// `lines` is the response's line count (1 unless burst assembly is
    /// enabled on the issuing bank).
    pub fn dram_response(&mut self, id: u64, lines: u32) {
        let (bank, line) = decode_dram_id(id);
        self.dram_stash[bank].push_back((line, lines));
        match self.cfg.topology {
            Topology::Private => self.awake_private.insert(bank),
            _ => self.awake_shared.insert(bank),
        }
    }

    /// Advances one cycle, exchanging line fetches with `mem`.
    pub fn tick(&mut self, now: Cycle, mem: &mut MemorySystem) {
        self.ticks += 1;
        for pe in self.req_ports.iter() {
            self.pe_req[pe].tick();
        }
        for pe in self.resp_ports.iter() {
            self.pe_resp[pe].tick();
        }

        match self.cfg.topology {
            Topology::Shared => self.tick_crossbar(now),
            Topology::Private => self.tick_private_front(),
            Topology::TwoLevel => {
                self.tick_private_front();
                self.tick_crossbar(now);
            }
        }

        // Tick banks and exchange with DRAM.
        self.tick_dram_side(now, mem);

        // Deliver responses to PEs.
        match self.cfg.topology {
            Topology::Shared => self.deliver_shared_responses_to_pes(now),
            Topology::Private => self.deliver_private_responses(),
            Topology::TwoLevel => {
                self.route_shared_lines_to_private(now);
                self.deliver_private_responses();
            }
        }
    }

    /// Line address of PE `pe`'s head request waiting for the crossbar:
    /// its port's head (Shared) or its private bank's line miss
    /// (TwoLevel).
    fn crossbar_head(&self, pe: usize) -> Option<u64> {
        match self.cfg.topology {
            Topology::Shared => self.pe_req[pe].peek().map(|r| r.line),
            _ => self.private[pe].peek_mem_request().map(|(line, count)| {
                debug_assert_eq!(count, 1, "two-level private banks emit single lines");
                line
            }),
        }
    }

    /// Takes PE `pe`'s head crossbar request, tagged for the shared bank
    /// with the PE it must return to.
    fn crossbar_pop(&mut self, pe: usize) -> MomsReq {
        match self.cfg.topology {
            Topology::Shared => {
                let req = self.pe_req[pe].pop().expect("memoised head present");
                if self.pe_req[pe].is_empty() {
                    self.req_ports.remove(pe);
                }
                MomsReq {
                    id: (pe as u32) << 16 | req.id,
                    ..req
                }
            }
            _ => {
                let (line, _) = self.private[pe].pop_mem_request().expect("memoised head");
                MomsReq {
                    line,
                    word: 0,
                    id: pe as u32,
                }
            }
        }
    }

    /// PE ports (Shared) or private-bank line misses (TwoLevel) →
    /// crossbar → shared banks. Each shared bank with input credit grants
    /// one PE per cycle, round-robin from its pointer.
    fn tick_crossbar(&mut self, now: Cycle) {
        let npes = self.cfg.num_pes;
        let sources = match self.cfg.topology {
            Topology::Shared => &self.req_ports,
            _ => &self.awake_private,
        };
        for pe in sources.iter() {
            if let Some(line) = self.crossbar_head(pe) {
                let b = self.shared_bank_for_line(line);
                self.targets[b].insert(pe);
                self.target_banks.insert(b);
            }
        }
        let mut from = 0;
        while let Some(b) = self.target_banks.next_from(from) {
            from = b + 1;
            // Credit: in-flight plus queued must fit the bank input queue.
            let inflight = self.req_net[b].len();
            if inflight + self.shared[b].in_q_len() >= self.shared[b].config().in_queue {
                continue;
            }
            let Some(pe) = self.targets[b].next_cyclic(self.req_rr[b]) else {
                continue;
            };
            let req = self.crossbar_pop(pe);
            // A later bank in this same tick may take this PE's next
            // request: refresh the memo.
            self.targets[b].remove(pe);
            if let Some(line) = self.crossbar_head(pe) {
                let nb = self.shared_bank_for_line(line);
                self.targets[nb].insert(pe);
                self.target_banks.insert(nb);
            }
            let lat = self.net_latency(self.cfg.pe_slr[pe], self.shared_bank_slr(b));
            self.req_net[b].push(InFlight {
                ready: now + lat,
                item: req,
            });
            self.req_lanes.insert(b);
            rr_next(&mut self.req_rr[b], npes);
        }
        for b in self.target_banks.iter() {
            self.targets[b].clear();
        }
        self.target_banks.clear();

        // Mature arrivals into bank inputs.
        let mut walk = self.req_lanes.cursor();
        while let Some(b) = walk.next(&self.req_lanes) {
            let bank = &mut self.shared[b];
            let mut accepted = false;
            Self::drain_ready(&mut self.req_net[b], now, |item| {
                let ok = bank.can_accept() && bank.try_request(item);
                accepted |= ok;
                ok
            });
            if accepted {
                self.awake_shared.insert(b);
            }
            if self.req_net[b].is_empty() {
                self.req_lanes.remove(b);
            }
        }
    }

    /// PE queues → own private bank (Private and TwoLevel topologies).
    fn tick_private_front(&mut self) {
        let mut walk = self.req_ports.cursor();
        while let Some(pe) = walk.next(&self.req_ports) {
            if let Some(&req) = self.pe_req[pe].peek() {
                if self.private[pe].can_accept() && self.private[pe].try_request(req) {
                    self.pe_req[pe].pop();
                    self.awake_private.insert(pe);
                    if self.pe_req[pe].is_empty() {
                        self.req_ports.remove(pe);
                    }
                }
            }
        }
    }

    /// Ticks awake banks, forwards their memory requests to DRAM (with
    /// static channel binding), and feeds stashed DRAM responses back. A
    /// quiet bank with nothing stashed leaves the awake set when
    /// skipping is on.
    fn tick_dram_side(&mut self, now: Cycle, mem: &mut MemorySystem) {
        let to_dram_direct = matches!(self.cfg.topology, Topology::Private);

        let mut walk = self.awake_private.cursor();
        while let Some(i) = walk.next(&self.awake_private) {
            let stashed = to_dram_direct && !self.dram_stash[i].is_empty();
            if self.skip_quiet && !stashed && self.private[i].is_quiet() {
                self.awake_private.remove(i);
                continue;
            }
            self.bank_ticks += 1;
            self.private[i].tick(now);
            if to_dram_direct {
                self.exchange_with_dram(i, false, now, mem);
            }
        }

        let mut walk = self.awake_shared.cursor();
        while let Some(b) = walk.next(&self.awake_shared) {
            if self.skip_quiet && self.dram_stash[b].is_empty() && self.shared[b].is_quiet() {
                self.awake_shared.remove(b);
                continue;
            }
            self.bank_ticks += 1;
            self.shared[b].tick(now);
            self.exchange_with_dram(b, true, now, mem);
        }

        // A skipped bank still owes its per-tick invariant checks.
        #[cfg(feature = "invariants")]
        {
            for (i, bank) in self.private.iter().enumerate() {
                if !self.awake_private.contains(i) {
                    bank.check_invariants(now);
                }
            }
            for (b, bank) in self.shared.iter().enumerate() {
                if !self.awake_shared.contains(b) {
                    bank.check_invariants(now);
                }
            }
        }
    }

    /// Issues bank `b`'s head line request to DRAM when its channel has
    /// room, then feeds stashed DRAM responses back while the bank
    /// accepts them. `shared` selects the level (the other one is the
    /// private level of the Private topology).
    fn exchange_with_dram(&mut self, b: usize, shared: bool, now: Cycle, mem: &mut MemorySystem) {
        let banks_per_channel = self.banks_per_channel;
        let bank = if shared {
            &mut self.shared[b]
        } else {
            &mut self.private[b]
        };
        if let Some((line, count)) = bank.peek_mem_request() {
            let addr = line * LINE_BYTES;
            let (ch, _) = mem.route(addr);
            debug_assert!(
                !shared || ch == b / banks_per_channel.max(1),
                "bank {b} bound to wrong channel"
            );
            if mem.can_accept(ch) {
                bank.pop_mem_request();
                mem.push_request(now, DramRequest::read(encode_dram_id(b, line), addr, count))
                    .unwrap_or_else(|_| unreachable!("checked can_accept"));
                self.n_dram_line_requests += count as u64;
                self.n_dram_transactions += 1;
            }
        }
        while let Some(&(line, count)) = self.dram_stash[b].front() {
            if bank.can_accept_mem_response() && bank.push_mem_burst_response(line, count) {
                self.dram_stash[b].pop_front();
            } else {
                break;
            }
        }
    }

    /// Shared bank responses → crossbar → PE ports (Shared topology).
    fn deliver_shared_responses_to_pes(&mut self, now: Cycle) {
        for b in self.awake_shared.iter() {
            // One response per bank per cycle into the network.
            if let Some(resp) = self.shared[b].pop_response() {
                let pe = (resp.id >> 16) as usize;
                let orig = MomsResp {
                    id: resp.id & 0xFFFF,
                    ..resp
                };
                let lat = self.net_latency(self.shared_bank_slr(b), self.cfg.pe_slr[pe]);
                self.resp_net[pe].push(InFlight {
                    ready: now + lat,
                    item: orig,
                });
                self.resp_lanes.insert(pe);
            }
        }
        let mut walk = self.resp_lanes.cursor();
        while let Some(pe) = walk.next(&self.resp_lanes) {
            let port = &mut self.pe_resp[pe];
            let mut delivered = false;
            Self::drain_ready(&mut self.resp_net[pe], now, |item| {
                let ok = port.push(item).is_ok();
                delivered |= ok;
                ok
            });
            if delivered {
                self.resp_ports.insert(pe);
            }
            if self.resp_net[pe].is_empty() {
                self.resp_lanes.remove(pe);
            }
        }
    }

    /// Shared bank responses → width-limited link → private banks
    /// (TwoLevel).
    fn route_shared_lines_to_private(&mut self, now: Cycle) {
        for b in self.awake_shared.iter() {
            if let Some(resp) = self.shared[b].pop_response() {
                let pe = resp.id as usize;
                let lat = self.net_latency(self.shared_bank_slr(b), self.cfg.pe_slr[pe]);
                self.line_net[pe].push(InFlight {
                    ready: now + lat,
                    item: resp.line,
                });
                self.line_lanes.insert(pe);
            }
        }
        let mut walk = self.line_lanes.cursor();
        while let Some(pe) = walk.next(&self.line_lanes) {
            // The 64-bit link admits one line every
            // `resp_link_cycles_per_line` cycles.
            if now < self.link_free[pe] {
                continue;
            }
            let bank = &mut self.private[pe];
            let link_cost = self.cfg.resp_link_cycles_per_line;
            let mut delivered = false;
            Self::drain_ready_one(&mut self.line_net[pe], now, |line| {
                if bank.can_accept_mem_response() && bank.push_mem_response(line) {
                    delivered = true;
                    true
                } else {
                    false
                }
            });
            if delivered {
                self.link_free[pe] = now + link_cost;
                self.awake_private.insert(pe);
                if self.line_net[pe].is_empty() {
                    self.line_lanes.remove(pe);
                }
            }
        }
    }

    /// Private bank responses → PE ports (Private and TwoLevel).
    fn deliver_private_responses(&mut self) {
        for pe in self.awake_private.iter() {
            if self.pe_resp[pe].can_push() {
                if let Some(resp) = self.private[pe].pop_response() {
                    self.pe_resp[pe]
                        .push(resp)
                        .unwrap_or_else(|_| unreachable!("checked can_push"));
                    self.resp_ports.insert(pe);
                }
            }
        }
    }

    /// Moves every matured item for which `sink` returns `true` out of the
    /// network buffer; preserves order among unmatured/unaccepted items.
    /// Single in-place compaction pass: no per-item shifting.
    fn drain_ready<T: Copy>(
        net: &mut Vec<InFlight<T>>,
        now: Cycle,
        mut sink: impl FnMut(T) -> bool,
    ) {
        let mut w = 0;
        for r in 0..net.len() {
            let it = net[r];
            if it.ready <= now && sink(it.item) {
                continue; // consumed
            }
            if w != r {
                net[w] = it;
            }
            w += 1;
        }
        net.truncate(w);
    }

    /// Like [`drain_ready`](Self::drain_ready) but moves at most one item.
    fn drain_ready_one<T: Copy>(
        net: &mut Vec<InFlight<T>>,
        now: Cycle,
        mut sink: impl FnMut(T) -> bool,
    ) {
        for i in 0..net.len() {
            if net[i].ready <= now {
                if sink(net[i].item) {
                    net.remove(i);
                }
                return;
            }
        }
    }

    /// Earliest future cycle at which this MOMS can change observable
    /// state: a bank's own next event, a network item maturing (gated for
    /// line responses by the width-limited link), or queued/stashed items
    /// a tick would move. `None` when fully quiescent — outstanding
    /// misses then wait solely on DRAM, whose completions are the
    /// caller's events.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // `now + 1` is the floor of every merged value, so once any
        // source reports it the min cannot improve: return immediately
        // and spare the per-bank probes.
        if self.pe_req.iter().any(|q| !q.is_empty())
            || self.pe_resp.iter().any(|q| !q.is_empty())
            || self.dram_stash.iter().any(|s| !s.is_empty())
        {
            return Some(now + 1);
        }
        let mut next: Option<Cycle> = None;
        let mut merge = |c: Cycle| {
            next = Some(next.map_or(c, |n: Cycle| n.min(c)));
            c <= now + 1
        };
        for b in self.private.iter().chain(self.shared.iter()) {
            if let Some(c) = b.next_event(now) {
                if merge(c) {
                    return next;
                }
            }
        }
        for net in self.req_net.iter() {
            for it in net {
                if merge(it.ready.max(now + 1)) {
                    return next;
                }
            }
        }
        for net in self.resp_net.iter() {
            for it in net {
                if merge(it.ready.max(now + 1)) {
                    return next;
                }
            }
        }
        for (pe, net) in self.line_net.iter().enumerate() {
            for it in net {
                if merge(it.ready.max(self.link_free[pe]).max(now + 1)) {
                    return next;
                }
            }
        }
        next
    }

    /// `true` when every queue, network, and bank is drained.
    pub fn is_idle(&self) -> bool {
        self.pe_req.iter().all(|q| q.is_empty())
            && self.pe_resp.iter().all(|q| q.is_empty())
            && self.req_net.iter().all(|v| v.is_empty())
            && self.resp_net.iter().all(|v| v.is_empty())
            && self.line_net.iter().all(|v| v.is_empty())
            && self.dram_stash.iter().all(|v| v.is_empty())
            && self.private.iter().all(|b| b.is_idle())
            && self.shared.iter().all(|b| b.is_idle())
    }

    /// Aggregate statistics over every bank plus system counters, including
    /// combined `cache_probe_hits`/`cache_probe_misses` across both levels
    /// (the hit-rate definition of Fig. 12).
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        if self.n_dram_line_requests > 0 {
            s.add("dram_line_requests", self.n_dram_line_requests);
        }
        if self.n_dram_transactions > 0 {
            s.add("dram_transactions", self.n_dram_transactions);
        }
        for b in self.private.iter().chain(self.shared.iter()) {
            s.merge(&b.stats());
        }
        let snap = self.snapshot();
        s.add("cache_probe_hits", snap.banks.cache_hits);
        s.add("cache_probe_misses", snap.banks.cache_misses);
        s.add(
            "peak_outstanding_misses",
            snap.peak_outstanding_misses as u64,
        );
        s.add("peak_outstanding_lines", snap.peak_outstanding_lines as u64);
        s
    }

    /// Point-in-time view of occupancy and cache statistics across every
    /// bank of the topology.
    pub fn snapshot(&self) -> MomsSnapshot {
        let mut banks = MomsBankSnapshot::default();
        for b in self.private.iter().chain(self.shared.iter()) {
            banks.accumulate(&b.snapshot());
        }
        // Outstanding misses are counted at the level PEs talk to: the
        // private banks when they exist, else the shared banks. (A miss
        // pending in a private bank also has a line request pending in the
        // shared level; counting both would double-count.)
        let front: &[MomsBank] = if self.private.is_empty() {
            &self.shared
        } else {
            &self.private
        };
        MomsSnapshot {
            peak_outstanding_misses: front.iter().map(|b| b.snapshot().peak_pending_misses).sum(),
            peak_outstanding_lines: banks.peak_mshr_occupancy,
            banks,
        }
    }

    /// Combined cache hit rate over both levels (0 when cache-less).
    pub fn cache_hit_rate(&self) -> f64 {
        self.snapshot().banks.cache_hit_rate()
    }

    /// Per-bank occupancies and network fill as a watchdog diagnostic
    /// section.
    pub fn diagnostic(&self) -> simkit::DiagnosticSection {
        let mut s = simkit::DiagnosticSection::new("moms");
        s.push("topology", self.cfg.topology.name());
        let nets: usize = self.req_net.iter().map(|v| v.len()).sum::<usize>()
            + self.resp_net.iter().map(|v| v.len()).sum::<usize>()
            + self.line_net.iter().map(|v| v.len()).sum::<usize>();
        s.push("in_flight_network_items", nets);
        let stash: usize = self.dram_stash.iter().map(|v| v.len()).sum();
        s.push("stashed_dram_responses", stash);
        let pe_q: usize = self.pe_req.iter().map(|q| q.len()).sum::<usize>()
            + self.pe_resp.iter().map(|q| q.len()).sum::<usize>();
        s.push("pe_port_queue_items", pe_q);
        for (i, b) in self.private.iter().enumerate() {
            if !b.is_idle() {
                s.push(format!("private[{i}]"), b.diagnostic());
            }
        }
        for (i, b) in self.shared.iter().enumerate() {
            if !b.is_idle() {
                s.push(format!("shared[{i}]"), b.diagnostic());
            }
        }
        s
    }

    /// Configuration.
    pub fn config(&self) -> &MomsSystemConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram::DramConfig;

    fn tiny_bank(cache: bool) -> MomsConfig {
        let mut c = MomsConfig::paper_shared_bank().scaled(1, 64);
        if !cache {
            c = c.without_cache();
        }
        c
    }

    fn system(topology: Topology, pes: usize, banks: usize, channels: usize) -> MomsSystem {
        MomsSystem::new(MomsSystemConfig {
            topology,
            num_pes: pes,
            num_channels: channels,
            shared_banks: banks,
            shared: tiny_bank(false),
            private: tiny_bank(false),
            pe_slr: default_pe_slrs(pes),
            channel_slr: default_channel_slrs(channels),
            crossing_latency: 4,
            base_net_latency: 2,
            resp_link_cycles_per_line: 8,
        })
    }

    /// Drives until all `expect` responses arrive; returns (cycles, ids per pe).
    fn run(
        sys: &mut MomsSystem,
        reqs: Vec<(usize, MomsReq)>,
        expect: usize,
        max: Cycle,
    ) -> (Cycle, Vec<Vec<u32>>) {
        let mut mem = MemorySystem::new(DramConfig::default(), sys.config().num_channels);
        let mut pending: std::collections::VecDeque<(usize, MomsReq)> = reqs.into();
        let mut got = vec![Vec::new(); sys.config().num_pes];
        let mut count = 0;
        for now in 0..max {
            while let Some(&(pe, req)) = pending.front() {
                if sys.try_request(pe, req) {
                    pending.pop_front();
                } else {
                    break;
                }
            }
            sys.tick(now, &mut mem);
            mem.tick(now);
            for ch in 0..mem.num_channels() {
                while let Some(r) = mem.pop_response(now, ch) {
                    assert!(MomsSystem::owns_dram_id(r.id));
                    sys.dram_response(r.id, r.lines);
                }
            }
            for (pe, bucket) in got.iter_mut().enumerate() {
                while let Some(r) = sys.pop_response(pe) {
                    bucket.push(r.id);
                    count += 1;
                }
            }
            if count == expect {
                return (now, got);
            }
        }
        panic!("only {count}/{expect} responses after {max} cycles");
    }

    #[test]
    fn shared_serves_all_pes() {
        let mut sys = system(Topology::Shared, 4, 8, 2);
        let reqs: Vec<(usize, MomsReq)> = (0..32u32)
            .map(|i| {
                (
                    (i % 4) as usize,
                    MomsReq {
                        line: (i as u64 % 8) * 64,
                        word: 0,
                        id: i,
                    },
                )
            })
            .collect();
        let (_, got) = run(&mut sys, reqs, 32, 20_000);
        for (pe, bucket) in got.iter().enumerate().take(4) {
            assert_eq!(bucket.len(), 8, "pe {pe} got {bucket:?}");
        }
        // Heavy coalescing: far fewer DRAM line requests than responses.
        let s = sys.stats();
        assert!(
            s.get("dram_line_requests") <= 8,
            "expected ≤8 line fetches, got {}",
            s.get("dram_line_requests")
        );
    }

    #[test]
    fn private_duplicates_line_fetches() {
        let mut sys = system(Topology::Private, 4, 0, 2);
        // All four PEs want the same line: no inter-PE coalescing.
        let reqs: Vec<(usize, MomsReq)> = (0..4)
            .map(|pe| {
                (
                    pe,
                    MomsReq {
                        line: 42,
                        word: 0,
                        id: pe as u32,
                    },
                )
            })
            .collect();
        run(&mut sys, reqs, 4, 20_000);
        assert_eq!(sys.stats().get("dram_line_requests"), 4);
    }

    #[test]
    fn two_level_coalesces_across_pes() {
        let mut sys = system(Topology::TwoLevel, 4, 8, 2);
        let reqs: Vec<(usize, MomsReq)> = (0..4)
            .map(|pe| {
                (
                    pe,
                    MomsReq {
                        line: 42,
                        word: (pe % 16) as u8,
                        id: pe as u32,
                    },
                )
            })
            .collect();
        run(&mut sys, reqs, 4, 20_000);
        // The shared level merges the four private line misses into one
        // DRAM fetch.
        assert_eq!(sys.stats().get("dram_line_requests"), 1);
    }

    #[test]
    fn two_level_intra_pe_merges_never_reach_shared() {
        let mut sys = system(Topology::TwoLevel, 2, 4, 2);
        // PE0 asks the same line 8 times: private MSHR merges them.
        let reqs: Vec<(usize, MomsReq)> = (0..8u32)
            .map(|i| {
                (
                    0usize,
                    MomsReq {
                        line: 7,
                        word: (i % 16) as u8,
                        id: i,
                    },
                )
            })
            .collect();
        run(&mut sys, reqs, 8, 20_000);
        assert_eq!(sys.stats().get("dram_line_requests"), 1);
    }

    #[test]
    fn responses_preserve_ids_and_words() {
        let mut sys = system(Topology::Shared, 2, 4, 2);
        let reqs = vec![
            (
                0usize,
                MomsReq {
                    line: 1,
                    word: 3,
                    id: 100,
                },
            ),
            (
                1usize,
                MomsReq {
                    line: 1,
                    word: 9,
                    id: 200,
                },
            ),
        ];
        let (_, got) = run(&mut sys, reqs, 2, 20_000);
        assert_eq!(got[0], vec![100]);
        assert_eq!(got[1], vec![200]);
    }

    #[test]
    fn system_reaches_idle() {
        let mut sys = system(Topology::TwoLevel, 2, 4, 2);
        let reqs = vec![(
            0usize,
            MomsReq {
                line: 5,
                word: 0,
                id: 1,
            },
        )];
        run(&mut sys, reqs, 1, 20_000);
        // A few more ticks to drain internal napkins.
        let mut mem = MemorySystem::new(DramConfig::default(), 2);
        for now in 0..100 {
            sys.tick(1_000_000 + now, &mut mem);
        }
        assert!(sys.is_idle());
    }

    #[test]
    fn private_topology_supports_burst_assembly() {
        use crate::config::BurstAssemblyConfig;
        let mut cfg = system(Topology::Private, 2, 0, 2).config().clone();
        cfg.private = cfg.private.with_burst_assembly(BurstAssemblyConfig {
            max_lines: 8,
            wait_cycles: 8,
        });
        let mut sys = MomsSystem::new(cfg);
        // Eight adjacent lines from PE0: one burst transaction suffices.
        let reqs: Vec<(usize, MomsReq)> = (0..8u32)
            .map(|i| {
                (
                    0usize,
                    MomsReq {
                        line: 64 + i as u64,
                        word: 0,
                        id: i,
                    },
                )
            })
            .collect();
        run(&mut sys, reqs, 8, 20_000);
        let s = sys.stats();
        assert_eq!(s.get("dram_line_requests"), 8);
        assert!(
            s.get("dram_transactions") <= 2,
            "expected assembled bursts, got {} transactions",
            s.get("dram_transactions")
        );
    }

    #[test]
    fn two_level_rejects_private_burst_assembly() {
        use crate::config::BurstAssemblyConfig;
        let mut cfg = system(Topology::TwoLevel, 2, 4, 2).config().clone();
        cfg.private = cfg.private.with_burst_assembly(BurstAssemblyConfig {
            max_lines: 4,
            wait_cycles: 4,
        });
        let result = std::panic::catch_unwind(|| MomsSystem::new(cfg));
        assert!(result.is_err(), "validation must reject this combination");
    }

    #[test]
    fn crossing_latency_slows_cross_slr_traffic() {
        // Same single request, far-apart SLRs vs co-located: the crossing
        // cost must be visible in the completion time.
        let run_one = |crossing: u64| -> u64 {
            let mut cfg = system(Topology::Shared, 1, 4, 2).config().clone();
            cfg.crossing_latency = crossing;
            cfg.pe_slr = vec![0]; // PE on the bottom die; banks per channel SLRs
            let mut sys = MomsSystem::new(cfg);
            let mut mem = MemorySystem::new(DramConfig::default(), 2);
            assert!(sys.try_request(
                0,
                MomsReq {
                    line: 0,
                    word: 0,
                    id: 1
                }
            ));
            for now in 0..20_000 {
                sys.tick(now, &mut mem);
                mem.tick(now);
                for ch in 0..2 {
                    while let Some(r) = mem.pop_response(now, ch) {
                        sys.dram_response(r.id, r.lines);
                    }
                }
                if sys.pop_response(0).is_some() {
                    return now;
                }
            }
            panic!("no response");
        };
        let near = run_one(0);
        let far = run_one(20);
        assert!(
            far >= near + 20,
            "crossing latency not accounted: {near} vs {far}"
        );
    }

    #[test]
    fn default_slr_split_matches_paper() {
        let slrs = default_pe_slrs(20);
        let count = |s: u8| slrs.iter().filter(|&&x| x == s).count();
        assert_eq!(count(0), 6); // 30%
        assert_eq!(count(1), 3); // 15%
        assert_eq!(count(2), 11); // 55%
    }
}
