// perfbench: end-to-end and per-layer benchmark of the Swallow simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --reference FILE --out DIR
//   perfbench --workload NAME --seed N --record
//
// Drives the simulator only through its public API: SwallowSystem
// construction and run_until, assemble and Core::load/start, LoadGenerator,
// TraceSession with its exporters, save_machine / SnapshotFile /
// restore_machine, settle_energy / ledger() and collect_network_stats.
//
// One run repeats a fixed-size repetition of the chosen workload — build
// the machine, load it, run a fixed simulated window, read and check every
// output — until S host seconds have passed, and reports medians over the
// repetitions.  Every repetition's simulated outputs (per-core retired
// counts, NoC traffic, request outcomes, simulated latency, per-account
// energy) are compared with the reference values kept in FILE; --record
// runs one repetition and prints them as a "reference:" line instead.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
// repetitions with traced ones, in which every public call above is
// wrapped in a span (name, start, end, parent).  The spans stay in memory
// and are written to DIR/spans-<workload>.json at exit; per-layer self
// times and counters come from them, and the traced/untraced wall-time gap
// is the tracing overhead.  The last stdout line is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/netstat.h"
#include "api/patterns.h"
#include "api/taskgen.h"
#include "arch/assembler.h"
#include "bench/bench_util.h"
#include "board/system.h"
#include "common/error.h"
#include "common/json.h"
#include "common/strings.h"
#include "load/load.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "snap/machine.h"
#include "snap/snapfile.h"

namespace {

using namespace swallow;
using Clock = std::chrono::steady_clock;

// The paper's heavy-load headline for the 30-slice machine (§VI).
constexpr double kPaperInputW = 134.0;
constexpr double kPaperGips = 240.0;
// Per-account energy may differ from the reference by this share of the
// reference value (a change to integer energy accounting rounds each charge
// differently); every other simulated output must match exactly.
constexpr double kEnergyRelTol = 1e-6;
// Input variants: --seed N selects variant N mod kVariants, so a reference
// kept for each variant checks every seed exactly.
constexpr std::uint64_t kVariants = 8;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

// ----- Spans -----

// Spans around the benchmark's calls into the simulator.  A disabled tracer
// reads no clock, so traced and untraced repetitions differ only in the
// clock reads.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;  // seconds since the tracer's origin
    double end = 0;
    int parent = -1;   // index into spans(), -1 for a repetition root
    int rep = 0;
  };

  void set_on(bool on) { on_ = on; }
  void set_rep(int rep) { rep_ = rep; }
  const std::vector<Span>& spans() const { return spans_; }

  int open(const char* name) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, since(origin_), 0, parent, rep_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end = since(origin_);
    stack_.pop_back();
  }

 private:
  Clock::time_point origin_ = Clock::now();
  bool on_ = false;
  int rep_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), idx_(t.open(name)) {}
  ~Scope() { t_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int idx_;
};

// ----- One repetition -----

struct Rep {
  double setup_s = 0;  // construction to just before the first run_until
  double run_s = 0;    // the run phase: the run_until chops
  double wall_s = 0;   // construction to the last output written and checked
  std::uint64_t requests = 0;         // farm480: requests attempted
  std::uint64_t failed_requests = 0;  // never completed or mismatched
  // Simulated outputs compared with the reference.
  std::vector<std::pair<std::string, std::string>> exact;
  std::vector<std::pair<std::string, double>> energy;
  // Invariants checked on every repetition, and the ones that failed.
  int invariants = 0;
  std::vector<std::string> broken;
  // Per-layer counters (simulated statistics and engine counts).
  std::map<std::string, double> layer;
};

void expect(Rep& r, bool ok, const std::string& what) {
  ++r.invariants;
  if (!ok) r.broken.push_back(what);
}

struct Params {
  std::uint64_t input_seed = 1;  // 1 + seed mod kVariants
  std::string out_dir;
};

// Pending events over every event domain of the machine.
double pending_events(SwallowSystem& sys) {
  std::size_t n = 0;
  for (int i = 0; i < sys.domain_count(); ++i) {
    n += sys.domain_sim(i).pending_count();
  }
  return static_cast<double>(n);
}

struct ChopRun {
  std::uint64_t events = 0;
  double pending_max = 0;
};

void run_chop(SwallowSystem& sys, Tracer& tr, TimePs t, ChopRun& cr) {
  {
    Scope s(tr, "sim.run");
    cr.events += sys.run_until(t);
  }
  cr.pending_max = std::max(cr.pending_max, pending_events(sys));
}

// Assemble one image per distinct source and load/start it on each core.
void load_programs(SwallowSystem& sys, Tracer& tr,
                   const std::function<std::string(int)>& source_of) {
  std::map<std::string, Image> images;
  std::vector<const Image*> per_core;
  {
    Scope s(tr, "arch.assemble");
    for (int i = 0; i < sys.core_count(); ++i) {
      const std::string src = source_of(i);
      auto it = images.find(src);
      if (it == images.end()) it = images.emplace(src, assemble(src)).first;
      per_core.push_back(&it->second);
    }
  }
  Scope s(tr, "arch.load");
  for (int i = 0; i < sys.core_count(); ++i) {
    sys.core_by_index(i).load(*per_core[static_cast<std::size_t>(i)]);
    sys.core_by_index(i).start();
  }
}

// Outputs every workload shares: energy, NoC counters, per-core retired
// counts and wire conservation, whose slack is zero once the machine is
// quiescent and never negative.
void collect_common(SwallowSystem& sys, Tracer& tr, Rep& r, bool quiescent) {
  {
    Scope s(tr, "energy.settle");
    sys.settle_energy();
  }
  const EnergyLedger& led = sys.ledger();
  NetworkStats ns;
  {
    Scope s(tr, "noc.stats");
    ns = collect_network_stats(sys);
  }
  std::uint64_t digest = 0xCBF29CE484222325ull;
  std::uint64_t retired = 0;
  for (int i = 0; i < sys.core_count(); ++i) {
    const std::uint64_t n = sys.core_by_index(i).instructions_retired();
    digest = fnv1a(digest, n);
    retired += n;
  }
  const double sim_s = to_seconds(sys.now());
  const double cycles = sim_s * sys.config().core_freq * 1e6;
  r.exact.emplace_back("retired", std::to_string(retired));
  r.exact.emplace_back("retired_digest", strprintf("%016llx",
      static_cast<unsigned long long>(digest)));
  r.exact.emplace_back("noc_tokens", std::to_string(ns.tokens_forwarded));
  r.exact.emplace_back("noc_packets", std::to_string(ns.packets_routed));
  r.exact.emplace_back("sim_time_ps", std::to_string(sys.now()));
  for (std::size_t a = 0; a < static_cast<std::size_t>(EnergyAccount::kCount);
       ++a) {
    const auto acc = static_cast<EnergyAccount>(a);
    r.energy.emplace_back(std::string(to_string(acc)), led.total(acc));
  }
  const std::int64_t slack = sys.network().wire_conservation_slack();
  r.exact.emplace_back("wire_slack", std::to_string(slack));
  expect(r, quiescent ? slack == 0 : slack >= 0,
         strprintf("wire conservation slack %lld", static_cast<long long>(slack)));

  const double total_j = led.grand_total();
  const double gips = sim_s > 0 ? static_cast<double>(retired) / sim_s / 1e9
                                : 0.0;
  r.layer["arch.retired"] = static_cast<double>(retired);
  r.layer["arch.ipc"] =
      cycles > 0 ? static_cast<double>(retired) / cycles / sys.core_count()
                 : 0.0;
  r.layer["noc.tokens"] = static_cast<double>(ns.tokens_forwarded);
  r.layer["noc.packets"] = static_cast<double>(ns.packets_routed);
  r.layer["noc.wire_slack"] = static_cast<double>(slack);
  r.layer["board.bridge_peak_tokens"] =
      static_cast<double>(ns.bridge.ingress_peak_tokens);
  r.layer["board.bridge_rejects"] =
      static_cast<double>(ns.bridge.ingress_rejects);
  r.layer["energy.total_j"] = total_j;
  r.layer["energy.nj_per_instr"] =
      retired > 0 ? total_j / static_cast<double>(retired) * 1e9 : 0.0;
  r.layer["energy.input_w"] = sys.total_input_power();
  r.layer["energy.gips"] = gips;
}

void finish_chops(const ChopRun& cr, Rep& r) {
  r.layer["sim.events"] = static_cast<double>(cr.events);
  r.layer["sim.pending_max"] = cr.pending_max;
}

std::unique_ptr<SwallowSystem> build_system(Simulator& sim,
                                            const SystemConfig& cfg,
                                            Tracer& tr) {
  Scope s(tr, "board.build");
  return std::make_unique<SwallowSystem>(sim, cfg);
}

// dense480: every core of the 30-slice machine runs four spinning threads,
// the paper's heavy-load state.  The NoC stays idle.
constexpr double kDenseWindowUs = 24.0;
constexpr int kDenseChops = 240;

Rep run_dense(const Params& p, Tracer& tr) {
  Rep r;
  const auto t0 = Clock::now();
  Simulator sim;
  SystemConfig cfg;
  cfg.slices_x = 5;
  cfg.slices_y = 6;
  cfg.seed = p.input_seed;
  auto sys = build_system(sim, cfg, tr);
  const std::string prog = bench::spin_program(4);
  load_programs(*sys, tr, [&](int) { return prog; });
  r.setup_s = since(t0);

  ChopRun cr;
  const auto t1 = Clock::now();
  const TimePs window = microseconds(kDenseWindowUs);
  for (int k = 1; k <= kDenseChops; ++k) {
    run_chop(*sys, tr, window * k / kDenseChops, cr);
  }
  r.run_s = since(t1);
  finish_chops(cr, r);
  collect_common(*sys, tr, r, true);
  return r;
}

// ring480: a machine-wide token ring; one core computes a 2000-instruction
// hold at a time, so the event queue is nearly empty.
constexpr double kRingWindowMs = 1000.0;
constexpr int kRingChops = 240;

Rep run_ring(const Params& p, Tracer& tr) {
  Rep r;
  const auto t0 = Clock::now();
  Simulator sim;
  SystemConfig cfg;
  cfg.slices_x = 5;
  cfg.slices_y = 6;
  cfg.seed = p.input_seed;
  auto sys = build_system(sim, cfg, tr);
  const int n = sys->core_count();
  std::vector<NodeId> next(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    next[static_cast<std::size_t>(i)] = sys->core_by_index((i + 1) % n).node_id();
  }
  load_programs(*sys, tr, [&](int i) {
    return bench::ring_node_program(next[static_cast<std::size_t>(i)], 2000,
                                    i == 0);
  });
  r.setup_s = since(t0);

  ChopRun cr;
  const auto t1 = Clock::now();
  const TimePs window = milliseconds(kRingWindowMs);
  for (int k = 1; k <= kRingChops; ++k) {
    run_chop(*sys, tr, window * k / kRingChops, cr);
  }
  r.run_s = since(t1);
  finish_chops(cr, r);
  // The token is always somewhere on the ring, possibly on a wire.
  collect_common(*sys, tr, r, false);
  return r;
}

// farm480: a closed-loop request/response farm behind ten Ethernet
// bridges, sixteen requests outstanding per bridge.
constexpr std::uint64_t kFarmRequests = 2400;
constexpr double kFarmStepUs = 5.0;
constexpr double kFarmMaxMs = 50.0;

Rep run_farm(const Params& p, Tracer& tr) {
  Rep r;
  const auto t0 = Clock::now();
  Simulator sim;
  SystemConfig cfg;
  cfg.slices_x = 5;
  cfg.slices_y = 6;
  cfg.ethernet_bridges = 10;
  cfg.seed = p.input_seed;
  auto sys = build_system(sim, cfg, tr);

  LoadConfig lcfg;
  lcfg.workload = LoadWorkload::kFarm;
  lcfg.closed_loop = true;
  lcfg.concurrency = 16;
  lcfg.requests = kFarmRequests;
  lcfg.service_work = 200;
  lcfg.seed = p.input_seed;
  LoadGenerator gen(*sys, lcfg);
  {
    Scope s(tr, "load.deploy");
    gen.deploy();
  }
  {
    Scope s(tr, "board.start_sampling");
    sys->start_sampling();
  }
  {
    Scope s(tr, "load.arm");
    gen.arm();
  }
  r.setup_s = since(t0);

  ChopRun cr;
  const auto t1 = Clock::now();
  const TimePs step = microseconds(kFarmStepUs);
  const TimePs max_time = milliseconds(kFarmMaxMs);
  while (!gen.done() && sys->now() < max_time) {
    run_chop(*sys, tr, sys->now() + step, cr);
  }
  r.run_s = since(t1);
  finish_chops(cr, r);

  std::string report;
  {
    Scope s(tr, "load.report");
    report = gen.report_json();
  }
  collect_common(*sys, tr, r, true);
  const Json rep = Json::parse(report);
  const Json& lat = rep.at("latency_ns");
  const std::uint64_t completed = gen.completed();
  const std::uint64_t mismatches = gen.mismatches();
  r.requests = kFarmRequests;
  r.failed_requests = std::min<std::uint64_t>(
      kFarmRequests, (kFarmRequests - std::min(completed, kFarmRequests)) +
                         mismatches);
  r.exact.emplace_back("completed", std::to_string(completed));
  r.exact.emplace_back("mismatches", std::to_string(mismatches));
  r.exact.emplace_back("latency_p50_ns", strprintf("%.0f", lat.at("p50").as_number()));
  r.exact.emplace_back("latency_p99_ns", strprintf("%.0f", lat.at("p99").as_number()));
  r.exact.emplace_back("last_completion_ps",
                       std::to_string(gen.last_completion()));
  r.layer["load.completed"] = static_cast<double>(completed);
  r.layer["load.backpressure_waits"] =
      static_cast<double>(gen.backpressure_waits());
  r.layer["load.sim_latency_ns.p50"] = lat.at("p50").as_number();
  r.layer["load.sim_latency_ns.p99"] = lat.at("p99").as_number();
  r.layer["load.nj_per_req"] =
      rep.at("energy").at("per_request_nj").as_number();
  r.layer["noc.tokens_per_req"] =
      completed > 0 ? r.layer["noc.tokens"] / static_cast<double>(completed)
                    : 0.0;
  return r;
}

// pipeline64: an 8-stage pipeline over a 2x2-slice grid on the parallel
// engine (two threads, per-chip domains, bounded:64) with a full
// observability session, checkpoints at fixed simulated times and a
// restore round-trip at the end.
constexpr double kPipeWindowMs = 1.2;
constexpr int kPipeChops = 40;
constexpr int kPipeCheckpointEvery = 10;  // chops between checkpoints

SystemConfig pipeline_config(std::uint64_t seed, bool parallel) {
  SystemConfig cfg;
  cfg.slices_x = 2;
  cfg.slices_y = 2;
  cfg.seed = seed;
  cfg.granularity = DomainGranularity::kChip;
  if (parallel) {
    cfg.jobs = 2;
    cfg.sync = SyncMode::kBounded;
    cfg.sync_bound = 64;
  }
  return cfg;
}

TraceConfig pipeline_trace_config() {
  TraceConfig tcfg;
  tcfg.tracing = tcfg.metrics = tcfg.profile = tcfg.energy = true;
  return tcfg;
}

void build_pipeline_app(SwallowSystem& sys, Tracer& tr) {
  AppBuilder app(sys);
  PipelineConfig pcfg;
  const int slices = sys.config().slices_x * sys.config().slices_y;
  pcfg.stages = 8;
  pcfg.items = 32;
  pcfg.work_per_item = 2000;
  pcfg.bytes_per_item = 64;
  std::vector<Placement> places;
  for (int i = 0; i < pcfg.stages; ++i) {
    const int s = i % slices;
    const int sx = s % sys.config().slices_x;
    const int sy = s / sys.config().slices_x;
    places.push_back(Placement{
        sx * Slice::kChipCols + (i / slices) % Slice::kChipCols,
        sy * Slice::kChipRows, Layer::kHorizontal});
  }
  {
    Scope s(tr, "api.build_pipeline");
    build_pipeline(app, pcfg, places);
  }
  Scope s(tr, "arch.load");
  app.start();
}

std::vector<std::uint8_t> snapshot_bytes(SwallowSystem& sys,
                                         TraceSession& session, Tracer& tr) {
  Scope s(tr, "snap.save");
  return save_machine(SnapTargets{&sys, &session, nullptr, nullptr}).encode();
}

Rep run_pipeline(const Params& p, Tracer& tr, bool parallel = true) {
  Rep r;
  const auto t0 = Clock::now();
  const SystemConfig cfg = pipeline_config(p.input_seed, parallel);
  const TraceConfig tcfg = pipeline_trace_config();
  Simulator sim;
  TraceSession session(tcfg);
  auto sys = build_system(sim, cfg, tr);
  {
    Scope s(tr, "obs.attach");
    sys->attach_observability(session);
  }
  {
    Scope s(tr, "board.start_sampling");
    sys->start_sampling();
  }
  build_pipeline_app(*sys, tr);
  r.setup_s = since(t0);

  const std::string ckpt_dir =
      (std::filesystem::path(p.out_dir) / "ckpt").string();
  std::filesystem::create_directories(ckpt_dir);
  prune_checkpoints(ckpt_dir, 0);
  ChopRun cr;
  double ckpt_s = 0;
  std::uint64_t snap_bytes = 0;
  std::string last_ckpt;
  const auto t1 = Clock::now();
  const TimePs window = milliseconds(kPipeWindowMs);
  for (int k = 1; k <= kPipeChops; ++k) {
    run_chop(*sys, tr, window * k / kPipeChops, cr);
    if (!parallel || k % kPipeCheckpointEvery != 0 || k == kPipeChops) {
      continue;
    }
    const auto c0 = Clock::now();
    last_ckpt = checkpoint_path(ckpt_dir, static_cast<std::uint64_t>(k));
    SnapshotFile f;
    {
      Scope s(tr, "snap.save");
      f = save_machine(SnapTargets{sys.get(), &session, nullptr, nullptr});
    }
    {
      Scope s(tr, "snap.write");
      f.write_file(last_ckpt);
    }
    snap_bytes = std::filesystem::file_size(last_ckpt);
    ckpt_s += since(c0);
  }
  r.run_s = since(t1) - ckpt_s;
  finish_chops(cr, r);
  if (!parallel) return r;  // the sequential twin times the run phase only

  // Restore round-trip: the last checkpoint, restored into a fresh machine
  // and run to the end of the window, must snapshot byte-identically to
  // the uninterrupted machine.
  const std::vector<std::uint8_t> direct = snapshot_bytes(*sys, session, tr);
  {
    Simulator sim2;
    TraceSession session2(tcfg);
    auto sys2 = build_system(sim2, cfg, tr);
    {
      Scope s(tr, "obs.attach");
      sys2->attach_observability(session2);
    }
    {
      Scope s(tr, "snap.restore");
      const SnapshotFile f = SnapshotFile::read_file(last_ckpt);
      restore_machine(f, SnapTargets{sys2.get(), &session2, nullptr, nullptr});
    }
    ChopRun cr2;
    for (int k = kPipeChops - kPipeCheckpointEvery + 1; k <= kPipeChops; ++k) {
      run_chop(*sys2, tr, window * k / kPipeChops, cr2);
    }
    expect(r, snapshot_bytes(*sys2, session2, tr) == direct,
           "restored machine diverged from the uninterrupted one");
  }
  {
    Scope s(tr, "obs.finish");
    sys->finish_observability();
  }
  std::uint64_t trace_bytes = 0;
  std::size_t attr_buckets = 0;
  {
    // Every exporter renders into memory; only checkpoints go to disk, so
    // disk write-back stays out of the following repetitions.
    Scope s(tr, "obs.export");
    trace_bytes = session.chrome_json().size();
    session.metrics().dump_json();
    session.profiler().collapsed();
    session.energy_attribution().to_json();
    const std::string folded = session.energy_attribution().folded();
    attr_buckets = static_cast<std::size_t>(
        std::count(folded.begin(), folded.end(), '\n'));
  }
  collect_common(*sys, tr, r, true);
  const std::string attr_err =
      session.energy_attribution().conservation_error(sys->ledger());
  expect(r, attr_err.empty(), "energy attribution: " + attr_err);
  prune_checkpoints(ckpt_dir, 0);

  const ParallelEngine::SyncState ss = sys->engine()->sync_state();
  r.exact.emplace_back("trace_events", std::to_string(session.events().size()));
  r.layer["engine.quanta"] = static_cast<double>(ss.quanta);
  r.layer["engine.messages"] = static_cast<double>(ss.messages);
  r.layer["engine.merges"] = static_cast<double>(ss.merges);
  r.layer["engine.stragglers"] = static_cast<double>(ss.stragglers);
  r.layer["engine.max_skew_ps"] = static_cast<double>(ss.max_skew_ps);
  r.layer["engine.quanta_per_sim_us"] =
      static_cast<double>(ss.quanta) / to_microseconds(sys->now());
  r.layer["obs.trace_events"] = static_cast<double>(session.events().size());
  r.layer["obs.trace_bytes"] = static_cast<double>(trace_bytes);
  r.layer["obs.dropped"] = static_cast<double>(session.dropped_total());
  r.layer["obs.attr_buckets"] = static_cast<double>(attr_buckets);
  r.layer["snap.bytes"] = static_cast<double>(snap_bytes);
  return r;
}

// ----- Reference values -----

// The reference values for one (workload, variant), as kept in the
// reference file: {"exact": {name: string}, "energy_j": {account: J}}.
std::string render_reference(const Rep& r) {
  std::string s = "{\"exact\": {";
  for (std::size_t i = 0; i < r.exact.size(); ++i) {
    s += strprintf("%s\"%s\": \"%s\"", i ? ", " : "",
                   r.exact[i].first.c_str(), r.exact[i].second.c_str());
  }
  s += "}, \"energy_j\": {";
  for (std::size_t i = 0; i < r.energy.size(); ++i) {
    s += strprintf("%s\"%s\": %.17g", i ? ", " : "",
                   r.energy[i].first.c_str(), r.energy[i].second);
  }
  return s + "}}";
}

Json load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot read reference " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return Json::parse(ss.str());
}

// Compare a repetition's outputs with `ref`, the reference entry `key`;
// returns the number of checks made and appends failures.
int check_reference(const Json* ref, const std::string& key, const Rep& r,
                    std::vector<std::string>& failures) {
  if (ref == nullptr) {
    failures.push_back("no reference for " + key);
    return 1;
  }
  int checks = 0;
  for (const auto& [name, value] : r.exact) {
    ++checks;
    const Json* want = ref->at("exact").get(name);
    if (want == nullptr || want->as_string() != value) {
      failures.push_back(strprintf("%s: %s = %s, reference %s", key.c_str(),
                                   name.c_str(), value.c_str(),
                                   want ? want->as_string().c_str() : "-"));
    }
  }
  for (const auto& [name, value] : r.energy) {
    ++checks;
    const Json* want = ref->at("energy_j").get(name);
    const double w = want ? want->as_number() : NAN;
    if (!(std::abs(value - w) <= kEnergyRelTol * std::abs(w))) {
      failures.push_back(strprintf("%s: energy %s = %.17g J, reference %.17g",
                                   key.c_str(), name.c_str(), value, w));
    }
  }
  return checks;
}

// ----- Main -----

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 20;
  bool trace = false;
  bool record = false;
  std::string reference;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw Error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = next();
    } else if (arg == "--seed") {
      a.seed = static_cast<std::uint64_t>(parse_int(next()));
    } else if (arg == "--seconds") {
      a.seconds = std::stod(next());
    } else if (arg == "--trace") {
      a.trace = next() == "1";
    } else if (arg == "--record") {
      a.record = true;
    } else if (arg == "--reference") {
      a.reference = next();
    } else if (arg == "--out") {
      a.out_dir = next();
    } else {
      throw Error("unknown argument " + arg);
    }
  }
  if (a.reference.empty() && !a.record) {
    throw Error("--reference is required");
  }
  return a;
}

using Runner = Rep (*)(const Params&, Tracer&);

Runner runner_for(const std::string& w) {
  if (w == "dense480") return run_dense;
  if (w == "ring480") return run_ring;
  if (w == "farm480") return run_farm;
  if (w == "pipeline64") {
    return [](const Params& p, Tracer& tr) { return run_pipeline(p, tr); };
  }
  throw Error("unknown workload " + w);
}

// Per-layer self time of each span name within one repetition, and the
// share of the repetition's root span covered by layer spans.
void self_times(const std::vector<Tracer::Span>& spans, int rep,
                std::map<std::string, double>& self, double& coverage) {
  std::vector<double> child(spans.size(), 0.0);
  double root = 0, covered = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    if (s.rep != rep || s.parent < 0) continue;
    const double d = s.end - s.start;
    child[static_cast<std::size_t>(s.parent)] += d;
    if (spans[static_cast<std::size_t>(s.parent)].parent < 0) covered += d;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    if (s.rep != rep) continue;
    if (s.parent < 0) {
      root = s.end - s.start;
      continue;
    }
    self[s.name] += (s.end - s.start) - child[i];
  }
  coverage = root > 0 ? 100.0 * covered / root : 0.0;
}

void write_spans(const std::string& path, const std::vector<Tracer::Span>& spans) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    out << strprintf(
        "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, "
        "\"rep\": %d}}%s\n",
        s.name.c_str(), s.start * 1e6, (s.end - s.start) * 1e6, i, s.parent,
        s.rep, i + 1 < spans.size() ? "," : "");
  }
  out << "]}\n";
}

// Per-layer metrics in the order they are reported, with their units.
const std::vector<std::pair<const char*, const char*>>& layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> m = {
      {"board.build_s", "s"},           {"board.bridge_peak_tokens", "count"},
      {"board.bridge_rejects", "count"}, {"arch.assemble_s", "s"},
      {"arch.load_s", "s"},             {"arch.retired", "count"},
      {"arch.ipc", "instr/cycle"},      {"sim.run_s", "s"},
      {"sim.events", "count"},          {"sim.events_per_instr", "ratio"},
      {"sim.ns_per_event", "ns"},       {"sim.pending_max", "count"},
      {"sim.chop_ms.p50", "ms"},        {"sim.chop_ms.p99", "ms"},
      {"engine.quanta", "count"},       {"engine.messages", "count"},
      {"engine.merges", "count"},       {"engine.stragglers", "count"},
      {"engine.max_skew_ps", "ps"},     {"engine.quanta_per_sim_us", "1/us"},
      {"engine.speedup_vs_seq", "x"},   {"noc.tokens", "count"},
      {"noc.packets", "count"},         {"noc.tokens_per_req", "count"},
      {"noc.wire_slack", "count"},      {"noc.stats_s", "s"},
      {"energy.settle_s", "s"},         {"energy.total_j", "J"},
      {"energy.nj_per_instr", "nJ"},    {"energy.input_w", "W"},
      {"energy.input_w_vs_paper_pct", "%"},
      {"energy.gips_vs_paper_pct", "%"}, {"obs.attach_s", "s"},
      {"obs.finish_s", "s"},            {"obs.export_s", "s"},
      {"obs.trace_events", "count"},    {"obs.trace_bytes", "B"},
      {"obs.dropped", "count"},         {"obs.attr_buckets", "count"},
      {"snap.save_s", "s"},             {"snap.write_s", "s"},
      {"snap.restore_s", "s"},          {"snap.bytes", "B"},
      {"load.deploy_s", "s"},           {"load.report_s", "s"},
      {"load.completed", "count"},      {"load.backpressure_waits", "count"},
      {"load.sim_latency_ns.p50", "ns"}, {"load.sim_latency_ns.p99", "ns"},
      {"load.nj_per_req", "nJ"},        {"load.req_per_s", "1/s"},
      {"trace.overhead_pct", "%"},      {"trace.coverage_pct", "%"},
  };
  return m;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int run(const Args& a) {
  const Runner runner = runner_for(a.workload);
  const std::uint64_t variant = a.seed % kVariants;
  Params p;
  p.input_seed = 1 + variant;
  p.out_dir = a.out_dir;
  std::filesystem::create_directories(p.out_dir);
  const std::string ref_key = a.workload + "/" + std::to_string(variant);
  const Json reference = a.record ? Json() : load_reference(a.reference);
  const Json* ref = a.record ? nullptr : reference.get(ref_key);
  Tracer tr;

  std::printf("manifest: {\"workload\": \"%s\", \"seed\": %llu, "
              "\"input_seed\": %llu, \"seconds\": %g, \"trace\": %d, "
              "\"hw_threads\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"cxx_flags\": \"%s\"}\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(p.input_seed), a.seconds,
              a.trace ? 1 : 0, std::thread::hardware_concurrency(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);

  // Repetitions until the time budget is spent: at least three, so set-up
  // time is a median too.  Under --trace 1 untraced and traced repetitions
  // alternate, at least twice (plus, for pipeline64, a sequential-engine
  // twin of the same window).
  std::vector<Rep> plain, traced;
  std::vector<double> twin_run_s, coverage;
  std::vector<std::map<std::string, double>> self;
  std::vector<double> chop_ms;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  const int min_reps = a.record ? 1 : a.trace ? 2 : 3;
  int rep_no = 0;
  auto one_rep = [&](bool traced_rep) {
    tr.set_on(traced_rep);
    tr.set_rep(rep_no);
    const std::size_t first_span = tr.spans().size();
    const auto r0 = Clock::now();
    Rep r;
    {
      Scope root(tr, "rep");
      r = runner(p, tr);
      std::vector<std::string> f;
      int checks = 0;
      if (a.record) {
        std::printf("reference: {\"key\": \"%s\", \"value\": %s}\n",
                    ref_key.c_str(), render_reference(r).c_str());
      } else {
        checks = check_reference(ref, ref_key, r, f);
      }
      for (const std::string& b : r.broken) f.push_back(a.workload + ": " + b);
      // An operation is a request on farm480 and an output check
      // elsewhere; farm480's output checks decide `correct` only.
      if (r.requests > 0) {
        attempted += r.requests;
        failed += r.failed_requests;
      } else {
        attempted += static_cast<std::uint64_t>(checks + r.invariants);
        failed += f.size();
      }
      failures.insert(failures.end(), f.begin(), f.end());
    }
    r.wall_s = since(r0);
    if (traced_rep) {
      std::map<std::string, double> st;
      double cov = 0;
      self_times(tr.spans(), rep_no, st, cov);
      self.push_back(st);
      coverage.push_back(cov);
      for (std::size_t i = first_span; i < tr.spans().size(); ++i) {
        const Tracer::Span& s = tr.spans()[i];
        if (s.name == "sim.run") chop_ms.push_back((s.end - s.start) * 1e3);
      }
    }
    ++rep_no;
    return r;
  };

  const auto start = Clock::now();
  // A first, untimed repetition warms the allocator and the page cache; its
  // outputs are checked like every other.
  if (!a.record) one_rep(false);
  while (static_cast<int>(plain.size()) < min_reps ||
         (!a.record && since(start) < a.seconds)) {
    plain.push_back(one_rep(false));
    if (a.trace) traced.push_back(one_rep(true));
    if (a.trace && a.workload == "pipeline64") {
      tr.set_on(false);
      twin_run_s.push_back(run_pipeline(p, tr, false).run_s);
    }
  }

  auto med = [](const std::vector<Rep>& reps, double Rep::*field) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(r.*field);
    return median(v);
  };
  std::vector<double> mips;
  for (const Rep& r : plain) {
    mips.push_back(static_cast<double>(r.layer.at("arch.retired")) / r.run_s /
                   1e6);
  }

  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  const double fail_rate =
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                : 0.0;
  if (!a.trace) {
    metrics.push_back({"sim_mips", {median(mips), "MIPS"}});
    metrics.push_back({"wall_s", {med(plain, &Rep::wall_s), "s"}});
    metrics.push_back({"setup_s", {med(plain, &Rep::setup_s), "s"}});
    metrics.push_back({"peak_rss_mb", {peak_rss_mb(), "MB"}});
  } else {
    std::map<std::string, double> v = traced.back().layer;
    auto self_median = [&](const std::string& span) {
      std::vector<double> xs;
      for (const auto& st : self) {
        auto it = st.find(span);
        xs.push_back(it == st.end() ? 0.0 : it->second);
      }
      return median(xs);
    };
    // A layer time "<layer>.<call>_s" is the self time of span
    // "<layer>.<call>".
    for (const auto& [name, unit] : layer_metrics()) {
      const std::string n = name;
      if (n.size() > 2 && n.compare(n.size() - 2, 2, "_s") == 0) {
        v[n] = self_median(n.substr(0, n.size() - 2));
      }
    }
    const double events = v["sim.events"];
    const double retired = v["arch.retired"];
    v["sim.events_per_instr"] = retired > 0 ? events / retired : 0.0;
    v["sim.ns_per_event"] = events > 0 ? v["sim.run_s"] / events * 1e9 : 0.0;
    v["sim.chop_ms.p50"] = percentile(chop_ms, 0.50);
    v["sim.chop_ms.p99"] = percentile(chop_ms, 0.99);
    if (a.workload == "dense480") {
      v["energy.input_w_vs_paper_pct"] =
          100.0 * std::abs(v["energy.input_w"] - kPaperInputW) / kPaperInputW;
      v["energy.gips_vs_paper_pct"] =
          100.0 * std::abs(v["energy.gips"] - kPaperGips) / kPaperGips;
    }
    if (!twin_run_s.empty()) {
      v["engine.speedup_vs_seq"] =
          median(twin_run_s) / med(plain, &Rep::run_s);
    }
    if (a.workload == "farm480") {
      v["load.req_per_s"] = v["load.completed"] / med(plain, &Rep::run_s);
    }
    const double plain_wall = med(plain, &Rep::wall_s);
    v["trace.overhead_pct"] =
        100.0 * (med(traced, &Rep::wall_s) - plain_wall) / plain_wall;
    v["trace.coverage_pct"] = median(coverage);
    for (const auto& [name, unit] : layer_metrics()) {
      metrics.push_back({name, {v.count(name) ? v[name] : 0.0, unit}});
    }
    write_spans((std::filesystem::path(a.out_dir) /
                 ("spans-" + a.workload + ".json")).string(),
                tr.spans());
  }

  for (const std::string& f : failures) std::printf("FAIL %s\n", f.c_str());
  std::printf("%s: %zu untraced + %zu traced repetitions, %llu/%llu failed "
              "(fail_rate %g)\n",
              a.workload.c_str(), plain.size(), traced.size(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted), fail_rate);
  for (const auto& [name, vu] : metrics) {
    std::printf("  %-30s %.6g %s\n", name.c_str(), vu.first, vu.second);
  }
  std::string line = strprintf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      failures.empty() && failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].first.c_str(),
                      metrics[i].second.first, metrics[i].second.second);
  }
  std::printf("%s}}\n", line.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
