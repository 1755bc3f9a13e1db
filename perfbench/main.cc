// mcfs_perfbench: one process of the exploration benchmark. run.py starts
// it and folds the JSON line it prints into the benchmark's result.
//
//   mcfs_perfbench e2e   --workload W --seed N --seconds S
//       an untimed warm-up probe, repeated Mcfs::Create timings, then
//       rounds of the workload's probes for about S seconds; end-to-end
//       metrics, timings as medians.
//   mcfs_perfbench trace --workload W --seed N [--spans PATH]
//       the first third of a round, each probe run untraced, traced (the
//       engine driven through TimingSystem) and replayed (the split of
//       ApplyAction); per-layer metrics.
//
// Both modes check their outputs: no violation, corruption event or
// infrastructure error, and exact agreement of each probe's operations,
// unique states and simulated seconds between all its runs.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "replay_split.h"
#include "timing_system.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mcfs::core::Mcfs;
using mcfs::core::McfsConfig;
using mcfs::core::McfsReport;
using Clock = std::chrono::steady_clock;

// Keeps every record of a probe's linear trace (operations plus
// checkpoint and restore records), so it can be replayed.
constexpr std::size_t kFullTraceCap = 10'000'000;

// The replay's per-op phases must add up to the traced ApplyAction time
// within this share of it; outside it, the split misses work.
constexpr double kReplayTolerance = 0.25;

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The deterministic outcome of one probe: equal across all its runs.
struct Counts {
  std::uint64_t operations = 0;
  std::uint64_t unique_states = 0;
  double sim_seconds = 0;

  friend bool operator==(const Counts&, const Counts&) = default;
};

Counts CountsOf(const mcfs::mc::ExploreStats& stats) {
  return {stats.operations, stats.unique_states, stats.sim_seconds};
}

// Peak resident set of this process image, in MiB. VmHWM belongs to the
// address space, so it starts afresh at exec; getrusage's ru_maxrss does
// not, and would report the launching process's footprint instead.
double PeakRssMib() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

// Result of one process: verdict, operation tallies and metrics.
class Outcome {
 public:
  explicit Outcome(std::size_t probes) : counts_(probes) {}

  void Fail(const std::string& why) {
    correct_ = false;
    errors_.push_back(why);
  }

  // Folds one probe's exploration in: its operations were attempted;
  // the one a violation stopped on, and each corruption event or
  // infrastructure error, failed. Its counts must equal those of every
  // earlier run of the same probe.
  void AddRun(std::size_t probe, const mcfs::mc::ExploreStats& stats,
              const mcfs::core::EngineCounters& counters,
              std::uint64_t infra_errors, const char* what) {
    attempted_ += stats.operations;
    const std::uint64_t bad =
        std::max<std::uint64_t>(stats.violation_found ? 1 : 0,
                                counters.corruption_events) +
        infra_errors;
    if (bad > 0) {
      failed_ += bad;
      Fail(std::string(what) + " failed: " +
           (stats.violation_found ? stats.violation_report
                                  : std::string("corruption or infra error")));
    }
    const Counts c = CountsOf(stats);
    std::optional<Counts>& first = counts_.at(probe);
    if (!first.has_value()) {
      first = c;
    } else if (!(c == *first)) {
      std::ostringstream why;
      why << what << " of probe " << probe << " differs: ops "
          << c.operations << " vs " << first->operations << ", states "
          << c.unique_states << " vs " << first->unique_states
          << ", sim_s " << c.sim_seconds << " vs " << first->sim_seconds;
      Fail(why.str());
    }
  }

  // Replayed operations count as attempted; divergent ones as failed.
  void AddReplayed(std::uint64_t operations, std::uint64_t bad) {
    attempted_ += operations;
    failed_ += bad;
  }

  const Counts& counts(std::size_t probe) const { return *counts_.at(probe); }
  bool correct() const { return correct_; }
  std::map<std::string, double>& metrics() { return metrics_; }

  // Sums of the round's counts (every probe must have run).
  Counts RoundTotals() const {
    Counts total;
    for (const auto& c : counts_) {
      total.operations += c->operations;
      total.unique_states += c->unique_states;
      total.sim_seconds += c->sim_seconds;
    }
    return total;
  }

  void Print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    const char* sep = "";
    for (const auto& [name, value] : metrics_) {
      std::printf("%s\"%s\": %.17g", sep, name.c_str(),
                  std::isfinite(value) ? value : 0.0);
      sep = ", ";
    }
    std::printf("}, \"errors\": [");
    sep = "";
    for (const std::string& e : errors_) {
      std::string escaped;
      for (const char c : e) {
        if (c == '"' || c == '\\') escaped.push_back('\\');
        escaped.push_back(c == '\n' ? ' ' : c);
      }
      std::printf("%s\"%s\"", sep, escaped.c_str());
      sep = ", ";
    }
    std::printf("]}\n");
    std::fflush(stdout);
  }

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::map<std::string, double> metrics_;
  std::vector<std::optional<Counts>> counts_;
};

// Builds one Mcfs, or records why it could not be built.
std::unique_ptr<Mcfs> Build(const McfsConfig& config, Outcome& out) {
  auto made = Mcfs::Create(config);
  if (!made.ok()) {
    out.Fail("Mcfs::Create failed: " +
             std::string(mcfs::ErrnoName(made.error())));
    return nullptr;
  }
  return std::move(made).value();
}

std::vector<McfsConfig> RoundConfigs(const Workload& workload,
                                     std::uint64_t seed) {
  std::vector<McfsConfig> configs;
  for (std::size_t i = 0; i < workload.probes; ++i) {
    configs.push_back(workload.config(ProbeSeed(seed, i)));
  }
  return configs;
}

// ---------------------------------------------------------------------
// e2e

void RunE2e(const std::vector<McfsConfig>& configs, double seconds,
            Outcome& out) {
  const std::size_t probes = configs.size();

  // Untimed warm-up: the first exploration in a fresh process runs
  // measurably slower than the ones after it.
  {
    auto mcfs = Build(configs[0], out);
    if (mcfs == nullptr) return;
    const McfsReport warm = mcfs->Run();
    out.AddRun(0, warm.stats, warm.counters, 0, "warm-up");
  }

  // Set-up time: the median over every probe's own Mcfs::Create, so the
  // samples span the whole run. Each one follows another probe's
  // exploration, as a build does in use; builds repeated back to back
  // run up to three times faster on warm caches and would not be the
  // cost a caller pays.
  std::vector<double> setups;

  // Rounds: every probe once per round, until another round would
  // overrun `seconds` (at least one round). The peak resident set is
  // read after the first round, so it does not depend on how many
  // rounds the host's speed allowed.
  std::vector<std::vector<double>> walls(probes);
  const Clock::time_point start = Clock::now();
  double last_round = 0;
  double peak_rss_mib = 0;
  do {
    const Clock::time_point round_start = Clock::now();
    for (std::size_t i = 0; i < probes; ++i) {
      const Clock::time_point t = Clock::now();
      auto mcfs = Build(configs[i], out);
      setups.push_back(Seconds(t));
      if (mcfs == nullptr) return;
      const McfsReport report = mcfs->Run();
      out.AddRun(i, report.stats, report.counters, 0, "probe");
      walls[i].push_back(report.stats.wall_seconds);
    }
    last_round = Seconds(round_start);
    if (peak_rss_mib == 0) peak_rss_mib = PeakRssMib();
  } while (Seconds(start) + last_round <= seconds);

  // Each probe's explore time is the median over rounds; the round's
  // rate is its summed states over its summed times.
  double explore_seconds = 0;
  for (const auto& w : walls) explore_seconds += Median(w);
  const Counts total = out.RoundTotals();
  auto& m = out.metrics();
  m["states_per_s"] =
      Ratio(static_cast<double>(total.unique_states), explore_seconds);
  m["states_per_kop"] = Ratio(1000.0 * static_cast<double>(total.unique_states),
                              static_cast<double>(total.operations));
  m["sim_ops_per_s"] =
      Ratio(static_cast<double>(total.operations), total.sim_seconds);
  m["setup_s"] = Median(setups);
  m["peak_rss_mb"] = peak_rss_mib;
  m["rounds"] = static_cast<double>(walls[0].size());
  m["setup_samples"] = static_cast<double>(setups.size());
  if (m["peak_rss_mb"] <= 0) out.Fail("could not read VmHWM");
}

// ---------------------------------------------------------------------
// trace

// Gauges read from the file systems and devices; a probe's figure is the
// difference between two samples.
struct LayerSample {
  std::uint64_t remounts = 0;
  std::uint64_t dcache_hits = 0;
  std::uint64_t dcache_misses = 0;
  std::uint64_t dcache_invalidations = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t flushes = 0;

  LayerSample operator-(const LayerSample& o) const {
    return {remounts - o.remounts,
            dcache_hits - o.dcache_hits,
            dcache_misses - o.dcache_misses,
            dcache_invalidations - o.dcache_invalidations,
            bytes_written - o.bytes_written,
            flushes - o.flushes};
  }
  LayerSample& operator+=(const LayerSample& o) {
    remounts += o.remounts;
    dcache_hits += o.dcache_hits;
    dcache_misses += o.dcache_misses;
    dcache_invalidations += o.dcache_invalidations;
    bytes_written += o.bytes_written;
    flushes += o.flushes;
    return *this;
  }
};

LayerSample SampleLayers(Mcfs& mcfs) {
  LayerSample s;
  for (mcfs::core::FsUnderTest* fut : {&mcfs.fs_a(), &mcfs.fs_b()}) {
    s.remounts += fut->remounts();
    const mcfs::vfs::CacheStats& d = fut->vfs().dcache().stats();
    s.dcache_hits += d.hits;
    s.dcache_misses += d.misses;
    s.dcache_invalidations += d.invalidations;
    // jffs2f writes its MTD directly; its block shim only sees snapshot
    // traffic, so block statistics cover the block file systems only.
    if (fut->config().kind != mcfs::core::FsKind::kJffs2 &&
        fut->device() != nullptr) {
      s.bytes_written += fut->device()->stats().bytes_written;
      s.flushes += fut->device()->stats().flushes;
    }
  }
  return s;
}

// Sums over the round's probes.
struct TraceTotals {
  double untraced_wall = 0;  // explore seconds, Mcfs::Run
  double traced_wall = 0;    // explore seconds, through TimingSystem
  std::array<CallTotals, kCallKinds> calls{};
  double wrapped_ns = 0;
  std::uint64_t operations = 0;
  std::uint64_t revisits = 0;
  std::uint64_t por_pruned = 0;
  std::uint64_t nodes_rehashed = 0;
  std::uint64_t full_recomputes = 0;
  std::uint64_t crash_states = 0;
  std::uint64_t peak_live_snapshots = 0;
  double shared_bytes = 0;  // summed over every snapshot-pool sample
  double total_bytes = 0;
  LayerSample layers;
  // Replay split.
  std::uint64_t replayed_ops = 0;
  std::int64_t mount_ns = 0;
  std::int64_t op_ns = 0;
  std::int64_t compare_ns = 0;
  std::int64_t refresh_ns = 0;
  std::int64_t observe_ns = 0;
};

// What the replay of one probe needs from its untraced run.
struct UntracedProbe {
  mcfs::core::Trace trace;
  FinalDigests digests;
};

// The untraced run of one probe, through Mcfs::Run; nullopt when it
// could not run.
std::optional<UntracedProbe> RunUntraced(std::size_t probe,
                                         const McfsConfig& config,
                                         TraceTotals& totals, Outcome& out) {
  auto mcfs = Build(config, out);
  if (mcfs == nullptr) return std::nullopt;
  const McfsReport report = mcfs->Run();
  out.AddRun(probe, report.stats, report.counters, 0, "untraced run");
  totals.untraced_wall += report.stats.wall_seconds;
  auto digests = ComputeFinalDigests(*mcfs);
  if (!digests.ok()) {
    out.Fail("final walk of the untraced run failed");
    return std::nullopt;
  }
  return UntracedProbe{mcfs->engine().trace(), digests.value()};
}

// The traced run of one probe: an Explorer with the options Mcfs::Run
// sets, driving the engine through TimingSystem. Returns the snapshot
// ids in the order the explorer discarded them.
std::vector<std::uint64_t> RunTraced(std::size_t probe,
                                     const McfsConfig& config,
                                     const std::string& spans_path,
                                     TraceTotals& totals, Outcome& out) {
  std::vector<std::uint64_t> discards;
  auto mcfs = Build(config, out);
  if (mcfs == nullptr) return discards;
  mcfs::core::SyscallEngine& engine = mcfs->engine();

  // The snapshot-pool gauges read zero once a run has unwound, so they
  // are sampled after every save and discard.
  TimingSystem timed(engine, [&engine, &totals] {
    totals.shared_bytes +=
        static_cast<double>(engine.counters().snapshot_shared_bytes);
    totals.total_bytes +=
        static_cast<double>(engine.counters().snapshot_total_bytes);
  });
  mcfs::mc::ExplorerOptions opts = config.explore;
  opts.clock = &mcfs->clock();
  opts.memory = mcfs->memory();
  const LayerSample before = SampleLayers(*mcfs);
  mcfs::mc::Explorer explorer(timed, opts);
  const mcfs::mc::ExploreStats stats = explorer.Run();
  totals.layers += SampleLayers(*mcfs) - before;

  const mcfs::core::EngineCounters& counters = engine.counters();
  out.AddRun(probe, stats, counters, timed.infra_errors(), "traced run");
  if (!spans_path.empty() && !timed.WriteChromeTrace(spans_path)) {
    out.Fail("could not write spans to " + spans_path);
  }

  totals.traced_wall += stats.wall_seconds;
  for (std::size_t k = 0; k < kCallKinds; ++k) {
    totals.calls[k].calls += timed.totals(static_cast<Call>(k)).calls;
    totals.calls[k].ns += timed.totals(static_cast<Call>(k)).ns;
  }
  totals.wrapped_ns += static_cast<double>(timed.wrapped_ns());
  totals.operations += stats.operations;
  totals.revisits += stats.revisits;
  totals.por_pruned += stats.por_pruned_transitions;
  totals.nodes_rehashed += counters.abstraction_nodes_rehashed;
  totals.full_recomputes += counters.abstraction_full_recomputes;
  totals.crash_states += counters.crash_states_checked;
  totals.peak_live_snapshots =
      std::max(totals.peak_live_snapshots, counters.snapshots_peak);
  for (const Span& s : timed.spans()) {
    if (s.call == Call::kDiscardConcrete) discards.push_back(s.arg);
  }
  return discards;
}

// Replays one probe's untraced trace and checks that it retraced the
// live run: same errnos, same discard order, same final digests.
void RunReplay(std::size_t probe, const McfsConfig& config,
               const UntracedProbe& live,
               const std::vector<std::uint64_t>& traced_discards,
               TraceTotals& totals, Outcome& out) {
  const std::string which = " (probe " + std::to_string(probe) + ")";
  auto split = RunReplaySplit(config, live.trace);
  if (!split.ok()) {
    out.Fail("replay failed with " +
             std::string(mcfs::ErrnoName(split.error())) + which);
    return;
  }
  const ReplaySplit& r = split.value();
  const std::uint64_t bad =
      r.violations + r.infra_errors + r.outcome_mismatches;
  out.AddReplayed(r.operations, bad);
  if (r.operations != out.counts(probe).operations) {
    out.Fail("trace does not hold every operation of the live run" + which);
  }
  if (bad > 0) out.Fail("replay diverged from the recorded trace" + which);
  if (r.discard_order != traced_discards) {
    out.Fail("replay discarded snapshots in another order" + which);
  }
  if (!(r.final_digests == live.digests) || !r.last_digests_consistent) {
    out.Fail("replay did not end on the live run's final digest" + which);
  }
  totals.replayed_ops += r.operations;
  totals.mount_ns += r.mount_ns;
  totals.op_ns += r.op_ns;
  totals.compare_ns += r.compare_ns;
  totals.refresh_ns += r.refresh_ns;
  totals.observe_ns += r.observe_ns;
}

void RunTrace(std::vector<McfsConfig> configs, const std::string& spans_path,
              Outcome& out) {
  // Each probe runs three times here (untraced, traced, replayed), so a
  // third of the round keeps a traced run as long as an untraced one.
  configs.resize((configs.size() + 2) / 3);
  for (McfsConfig& c : configs) c.engine.trace_cap = kFullTraceCap;
  TraceTotals t;

  // Untimed warm-up.
  {
    TraceTotals ignored;
    if (!RunUntraced(0, configs[0], ignored, out).has_value()) return;
  }

  for (std::size_t i = 0; i < configs.size(); ++i) {
    // Alternate which run goes first, so host drift within a probe
    // does not bias the tracing overhead.
    std::optional<UntracedProbe> live;
    std::vector<std::uint64_t> discards;
    const std::string spans = i == 0 ? spans_path : "";
    if (i % 2 == 0) {
      live = RunUntraced(i, configs[i], t, out);
      discards = RunTraced(i, configs[i], spans, t, out);
    } else {
      discards = RunTraced(i, configs[i], spans, t, out);
      live = RunUntraced(i, configs[i], t, out);
    }
    if (!live.has_value() || !out.correct()) return;
    RunReplay(i, configs[i], *live, discards, t, out);
  }

  const double ops = static_cast<double>(t.operations);
  const double wall_ns = t.traced_wall * 1e9;
  auto ns = [&t](Call c) {
    return static_cast<double>(t.calls[static_cast<std::size_t>(c)].ns);
  };
  auto mean_us = [&t](Call c) {
    const CallTotals& k = t.calls[static_cast<std::size_t>(c)];
    return Ratio(static_cast<double>(k.ns) / 1e3,
                 static_cast<double>(k.calls));
  };
  auto per_op = [ops](double v) { return Ratio(v, ops); };
  const double layer_calls_ns =
      ns(Call::kApplyAction) + ns(Call::kAbstractHash) +
      ns(Call::kSaveConcrete) + ns(Call::kRestoreConcrete) +
      ns(Call::kDiscardConcrete) + ns(Call::kCrashCheck);

  auto& m = out.metrics();
  m["mc.explorer.ops_per_s"] = Ratio(ops, t.untraced_wall);
  m["mc.explorer.self_share"] = Ratio(wall_ns - t.wrapped_ns, wall_ns);
  // Every wrapped call runs inside the explorer's own timer, so the
  // explore phase is its self time plus the wrapped calls.
  if (m["mc.explorer.self_share"] < 0) {
    out.Fail("wrapped calls exceed the traced explore time");
  }
  m["mc.explorer.revisit_ratio"] = per_op(static_cast<double>(t.revisits));
  m["mc.por.pruned_per_kop"] =
      per_op(1000.0 * static_cast<double>(t.por_pruned));
  m["mc.system.accessor_share"] =
      Ratio(t.wrapped_ns - layer_calls_ns, wall_ns);
  m["mcfs.engine.apply_us"] = mean_us(Call::kApplyAction);
  m["mcfs.engine.apply_share"] = Ratio(ns(Call::kApplyAction), wall_ns);
  m["mcfs.engine.hash_share"] = Ratio(ns(Call::kAbstractHash), wall_ns);
  m["mcfs.abstraction.nodes_rehashed_per_op"] =
      per_op(static_cast<double>(t.nodes_rehashed));
  m["mcfs.abstraction.full_recomputes_per_op"] =
      per_op(static_cast<double>(t.full_recomputes));
  m["snapshot.save_us"] = mean_us(Call::kSaveConcrete);
  m["snapshot.restore_us"] = mean_us(Call::kRestoreConcrete);
  m["snapshot.discard_us"] = mean_us(Call::kDiscardConcrete);
  m["snapshot.restore_share"] = Ratio(ns(Call::kRestoreConcrete), wall_ns);
  m["snapshot.save_discard_share"] =
      Ratio(ns(Call::kSaveConcrete) + ns(Call::kDiscardConcrete), wall_ns);
  m["snapshot.peak_live"] = static_cast<double>(t.peak_live_snapshots);
  m["snapshot.shared_frac"] = Ratio(t.shared_bytes, t.total_bytes);
  m["crash.check_share"] = Ratio(ns(Call::kCrashCheck), wall_ns);
  m["crash.states_per_op"] = per_op(static_cast<double>(t.crash_states));
  m["fs.remounts_per_op"] = per_op(static_cast<double>(t.layers.remounts));
  m["vfs.dcache_hit_ratio"] =
      Ratio(static_cast<double>(t.layers.dcache_hits),
            static_cast<double>(t.layers.dcache_hits + t.layers.dcache_misses));
  m["vfs.dcache_invalidations_per_op"] =
      per_op(static_cast<double>(t.layers.dcache_invalidations));
  m["storage.bytes_written_per_op"] =
      per_op(static_cast<double>(t.layers.bytes_written));
  m["storage.flushes_per_op"] = per_op(static_cast<double>(t.layers.flushes));
  m["trace.overhead"] = Ratio(t.traced_wall, t.untraced_wall) - 1.0;

  const double replayed = static_cast<double>(t.replayed_ops);
  auto replay_us = [replayed](std::int64_t ns) {
    return Ratio(static_cast<double>(ns) / 1e3, replayed);
  };
  m["fs.mount_us"] = replay_us(t.mount_ns);
  m["fs.op_us"] = replay_us(t.op_ns);
  m["mcfs.checker.compare_us"] = replay_us(t.compare_ns);
  m["mcfs.abstraction.refresh_us"] = replay_us(t.refresh_ns);
  m["crash.observe_us"] = replay_us(t.observe_ns);
  m["replay.apply_ratio"] =
      Ratio(replay_us(t.mount_ns + t.op_ns + t.compare_ns + t.refresh_ns +
                      t.observe_ns),
            m["mcfs.engine.apply_us"]);
  if (std::abs(m["replay.apply_ratio"] - 1.0) > kReplayTolerance) {
    out.Fail("replay split does not sum to ApplyAction within tolerance");
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: mcfs_perfbench e2e|trace --workload NAME [--seed N] "
               "[--seconds S] [--spans PATH]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::string workload_name;
  std::string spans_path;
  std::optional<std::uint64_t> seed;
  double seconds = 10;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  const Workload* workload = FindWorkload(workload_name);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload_name.c_str());
    return Usage();
  }
  const std::vector<McfsConfig> configs =
      RoundConfigs(*workload, seed.value_or(workload->default_seed));
  Outcome out(configs.size());
  if (mode == "e2e") {
    RunE2e(configs, seconds, out);
  } else if (mode == "trace") {
    RunTrace(configs, spans_path, out);
  } else {
    return Usage();
  }
  out.Print();
  return 0;
}
