// End-to-end benchmark of the canonical feedback pipeline:
//
//   producer sockets → TcpAcceptor → FrameConduit → IngestSource
//     → Exchange → SymmetricHashJoin shards → ShardMerge
//     → WindowAggregate → CollectorSink, feedback back to the producers
//
// on PooledExecutor. One process runs one phase on a fresh plan:
//
//   pipeline_bench --workload <name> --seed <n> --phase <paced|saturation|setup>
//                  --seconds <s> [--pool <n>] [--trace <0|1>] [--corrupt-result <0|1>]
//
// and prints its measurements as one JSON line. ../run.py runs the
// phases of a benchmark run and combines them; ../METRICS.md defines
// every metric.

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "exec/scheduler.h"
#include "generator.h"
#include "pipeline.h"

namespace perfbench {
namespace {

constexpr int kPoolSize = 2;  // the pool the benchmark measures
// Open-loop validity: the generator may not run later than this, and
// the last tenth of windows may not be slower than the first tenth by
// more than this factor plus slack.
constexpr double kMaxLagP99Ms = 20.0;
constexpr double kBacklogFactor = 2.0;
constexpr double kBacklogSlackMs = 5.0;

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Peak resident set of this process image (VmHWM). getrusage's
// ru_maxrss would also count the parent's peak carried across exec.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

enum class Phase { kSaturation, kPaced, kSetupOnly };

// Everything one phase (one fresh plan) measured.
struct PhaseOut {
  double setup_s = 0;
  double wall_s = 0;  // first frame sent to the sink's end of stream
  double tuples_per_s = 0;
  double proc_cpu_s = 0;
  uint64_t attempts = 0;
  uint64_t failures = 0;
  std::string failure_note;
  // Paced.
  std::vector<double> latency_ms;
  bool valid = true;
  std::string invalid_note;
  double work_done_frac = 1.0;
  double work_saved_frac = 0.0;
  double peak_rss_mb = 0;
  bool generator_pinned = false;
  std::vector<double> hops_ms[5];  // edge, exchange, join, merge, agg
  // Layer counters and spans.
  std::map<std::string, double> layer;
  GenStats gen;
};

std::string Fmt(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

int64_t WindowsFor(const Workload& w, double seconds, double rate) {
  return std::max<int64_t>(
      4, static_cast<int64_t>(std::ceil(seconds * rate /
                                        static_cast<double>(TuplesPerWindow(w)))));
}

bool StartsWith(const std::string& s, const char* p) { return s.rfind(p, 0) == 0; }

void Summarize(const Workload& w, const Pipeline& pipe, const ResultLog& log,
               const nstream::SchedulerStats& sched, PhaseOut* out) {
  const GenStats& g = out->gen;
  auto& L = out->layer;

  // Reference check and failure accounting.
  const Reference& ref = *log.ref;
  uint64_t quarantined = 0, refused = 0, bytes_in = 0, pauses = 0;
  uint64_t feedback_out = 0, frames_in = 0;
  for (const auto& a : pipe.acceptors) {
    nstream::AcceptorStats s = a->StatsReport();
    quarantined += s.quarantined;
    refused += s.rejected;
    bytes_in += s.bytes_received;
    pauses += s.backpressure_pauses;
    for (const auto& c : s.connections) {
      feedback_out += c.feedback_out;
      frames_in += c.frames_in;
    }
  }
  uint64_t admission_drops = 0, parsed = 0;
  for (const nstream::IngestSource* s : pipe.sources) {
    quarantined += s->quarantined_frames() + s->quarantined_producers();
    admission_drops += s->stats().input_guard_drops;
    parsed += s->stats().tuples_out + s->stats().input_guard_drops;
  }
  const uint64_t missing = ref.expected_results() - log.received;
  out->attempts = ref.expected_results() + g.frames_sent;
  out->failures = missing + log.wrong + quarantined + refused + g.error_frames +
                  g.unsound_skips + (g.timed_out ? 1 : 0);
  if (out->failures > 0) {
    out->failure_note = "missing=" + std::to_string(missing) +
                        " wrong=" + std::to_string(log.wrong) +
                        " quarantined=" + std::to_string(quarantined) +
                        " refused=" + std::to_string(refused) +
                        " engine_errors=" + std::to_string(g.error_frames) +
                        " unsound_skips=" + std::to_string(g.unsound_skips) +
                        (g.timed_out ? " timed_out" : "");
  }

  out->wall_s = 1e-9 * static_cast<double>(log.eos_ns - g.first_send_ns);
  out->tuples_per_s = Ratio(static_cast<double>(g.tuples_offered), out->wall_s);

  // Work that feedback kept away from the first stateful operator.
  uint64_t reached = 0, offered = 0, exchange_drops = 0, shard_purges = 0;
  uint64_t gate_feedbacks = 0, joined = 0;
  if (w.shape == Shape::kJoin) {
    for (int s = 0; s < w.shards; ++s) reached += pipe.right_x->routed(s);
    for (const nstream::SymmetricHashJoin* j : pipe.shards) {
      shard_purges += j->stats().work_avoided;
      gate_feedbacks += j->gate_feedbacks();
      joined += j->joined_count();
    }
    reached -= std::min(reached, shard_purges);
    offered = g.probe_offered;
    for (const nstream::Exchange* x : {pipe.left_x, pipe.right_x}) {
      exchange_drops += x->stats().input_guard_drops + x->stats().output_guard_drops;
    }
  } else {
    reached = pipe.agg->stats().tuples_in;
    offered = g.tuples_offered;
  }
  out->work_done_frac = Ratio(static_cast<double>(reached), static_cast<double>(offered));
  out->work_saved_frac = 1.0 - out->work_done_frac;

  // Latency: one sample per result, from the scheduled send of the later
  // closing punctuation of its window to the sink's receipt.
  const int64_t windows = ref.windows();
  std::vector<std::vector<double>> per_window(static_cast<size_t>(windows));
  std::vector<int64_t> last_recv(static_cast<size_t>(windows), -1);
  for (int64_t win = 0; win < windows; ++win) {
    const int64_t sent = g.punct_ns[static_cast<size_t>(win)];
    for (int k = 0; k < ref.keys(); ++k) {
      const int64_t recv = log.recv_ns[ref.Index(win, k)];
      if (recv < 0) continue;
      last_recv[static_cast<size_t>(win)] =
          std::max(last_recv[static_cast<size_t>(win)], recv);
      if (sent < 0) continue;
      const double ms = 1e-6 * static_cast<double>(recv - sent);
      per_window[static_cast<size_t>(win)].push_back(ms);
      out->latency_ms.push_back(ms);
    }
  }

  // Per-window hop times of the closing punctuation (traced runs).
  auto last_of = [&](const char* prefix, int64_t win) {
    int64_t t = -1;
    for (const auto& tr : pipe.traces) {
      if (StartsWith(tr->name, prefix)) t = std::max(t, tr->punct_ns[static_cast<size_t>(win)]);
    }
    return t;
  };
  if (!pipe.traces.empty()) {
    for (int64_t win = 0; win < windows; ++win) {
      const int64_t points[6] = {g.punct_ns[static_cast<size_t>(win)],
                                 last_of("join.xchg", win),
                                 last_of("join.shard", win),
                                 last_of("join.merge", win),
                                 last_of("agg", win),
                                 last_recv[static_cast<size_t>(win)]};
      if (points[0] < 0 || points[4] < 0 || points[5] < 0) continue;
      // The first layer after ingest takes the edge hop; a layer the
      // workload lacks contributes a zero hop.
      double hop[5] = {0, 0, 0, 0, 0};
      int64_t prev = points[0];
      for (int h = 0; h < 5; ++h) {
        const int64_t at = points[h + 1];
        if (at < 0) continue;
        hop[prev == points[0] ? 0 : h] = 1e-6 * static_cast<double>(at - prev);
        prev = at;
      }
      for (int h = 0; h < 5; ++h) out->hops_ms[h].push_back(hop[h]);
    }
  }

  // Open-loop validity (paced phases only use it).
  const double lag_p99 = Quantile(g.lag_ms, 0.99);
  std::vector<double> first, last;
  const int64_t tenth = std::max<int64_t>(1, windows / 10);
  for (int64_t win = 0; win < windows; ++win) {
    const auto& s = per_window[static_cast<size_t>(win)];
    if (s.empty()) continue;
    if (win < tenth) first.push_back(Median(s));
    if (win >= windows - tenth) last.push_back(Median(s));
  }
  const double first_ms = Median(first), last_ms = Median(last);
  if (lag_p99 > kMaxLagP99Ms) {
    out->valid = false;
    out->invalid_note = "generator lag p99 " + Fmt(lag_p99) + " ms";
  } else if (last_ms > kBacklogFactor * first_ms + kBacklogSlackMs) {
    out->valid = false;
    out->invalid_note = "backlog grew: last-tenth latency " + Fmt(last_ms) +
                        " ms vs first-tenth " + Fmt(first_ms) + " ms";
  }

  // Layer spans.
  double busy = 0, span_cpu = 0, produce = 0, feedback = 0, exchange_busy = 0, join_busy = 0,
         join_busy_max = 0, merge_busy = 0, agg_busy = 0, sink_busy = 0;
  int guards_peak = 0;
  for (const auto& tr : pipe.traces) {
    const double b = 1e-9 * static_cast<double>(tr->busy_ns);
    busy += b;
    span_cpu += 1e-9 * static_cast<double>(tr->cpu_ns);
    produce += 1e-9 * static_cast<double>(tr->produce_ns);
    feedback += 1e-9 * static_cast<double>(tr->feedback_ns);
    guards_peak = std::max(guards_peak, tr->guards_peak);
    if (StartsWith(tr->name, "join.xchg")) exchange_busy += b;
    if (StartsWith(tr->name, "join.shard")) {
      join_busy += b;
      join_busy_max = std::max(join_busy_max, b);
    }
    if (StartsWith(tr->name, "join.merge")) merge_busy += b;
    if (StartsWith(tr->name, "agg")) agg_busy += b;
    if (StartsWith(tr->name, "sink")) sink_busy += b;
  }
  uint64_t op_tuples = pipe.agg->stats().tuples_in + pipe.sink->stats().tuples_in;
  double skew = 0;
  if (w.shape == Shape::kJoin) {
    for (const nstream::Exchange* x : {pipe.left_x, pipe.right_x}) {
      op_tuples += x->stats().tuples_in;
      uint64_t most = 0, sum = 0;
      for (int s = 0; s < w.shards; ++s) {
        most = std::max(most, x->routed(s));
        sum += x->routed(s);
      }
      skew = std::max(skew, Ratio(static_cast<double>(most),
                                  static_cast<double>(sum) / w.shards));
    }
    for (const nstream::SymmetricHashJoin* j : pipe.shards) op_tuples += j->stats().tuples_in;
    op_tuples += pipe.merge->stats().tuples_in;
  }
  const double wall = out->wall_s;
  const double unattributed = out->proc_cpu_s - span_cpu - g.cpu_s;
  uint64_t feedback_dropped = 0;
  for (const auto& c : pipe.conduits) feedback_dropped += c->feedback_dropped();

  L["ingest.produce_s"] = produce;
  L["ingest.ns_per_tuple"] = Ratio(1e9 * produce, static_cast<double>(parsed));
  L["ingest.frames_in"] = static_cast<double>(frames_in);
  L["ingest.bytes_in"] = static_cast<double>(bytes_in);
  L["ingest.backpressure_pauses"] = static_cast<double>(pauses);
  L["ingest.feedback_frames_out"] = static_cast<double>(feedback_out);
  L["ingest.feedback_dropped"] = static_cast<double>(feedback_dropped);
  L["ingest.quarantined"] = static_cast<double>(quarantined);
  L["exec.slices"] = static_cast<double>(sched.slices);
  L["exec.wakes_delivered"] = static_cast<double>(sched.wakes_delivered);
  L["exec.wakes_coalesced"] = static_cast<double>(sched.wakes_coalesced);
  L["exec.requeues"] = static_cast<double>(sched.requeues);
  L["exec.tuples_per_slice"] =
      Ratio(static_cast<double>(op_tuples), static_cast<double>(sched.slices));
  L["exec.worker_busy_frac"] = Ratio(busy, kPoolSize * wall);
  L["exec.unattributed_cpu_s"] = unattributed;
  L["ops.exchange.busy_s"] = exchange_busy;
  L["ops.exchange.skew"] = skew;
  L["ops.join.busy_s"] = join_busy;
  L["ops.join.busy_max_s"] = join_busy_max;
  L["ops.join.joined"] = static_cast<double>(joined);
  L["ops.join.gate_feedbacks"] = static_cast<double>(gate_feedbacks);
  L["ops.merge.busy_s"] = merge_busy;
  L["ops.merge.coalesced_puncts"] =
      pipe.merge != nullptr ? static_cast<double>(pipe.merge->coalesced_puncts()) : 0.0;
  L["ops.agg.busy_s"] = agg_busy;
  L["ops.agg.updates"] = static_cast<double>(pipe.agg->updates_applied());
  L["ops.sink.busy_s"] = sink_busy;
  L["ops.sink.results"] = static_cast<double>(log.received);
  L["core.feedback_s"] = feedback;
  L["core.guards_peak"] = guards_peak;
  L["core.drops_exchange"] = static_cast<double>(exchange_drops);
  L["core.drops_admission"] = static_cast<double>(admission_drops);
  L["core.saved_per_feedback"] =
      Ratio(static_cast<double>(g.tuples_skipped + exchange_drops + admission_drops +
                                shard_purges),
            static_cast<double>(gate_feedbacks));
  L["core.feedback_delay_p50_ms"] = Median(g.feedback_delay_ms);
  L["gen.cpu_frac"] = Ratio(g.cpu_s, 1e-9 * static_cast<double>(g.wall_ns));
  L["gen.send_blocked_s"] = 1e-9 * static_cast<double>(g.blocked_ns);
  L["gen.lag_p99_ms"] = lag_p99;
  L["gen.drops_producer"] = static_cast<double>(g.tuples_skipped);
  L["trace.coverage"] = Ratio(span_cpu + g.cpu_s, out->proc_cpu_s);
  static const char* kHops[5] = {"stream.hop_edge_ms", "stream.hop_exchange_ms",
                                 "stream.hop_join_ms", "stream.hop_merge_ms",
                                 "stream.hop_agg_ms"};
  for (int h = 0; h < 5; ++h) L[kHops[h]] = Median(out->hops_ms[h]);
}

PhaseOut RunPhase(const Workload& w, uint64_t seed, Phase phase, double seconds,
                  int pool, bool trace, bool corrupt) {
  int64_t windows = 0;
  double rate = 0;
  if (phase == Phase::kPaced) {
    rate = w.paced_rate;
    windows = WindowsFor(w, seconds, rate);
  } else if (phase == Phase::kSaturation) {
    windows = WindowsFor(w, seconds, w.nominal_sat_rate);
  }
  const InputModel model(w, seed);
  const Reference ref(model, windows);
  ResultLog log(&ref);
  log.corrupt_one = corrupt;

  // The engine's threads (workers, acceptors) inherit all CPUs but the
  // last; the generator then takes the last one alone, so it neither
  // steals from nor runs late behind the system under test.
  const int cpus = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  const bool pin = cpus >= 3;
  if (pin) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c = 0; c < cpus - 1; ++c) CPU_SET(c, &set);
    sched_setaffinity(0, sizeof(set), &set);
  }
  PhaseOut out;
  out.generator_pinned = pin;
  const int64_t t0 = NowNs();
  Pipeline pipe = BuildPipeline(w, trace, &log);
  for (const auto& a : pipe.acceptors) {
    Status st = a->Listen();
    NSTREAM_CHECK(st.ok()) << st.ToString();
  }
  nstream::PooledExecutorOptions eo;
  eo.pool_size = pool;
  nstream::PooledExecutor exec(eo);
  nstream::Result<nstream::QueryId> qid = exec.Submit(pipe.plan.get());
  NSTREAM_CHECK(qid.ok()) << qid.status().ToString();
  if (pin) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus - 1, &set);
    sched_setaffinity(0, sizeof(set), &set);
  }
  Generator gen(model, windows, pipe, log.closed_window);
  Status cst = gen.Connect();
  NSTREAM_CHECK(cst.ok()) << cst.ToString();
  out.setup_s = 1e-9 * static_cast<double>(NowNs() - t0);

  const double cpu0 = ProcessCpuSeconds();
  nstream::Scheduler* sched = exec.scheduler();
  gen.Run(rate, [&] { return sched->Done(qid.value()); });
  Status wst = exec.Wait(qid.value(), gen.stats().timed_out ? 1'000 : 60'000);
  if (!wst.ok()) {
    // The query may still be running: report the failure without
    // reading operator state the workers could be writing.
    out.failures = 1;
    out.valid = false;
    out.failure_note = "query did not finish: " + wst.ToString();
    return out;
  }
  out.proc_cpu_s = ProcessCpuSeconds() - cpu0;
  out.peak_rss_mb = PeakRssMb();
  for (const auto& a : pipe.acceptors) a->Stop();
  out.gen = gen.stats();
  Summarize(w, pipe, log, sched->stats(), &out);
  if (phase != Phase::kPaced) out.valid = true;  // only open loops can lag
  return out;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out;
}

// One phase's measurements as a single JSON line; run.py combines the
// phases of a run into the benchmark's result.
void EmitPhase(const Workload& w, const PhaseOut& p) {
  std::string s = "{";
  auto num = [&s](const std::string& k, double v) {
    s += "\"" + k + "\": " + Fmt(v) + ", ";
  };
  num("setup_s", p.setup_s);
  num("tuples_per_s", p.tuples_per_s);
  num("latency_p50_ms", Quantile(p.latency_ms, 0.5));
  num("latency_p99_ms", Quantile(p.latency_ms, 0.99));
  num("latency_samples", static_cast<double>(p.latency_ms.size()));
  num("work_done_frac", p.work_done_frac);
  num("work_saved_frac", p.work_saved_frac);
  num("peak_rss_mb", p.peak_rss_mb);
  num("attempts", static_cast<double>(p.attempts));
  num("failures", static_cast<double>(p.failures));
  num("valid", p.valid ? 1 : 0);
  num("paced_rate", w.paced_rate);
  num("online_cpus", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  num("generator_pinned", p.generator_pinned ? 1 : 0);
  s += "\"note\": \"" + Escape(p.failure_note + p.invalid_note) + "\", \"layer\": {";
  bool first = true;
  for (const auto& [k, v] : p.layer) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + k + "\": " + Fmt(v);
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Phase;
  std::string workload, phase_name;
  uint64_t seed = 1;
  double seconds = 1;
  int pool = perfbench::kPoolSize;
  bool trace = false, corrupt = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--phase") {
      phase_name = v;
    } else if (k == "--seconds") {
      seconds = std::atof(v.c_str());
    } else if (k == "--pool") {
      pool = std::max(1, std::atoi(v.c_str()));
    } else if (k == "--trace") {
      trace = v == "1";
    } else if (k == "--corrupt-result") {
      corrupt = v == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  const perfbench::Workload* w = perfbench::FindWorkload(workload);
  const Phase phase = phase_name == "paced"        ? Phase::kPaced
                      : phase_name == "saturation" ? Phase::kSaturation
                                                   : Phase::kSetupOnly;
  if (w == nullptr || (phase == Phase::kSetupOnly && phase_name != "setup")) {
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload <name> --seed <n> "
                 "--phase <paced|saturation|setup> --seconds <s> [--pool <n>] "
                 "[--trace <0|1>] [--corrupt-result <0|1>]\n");
    return 2;
  }
  perfbench::EmitPhase(
      *w, perfbench::RunPhase(*w, seed, phase, seconds, pool, trace, corrupt));
  return 0;
}
