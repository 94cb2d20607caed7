// The benchmark's view of the engine: workload definitions, the seeded
// input model with its reference results, the canonical plan builder,
// and the bench-side wrapper operators that time each layer from
// outside (spans around the public Operator entry points).

#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/query_plan.h"
#include "ingest/frame_conduit.h"
#include "ingest/ingest_source.h"
#include "ingest/tcp_acceptor.h"
#include "ops/exchange.h"
#include "ops/sink.h"
#include "ops/symmetric_hash_join.h"
#include "ops/window_aggregate.h"

namespace perfbench {

using nstream::Operator;
using nstream::SchemaPtr;
using nstream::Status;
using nstream::Tuple;

/// Monotonic nanoseconds; every timestamp in the benchmark uses it.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Shape {
  kJoin,   // detector + probe streams → sharded window join → AVG
  kCount,  // one fan-in stream → COUNT per key per window
};

struct Workload {
  const char* name;
  Shape shape;
  int conns;         // producer connections
  int frame_tuples;  // tuples per batch frame
  int keys;          // segments (join) or group keys (count)
  int shards;        // join shards (join shape only)
  bool gate;         // adaptive gate with feedback (join shape only)
  double paced_rate;      // offered tuples/s in the paced phase
  double nominal_sat_rate;  // sizes the saturation input, tuples/s
};

const Workload* FindWorkload(const std::string& name);

/// Mean tuples per window over all streams.
inline int64_t TuplesPerWindow(const Workload& w) {
  return w.shape == Shape::kJoin ? int64_t{4} * w.keys : int64_t{16} * w.keys;
}

/// Application-time tumbling window (ms). Windows close by punctuation
/// only, so its length never shows up in wall-clock latency.
inline constexpr int64_t kWindowMs = 1000;

// Column positions.
inline constexpr int kSeg = 0;    // detector/probe segment, event key
inline constexpr int kTs = 1;     // every stream's timestamp
inline constexpr int kSpeed = 2;  // detector/probe speed
inline constexpr int kJoinProbeSpeed = 4;  // probe speed in join output
inline constexpr int64_t kGateSpeed = 45;  // detector speed < 45 joins

SchemaPtr DetectorSchema();  // (seg, ts, speed)
SchemaPtr ProbeSchema();     // (seg, ts, speed, vehicle)
SchemaPtr EventSchema();     // (key, ts, s:string, v)

/// One generated input record. The event stream's string column is
/// `text_len` copies of `text_char`.
struct Rec {
  int64_t key = 0;
  int64_t ts = 0;
  int64_t a = 0;  // speed, or the event payload
  int64_t b = 0;  // vehicle id
  uint8_t text_len = 0;
  char text_char = 0;
};

/// One window of input, split per producer connection in send order.
/// Join shape: conn 0 = detector stream, conn 1 = probe stream.
struct WindowInput {
  int64_t window = 0;
  std::vector<std::vector<Rec>> per_conn;
};

/// Deterministic input model: window w is a pure function of (seed, w),
/// so the reference can be computed up front and the generator can
/// rebuild the same records on the fly.
class InputModel {
 public:
  InputModel(const Workload& w, uint64_t seed);
  WindowInput Window(int64_t w) const;
  bool Congested(int64_t seg) const {
    return congested_[static_cast<size_t>(seg)];
  }
  const Workload& workload() const { return w_; }

 private:
  const Workload& w_;
  uint64_t seed_;
  std::vector<bool> congested_;
};

Tuple ToTuple(Shape shape, int conn, const Rec& r);

/// Append one batch frame holding `recs`: the bytes AppendTupleBatchFrame
/// writes for the ToTuple() tuples, encoded without building them.
void AppendRecBatch(std::string* out, Shape shape, int conn,
                    const std::vector<const Rec*>& recs);

/// Expected sink output for windows [0, windows): value per
/// (window, key), or nothing where no result may appear.
class Reference {
 public:
  Reference(const InputModel& model, int64_t windows);
  int64_t windows() const { return windows_; }
  int keys() const { return keys_; }
  size_t Index(int64_t w, int64_t key) const {
    return static_cast<size_t>(w) * static_cast<size_t>(keys_) +
           static_cast<size_t>(key);
  }
  bool expected(size_t i) const { return present_[i]; }
  double value(size_t i) const { return value_[i]; }
  uint64_t expected_results() const { return expected_results_; }

 private:
  int64_t windows_;
  int keys_;
  std::vector<double> value_;
  std::vector<bool> present_;
  uint64_t expected_results_ = 0;
};

/// Receives every result at the sink: checks it against the reference
/// and stamps its receipt time. Written only by the sink's task, read
/// after the query finished.
struct ResultLog {
  explicit ResultLog(const Reference* ref)
      : ref(ref),
        recv_ns(static_cast<size_t>(ref->windows()) *
                    static_cast<size_t>(ref->keys()),
                -1) {}
  const Reference* ref;
  std::vector<int64_t> recv_ns;  // per (window, key); -1 = not received
  uint64_t received = 0;
  uint64_t wrong = 0;       // unexpected key, wrong value, or duplicate
  int64_t eos_ns = -1;      // sink's end of stream
  // Highest window whose closing punctuation reached the sink; the
  // generator reads it to bound how far saturation runs ahead.
  std::atomic<int64_t> closed_window{-1};
  bool corrupt_one = false;  // self-test: tamper with the first result
};

/// What one wrapped operator saw. Filled by one task at a time, read
/// after the query finished.
struct OpTrace {
  std::string name;
  int64_t busy_ns = 0;      // all forwarded calls, wall time
  int64_t cpu_ns = 0;       // the same calls, thread CPU time
  int64_t produce_ns = 0;   // SourceOperator::ProduceNext
  int64_t feedback_ns = 0;  // ProcessControl carrying feedback
  int guards_peak = 0;
  // Per window: entry time of the page carrying the last closing
  // punctuation this operator received (-1 = none).
  std::vector<int64_t> punct_ns;
  void NotePunct(int64_t window, int64_t t);
};

/// The built plan and handles on every layer the benchmark reads.
struct Pipeline {
  std::unique_ptr<nstream::QueryPlan> plan;
  std::vector<std::unique_ptr<nstream::FrameConduit>> conduits;
  std::vector<std::unique_ptr<nstream::TcpAcceptor>> acceptors;
  // Connection i dials acceptors[conn_acceptor[i]] as producer id i+1.
  std::vector<int> conn_acceptor;
  std::vector<nstream::IngestSource*> sources;  // join: det, probe
  nstream::Exchange* left_x = nullptr;
  nstream::Exchange* right_x = nullptr;
  std::vector<nstream::SymmetricHashJoin*> shards;
  nstream::ShardMerge* merge = nullptr;
  nstream::WindowAggregate* agg = nullptr;
  nstream::CollectorSink* sink = nullptr;
  // Wrapper traces, in plan order; empty when tracing is off.
  std::vector<std::unique_ptr<OpTrace>> traces;
};

/// Build the workload's plan. With `trace` every operator is wrapped so
/// its calls are timed; otherwise only the sink is wrapped (to stamp
/// and check results).
Pipeline BuildPipeline(const Workload& w, bool trace, ResultLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
