#include "pipeline.h"

#include <time.h>

#include <algorithm>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "ingest/wire_format.h"
#include "serde/serde.h"

namespace perfbench {

using nstream::ControlMessage;
using nstream::ControlType;
using nstream::ExecContext;
using nstream::Page;
using nstream::Punctuation;
using nstream::SourceOperator;
using nstream::SourcePoll;
using nstream::TimeMs;
using nstream::TupleBuilder;
using nstream::ValueType;

// Paced rates sit at about a third of the saturated rate measured on a
// 4-CPU host, so the open loop has headroom and latency is not queueing
// collapse. feedback_gate is the exception: paced, its feedback arrives
// in time and the guards expire, so 20 000/s holds although saturation
// (where late guards pile up) reaches less than half of that. Nominal
// saturation rates only size the saturation input.
const Workload kWorkloads[] = {
    {"join_shards", Shape::kJoin, 2, 128, 4096, 4, false, 300'000, 800'000},
    {"ingest_fanin", Shape::kCount, 4, 16, 256, 0, false, 1'000'000, 2'500'000},
    {"feedback_gate", Shape::kJoin, 2, 128, 64, 4, true, 20'000, 17'000},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

SchemaPtr DetectorSchema() {
  return nstream::Schema::Make({{"seg", ValueType::kInt64},
                                {"ts", ValueType::kTimestamp},
                                {"speed", ValueType::kInt64}});
}

SchemaPtr ProbeSchema() {
  return nstream::Schema::Make({{"seg", ValueType::kInt64},
                                {"ts", ValueType::kTimestamp},
                                {"speed", ValueType::kInt64},
                                {"vehicle", ValueType::kInt64}});
}

SchemaPtr EventSchema() {
  return nstream::Schema::Make({{"key", ValueType::kInt64},
                                {"ts", ValueType::kTimestamp},
                                {"s", ValueType::kString},
                                {"v", ValueType::kInt64}});
}

namespace {

// splitmix64: tiny, seedable, and identical on every platform.
struct Mix {
  uint64_t s;
  uint64_t Next() {
    uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[static_cast<size_t>(Below(
                                 static_cast<int64_t>(i)))]);
    }
  }
};

}  // namespace

InputModel::InputModel(const Workload& w, uint64_t seed)
    : w_(w), seed_(seed), congested_(static_cast<size_t>(w.keys), false) {
  if (!w.gate) return;
  // A fixed tenth of the segments is congested for the whole run, so
  // the gate's persistence prediction always holds.
  std::vector<int64_t> segs(static_cast<size_t>(w.keys));
  for (int i = 0; i < w.keys; ++i) segs[static_cast<size_t>(i)] = i;
  Mix rng{seed ^ 0xc0ffee};
  rng.Shuffle(&segs);
  const int n = std::max(1, (w.keys + 5) / 10);
  for (int i = 0; i < n; ++i) {
    congested_[static_cast<size_t>(segs[static_cast<size_t>(i)])] = true;
  }
}

WindowInput InputModel::Window(int64_t win) const {
  Mix rng{seed_ * 0x100000001b3ULL + static_cast<uint64_t>(win) * 7919};
  WindowInput out;
  out.window = win;
  out.per_conn.resize(static_cast<size_t>(w_.conns));
  const int64_t base = win * kWindowMs;
  if (w_.shape == Shape::kJoin) {
    std::vector<Rec>& det = out.per_conn[0];
    std::vector<Rec>& probe = out.per_conn[1];
    det.reserve(static_cast<size_t>(w_.keys) * 2);
    probe.reserve(static_cast<size_t>(w_.keys) * 2);
    for (int64_t seg = 0; seg < w_.keys; ++seg) {
      for (int i = 0; i < 2; ++i) {
        int64_t speed = 10 + rng.Below(81);
        if (w_.gate) {
          speed = Congested(seg) ? 10 + rng.Below(kGateSpeed - 10)
                                 : kGateSpeed + rng.Below(46);
        }
        det.push_back({seg, base + rng.Below(kWindowMs), speed, 0, 0, 0});
      }
      for (int i = 0; i < 2; ++i) {
        probe.push_back({seg, base + rng.Below(kWindowMs),
                         1 + rng.Below(100), rng.Below(100'000), 0, 0});
      }
    }
    rng.Shuffle(&det);
    rng.Shuffle(&probe);
    return out;
  }
  // Event stream: 8..24 events per key, payload strings of 1..24 bytes
  // straddling the 15-byte inline limit, spread round-robin over the
  // connections after a shuffle.
  std::vector<Rec> all;
  for (int64_t key = 0; key < w_.keys; ++key) {
    const int64_t n = 8 + rng.Below(17);
    for (int64_t i = 0; i < n; ++i) {
      Rec r{key, base + rng.Below(kWindowMs), rng.Below(1'000'000), 0, 0, 0};
      r.text_len = static_cast<uint8_t>(1 + rng.Below(24));
      r.text_char = static_cast<char>('a' + rng.Below(26));
      all.push_back(r);
    }
  }
  rng.Shuffle(&all);
  for (size_t i = 0; i < all.size(); ++i) {
    out.per_conn[i % static_cast<size_t>(w_.conns)].push_back(
        std::move(all[i]));
  }
  return out;
}

Tuple ToTuple(Shape shape, int conn, const Rec& r) {
  if (shape == Shape::kCount) {
    return TupleBuilder()
        .I64(r.key)
        .Ts(r.ts)
        .S(std::string(r.text_len, r.text_char))
        .I64(r.a)
        .Build();
  }
  if (conn == 0) return TupleBuilder().I64(r.key).Ts(r.ts).I64(r.a).Build();
  return TupleBuilder().I64(r.key).Ts(r.ts).I64(r.a).I64(r.b).Build();
}

void AppendRecBatch(std::string* out, Shape shape, int conn,
                    const std::vector<const Rec*>& recs) {
  // Same layout as ByteWriter::WriteTuple: arity, tagged values, id 0,
  // arrival 0. The generator runs at the engine's full input rate, so
  // it skips the Tuple round trip.
  auto i64 = [](nstream::ByteWriter* w, ValueType t, int64_t v) {
    w->WriteU8(static_cast<uint8_t>(t));
    w->WriteI64(v);
  };
  char text[256];
  nstream::ByteWriter w;
  w.WriteU32(static_cast<uint32_t>(recs.size()));
  for (const Rec* r : recs) {
    const bool event = shape == Shape::kCount;
    w.WriteU32(event || conn == 1 ? 4 : 3);
    i64(&w, ValueType::kInt64, r->key);
    i64(&w, ValueType::kTimestamp, r->ts);
    if (event) {
      std::fill(text, text + r->text_len, r->text_char);
      w.WriteU8(static_cast<uint8_t>(ValueType::kString));
      w.WriteString(std::string_view(text, r->text_len));
    }
    i64(&w, ValueType::kInt64, r->a);
    if (!event && conn == 1) i64(&w, ValueType::kInt64, r->b);
    w.WriteI64(0);
    w.WriteI64(0);
  }
  const std::string& payload = w.buffer();
  const uint32_t magic = nstream::kFrameMagic;
  const uint32_t size = static_cast<uint32_t>(payload.size());
  out->append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out->append(reinterpret_cast<const char*>(&size), sizeof(size));
  out->push_back(static_cast<char>(nstream::FrameType::kTupleBatch));
  out->append(payload);
}

Reference::Reference(const InputModel& model, int64_t windows)
    : windows_(windows), keys_(model.workload().keys) {
  const size_t n = static_cast<size_t>(windows) * static_cast<size_t>(keys_);
  value_.assign(n, 0.0);
  present_.assign(n, false);
  const Workload& w = model.workload();
  for (int64_t win = 0; win < windows; ++win) {
    WindowInput in = model.Window(win);
    if (w.shape == Shape::kCount) {
      for (const auto& conn : in.per_conn) {
        for (const Rec& r : conn) {
          const size_t i = Index(win, r.key);
          present_[i] = true;
          value_[i] += 1.0;
        }
      }
    } else {
      // Each probe reading joins both detector readings of its
      // (segment, window), so AVG over the joined rows is the mean of
      // the probe speeds. A gated segment joins nothing.
      for (const Rec& r : in.per_conn[1]) {
        if (w.gate && !model.Congested(r.key)) continue;
        const size_t i = Index(win, r.key);
        present_[i] = true;
        value_[i] += static_cast<double>(r.a) / 2.0;
      }
    }
  }
  for (size_t i = 0; i < n; ++i) expected_results_ += present_[i] ? 1 : 0;
}

void OpTrace::NotePunct(int64_t window, int64_t t) {
  if (window >= 0 && window < static_cast<int64_t>(punct_ns.size())) {
    punct_ns[static_cast<size_t>(window)] = t;
  }
}

namespace {

// Window closed by a watermark punctuation `[*, ts <= b, *]`, or -1.
int64_t ClosedWindow(const Punctuation& p) {
  const nstream::PunctPattern& pat = p.pattern();
  std::vector<int> idx = pat.ConstrainedIndices();
  if (idx.size() != 1) return -1;
  const nstream::AttrPattern& ap = pat.attr(idx[0]);
  nstream::Result<int64_t> bound = ap.operand().AsInt64();
  if (!bound.ok()) return -1;
  int64_t inclusive = bound.value();
  if (ap.op() == nstream::PatternOp::kLt) {
    --inclusive;
  } else if (ap.op() != nstream::PatternOp::kLe) {
    return -1;
  }
  return nstream::WindowSpec{kWindowMs, kWindowMs}.LastClosableWindow(
      inclusive);
}

// Latest window a page's punctuation closes, or -1. Punctuation flushes
// its page, so it can only trail a row page.
int64_t PagePunctWindow(const Page& page) {
  if (page.is_columnar() || page.empty()) return -1;
  const auto& elems = page.elements();
  int64_t w = -1;
  for (size_t i = elems.size() >= 2 ? elems.size() - 2 : 0; i < elems.size(); ++i) {
    if (elems[i].is_punct()) w = std::max(w, ClosedWindow(elems[i].punct()));
  }
  return w;
}

void CheckResult(ResultLog* log, const Tuple& t, int64_t recv) {
  const Reference& ref = *log->ref;
  nstream::Result<int64_t> end = t.value(0).AsInt64();
  nstream::Result<int64_t> key = t.value(1).AsInt64();
  nstream::Result<double> val = t.value(2).AsDouble();
  if (!end.ok() || !key.ok() || !val.ok()) {
    ++log->wrong;
    return;
  }
  double v = val.value();
  if (log->corrupt_one) {
    log->corrupt_one = false;
    v += 1.0;
  }
  const int64_t w = end.value() / kWindowMs - 1;
  const int64_t k = key.value();
  if (w < 0 || w >= ref.windows() || k < 0 || k >= ref.keys()) {
    ++log->wrong;
    return;
  }
  const size_t i = ref.Index(w, k);
  if (!ref.expected(i) || log->recv_ns[i] >= 0 || v != ref.value(i)) {
    ++log->wrong;
    return;
  }
  log->recv_ns[i] = recv;
  ++log->received;
}

void LogResults(ResultLog* log, const Page& page, int64_t recv) {
  if (page.is_columnar()) {
    const nstream::ColumnarBlock* b = page.columnar();
    Tuple scratch = b->MakeRowScratch();
    for (uint32_t i = 0; i < b->size(); ++i) {
      b->FillRow(b->row_at(i), &scratch);
      CheckResult(log, scratch, recv);
    }
    return;
  }
  for (const nstream::StreamElement& e : page.elements()) {
    if (e.is_tuple()) CheckResult(log, e.tuple(), recv);
  }
}

using GuardProbe = std::function<int()>;

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

// One span around a forwarded call: wall time (busy) and the calling
// thread's CPU time, whose difference is time the call waited.
struct Span {
  int64_t wall0 = NowNs();
  int64_t cpu0 = ThreadCpuNs();
  int64_t End(OpTrace* trace) const {
    const int64_t dt = NowNs() - wall0;
    trace->busy_ns += dt;
    trace->cpu_ns += ThreadCpuNs() - cpu0;
    return dt;
  }
};

void AfterControl(OpTrace* trace, const ControlMessage& msg, const Span& span,
                  const GuardProbe& guards) {
  const int64_t dt = span.End(trace);
  if (msg.type != ControlType::kFeedback) return;
  trace->feedback_ns += dt;
  if (guards) trace->guards_peak = std::max(trace->guards_peak, guards());
}

// Forwards every Operator entry point to the wrapped operator and times
// it. The scheduler only sees the wrapper; the inner operator runs with
// the wrapper's context and id, so its emissions and feedback are
// exactly those of an unwrapped plan.
class TracedOp final : public Operator {
 public:
  TracedOp(std::unique_ptr<Operator> inner, OpTrace* trace, ResultLog* log,
           GuardProbe guards)
      : Operator(inner->name(), inner->num_inputs(), inner->num_outputs()),
        inner_(std::move(inner)),
        trace_(trace),
        log_(log),
        guards_(std::move(guards)) {
    set_scheduler_affinity(inner_->scheduler_affinity());
  }

  Status InferSchemas() override {
    for (int p = 0; p < num_inputs(); ++p) {
      NSTREAM_RETURN_NOT_OK(inner_->SetInputSchema(p, input_schema(p)));
    }
    NSTREAM_RETURN_NOT_OK(inner_->InferSchemas());
    for (int o = 0; o < num_outputs(); ++o) {
      SetOutputSchema(o, inner_->output_schema(o));
    }
    return Status::OK();
  }

  Status Open(ExecContext* ctx) override {
    NSTREAM_RETURN_NOT_OK(Operator::Open(ctx));
    inner_->set_id(id());
    return inner_->Open(ctx);
  }

  Status ProcessTuple(int port, const Tuple& t) override {
    return inner_->ProcessTuple(port, t);
  }

  Status ProcessPage(int port, Page&& page, TimeMs* tick) override {
    const Span span;
    const int64_t closed = PagePunctWindow(page);
    if (trace_ != nullptr && closed >= 0) trace_->NotePunct(closed, span.wall0);
    if (log_ != nullptr) LogResults(log_, page, span.wall0);
    Status st = inner_->ProcessPage(port, std::move(page), tick);
    if (log_ != nullptr && closed >= 0) {
      log_->closed_window.store(closed, std::memory_order_release);
    }
    if (trace_ != nullptr) span.End(trace_);
    // Mirror end of stream so the scheduler sees the wrapper finish
    // when the inner operator does.
    for (int p = 0; p < num_inputs(); ++p) {
      if (inner_->eos_seen(p) && !eos_seen(p)) {
        NSTREAM_RETURN_NOT_OK(ProcessEos(p));
      }
    }
    return st;
  }

  Status ProcessPunctuation(int port, const Punctuation& p) override {
    return inner_->ProcessPunctuation(port, p);
  }

  // The inner operator already emitted its own end of stream.
  Status OnAllInputsEos() override {
    if (log_ != nullptr) log_->eos_ns = NowNs();
    return Status::OK();
  }

  Status ProcessControl(int out_port, const ControlMessage& msg) override {
    const Span span;
    Status st = inner_->ProcessControl(out_port, msg);
    if (trace_ != nullptr) AfterControl(trace_, msg, span, guards_);
    return st;
  }

  Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<Operator> inner_;
  OpTrace* trace_;
  ResultLog* log_;
  GuardProbe guards_;
};

class TracedSource final : public SourceOperator {
 public:
  TracedSource(std::unique_ptr<SourceOperator> inner, OpTrace* trace,
               GuardProbe guards)
      : SourceOperator(inner->name(), inner->num_outputs()),
        inner_(std::move(inner)),
        trace_(trace),
        guards_(std::move(guards)) {
    set_scheduler_affinity(inner_->scheduler_affinity());
    for (int o = 0; o < num_outputs(); ++o) {
      SetOutputSchema(o, inner_->output_schema(o));
    }
  }

  Status InferSchemas() override { return inner_->InferSchemas(); }

  Status Open(ExecContext* ctx) override {
    NSTREAM_RETURN_NOT_OK(Operator::Open(ctx));
    inner_->set_id(id());
    return inner_->Open(ctx);
  }

  SourcePoll Poll() override { return inner_->Poll(); }
  std::optional<TimeMs> NextArrivalMs() override {
    return inner_->NextArrivalMs();
  }
  void SetWakeNotifier(std::function<void()> fn) override {
    inner_->SetWakeNotifier(std::move(fn));
  }

  Status ProduceNext() override {
    const Span span;
    Status st = inner_->ProduceNext();
    trace_->produce_ns += span.End(trace_);
    return st;
  }

  Status ProcessControl(int out_port, const ControlMessage& msg) override {
    const Span span;
    Status st = inner_->ProcessControl(out_port, msg);
    AfterControl(trace_, msg, span, guards_);
    return st;
  }

  Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<SourceOperator> inner_;
  OpTrace* trace_;
  GuardProbe guards_;
};

struct Builder {
  Pipeline* p;
  bool trace;
  int64_t windows;

  // Adds `op` (wrapped when tracing) and returns the plan id to wire.
  template <typename T>
  int64_t Add(std::unique_ptr<T> op, GuardProbe guards = nullptr,
              ResultLog* log = nullptr) {
    if (!trace && log == nullptr) return p->plan->Add(std::move(op));
    OpTrace* tr = nullptr;
    if (trace) {
      p->traces.push_back(std::make_unique<OpTrace>());
      tr = p->traces.back().get();
      tr->name = op->name();
      tr->punct_ns.assign(static_cast<size_t>(windows), -1);
    }
    if constexpr (std::is_base_of_v<SourceOperator, T>) {
      return p->plan->Add(
          std::make_unique<TracedSource>(std::move(op), tr, std::move(guards)));
    } else {
      return p->plan->Add(std::make_unique<TracedOp>(std::move(op), tr, log,
                                                     std::move(guards)));
    }
  }

  void Connect(int64_t from, int from_port, int64_t to, int to_port) {
    Status st = p->plan->Connect(from, from_port, to, to_port);
    NSTREAM_CHECK(st.ok()) << st.ToString();
  }

  int64_t AddSource(const char* name, SchemaPtr schema, int producers) {
    p->conduits.push_back(std::make_unique<nstream::FrameConduit>());
    nstream::FrameConduit* conduit = p->conduits.back().get();
    p->acceptors.push_back(std::make_unique<nstream::TcpAcceptor>(conduit));
    nstream::IngestSourceOptions so;
    so.multi_producer = true;
    so.expected_eos_producers = producers;
    auto src = std::make_unique<nstream::IngestSource>(name, std::move(schema),
                                                       conduit, so);
    nstream::IngestSource* raw = src.get();
    p->sources.push_back(raw);
    return Add(std::move(src),
               [raw] { return raw->admission_guards().size(); });
  }
};

int ExchangeGuards(const nstream::Exchange* x, int ports) {
  int most = x->input_guards().size();
  for (int s = 0; s < ports; ++s) {
    most = std::max(most, x->port_guards(s).size());
  }
  return most;
}

}  // namespace

Pipeline BuildPipeline(const Workload& w, bool trace, ResultLog* log) {
  Pipeline p;
  p.plan = std::make_unique<nstream::QueryPlan>();
  Builder b{&p, trace, log->ref->windows()};
  const nstream::WindowSpec window{kWindowMs, kWindowMs};

  nstream::WindowAggregateOptions ao;
  ao.ts_attr = kTs;
  ao.group_attrs = {kSeg};
  ao.window = window;
  int64_t agg_input = -1;
  if (w.shape == Shape::kCount) {
    p.conn_acceptor.assign(static_cast<size_t>(w.conns), 0);
    agg_input = b.AddSource("ingest.events", EventSchema(), w.conns);
    ao.kind = nstream::AggKind::kCount;
    ao.agg_attr = -1;
  } else {
    p.conn_acceptor = {0, 1};
    const int64_t det = b.AddSource("ingest.det", DetectorSchema(), 1);
    const int64_t probe = b.AddSource("ingest.probe", ProbeSchema(), 1);

    nstream::JoinOptions jo;
    jo.left_keys = {kSeg};
    jo.right_keys = {kSeg};
    jo.left_ts = kTs;
    jo.right_ts = kTs;
    jo.window_join = true;
    jo.window = window;
    if (w.gate) {
      jo.left_gate = [](const Tuple& t) {
        nstream::Result<int64_t> speed = t.value(kSpeed).AsInt64();
        return speed.ok() && speed.value() < kGateSpeed;
      };
      jo.gate_feedback_horizon = 4;
    }
    // The same wiring MakePartitionedJoin builds, spelled out so each
    // operator can be wrapped.
    nstream::ExchangeOptions xl;
    xl.partition_keys = jo.left_keys;
    nstream::ExchangeOptions xr;
    xr.partition_keys = jo.right_keys;
    auto left_x = std::make_unique<nstream::Exchange>("join.xchg.left",
                                                      w.shards, xl);
    auto right_x = std::make_unique<nstream::Exchange>("join.xchg.right",
                                                       w.shards, xr);
    p.left_x = left_x.get();
    p.right_x = right_x.get();
    const int shards = w.shards;
    nstream::Exchange* lx = p.left_x;
    nstream::Exchange* rx = p.right_x;
    const int64_t lxid =
        b.Add(std::move(left_x), [lx, shards] { return ExchangeGuards(lx, shards); });
    const int64_t rxid =
        b.Add(std::move(right_x), [rx, shards] { return ExchangeGuards(rx, shards); });
    b.Connect(det, 0, lxid, 0);
    b.Connect(probe, 0, rxid, 0);

    nstream::ShardMergeOptions mo;
    mo.union_options.feedback_policy = jo.feedback_policy;
    mo.partition_keys = jo.left_keys;
    auto merge =
        std::make_unique<nstream::ShardMerge>("join.merge", shards, mo);
    p.merge = merge.get();
    const int64_t mid = b.Add(std::move(merge));
    for (int s = 0; s < shards; ++s) {
      nstream::JoinOptions so = jo;
      so.shard_index = s;
      so.shard_count = shards;
      auto shard = std::make_unique<nstream::SymmetricHashJoin>(
          "join.shard" + std::to_string(s), so);
      shard->set_scheduler_affinity(s);
      p.shards.push_back(shard.get());
      const int64_t sid = b.Add(std::move(shard));
      b.Connect(lxid, s, sid, 0);
      b.Connect(rxid, s, sid, 1);
      b.Connect(sid, 0, mid, s);
    }
    agg_input = mid;
    ao.kind = nstream::AggKind::kAvg;
    ao.agg_attr = kJoinProbeSpeed;
  }

  auto agg = std::make_unique<nstream::WindowAggregate>("agg", ao);
  p.agg = agg.get();
  const int64_t aid = b.Add(std::move(agg));
  b.Connect(agg_input, 0, aid, 0);

  auto sink = std::make_unique<nstream::CollectorSink>(
      "sink", nstream::CollectorSinkOptions{.record_tuples = false});
  p.sink = sink.get();
  const int64_t kid = b.Add(std::move(sink), nullptr, log);
  b.Connect(aid, 0, kid, 0);

  Status st = p.plan->Finalize();
  NSTREAM_CHECK(st.ok()) << st.ToString();
  return p;
}

}  // namespace perfbench
