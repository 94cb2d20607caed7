#include "generator.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <map>

#include "ingest/wire_format.h"

namespace perfbench {

using nstream::AppendEosFrame;
using nstream::AppendHelloFrame;
using nstream::AppendPunctuationFrame;
using nstream::AttrPattern;
using nstream::FrameType;
using nstream::FrameView;
using nstream::PatternOp;
using nstream::PunctPattern;
using nstream::Punctuation;
using nstream::Value;

namespace {

// Frames are batched into one send once this much is queued; the paced
// loop also sends whatever is queued before it waits for the next frame.
constexpr size_t kSendChunk = 16 * 1024;
// A connection with more unsent bytes than this blocks the generator.
constexpr size_t kMaxUnsent = 256 * 1024;
// Deferred punctuation re-checks the acceptor at most this often.
constexpr int64_t kDeferredCheckNs = 200'000;
// Saturation keeps at most this many tuples' worth of windows ahead of
// the sink. The engine's queues are unbounded, so without a limit the
// input piles up in memory and the figure measures the allocator.
constexpr int64_t kMaxLeadTuples = 128 * 1024;
// A query that has not finished this long after the last frame is hung.
constexpr int64_t kDrainTimeoutNs = 60'000'000'000;

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

Generator::Generator(const InputModel& model, int64_t windows,
                     const Pipeline& pipe,
                     const std::atomic<int64_t>& sink_closed)
    : model_(model),
      w_(model.workload()),
      windows_(windows),
      pipe_(pipe),
      sink_closed_(sink_closed),
      conns_(static_cast<size_t>(model.workload().conns)),
      assumed_(static_cast<size_t>(model.workload().keys)) {
  stats_.punct_ns.assign(static_cast<size_t>(windows), -1);
  if (w_.gate) det_sent_ns_.assign(static_cast<size_t>(windows), -1);
}

Generator::~Generator() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

Status Generator::Connect() {
  for (size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    const int acceptor = pipe_.conn_acceptor[i];
    nstream::Result<int> fd = nstream::TcpConnectLoopback(
        pipe_.acceptors[static_cast<size_t>(acceptor)]->port());
    if (!fd.ok()) return fd.status();
    c.fd = fd.value();
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    c.producer = i + 1;
    c.arity = w_.shape == Shape::kJoin && i == 0 ? 3 : 4;
    AppendHelloFrame(&c.out, static_cast<uint32_t>(c.arity), c.producer, 0);
    c.queued_bytes = c.out.size();
    c.frames = 1;
    ++stats_.frames_sent;
    Flush(&c);
  }
  for (Conn& c : conns_) WaitForRoom(&c, 0);
  stats_.blocked_ns = 0;
  return Status::OK();
}

void Generator::BuildItems(const WindowInput& in, std::vector<Item>* items) {
  const size_t ft = static_cast<size_t>(w_.frame_tuples);
  // Frames interleave round-robin over the connections, then the
  // window's punctuation follows on each stream.
  size_t longest = 0;
  for (const auto& recs : in.per_conn) longest = std::max(longest, recs.size());
  for (size_t at = 0; at < longest; at += ft) {
    for (size_t c = 0; c < in.per_conn.size(); ++c) {
      const std::vector<Rec>& recs = in.per_conn[c];
      if (at >= recs.size()) continue;
      Item it;
      it.conn = static_cast<int>(c);
      it.window = in.window;
      it.recs = &recs;
      it.begin = at;
      it.end = std::min(recs.size(), at + ft);
      items->push_back(it);
    }
  }
  // The join's streams each carry their own punctuation; the fan-in's
  // single stream takes it on connection 0 only.
  const int puncts = w_.shape == Shape::kJoin ? w_.conns : 1;
  for (int c = 0; c < puncts; ++c) {
    Item it;
    it.conn = c;
    it.kind = Kind::kPunct;
    it.window = in.window;
    items->push_back(it);
  }
}

bool Generator::SkipProbe(const Rec& r, int64_t window_base) {
  std::vector<Assumed>& list = assumed_[static_cast<size_t>(r.key)];
  // Windows are sent in order, so expired claims form a prefix.
  size_t expired = 0;
  while (expired < list.size() && list[expired].hi_ts < window_base) ++expired;
  if (expired > 0) list.erase(list.begin(), list.begin() + static_cast<long>(expired));
  if (list.empty()) return false;
  const Tuple t = ToTuple(Shape::kJoin, 1, r);
  for (const Assumed& a : list) {
    if (a.pattern.Matches(t)) {
      if (model_.Congested(r.key)) ++stats_.unsound_skips;
      return true;
    }
  }
  return false;
}

void Generator::Enqueue(const Item& item, int64_t due) {
  Conn& c = conns_[static_cast<size_t>(item.conn)];
  const size_t before = c.out.size();
  bool det = false;
  switch (item.kind) {
    case Kind::kData: {
      batch_.clear();
      const bool probe = w_.shape == Shape::kJoin && item.conn == 1;
      const uint64_t n = item.end - item.begin;
      stats_.tuples_offered += n;
      if (probe) stats_.probe_offered += n;
      for (size_t i = item.begin; i < item.end; ++i) {
        const Rec& r = (*item.recs)[i];
        if (probe && w_.gate && SkipProbe(r, item.window * kWindowMs)) {
          ++stats_.tuples_skipped;
          continue;
        }
        batch_.push_back(&r);
      }
      if (batch_.empty()) {
        if (paced_) stats_.lag_ms.push_back(1e-6 * static_cast<double>(NowNs() - due));
        return;
      }
      AppendRecBatch(&c.out, w_.shape, item.conn, batch_);
      det = w_.shape == Shape::kJoin && item.conn == 0;
      break;
    }
    case Kind::kPunct: {
      const int64_t last_ts = (item.window + 1) * kWindowMs - 1;
      PunctPattern p = PunctPattern::AllWildcard(c.arity).With(
          kTs, AttrPattern::Le(Value::Timestamp(last_ts)));
      AppendPunctuationFrame(&c.out, Punctuation(std::move(p)));
      int64_t& at = stats_.punct_ns[static_cast<size_t>(item.window)];
      at = std::max(at, paced_ ? due : NowNs());
      break;
    }
    case Kind::kEos:
      AppendEosFrame(&c.out);
      break;
  }
  ++c.frames;
  ++stats_.frames_sent;
  c.queued_bytes += c.out.size() - before;
  c.inflight.push_back({c.queued_bytes, due, item.window, det});
  if (c.out.size() - c.off >= kSendChunk) Flush(&c);
  WaitForRoom(&c, kMaxUnsent);
}

void Generator::Flush(Conn* c) {
  if (c->fd < 0 && c->off < c->out.size()) {
    ++stats_.error_frames;  // the engine closed the connection early
    c->off = c->out.size();
    c->sent_bytes = c->queued_bytes;
  }
  while (c->off < c->out.size()) {
    ssize_t n = ::send(c->fd, c->out.data() + c->off, c->out.size() - c->off,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c->off += static_cast<size_t>(n);
      c->sent_bytes += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    ++stats_.error_frames;  // the engine dropped the connection
    c->off = c->out.size();
    c->sent_bytes = c->queued_bytes;
    break;
  }
  if (c->off == c->out.size()) {
    c->out.clear();
    c->off = 0;
  }
  Complete(c, NowNs());
}

void Generator::Complete(Conn* c, int64_t now) {
  while (!c->inflight.empty() && c->inflight.front().end <= c->sent_bytes) {
    const InFlight& f = c->inflight.front();
    if (paced_) stats_.lag_ms.push_back(1e-6 * static_cast<double>(now - f.due));
    if (f.det && !det_sent_ns_.empty()) {
      det_sent_ns_[static_cast<size_t>(f.window)] = now;
    }
    c->inflight.pop_front();
  }
}

void Generator::Service(int64_t timeout_ns) {
  std::vector<pollfd> pfds;
  pfds.reserve(conns_.size());
  for (Conn& c : conns_) {
    short ev = c.fd >= 0 ? POLLIN : 0;
    if (c.off < c.out.size()) ev |= POLLOUT;
    pfds.push_back({c.fd, ev, 0});
  }
  const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                    static_cast<long>(timeout_ns % 1'000'000'000)};
  int pr = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
  if (pr <= 0) return;
  for (size_t i = 0; i < conns_.size(); ++i) {
    const short re = pfds[i].revents;
    if ((re & (POLLIN | POLLHUP | POLLERR)) != 0) ReadFrames(&conns_[i]);
    if ((re & POLLOUT) != 0) Flush(&conns_[i]);
  }
}

void Generator::ReadFrames(Conn* c) {
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = ::recv(c->fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      c->in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) {  // the engine closed the connection
      ::close(c->fd);
      c->fd = -1;
    }
    break;
  }
  const int64_t now = NowNs();
  size_t off = 0;
  while (off < c->in.size()) {
    FrameView f;
    size_t consumed = 0;
    Status st = nstream::ScanFrame(std::string_view(c->in).substr(off), &f,
                                   &consumed);
    if (!st.ok()) {
      ++stats_.error_frames;
      off = c->in.size();
      break;
    }
    if (consumed == 0) break;
    off += consumed;
    // Hello-acks, heartbeats and shed advice need no action.
    if (f.type == FrameType::kFeedback) HandleFeedback(f.payload, now);
    if (f.type == FrameType::kError) ++stats_.error_frames;
  }
  c->in.erase(0, off);
}

void Generator::HandleFeedback(std::string_view payload, int64_t now) {
  nstream::FeedbackPunctuation fb;
  if (!nstream::DecodeFeedback(payload, &fb).ok() || !fb.is_assumed()) return;
  const PunctPattern& p = fb.pattern();
  if (p.arity() <= kTs || p.attr(kSeg).op() != PatternOp::kEq ||
      p.attr(kTs).op() != PatternOp::kRange) {
    return;  // not a segment-pinned claim; nothing to index it by
  }
  nstream::Result<int64_t> seg = p.attr(kSeg).operand().AsInt64();
  nstream::Result<int64_t> lo = p.attr(kTs).operand().AsInt64();
  nstream::Result<int64_t> hi = p.attr(kTs).hi().AsInt64();
  if (!seg.ok() || !lo.ok() || !hi.ok() || seg.value() < 0 ||
      seg.value() >= w_.keys) {
    return;
  }
  assumed_[static_cast<size_t>(seg.value())].push_back({p, hi.value()});
  // The gate covers the windows after the one whose detector reading
  // tripped it.
  const int64_t tripped = lo.value() / kWindowMs - 1;
  if (paced_ && tripped >= 0 && tripped < windows_ &&
      det_sent_ns_[static_cast<size_t>(tripped)] >= 0) {
    stats_.feedback_delay_ms.push_back(
        1e-6 * static_cast<double>(now - det_sent_ns_[static_cast<size_t>(tripped)]));
  }
}

void Generator::WaitForRoom(Conn* c, size_t cap) {
  if (c->out.size() - c->off <= cap) return;
  const int64_t t0 = NowNs();
  while (c->fd >= 0 && c->out.size() - c->off > cap) Service(10'000'000);
  stats_.blocked_ns += NowNs() - t0;
}

void Generator::TryDeferred(bool force) {
  if (deferred_.empty()) return;
  const int64_t now = NowNs();
  if (!force && now - last_deferred_check_ < kDeferredCheckNs) return;
  last_deferred_check_ = now;
  std::map<uint64_t, uint64_t> frames_in;
  for (const nstream::AcceptorConnStats& s :
       pipe_.acceptors[0]->StatsReport().connections) {
    frames_in[s.producer] = std::max(frames_in[s.producer], s.frames_in);
  }
  while (!deferred_.empty()) {
    const Deferred& d = deferred_.front();
    for (size_t j = 1; j < conns_.size(); ++j) {
      if (frames_in[conns_[j].producer] < d.need[j]) return;
    }
    Enqueue(d.item, d.due);
    deferred_.pop_front();
  }
}

void Generator::Run(double rate, const std::function<bool()>& done) {
  paced_ = rate > 0;
  const double cpu0 = ThreadCpuSeconds();
  const int64_t t0 = NowNs();
  stats_.first_send_ns = t0;
  uint64_t offered = 0;
  auto due_of = [&](uint64_t before) {
    return paced_ ? t0 + static_cast<int64_t>(static_cast<double>(before) * 1e9 / rate)
                  : int64_t{0};
  };
  const int64_t lead = std::max<int64_t>(2, kMaxLeadTuples / TuplesPerWindow(w_));
  std::vector<Item> items;
  for (int64_t win = 0; win < windows_; ++win) {
    if (!paced_ && win - sink_closed_.load(std::memory_order_acquire) > lead) {
      const int64_t t = NowNs();
      while (win - sink_closed_.load(std::memory_order_acquire) > lead) {
        TryDeferred(false);
        Service(100'000);
      }
      stats_.blocked_ns += NowNs() - t;
    }
    const WindowInput in = model_.Window(win);
    items.clear();
    BuildItems(in, &items);
    for (const Item& it : items) {
      const int64_t due = due_of(offered);
      if (it.kind == Kind::kData) offered += it.end - it.begin;
      if (paced_ && NowNs() < due) {
        // Everything due so far goes out in one send per connection,
        // then the generator sleeps until the next frame is due.
        for (Conn& c : conns_) Flush(&c);
        for (int64_t now = NowNs(); now < due; now = NowNs()) {
          Service(std::min<int64_t>(due - now, 1'000'000));
        }
      }
      if (it.kind == Kind::kPunct && w_.shape == Shape::kCount) {
        // A frame past window `win` on every other connection proves
        // its window-`win` frames left the acceptor for the conduit,
        // whose queue the source drains in order.
        Deferred d{it, due, std::vector<uint64_t>(conns_.size(), 0)};
        for (size_t j = 0; j < conns_.size(); ++j) d.need[j] = conns_[j].frames + 1;
        deferred_.push_back(std::move(d));
      } else {
        Enqueue(it, due);
      }
      TryDeferred(false);
    }
    Service(0);
  }
  for (Conn& c : conns_) Flush(&c);

  // End of stream: the fan-in's other connections first, so the last
  // deferred punctuation can go out ahead of connection 0's EOS.
  for (size_t j = conns_.size(); j-- > 1;) {
    Item eos;
    eos.conn = static_cast<int>(j);
    eos.kind = Kind::kEos;
    Enqueue(eos, due_of(offered));
  }
  for (Conn& c : conns_) Flush(&c);
  const int64_t defer_start = NowNs();
  while (!deferred_.empty() && NowNs() - defer_start < kDrainTimeoutNs) {
    TryDeferred(true);
    if (!deferred_.empty()) Service(100'000);
  }
  Item eos0;
  eos0.kind = Kind::kEos;
  Enqueue(eos0, due_of(offered));
  for (Conn& c : conns_) {
    Flush(&c);
    WaitForRoom(&c, 0);
  }

  const int64_t sent = NowNs();
  while (!done()) {
    if (NowNs() - sent > kDrainTimeoutNs) {
      stats_.timed_out = true;
      break;
    }
    Service(1'000'000);
  }
  stats_.wall_ns = NowNs() - t0;
  stats_.cpu_s = ThreadCpuSeconds() - cpu0;
}

}  // namespace perfbench
