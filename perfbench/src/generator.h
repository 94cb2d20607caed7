// The load generator: one thread, one process, at most four producer
// connections. It rebuilds the workload's input window by window from
// the seed, stamps every frame with its scheduled send time, and either
// sends as fast as the sockets accept (saturation) or on an absolute
// open-loop schedule (paced). It reads the engine's frames back and
// honours assumed feedback by not sending the probe tuples it covers.

#ifndef PERFBENCH_GENERATOR_H_
#define PERFBENCH_GENERATOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "pipeline.h"
#include "punct/punct_pattern.h"

namespace perfbench {

struct GenStats {
  uint64_t frames_sent = 0;  // hello, data, punctuation and EOS frames
  uint64_t tuples_offered = 0;  // includes tuples skipped on feedback
  uint64_t probe_offered = 0;
  uint64_t tuples_skipped = 0;  // honoured assumed feedback
  uint64_t unsound_skips = 0;   // skipped a tuple the reference needs
  uint64_t error_frames = 0;  // quarantine notices from the engine
  bool timed_out = false;
  int64_t first_send_ns = -1;
  // Waiting for a socket to accept bytes, or (saturation) for the sink
  // to close old windows.
  int64_t blocked_ns = 0;
  double cpu_s = 0;        // generator thread CPU time
  int64_t wall_ns = 0;     // first frame to the end of Run
  std::vector<double> lag_ms;  // paced: completion minus schedule
  // Per window: scheduled send time of the later of its closing
  // punctuations (paced), or when it was handed over (saturation).
  std::vector<int64_t> punct_ns;
  std::vector<double> feedback_delay_ms;
};

class Generator {
 public:
  /// `sink_closed` is the highest window the sink has seen closed.
  Generator(const InputModel& model, int64_t windows, const Pipeline& pipe,
            const std::atomic<int64_t>& sink_closed);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Connect every producer and send its hello (part of set-up).
  Status Connect();

  /// Send every window, then the end of stream, then keep reading the
  /// engine's frames until `done()` holds. `rate` is tuples/s; 0 sends
  /// as fast as the sockets accept, keeping at most ~kMaxLeadTuples
  /// sent ahead of the sink's last closed window.
  void Run(double rate, const std::function<bool()>& done);

  const GenStats& stats() const { return stats_; }

 private:
  enum class Kind { kData, kPunct, kEos };
  struct Item {
    int conn = 0;
    Kind kind = Kind::kData;
    int64_t window = 0;
    const std::vector<Rec>* recs = nullptr;
    size_t begin = 0, end = 0;
  };
  struct InFlight {
    uint64_t end = 0;  // absolute queued-byte offset of the item's end
    int64_t due = 0;
    int64_t window = -1;
    bool det = false;  // a detector frame (feedback delay origin)
  };
  struct Conn {
    int fd = -1;
    int arity = 0;
    uint64_t producer = 0;
    std::string out;
    size_t off = 0;
    uint64_t queued_bytes = 0;
    uint64_t sent_bytes = 0;
    uint64_t frames = 0;
    std::deque<InFlight> inflight;
    std::string in;
  };
  struct Assumed {
    nstream::PunctPattern pattern;
    int64_t hi_ts = 0;
  };
  // A window's punctuation on the fan-in's first connection waits until
  // every other connection's frames of that window are in the conduit.
  struct Deferred {
    Item item;
    int64_t due = 0;
    std::vector<uint64_t> need;  // per conn: frames the acceptor must have
  };

  void BuildItems(const WindowInput& in, std::vector<Item>* items);
  void Enqueue(const Item& item, int64_t due);
  void Flush(Conn* c);
  void Complete(Conn* c, int64_t now);
  // Poll every socket for engine frames (and for room where bytes are
  // unsent) for up to `timeout_ns`; handles what arrived.
  void Service(int64_t timeout_ns);
  void ReadFrames(Conn* c);
  void HandleFeedback(std::string_view payload, int64_t now);
  bool SkipProbe(const Rec& r, int64_t window_base);
  void WaitForRoom(Conn* c, size_t cap);
  void TryDeferred(bool force);

  const InputModel& model_;
  const Workload& w_;
  int64_t windows_;
  const Pipeline& pipe_;
  const std::atomic<int64_t>& sink_closed_;
  std::vector<Conn> conns_;
  GenStats stats_;
  std::vector<std::vector<Assumed>> assumed_;  // by segment
  std::vector<int64_t> det_sent_ns_;  // gate: detector frame sent, per window
  std::deque<Deferred> deferred_;
  std::vector<const Rec*> batch_;  // records of the frame being encoded
  int64_t last_deferred_check_ = 0;
  bool paced_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_GENERATOR_H_
