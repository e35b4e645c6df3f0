// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps its calls into each layer's public functions in a
// Span; the recorder keeps (name, start, end, id, parent, thread,
// request) per span in per-thread buffers and hands them out with
// Take() between operations, so recording never takes a lock on the hot
// path. Spans are written to a JSON-lines file only when the run ends.
// With the recorder disabled a Span costs one relaxed atomic load.
//
// Parent links: a span's parent is the innermost span open on the same
// thread; a span opened on a thread with none open (a library worker
// pulling a chunk) takes the main thread's current "ambient" span, which is
// the outermost call the main thread has open (e.g. protocol.run_mean).

#ifndef HDLDP_PERFBENCH_TRACE_H_
#define HDLDP_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct SpanRecord {
  /// Static string naming the layer call ("data.chunk", ...).
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  /// 0 for a root span.
  std::uint64_t parent = 0;
  std::uint32_t thread = 0;
  /// Estimate index or tick the span served.
  std::uint64_t request = 0;

  double Seconds() const {
    return 1e-9 * static_cast<double>(end_ns - start_ns);
  }
};

class Tracer {
 public:
  static Tracer& Get();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetRequest(std::uint64_t request) {
    request_.store(request, std::memory_order_relaxed);
  }

  /// Moves out every span recorded so far on any thread. Call only while
  /// no traced call is in flight.
  std::vector<SpanRecord> Take();

 private:
  friend class Span;
  struct ThreadBuffer {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<std::uint64_t> open;
  };

  Tracer() = default;
  ThreadBuffer& Local();
  std::int64_t NowNs() const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> request_{0};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> ambient_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Scoped span; records nothing while the tracer is disabled. An
/// `ambient` span becomes the parent of spans opened on threads that
/// have no span of their own open.
class Span {
 public:
  explicit Span(const char* name, bool ambient = false);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  const char* name_;
  bool ambient_ = false;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t previous_ambient_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Runs `call` inside a Span and returns its result.
template <typename F>
auto Traced(const char* name, F&& call, bool ambient = false) {
  const Span span(name, ambient);
  return call();
}

/// Sum of the durations of the spans called `name`.
double SumSeconds(const std::vector<SpanRecord>& spans, std::string_view name);
/// Number of spans called `name`.
std::size_t CountSpans(const std::vector<SpanRecord>& spans,
                       std::string_view name);
/// Length of the union of the intervals of the spans whose name starts
/// with `prefix`, clipped to [lo_ns, hi_ns] (children of a parent that
/// run concurrently on several threads count once).
double UnionSeconds(const std::vector<SpanRecord>& spans,
                    std::string_view prefix, std::int64_t lo_ns,
                    std::int64_t hi_ns);

/// Appends `spans` to `path` as JSON lines; false on I/O failure.
bool AppendSpans(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // HDLDP_PERFBENCH_TRACE_H_
