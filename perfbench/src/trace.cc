#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // Outlives pool threads at exit.
  return *tracer;
}

Tracer::ThreadBuffer& Tracer::Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    const std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    local = buffers_.back().get();
    local->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
  }
  return *local;
}

std::int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<SpanRecord> Tracer::Take() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

Span::Span(const char* name, bool ambient) : name_(name) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  ambient_ = ambient;
  Tracer::ThreadBuffer& local = tracer.Local();
  id_ = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  parent_ = local.open.empty()
                ? tracer.ambient_.load(std::memory_order_acquire)
                : local.open.back();
  local.open.push_back(id_);
  if (ambient_) {
    previous_ambient_ =
        tracer.ambient_.exchange(id_, std::memory_order_acq_rel);
  }
  start_ns_ = tracer.NowNs();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  const std::int64_t end_ns = tracer_->NowNs();
  Tracer::ThreadBuffer& local = tracer_->Local();
  local.open.pop_back();
  if (ambient_) {
    tracer_->ambient_.store(previous_ambient_, std::memory_order_release);
  }
  local.spans.push_back(SpanRecord{
      name_, start_ns_, end_ns, id_, parent_, local.thread,
      tracer_->request_.load(std::memory_order_relaxed)});
}

double SumSeconds(const std::vector<SpanRecord>& spans,
                  std::string_view name) {
  double total = 0.0;
  for (const SpanRecord& s : spans) {
    if (name == s.name) total += s.Seconds();
  }
  return total;
}

std::size_t CountSpans(const std::vector<SpanRecord>& spans,
                       std::string_view name) {
  return static_cast<std::size_t>(
      std::count_if(spans.begin(), spans.end(),
                    [&](const SpanRecord& s) { return name == s.name; }));
}

double UnionSeconds(const std::vector<SpanRecord>& spans,
                    std::string_view prefix, std::int64_t lo_ns,
                    std::int64_t hi_ns) {
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (const SpanRecord& s : spans) {
    if (std::string_view(s.name).substr(0, prefix.size()) != prefix) continue;
    const std::int64_t a = std::max(s.start_ns, lo_ns);
    const std::int64_t b = std::min(s.end_ns, hi_ns);
    if (a < b) intervals.emplace_back(a, b);
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cursor = lo_ns;
  for (const auto& [a, b] : intervals) {
    const std::int64_t from = std::max(a, cursor);
    if (b > from) {
      covered += b - from;
      cursor = b;
    }
  }
  return 1e-9 * static_cast<double>(covered);
}

bool AppendSpans(const std::string& path,
                 const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"thread\":%u,"
                 "\"request\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.thread,
                 static_cast<unsigned long long>(s.request));
  }
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
