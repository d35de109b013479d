// In-memory span recorder for the benchmark's traced run. Spans are taken
// around calls into the library's public functions from the benchmark's own
// code (nothing inside src/ is instrumented). Each thread records into its
// own buffer; buffers are merged and written out once, after measurement.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr int32_t kNoParent = -1;

struct SpanRecord {
  const char* name = "";  // string literal; the layer is the text before '.'
  uint64_t trace_id = 0;  // shared by every span of one query / batch
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = kNoParent;  // index into the same thread buffer
};

/// One thread's spans. Not thread-safe: each recording thread owns one.
class SpanBuffer {
 public:
  int32_t Begin(const char* name, uint64_t trace_id, int32_t parent);
  void End(int32_t span);
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
};

/// Owns every thread's buffer. A disabled tracer hands out no buffers, and
/// ScopedSpan over a null buffer records nothing, so the untraced path pays
/// one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// A fresh buffer for one thread, or nullptr when disabled.
  SpanBuffer* NewBuffer();

  size_t NumSpans() const;

  /// Self time per layer, ms: span duration minus the time its direct
  /// children cover (children of one span never overlap: they run on the
  /// same thread), summed over spans of the layer.
  std::map<std::string, double> LayerSelfMs() const;

  /// Writes every span as Chrome trace-event JSON ("X" events, one tid per
  /// buffer, args carry the trace id and parent). Returns false on I/O
  /// failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t trace_id,
             int32_t parent = kNoParent)
      : buffer_(buffer),
        index_(buffer == nullptr ? kNoParent
                                 : buffer->Begin(name, trace_id, parent)) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  SpanBuffer* buffer_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
