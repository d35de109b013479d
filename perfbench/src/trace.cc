#include "perfbench/src/trace.h"

#include <cstdio>

namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string LayerOf(const char* name) {
  const std::string s(name);
  const size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace

int32_t SpanBuffer::Begin(const char* name, uint64_t trace_id,
                          int32_t parent) {
  SpanRecord r;
  r.name = name;
  r.trace_id = trace_id;
  r.parent = parent;
  r.start_ns = NowNs();
  spans_.push_back(r);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanBuffer::End(int32_t span) { spans_[span].end_ns = NowNs(); }

SpanBuffer* Tracer::NewBuffer() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>());
  return buffers_.back().get();
}

size_t Tracer::NumSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& b : buffers_) n += b->spans().size();
  return n;
}

std::map<std::string, double> Tracer::LayerSelfMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> self_ms;
  for (const auto& b : buffers_) {
    const std::vector<SpanRecord>& spans = b->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const SpanRecord& s : spans) {
      if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const int64_t self = spans[i].end_ns - spans[i].start_ns - child_ns[i];
      self_ms[LayerOf(spans[i].name)] += static_cast<double>(self) / 1e6;
    }
  }
  return self_ms;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = 0;
  for (const auto& b : buffers_) {
    for (const SpanRecord& s : b->spans()) {
      if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
    }
  }
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (size_t tid = 0; tid < buffers_.size(); ++tid) {
    for (const SpanRecord& s : buffers_[tid]->spans()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"trace_id\":%llu,\"parent\":%d}}",
                   first ? "" : ",", s.name, LayerOf(s.name).c_str(), tid,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.trace_id), s.parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
