// In-memory span recording and Chrome trace-event export.
#include <cstdio>
#include <cstring>

#include "harness.hpp"

namespace mcf0::bench {

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->Begin(name);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->End(id_);
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int Tracer::Begin(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NowNs(), 0, parent});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  // Spans close innermost-first (they are RAII scopes on one thread).
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Tracer::Seconds(int id) const {
  const Span& span = spans_[static_cast<size_t>(id)];
  return 1e-9 * static_cast<double>(span.end_ns - span.start_ns);
}

double Tracer::SecondsIn(const char* name, int from) const {
  int64_t total = 0;
  for (size_t i = static_cast<size_t>(from); i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) {
      total += spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return 1e-9 * static_cast<double>(total);
}

double Tracer::LeafCoverage(int id) const {
  std::vector<bool> has_child(spans_.size(), false);
  for (const Span& span : spans_) {
    if (span.parent >= 0) has_child[static_cast<size_t>(span.parent)] = true;
  }
  int64_t covered = 0;
  for (size_t i = static_cast<size_t>(id) + 1; i < spans_.size(); ++i) {
    if (has_child[i]) continue;
    int up = spans_[i].parent;
    while (up > id) up = spans_[static_cast<size_t>(up)].parent;
    if (up == id) covered += spans_[i].end_ns - spans_[i].start_ns;
  }
  const Span& root = spans_[static_cast<size_t>(id)];
  const int64_t total = root.end_ns - root.start_ns;
  return total > 0 ? static_cast<double>(covered) / static_cast<double>(total)
                   : 0.0;
}

std::string Tracer::ChromeEvents(int pid, const std::string& workload) const {
  // Self time = duration minus the time direct children cover (children
  // of one parent never overlap: all spans nest on one thread).
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::string out;
  char buffer[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const int64_t dur = span.end_ns - span.start_ns;
    std::snprintf(
        buffer, sizeof(buffer),
        "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, \"tid\": 1, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"workload\": \"%s\", "
        "\"id\": %zu, \"parent\": %d, \"self_us\": %.3f}}",
        out.empty() ? "" : ",\n", span.name, pid, 1e-3 * span.start_ns,
        1e-3 * dur, workload.c_str(), i, span.parent,
        1e-3 * static_cast<double>(dur - child_ns[i]));
    out += buffer;
  }
  return out;
}

}  // namespace mcf0::bench
