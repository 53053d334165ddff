#include "perfbench/trace.h"

#include <algorithm>
#include <cstdio>

#include "perfbench/common.h"

namespace perfbench {

int32_t Tracer::Begin(const char* name, uint64_t op) {
  if (!enabled_) return -1;
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NowNs(), 0, parent, op, thread_});
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  spans_[index].end_ns = NowNs();
  // Spans close innermost-first (RAII); tolerate out-of-order ends.
  const auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it);
}

void Tracer::Append(const Tracer& other) {
  const int32_t base = static_cast<int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

std::vector<int64_t> Tracer::SelfTimes() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals clipped to the parent's.
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (const auto& [lo, hi] : kids) {
      const int64_t from = std::max(lo, cursor);
      const int64_t to = std::min(hi, s.end_ns);
      if (to > from) covered += to - from;
      cursor = std::max(cursor, to);
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::string Tracer::Validate() const {
  const std::vector<int64_t> self = SelfTimes();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) return std::string(s.name) + " ends early";
    if (self[i] < 0) return std::string(s.name) + " has negative self time";
    if (s.parent < 0) continue;
    const Span& p = spans_[s.parent];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      return std::string(s.name) + " escapes its parent " + p.name;
    }
  }
  return "";
}

std::map<std::string, Tracer::Agg> Tracer::Aggregate() const {
  const std::vector<int64_t> self = SelfTimes();
  std::map<std::string, Agg> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Agg& a = out[spans_[i].name];
    a.total_ms.push_back((spans_[i].end_ns - spans_[i].start_ns) / 1e6);
    a.self_ms.push_back(self[i] / 1e6);
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"op\": %llu, "
                 "\"thread\": %d}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.op), s.thread);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
