#include "spans.hpp"

#include <algorithm>
#include <chrono>

namespace wallbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder::SpanRecorder(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
  open_.reserve(64);
}

SpanRecorder::NameId SpanRecorder::name(const std::string& n) {
  const auto it = std::find(names_.begin(), names_.end(), n);
  if (it != names_.end()) return static_cast<NameId>(it - names_.begin());
  names_.push_back(n);
  totals_.emplace_back();
  return static_cast<NameId>(names_.size() - 1);
}

void SpanRecorder::begin(NameId name, std::uint64_t op) {
  Open o;
  o.span.name = name;
  o.span.op = op;
  if (!open_.empty()) o.span.parent = open_.back().index;
  if (spans_.size() < capacity_) {
    o.index = spans_.size();
    spans_.emplace_back();
  } else {
    ++overflow_;
  }
  o.span.start_ns = now_ns();
  open_.push_back(o);
}

void SpanRecorder::end() {
  const std::int64_t t = now_ns();
  Open o = open_.back();
  open_.pop_back();
  o.span.end_ns = t;
  const std::int64_t dur = t - o.span.start_ns;
  if (!open_.empty()) open_.back().child_ns += dur;
  auto& tot = totals_[o.span.name];
  tot.count += 1;
  tot.total_ns += static_cast<std::uint64_t>(dur);
  tot.self_ns += static_cast<std::uint64_t>(std::max<std::int64_t>(0, dur - o.child_ns));
  if (o.index != kNotLogged) spans_[o.index] = o.span;
}

void SpanRecorder::print_table(std::FILE* out) const {
  std::vector<NameId> order(names_.size());
  for (NameId i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](NameId a, NameId b) { return totals_[a].self_ns > totals_[b].self_ns; });
  std::fprintf(out, "%-40s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const NameId i : order) {
    const auto& t = totals_[i];
    if (t.count == 0) continue;
    std::fprintf(out, "%-40s %10llu %12.3f %12.3f\n", names_[i].c_str(),
                 static_cast<unsigned long long>(t.count), static_cast<double>(t.total_ns) / 1e6,
                 static_cast<double>(t.self_ns) / 1e6);
  }
  if (overflow_ > 0) {
    std::fprintf(out, "(%llu spans past the log capacity are in the totals only)\n",
                 static_cast<unsigned long long>(overflow_));
  }
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%zu,\"parent\":%lld,\"op\":%llu}}",
                 i == 0 ? "" : ",\n", names_[s.name].c_str(),
                 static_cast<double>(s.start_ns - base) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent == kNotLogged ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace wallbench
