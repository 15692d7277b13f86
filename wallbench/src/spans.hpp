// Span recorder for the traced run.
//
// The benchmark wraps each call it makes into a layer of sgx-perf in a span:
// name, start, end, the enclosing span and the op it belongs to.  Spans go
// into a log preallocated at set-up, so recording one costs two clock reads
// and a store; nothing is written out until the run ends.  A layer's self
// time is its span's duration minus the time its child spans cover (the
// benchmark is single-threaded, so children never overlap).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace wallbench {

class SpanRecorder {
 public:
  using NameId = std::uint32_t;

  /// `capacity` spans are preallocated; spans past it are counted, not kept.
  explicit SpanRecorder(std::size_t capacity);

  /// Interns a span name (set-up time; linear in the names registered).
  NameId name(const std::string& n);

  /// Opens a span under the innermost open one.
  void begin(NameId name, std::uint64_t op);
  /// Closes the innermost open span.
  void end();

  /// Totals per name over every closed span.
  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  [[nodiscard]] const Totals& totals(NameId name) const { return totals_[name]; }
  /// Self-time total over the spans of every name for which `pred` holds.
  template <typename Pred>
  [[nodiscard]] std::uint64_t self_ns_where(Pred pred) const {
    std::uint64_t sum = 0;
    for (NameId i = 0; i < names_.size(); ++i) {
      if (pred(names_[i])) sum += totals(i).self_ns;
    }
    return sum;
  }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }

  /// Per-name table (count, total, self) on `out`, largest self time first.
  void print_table(std::FILE* out) const;
  /// All spans as a Chrome trace-event JSON array ("X" events, one pid/tid),
  /// loadable in Perfetto.  Returns false on an I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  static constexpr std::size_t kNotLogged = ~std::size_t{0};

  struct Span {
    NameId name = 0;
    std::size_t parent = kNotLogged;  // log index of the enclosing span
    std::uint64_t op = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Open {
    Span span;
    std::size_t index = kNotLogged;  // position in spans_
    std::int64_t child_ns = 0;       // time covered by direct children
  };

  std::size_t capacity_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<Open> open_;
  std::uint64_t overflow_ = 0;
  std::vector<Totals> totals_;  // accumulated at end()
};

/// RAII span; a null recorder makes it a no-op (the untraced run).
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, SpanRecorder::NameId name, std::uint64_t op)
      : rec_(rec) {
    if (rec_ != nullptr) rec_->begin(name, op);
  }
  ~SpanScope() {
    if (rec_ != nullptr) rec_->end();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
};

}  // namespace wallbench
