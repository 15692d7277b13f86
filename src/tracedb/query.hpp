// Read-side query helpers over a TraceDatabase.
//
// These provide the "SQL views" the analyser, the replay engine and the
// report writers need: per-call-id grouping, indirect parents and duration
// vectors.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "tracedb/database.hpp"

namespace tracedb {

/// Key identifying one distinct call site: (enclave, type, id).
struct CallKey {
  EnclaveId enclave_id = 0;
  CallType type = CallType::kEcall;
  CallId call_id = 0;

  auto operator<=>(const CallKey&) const = default;
};

/// Indices (into db.calls()) of every instance of one call, in trace order.
using CallInstances = std::vector<CallIndex>;

/// Groups all calls by (enclave, type, id).
[[nodiscard]] std::map<CallKey, CallInstances> group_calls(const TraceDatabase& db);

/// Durations (ns) of every instance of `key`, in trace order.
[[nodiscard]] std::vector<std::uint64_t> durations_of(const TraceDatabase& db,
                                                      const CallKey& key);

/// Start-relative (start_ns, duration_ns) pairs for scatter plots (Fig. 8).
[[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> scatter_of(
    const TraceDatabase& db, const CallKey& key);

/// Indirect parents per §4.3.2 / Figure 4: the indirect parent of call C is
/// the most recent call of the *same type* as C, on the same thread, with
/// the same direct parent, that completed before C started.
/// indirect[i] is the indirect parent of db.calls()[i], or kNoParent.
[[nodiscard]] std::vector<CallIndex> indirect_parents(const TraceDatabase& db);

/// The trace's call-site index: what the analyser's walk, its security pass
/// and the replay engine read instead of rescanning the call table.
struct TraceIndex {
  /// group_calls(db): every site's calls, in trace order.
  std::map<CallKey, CallInstances> sites;
  /// indirect_parents(db), one entry per call.
  std::vector<CallIndex> indirect;
};

/// Builds the index of `db` (one pass over the call table per member).
[[nodiscard]] TraceIndex index_trace(const TraceDatabase& db);

/// Resolves a call site by its registered (or synthesized "ecall_<id>")
/// name, searching both call types.  Returns std::nullopt when unknown.
[[nodiscard]] std::optional<CallKey> find_call_by_name(const TraceDatabase& db,
                                                       EnclaveId enclave,
                                                       const std::string& name);

}  // namespace tracedb
