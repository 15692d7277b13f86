#include "tracedb/query.hpp"

#include <charconv>
#include <string_view>
#include <unordered_map>

namespace tracedb {

std::map<CallKey, CallInstances> group_calls(const TraceDatabase& db) {
  std::map<CallKey, CallInstances> out;
  const auto& calls = db.calls();
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const auto& c = calls[i];
    out[CallKey{c.enclave_id, c.type, c.call_id}].push_back(static_cast<CallIndex>(i));
  }
  return out;
}

std::vector<std::uint64_t> durations_of(const TraceDatabase& db, const CallKey& key) {
  std::vector<std::uint64_t> out;
  for (const auto& c : db.calls()) {
    if (c.enclave_id == key.enclave_id && c.type == key.type && c.call_id == key.call_id) {
      out.push_back(c.duration());
    }
  }
  return out;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> scatter_of(const TraceDatabase& db,
                                                                const CallKey& key) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& c : db.calls()) {
    if (c.enclave_id == key.enclave_id && c.type == key.type && c.call_id == key.call_id) {
      out.emplace_back(c.start_ns, c.duration());
    }
  }
  return out;
}

std::vector<CallIndex> indirect_parents(const TraceDatabase& db) {
  const auto& calls = db.calls();
  const std::size_t n = calls.size();
  std::vector<CallIndex> indirect(n, kNoParent);

  // Calls are stored in start order; per thread this order is preserved, and
  // same-thread calls of the same nesting level never overlap — so a single
  // forward scan with a (thread, type, direct parent) -> last-seen table
  // implements the Figure 4 rules.  An ecall or ocall on its parent's thread
  // has a dense slot per (parent, type); every other key (top-level calls,
  // cross-thread parents, unknown types) is hashed.
  std::vector<CallIndex> last_child(2 * n, kNoParent);
  struct Key {
    ThreadId thread;
    CallType type;
    CallIndex parent;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      const auto mixed = (static_cast<std::uint64_t>(k.parent) * 0x9E3779B97F4A7C15ull) ^
                         (static_cast<std::uint64_t>(k.thread) << 8) ^
                         static_cast<std::uint64_t>(k.type);
      return static_cast<std::size_t>(mixed ^ (mixed >> 29));
    }
  };
  std::unordered_map<Key, CallIndex, KeyHash> last_seen;

  for (std::size_t i = 0; i < n; ++i) {
    const auto& c = calls[i];
    const auto type = static_cast<std::size_t>(c.type);
    const bool dense = c.parent >= 0 && static_cast<std::size_t>(c.parent) < n && type < 2 &&
                       calls[static_cast<std::size_t>(c.parent)].thread_id == c.thread_id;
    CallIndex& last =
        dense ? last_child[2 * static_cast<std::size_t>(c.parent) + type]
              : last_seen.try_emplace(Key{c.thread_id, c.type, c.parent}, kNoParent).first->second;
    indirect[i] = last;
    last = static_cast<CallIndex>(i);
  }
  return indirect;
}

TraceIndex index_trace(const TraceDatabase& db) {
  return TraceIndex{group_calls(db), indirect_parents(db)};
}

std::optional<CallKey> find_call_by_name(const TraceDatabase& db, EnclaveId enclave,
                                         const std::string& name) {
  for (const auto& rec : db.call_names()) {
    if (rec.enclave_id == enclave && rec.name == name) {
      return CallKey{rec.enclave_id, rec.type, rec.call_id};
    }
  }
  // Fall back to the synthesized "ecall_<id>"/"ocall_<id>" names: parse the
  // key back out of the name, then require that name_of() spells it the
  // same way (no recorded name, canonical digits) and that it has a call.
  CallKey key{enclave, CallType::kEcall, 0};
  std::string_view digits = name;
  if (digits.starts_with("ecall_")) {
    key.type = CallType::kEcall;
  } else if (digits.starts_with("ocall_")) {
    key.type = CallType::kOcall;
  } else {
    return std::nullopt;
  }
  digits.remove_prefix(6);
  const auto [end, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), key.call_id);
  if (ec != std::errc{} || end != digits.data() + digits.size()) return std::nullopt;
  if (db.name_of(key.enclave_id, key.type, key.call_id) != name) return std::nullopt;
  for (const auto& c : db.calls()) {
    if (c.enclave_id == key.enclave_id && c.type == key.type && c.call_id == key.call_id) {
      return key;
    }
  }
  return std::nullopt;
}

}  // namespace tracedb
