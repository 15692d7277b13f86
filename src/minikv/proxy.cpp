#include "minikv/proxy.hpp"

#include <cstring>

#include "crypto/hmac.hpp"
#include "support/strutil.hpp"

namespace minikv {

using sgxsim::CallId;
using sgxsim::SgxStatus;
using sgxsim::TrustedContext;

const char* const kKvEdl = R"(
enclave {
  trusted {
    public int ecall_handle_input_from_client([user_check] void* host,
                                              [in, size=len] const uint8_t* buf, size_t len);
    public int ecall_handle_input_from_server([user_check] void* host,
                                              [in, size=len] const uint8_t* buf, size_t len);
  };
  untrusted {
    void ocall_send_to_server([user_check] void* host, [in, size=len] const uint8_t* buf, size_t len);
    void ocall_send_to_client([user_check] void* host, uint64_t client_id,
                              [in, size=len] const uint8_t* buf, size_t len);
    void ocall_print_debug([in, size=len] const char* msg, size_t len);
    void ocall_get_time([out, size=8] uint64_t* now);
    void ocall_log_error([in, size=len] const char* msg, size_t len);
    void ocall_metrics_update([user_check] void* metrics);
  };
};
)";

/// Same interface with both ecalls marked switchless (SDK 2.x
/// `transition_using_threads`) — selected via Config::switchless_ecalls.
const char* const kKvEdlSwitchless = R"(
enclave {
  trusted {
    public int ecall_handle_input_from_client([user_check] void* host,
                                              [in, size=len] const uint8_t* buf, size_t len)
        transition_using_threads;
    public int ecall_handle_input_from_server([user_check] void* host,
                                              [in, size=len] const uint8_t* buf, size_t len)
        transition_using_threads;
  };
  untrusted {
    void ocall_send_to_server([user_check] void* host, [in, size=len] const uint8_t* buf, size_t len);
    void ocall_send_to_client([user_check] void* host, uint64_t client_id,
                              [in, size=len] const uint8_t* buf, size_t len);
    void ocall_print_debug([in, size=len] const char* msg, size_t len);
    void ocall_get_time([out, size=8] uint64_t* now);
    void ocall_log_error([in, size=len] const char* msg, size_t len);
    void ocall_metrics_update([user_check] void* metrics);
  };
};
)";

namespace {

enum class KvOcall : CallId {
  kSendToServer = 0,
  kSendToClient = 1,
  kPrintDebug = 2,
  kGetTime = 3,       // never called
  kLogError = 4,      // never called
  kMetricsUpdate = 5, // never called
};

SgxStatus ocall_send_to_server(void* msp) {
  auto* ms = static_cast<KvMs*>(msp);
  auto* proxy = static_cast<KvProxy*>(ms->host);
  std::vector<std::uint8_t> bytes(ms->buf, ms->buf + ms->len);
  // The backend handles the (encrypted) request synchronously and the reply
  // lands in the proxy's per-client server mailbox.
  const auto request = Request::deserialize(bytes);
  if (request && request->client_id < KvProxy::kMaxClients) {
    const Response resp = proxy->store.handle(*request);
    proxy->to_server_slot[request->client_id] = resp.serialize();
  }
  return SgxStatus::kSuccess;
}

SgxStatus ocall_send_to_client(void* msp) {
  auto* ms = static_cast<KvMs*>(msp);
  auto* proxy = static_cast<KvProxy*>(ms->host);
  if (ms->client_id < KvProxy::kMaxClients) {
    proxy->to_client_slot[ms->client_id].assign(ms->buf, ms->buf + ms->len);
  }
  return SgxStatus::kSuccess;
}

SgxStatus ocall_print_debug(void* msp) {
  auto* ms = static_cast<KvMs*>(msp);
  auto* proxy = static_cast<KvProxy*>(ms->host);
  proxy->debug_prints.fetch_add(1, std::memory_order_relaxed);
  return SgxStatus::kSuccess;
}

SgxStatus ocall_never_called(void* /*ms*/) { return SgxStatus::kSuccess; }

/// Authenticated encryption of a blob: ChaCha20 keystream + truncated
/// HMAC-SHA-256 tag appended (8 bytes).  Deterministic when `nonce_seed` is
/// fixed (used for paths so equal paths map to equal ciphertexts, like
/// SecureKeeper's deterministic path encryption).
std::vector<std::uint8_t> seal(const crypto::ChaChaKey& key, std::uint64_t nonce_seed,
                               const std::vector<std::uint8_t>& plain) {
  crypto::ChaChaNonce nonce{};
  std::memcpy(nonce.data(), &nonce_seed, sizeof(nonce_seed));
  std::vector<std::uint8_t> out = plain;
  crypto::chacha20_crypt(key, nonce, 1, out.data(), out.size());
  const auto tag = crypto::hmac_sha256(key.data(), key.size(), out.data(), out.size());
  out.insert(out.end(), tag.begin(), tag.begin() + 8);
  out.insert(out.end(), reinterpret_cast<const std::uint8_t*>(&nonce_seed),
             reinterpret_cast<const std::uint8_t*>(&nonce_seed) + 8);
  return out;
}

std::optional<std::vector<std::uint8_t>> unseal(const crypto::ChaChaKey& key,
                                                const std::vector<std::uint8_t>& sealed) {
  if (sealed.size() < 16) return std::nullopt;
  std::uint64_t nonce_seed = 0;
  std::memcpy(&nonce_seed, sealed.data() + sealed.size() - 8, 8);
  std::vector<std::uint8_t> cipher(sealed.begin(), sealed.end() - 16);
  const auto expected =
      crypto::hmac_sha256(key.data(), key.size(), cipher.data(), cipher.size());
  if (std::memcmp(expected.data(), sealed.data() + sealed.size() - 16, 8) != 0) {
    return std::nullopt;
  }
  crypto::ChaChaNonce nonce{};
  std::memcpy(nonce.data(), &nonce_seed, sizeof(nonce_seed));
  crypto::chacha20_crypt(key, nonce, 1, cipher.data(), cipher.size());
  return cipher;
}

}  // namespace

KvProxy::Config::Config() {
  enclave.name = "securekeeper-proxy";
  enclave.code_pages = 48;
  enclave.heap_pages = 128;
  enclave.stack_pages = 8;
  enclave.tcs_count = 24;
}

struct KvProxy::TrustedState {
  struct Session {
    std::atomic<bool> active{false};
    std::uint64_t nonce_counter = 0;
    sgxsim::MutexId queue_mutex = 0;
    std::vector<std::uint64_t> in_flight;  // per-client request queue
    /// Session crypto/IO buffers allocated at connect time — SecureKeeper's
    /// start-up working set is dominated by this kind of initialisation
    /// (322 pages at start-up vs 94 in steady state, §5.2.4).
    sgxsim::EnclaveAddr buffers = 0;
    static constexpr std::uint64_t kBufferPages = 16;
  };

  void* host = nullptr;  // the untrusted KvProxy (ocall target)
  crypto::ChaChaKey key{};
  sgxsim::MutexId map_mutex = 0;
  std::array<Session, kMaxClients> sessions;
  support::Nanoseconds crypto_ns_per_byte = 8;
  std::uint32_t connect_spin_iterations = 0;
};

KvProxy::KvProxy(sgxsim::Urts& urts, Store& backing_store, Config config)
    : store(backing_store), urts_(urts), trusted_(std::make_unique<TrustedState>()) {
  eid_ = urts_.create_enclave(
      config.enclave,
      sgxsim::edl::parse(config.switchless_ecalls ? kKvEdlSwitchless : kKvEdl));
  table_ = sgxsim::make_ocall_table({
      &ocall_send_to_server, &ocall_send_to_client, &ocall_print_debug,
      &ocall_never_called, &ocall_never_called, &ocall_never_called,
  });

  sgxsim::Enclave& enclave = urts_.enclave(eid_);
  TrustedState* ts = trusted_.get();
  ts->crypto_ns_per_byte = config.crypto_ns_per_byte;
  ts->connect_spin_iterations = config.connect_spin_iterations;
  ts->key.fill(0x42);
  ts->map_mutex = enclave.create_mutex();
  for (auto& session : ts->sessions) {
    session.queue_mutex = enclave.create_mutex();
  }

  enclave.register_ecall(
      "ecall_handle_input_from_client", [ts](TrustedContext& ctx, void* msp) {
        auto* ms = static_cast<KvMs*>(msp);
        ctx.copy_in(ms->len);
        ctx.work(3'000);  // transport decode + request parsing
        const auto request =
            Request::deserialize(std::vector<std::uint8_t>(ms->buf, ms->buf + ms->len));
        if (!request || request->client_id >= kMaxClients) {
          return SgxStatus::kInvalidParameter;
        }
        auto& session = ts->sessions[request->client_id];

        if (request->op == OpCode::kConnect) {
          // Connection path: the shared session map is written under the
          // in-enclave mutex — the §5.2.4 contention point when all clients
          // connect simultaneously.
          if (auto st = ctx.mutex_lock(ts->map_mutex); st != SgxStatus::kSuccess) return st;
          ctx.work(1'000);  // map insert
          // Session initialisation holds the lock for real time too, so a
          // simultaneous connect storm contends like the paper observed.
          for (volatile std::uint32_t spin = 0; spin < ts->connect_spin_iterations;) {
            spin = spin + 1;
          }
          if (session.buffers == 0) {
            // Allocate (and zero) the session's crypto/IO buffers: the bulk
            // of the start-up working set.
            session.buffers =
                ctx.malloc(TrustedState::Session::kBufferPages * sgxsim::kPageSize);
          }
          session.active.store(true, std::memory_order_release);
          session.nonce_counter = 1;
          if (auto st = ctx.mutex_unlock(ts->map_mutex); st != SgxStatus::kSuccess) return st;
          // Debug print during connection establishment (the "remaining
          // ocalls" the paper observed).
          const std::string msg =
              support::format("client %llu connected",
                              static_cast<unsigned long long>(request->client_id));
          KvMs print;
          print.host = ts->host;
          print.buf = reinterpret_cast<const std::uint8_t*>(msg.data());
          print.len = msg.size();
          ctx.ocall(static_cast<CallId>(KvOcall::kPrintDebug), &print);

          KvMs fwd;
          fwd.host = ts->host;
          const auto bytes = request->serialize();
          fwd.buf = bytes.data();
          fwd.len = bytes.size();
          ctx.copy_out(bytes.size());
          return ctx.ocall(static_cast<CallId>(KvOcall::kSendToServer), &fwd);
        }

        // Steady state: lock-free session lookup, per-client queue.
        if (!session.active.load(std::memory_order_acquire)) {
          return SgxStatus::kInvalidParameter;
        }
        Request sealed = *request;
        // Deterministic path encryption (equal paths -> equal ciphertexts),
        // randomized payload encryption with a fresh per-op nonce.
        sealed.path = seal(ts->key, 0, request->path);
        if (auto st = ctx.mutex_lock(session.queue_mutex); st != SgxStatus::kSuccess) return st;
        const std::uint64_t nonce = session.nonce_counter++;
        session.in_flight.push_back(request->xid);
        if (auto st = ctx.mutex_unlock(session.queue_mutex); st != SgxStatus::kSuccess) return st;
        if (!request->payload.empty()) {
          sealed.payload = seal(ts->key, nonce, request->payload);
        }
        ctx.work((request->path.size() + request->payload.size()) * ts->crypto_ns_per_byte);
        // Steady state reuses a small slice of the session buffers.
        if (session.buffers != 0) {
          ctx.touch(session.buffers + (nonce % 2) * sgxsim::kPageSize,
                    request->payload.size(), sgxsim::MemAccess::kWrite);
        }

        KvMs fwd;
        fwd.host = ts->host;
        const auto bytes = sealed.serialize();
        fwd.buf = bytes.data();
        fwd.len = bytes.size();
        ctx.copy_out(bytes.size());
        return ctx.ocall(static_cast<CallId>(KvOcall::kSendToServer), &fwd);
      });

  enclave.register_ecall(
      "ecall_handle_input_from_server", [ts](TrustedContext& ctx, void* msp) {
        auto* ms = static_cast<KvMs*>(msp);
        ctx.copy_in(ms->len);
        ctx.work(3'500);  // response parsing + client transport framing
        auto response =
            Response::deserialize(std::vector<std::uint8_t>(ms->buf, ms->buf + ms->len));
        if (!response || response->client_id >= kMaxClients) {
          return SgxStatus::kInvalidParameter;
        }
        auto& session = ts->sessions[response->client_id];
        if (session.active.load(std::memory_order_acquire)) {
          if (auto st = ctx.mutex_lock(session.queue_mutex); st != SgxStatus::kSuccess)
            return st;
          // Complete the oldest matching in-flight request.
          auto& q = session.in_flight;
          for (auto it = q.begin(); it != q.end(); ++it) {
            if (*it == response->xid) {
              q.erase(it);
              break;
            }
          }
          if (auto st = ctx.mutex_unlock(session.queue_mutex); st != SgxStatus::kSuccess)
            return st;
        }
        if (!response->payload.empty()) {
          // Decrypt the payload (and model re-encryption for the client
          // transport) before handing it back to the client.
          if (auto plain = unseal(ts->key, response->payload)) {
            response->payload = std::move(*plain);
          }
          ctx.work(response->payload.size() * ts->crypto_ns_per_byte * 2);
        }

        const auto bytes = response->serialize();
        KvMs out;
        out.host = ts->host;
        out.client_id = response->client_id;
        out.buf = bytes.data();
        out.len = bytes.size();
        ctx.copy_out(bytes.size());
        return ctx.ocall(static_cast<CallId>(KvOcall::kSendToClient), &out);
      });

  ts->host = this;
}

KvProxy::~KvProxy() { urts_.destroy_enclave(eid_); }

sgxsim::SgxStatus KvProxy::connect_client(std::uint64_t client_id) {
  Request req;
  req.client_id = client_id;
  req.op = OpCode::kConnect;
  const auto bytes = req.serialize();
  KvMs ms;
  ms.host = this;
  ms.buf = bytes.data();
  ms.len = bytes.size();
  return urts_.sgx_ecall(eid_, 0, &table_, &ms);
}

std::optional<Response> KvProxy::process(const Request& request) {
  if (request.client_id >= kMaxClients) return std::nullopt;
  const auto bytes = request.serialize();
  KvMs ms;
  ms.host = this;
  ms.buf = bytes.data();
  ms.len = bytes.size();
  if (urts_.sgx_ecall(eid_, 0, &table_, &ms) != SgxStatus::kSuccess) return std::nullopt;

  // The backend's reply sits in the server mailbox; feed it back through the
  // second ecall, which delivers the plaintext to the client mailbox.
  auto& from_server = to_server_slot[request.client_id];
  if (from_server.empty()) return std::nullopt;
  KvMs reply;
  reply.host = this;
  reply.buf = from_server.data();
  reply.len = from_server.size();
  if (urts_.sgx_ecall(eid_, 1, &table_, &reply) != SgxStatus::kSuccess) return std::nullopt;
  from_server.clear();

  auto& delivered = to_client_slot[request.client_id];
  if (delivered.empty()) return std::nullopt;
  const auto response = Response::deserialize(delivered);
  delivered.clear();
  return response;
}

}  // namespace minikv
