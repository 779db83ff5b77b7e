// The TCP socket transport and its execution backend.
//
// `SocketTransport` is the coordinator side: one listening TCP socket
// (localhost by default, `MPCSD_SOCKET_LISTEN=host:port` to override,
// port 0 = ephemeral) accepting workers that speak the framed protocol of
// mpc/transport.hpp.  Every socket/bind/listen/accept/connect syscall in
// the codebase lives in transport_socket.cpp — one reviewable boundary,
// enforced by mpcsd_verify (conf-socket-primitive).
//
// `SocketBackend` runs a round as: fork one worker per pool slot (machine
// bodies are C++ closures, so workers run on a copy-on-write snapshot of
// the host's address space); each worker already knows its slot, round
// and machine range from the fork, connects back to the coordinator and
// streams three frames:
//
//   worker -> kHello   {slot, round}
//   worker -> kResults machine-result records for [begin, end)
//             (or kError with the body's exception message)
//   worker -> kBarrier {status, result bytes, body wall seconds}
//
// Results and metering are byte-identical to the thread backend (same
// records); only the wire differs.  See docs/BACKENDS.md.
//
// Linux-only (fork + TCP loopback); `make_backend` refuses the kind
// elsewhere.  `parse_host_port` is portable and always available.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/thread_pool.hpp"
#include "mpc/backend.hpp"
#include "mpc/transport.hpp"
#include "obs/recorder.hpp"

namespace mpcsd::mpc {

struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// Parses "host:port" (surrounding spaces ignored).  Throws
/// std::invalid_argument on an empty host or port, a missing colon, or a
/// port outside [0, 65535].
[[nodiscard]] HostPort parse_host_port(std::string_view text);

#if defined(__linux__)

/// Coordinator side of the TCP transport: owns the listening socket and
/// the frame/byte counters for everything that crosses it.
class SocketTransport final : public Transport {
 public:
  /// Remembers the listen address; no syscalls until `ensure_listening`.
  explicit SocketTransport(HostPort listen);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  [[nodiscard]] const char* name() const noexcept override { return "tcp"; }

  /// Binds and listens on first call (resolving an ephemeral port); no-op
  /// after.  Throws std::runtime_error on bind/listen failure.
  void ensure_listening();

  /// The bound address; port is the resolved one once listening.
  [[nodiscard]] const HostPort& address() const noexcept { return bound_; }

  /// Waits up to `timeout_ms` for one inbound connection; returns the
  /// accepted fd or -1 on timeout.  Throws on poll/accept errors.
  [[nodiscard]] int accept_connection(int timeout_ms);

  /// Client side: blocking TCP connect to `target` ("localhost" maps to
  /// 127.0.0.1).  Returns the connected fd, or -1 on failure.
  [[nodiscard]] static int connect_to(const HostPort& target);

 private:
  HostPort bound_;
  int listen_fd_ = -1;
};

/// Execution backend running machine bodies in forked workers that stream
/// their results back over the coordinator's TCP socket.
class SocketBackend final : public ExecutionBackend {
 public:
  SocketBackend(std::shared_ptr<ThreadPool> pool, obs::Recorder* recorder);

  SocketBackend(const SocketBackend&) = delete;
  SocketBackend& operator=(const SocketBackend&) = delete;

  void execute(const RoundWork& work) override;

  /// Forked bodies write copy-on-write pages; nothing they do can reach
  /// the host's or a sibling machine's memory.
  [[nodiscard]] bool isolates_machine_memory() const noexcept override {
    return true;
  }

  [[nodiscard]] const char* name() const noexcept override { return "socket"; }

  [[nodiscard]] const Transport& transport() const noexcept override {
    return *transport_;
  }

 private:
  /// Child-side: connect back, send hello, run machines [begin, end)
  /// (run_round_partition), stream results + barrier.  Caller `_exit`s.
  static void run_worker(const RoundWork& work, std::uint32_t slot,
                         std::size_t begin, std::size_t end,
                         const HostPort& coordinator);

  std::shared_ptr<ThreadPool> pool_;
  obs::Recorder* recorder_;
  std::unique_ptr<SocketTransport> transport_;
};

#endif  // defined(__linux__)

}  // namespace mpcsd::mpc
