// The socket execution backend: machine bodies in forked workers, results
// back as frames over one unix socket pair per worker.
//
// `SocketBackend` runs a round as: per pool slot, open a
// `socketpair(AF_UNIX, SOCK_STREAM)` and fork one worker (machine bodies
// are C++ closures, so workers run on a copy-on-write snapshot of the
// host's address space).  The worker keeps one end, the coordinator the
// other, so the fd itself names the slot; each worker already knows its
// round and machine range from the fork and streams two frames of the
// protocol in mpc/transport.hpp:
//
//   worker -> kResults machine-result records for [begin, end)
//             (or kError with the body's exception message)
//   worker -> kBarrier {status, result bytes, body wall seconds}
//
// Results and metering are byte-identical to the thread backend (same
// records); only the wire differs.  Every socket and fork syscall in the
// codebase lives in transport_socket.cpp — one reviewable boundary,
// enforced by mpcsd_verify (conf-socket-primitive, conf-process-primitive).
// See docs/BACKENDS.md.
//
// Linux-only (fork + socketpair); `make_backend` refuses the kind
// elsewhere.
#pragma once

#if defined(__linux__)

#include <memory>

#include "common/thread_pool.hpp"
#include "mpc/backend.hpp"
#include "mpc/transport.hpp"
#include "obs/recorder.hpp"

namespace mpcsd::mpc {

/// Execution backend running machine bodies in forked workers that stream
/// their results back over a per-worker unix socket pair.
class SocketBackend final : public ExecutionBackend {
 public:
  SocketBackend(std::shared_ptr<ThreadPool> pool, obs::Recorder* recorder)
      : pool_(std::move(pool)), recorder_(recorder) {}

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
    return transport_;
  }

 private:
  std::shared_ptr<ThreadPool> pool_;
  obs::Recorder* recorder_;
  Transport transport_{"unix"};
};

}  // namespace mpcsd::mpc

#endif  // defined(__linux__)
