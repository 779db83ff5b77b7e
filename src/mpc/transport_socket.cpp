#include "mpc/transport_socket.hpp"

#include <stdexcept>
#include <string>

namespace mpcsd::mpc {

HostPort parse_host_port(std::string_view text) {
  while (!text.empty() && text.front() == ' ') text.remove_prefix(1);
  while (!text.empty() && text.back() == ' ') text.remove_suffix(1);
  const std::size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == text.size() ||
      text.find(',') != std::string_view::npos) {
    throw std::invalid_argument("expected host:port, got '" +
                                std::string(text) + "'");
  }
  std::uint32_t port = 0;
  for (const char c : text.substr(colon + 1)) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("non-numeric port in '" +
                                  std::string(text) + "'");
    }
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
    if (port > 65535) {
      throw std::invalid_argument("port out of range in '" +
                                  std::string(text) + "'");
    }
  }
  return HostPort{std::string(text.substr(0, colon)),
                  static_cast<std::uint16_t>(port)};
}

}  // namespace mpcsd::mpc

#if defined(__linux__)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/env.hpp"
#include "common/io.hpp"
#include "obs/trace.hpp"

namespace mpcsd::mpc {

namespace {

/// Covers the widest pool fan-out.
constexpr int kListenBacklog = 64;
/// Poll slice between dead-child checks while waiting for connect-backs.
constexpr int kAcceptPollMs = 200;
/// Total wait for a forked worker to connect before the round fails.
constexpr int kAcceptTimeoutMs = 30000;
/// Child exit code (diagnostic; failures are detected via the stream).
constexpr int kChildConnectFailed = 3;

std::string errno_detail(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// The sockaddr aliasing every socket call requires, via void* so the
/// pointer-punning casts stay confined to the byte-serialization layer.
sockaddr* as_sockaddr(sockaddr_in& sa) {
  return static_cast<sockaddr*>(static_cast<void*>(&sa));
}

/// Numeric IPv4 only (plus the "localhost" spelling) — the transport is
/// localhost-first; DNS stays out of the round path.
bool resolve_ipv4(const std::string& host, in_addr* out) {
  const char* name =
      (host.empty() || host == "localhost") ? "127.0.0.1" : host.c_str();
  return ::inet_pton(AF_INET, name, out) == 1;
}

void set_nodelay(int fd) {
  // Frames are request/response sized; Nagle would add round-trip lag.
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// MPCSD_SOCKET_LISTEN override for the coordinator's listen address;
/// malformed values warn once and fall back to an ephemeral loopback port.
HostPort listen_address_from_env() {
  const HostPort fallback{"127.0.0.1", 0};
  const char* env = std::getenv("MPCSD_SOCKET_LISTEN");
  if (env == nullptr || *env == '\0') return fallback;
  try {
    return parse_host_port(env);
  } catch (const std::invalid_argument&) {
    static std::atomic<bool> warned{false};
    warn_env_once(warned, "MPCSD_SOCKET_LISTEN", env, "host:port",
                  "listening on 127.0.0.1 with an ephemeral port");
    return fallback;
  }
}

}  // namespace

SocketTransport::SocketTransport(HostPort listen) : bound_(std::move(listen)) {}

SocketTransport::~SocketTransport() { io::close_fd(listen_fd_); }

void SocketTransport::ensure_listening() {
  if (listen_fd_ >= 0) return;
  in_addr addr{};
  if (!resolve_ipv4(bound_.host, &addr)) {
    throw std::runtime_error(
        "socket transport: cannot resolve listen host '" + bound_.host +
        "' (numeric IPv4 or 'localhost')");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error(errno_detail("socket transport: socket"));
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr = addr;
  sa.sin_port = htons(bound_.port);
  if (::bind(fd, as_sockaddr(sa), sizeof(sa)) != 0) {
    const std::string detail = errno_detail("socket transport: bind");
    io::close_fd(fd);
    throw std::runtime_error(detail + " (" + bound_.host + ":" +
                             std::to_string(bound_.port) + ")");
  }
  if (::listen(fd, kListenBacklog) != 0) {
    const std::string detail = errno_detail("socket transport: listen");
    io::close_fd(fd);
    throw std::runtime_error(detail);
  }
  socklen_t len = sizeof(sa);
  if (::getsockname(fd, as_sockaddr(sa), &len) == 0) {
    bound_.port = ntohs(sa.sin_port);  // resolve an ephemeral bind
  }
  listen_fd_ = fd;
}

int SocketTransport::accept_connection(int timeout_ms) {
  ensure_listening();
  pollfd p{listen_fd_, POLLIN, 0};
  int rc = 0;
  while ((rc = ::poll(&p, 1, timeout_ms)) < 0 && errno == EINTR) {
  }
  if (rc < 0) throw std::runtime_error(errno_detail("socket transport: poll"));
  if (rc == 0) return -1;
  int fd = -1;
  while ((fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC)) < 0 &&
         errno == EINTR) {
  }
  if (fd < 0) throw std::runtime_error(errno_detail("socket transport: accept"));
  set_nodelay(fd);
  return fd;
}

int SocketTransport::connect_to(const HostPort& target) {
  in_addr addr{};
  if (!resolve_ipv4(target.host, &addr)) return -1;
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr = addr;
  sa.sin_port = htons(target.port);
  int rc = ::connect(fd, as_sockaddr(sa), sizeof(sa));
  if (rc < 0 && errno == EINTR) {
    // The connect continues in the background after EINTR; wait for it and
    // read the outcome — re-calling connect() would report EALREADY.
    pollfd p{fd, POLLOUT, 0};
    while (::poll(&p, 1, -1) < 0 && errno == EINTR) {
    }
    int err = 0;
    socklen_t elen = sizeof(err);
    rc = (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &elen) == 0 && err == 0)
             ? 0
             : -1;
  }
  if (rc < 0) {
    io::close_fd(fd);
    return -1;
  }
  set_nodelay(fd);
  return fd;
}

SocketBackend::SocketBackend(std::shared_ptr<ThreadPool> pool,
                             obs::Recorder* recorder)
    : pool_(std::move(pool)),
      recorder_(recorder),
      transport_(std::make_unique<SocketTransport>(listen_address_from_env())) {
}

void SocketBackend::run_worker(const RoundWork& work, std::uint32_t slot,
                               std::size_t begin, std::size_t end,
                               const HostPort& coordinator) {
  // The forked child: pool threads did not survive the fork, so the
  // partition runs serially.  Everything the bodies read (inputs, captured
  // driver state) is a copy-on-write snapshot of the host at fork time;
  // everything they produce leaves only through the frames below.
  int fd = SocketTransport::connect_to(coordinator);
  if (fd < 0) ::_exit(kChildConnectFailed);
  FrameStream stream(fd);
  ByteWriter hello;
  encode_hello(hello, HelloRecord{slot, work.round});
  if (!stream.send(FrameTag::kHello, ByteSpan(hello.bytes()))) {
    ::_exit(kChildConnectFailed);
  }
  ByteWriter out;
  const BarrierRecord barrier = run_round_partition(work, begin, end, out);
  (void)stream.send(
      barrier.status == kWorkerOk ? FrameTag::kResults : FrameTag::kError,
      ByteSpan(out.bytes()));
  ByteWriter record;
  encode_barrier(record, barrier);
  (void)stream.send(FrameTag::kBarrier, ByteSpan(record.bytes()));
  io::close_fd(fd);
}

void SocketBackend::execute(const RoundWork& work) {
  const std::size_t machines = work.machines;
  if (machines == 0) return;
  transport_->ensure_listening();
  const std::size_t workers =
      std::clamp<std::size_t>(pool_->worker_count(), 1, machines);
  // Children connect back over loopback even when the coordinator listens
  // on a wildcard address.
  HostPort coordinator = transport_->address();
  if (coordinator.host == "0.0.0.0") coordinator.host = "127.0.0.1";

  struct Slot {
    pid_t pid = -1;
    std::size_t begin = 0;
    std::size_t end = 0;
    int fd = -1;
    std::unique_ptr<FrameStream> stream;
  };
  std::vector<Slot> slots(workers);
  const bool traced = recorder_ != nullptr && recorder_->enabled();
  const std::uint64_t round_start_us = traced ? recorder_->now_us() : 0;

  std::string failure;
  std::size_t forked = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    Slot& s = slots[w];
    s.begin = w * machines / workers;
    s.end = (w + 1) * machines / workers;
    const pid_t pid = ::fork();
    if (pid < 0) {
      failure = errno_detail("socket backend: fork");
      break;
    }
    if (pid == 0) {
      // Child: connect back, stream the partition, and _exit — never
      // unwind into the host's destructors.
      run_worker(work, static_cast<std::uint32_t>(w), s.begin, s.end,
                 coordinator);
      ::_exit(0);
    }
    s.pid = pid;
    ++forked;
  }

  // Connect-back phase: accept until every forked worker has checked in.
  TransportCounters& counters = transport_->counters();
  std::size_t connected = 0;
  int waited_ms = 0;
  while (failure.empty() && connected < forked) {
    int fd = -1;
    try {
      fd = transport_->accept_connection(kAcceptPollMs);
    } catch (const std::exception& e) {
      failure = e.what();
      break;
    }
    if (fd < 0) {
      waited_ms += kAcceptPollMs;
      for (Slot& s : slots) {
        if (s.pid > 0 && s.stream == nullptr) {
          int wait_status = 0;
          if (::waitpid(s.pid, &wait_status, WNOHANG) == s.pid) {
            s.pid = -1;  // reaped
            failure = "socket backend: worker for machines [" +
                      std::to_string(s.begin) + ", " + std::to_string(s.end) +
                      ") died before connecting";
            break;
          }
        }
      }
      if (failure.empty() && waited_ms >= kAcceptTimeoutMs) {
        failure = "socket backend: timed out waiting for workers to connect";
      }
      continue;
    }
    auto stream = std::make_unique<FrameStream>(fd, &counters);
    try {
      const auto frame = stream->recv();
      if (!frame.has_value() || frame->tag != FrameTag::kHello) {
        io::close_fd(fd);
        continue;
      }
      ByteReader r(frame->payload);
      const HelloRecord hello = decode_hello(r);
      if (hello.slot >= workers || hello.round != work.round ||
          slots[hello.slot].stream != nullptr) {
        io::close_fd(fd);
        failure = "socket backend: unexpected hello (slot " +
                  std::to_string(hello.slot) + ", round " +
                  std::to_string(hello.round) + ")";
        continue;
      }
      Slot& s = slots[hello.slot];
      s.fd = fd;
      s.stream = std::move(stream);
      ++connected;
    } catch (const std::exception& e) {
      io::close_fd(fd);
      failure = std::string("socket backend: handshake failed: ") + e.what();
    }
  }

  // Collection: read each worker's results + barrier in slot order (the
  // decode writes by machine index, so arrival order cannot perturb
  // results), then reap.  On a failure, children without a barrier (still
  // connecting, or blocked writing frames nobody reads) are killed so the
  // reap below cannot deadlock.
  for (std::size_t w = 0; w < slots.size(); ++w) {
    Slot& s = slots[w];
    BarrierRecord barrier;
    bool got_barrier = false;
    if (s.stream != nullptr && failure.empty()) {
      try {
        while (auto frame = s.stream->recv()) {
          if (frame->tag == FrameTag::kResults) {
            ByteReader r(frame->payload);
            decode_partition_results(r, work, s.begin, s.end);
          } else if (frame->tag == FrameTag::kError) {
            ByteReader r(frame->payload);
            failure = "machine body failed in worker process: " +
                      r.get_string();
          } else if (frame->tag == FrameTag::kBarrier) {
            ByteReader r(frame->payload);
            barrier = decode_barrier(r);
            got_barrier = true;
            break;
          } else {
            failure = "socket backend: unexpected frame tag " +
                      std::to_string(static_cast<unsigned>(frame->tag)) +
                      " from worker " + std::to_string(w);
            break;
          }
        }
      } catch (const std::exception& e) {
        failure = std::string("socket backend: corrupt worker stream: ") +
                  e.what();
      }
      if (!got_barrier && failure.empty()) {
        failure = "socket backend: worker for machines [" +
                  std::to_string(s.begin) + ", " + std::to_string(s.end) +
                  ") died before the round barrier";
      }
      if (got_barrier) ++counters.barrier_waits;
    }
    io::close_fd(s.fd);
    s.stream.reset();
    if (s.pid > 0) {
      if (!failure.empty() && !got_barrier) (void)::kill(s.pid, SIGKILL);
      int wait_status = 0;
      while (::waitpid(s.pid, &wait_status, 0) < 0 && errno == EINTR) {
      }
    }
    if (traced && got_barrier) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kSpan;
      ev.name = "backend:worker:" + std::to_string(w);
      ev.category = "backend";
      ev.track = w + 1;  // per-worker tracks, merged into one trace
      ev.ts_us = round_start_us;
      ev.dur_us = static_cast<std::uint64_t>(barrier.body_seconds * 1e6);
      ev.args = {{"machines", static_cast<double>(s.end - s.begin)},
                 {"pid", static_cast<double>(s.pid)}};
      recorder_->emit(std::move(ev));
    }
  }

  if (!failure.empty()) throw std::runtime_error(failure);
}

}  // namespace mpcsd::mpc

#endif  // defined(__linux__)
