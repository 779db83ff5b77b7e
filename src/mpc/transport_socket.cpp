#include "mpc/transport_socket.hpp"

#if defined(__linux__)

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/io.hpp"
#include "obs/trace.hpp"

namespace mpcsd::mpc {

namespace {

std::string errno_detail(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// The forked child: pool threads did not survive the fork, so the
/// partition runs serially.  Everything the bodies read (inputs, captured
/// driver state) is a copy-on-write snapshot of the host at fork time;
/// everything they produce leaves only through the frames below, on the
/// child's end `fd` of its socket pair.  The caller `_exit`s.
void run_worker(const RoundWork& work, std::size_t begin, std::size_t end,
                int fd) {
  FrameStream stream(fd);
  ByteWriter out;
  const BarrierRecord barrier = run_round_partition(work, begin, end, out);
  (void)stream.send(
      barrier.status == kWorkerOk ? FrameTag::kResults : FrameTag::kError,
      ByteSpan(out.bytes()));
  ByteWriter record;
  encode_barrier(record, barrier);
  (void)stream.send(FrameTag::kBarrier, ByteSpan(record.bytes()));
}

}  // namespace

void SocketBackend::execute(const RoundWork& work) {
  const std::size_t machines = work.machines;
  if (machines == 0) return;
  const std::size_t workers =
      std::clamp<std::size_t>(pool_->worker_count(), 1, machines);

  struct Slot {
    pid_t pid = -1;
    std::size_t begin = 0;
    std::size_t end = 0;
    int fd = -1;  ///< the coordinator's end of this worker's socket pair
    BarrierRecord barrier;
    bool got_barrier = false;
  };
  std::vector<Slot> slots(workers);
  const bool traced = recorder_ != nullptr && recorder_->enabled();
  const std::uint64_t round_start_us = traced ? recorder_->now_us() : 0;

  std::string failure;
  for (std::size_t w = 0; w < workers; ++w) {
    Slot& s = slots[w];
    s.begin = w * machines / workers;
    s.end = (w + 1) * machines / workers;
    int pair[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, pair) != 0) {
      failure = errno_detail("socket backend: socketpair");
      break;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      failure = errno_detail("socket backend: fork");
      io::close_fd(pair[0]);
      io::close_fd(pair[1]);
      break;
    }
    if (pid == 0) {
      // Child: hold exactly one socket (its own end), stream the
      // partition, and _exit — never unwind into the host's destructors.
      io::close_fd(pair[0]);
      for (std::size_t p = 0; p < w; ++p) io::close_fd(slots[p].fd);
      run_worker(work, s.begin, s.end, pair[1]);
      ::_exit(0);
    }
    // Parent: drop the child's end at once, so a dead worker reads as EOF.
    io::close_fd(pair[1]);
    s.pid = pid;
    s.fd = pair[0];
  }

  // Collection: read each worker's results + barrier in slot order (the
  // decode writes by machine index, so arrival order cannot perturb
  // results).  A worker exits once its last frame fits in its socket
  // buffer, so its teardown overlaps the reads of the slots after it.
  TransportCounters& counters = transport_.counters();
  for (Slot& s : slots) {
    if (s.fd < 0 || !failure.empty()) break;
    FrameStream stream(s.fd, &counters);
    try {
      while (auto frame = stream.recv()) {
        if (frame->tag == FrameTag::kResults) {
          ByteReader r(frame->payload);
          decode_partition_results(r, work, s.begin, s.end);
        } else if (frame->tag == FrameTag::kError) {
          ByteReader r(frame->payload);
          failure =
              "machine body failed in worker process: " + r.get_string();
        } else {  // kBarrier: the header decoder admits no other tag
          ByteReader r(frame->payload);
          s.barrier = decode_barrier(r);
          s.got_barrier = true;
          break;
        }
      }
    } catch (const std::exception& e) {
      failure =
          std::string("socket backend: corrupt worker stream: ") + e.what();
    }
    if (!s.got_barrier && failure.empty()) {
      failure = "socket backend: worker for machines [" +
                std::to_string(s.begin) + ", " + std::to_string(s.end) +
                ") died before the round barrier";
    }
    if (s.got_barrier) ++counters.barrier_waits;
  }

  // Reap every child.  Children without a barrier (dead, failing, or
  // blocked writing frames nobody reads after a failure) are killed first
  // so the reap cannot deadlock.
  for (std::size_t w = 0; w < slots.size(); ++w) {
    Slot& s = slots[w];
    io::close_fd(s.fd);
    if (s.pid > 0) {
      if (!s.got_barrier) (void)::kill(s.pid, SIGKILL);
      int wait_status = 0;
      while (::waitpid(s.pid, &wait_status, 0) < 0 && errno == EINTR) {
      }
    }
    if (traced && s.got_barrier) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kSpan;
      ev.name = "backend:worker:" + std::to_string(w);
      ev.category = "backend";
      ev.track = w + 1;  // per-worker tracks, merged into one trace
      ev.ts_us = round_start_us;
      ev.dur_us = static_cast<std::uint64_t>(s.barrier.body_seconds * 1e6);
      ev.args = {{"machines", static_cast<double>(s.end - s.begin)},
                 {"pid", static_cast<double>(s.pid)}};
      recorder_->emit(std::move(ev));
    }
  }

  if (!failure.empty()) throw std::runtime_error(failure);
}

}  // namespace mpcsd::mpc

#endif  // defined(__linux__)
