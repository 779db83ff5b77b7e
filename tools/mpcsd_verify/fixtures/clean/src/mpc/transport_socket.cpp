// Clean fixture: mirrors src/mpc/transport_socket.cpp, the only TU
// allowed socket primitives and fork (it forks its workers, one socket
// pair each).  Must produce no findings.
#include <sys/socket.h>
#include <unistd.h>

namespace mpc {

int spawn_worker(int* parent_end) {
  int pair[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, pair) != 0) {
    return -1;
  }
  const int pid = ::fork();
  if (pid == 0) {
    close(pair[0]);
    _exit(0);
  }
  close(pair[1]);
  *parent_end = pair[0];
  return pid;
}

}  // namespace mpc
