// Clean fixture: mirrors src/mpc/transport_socket.cpp, the only TU
// allowed socket primitives and fork (it spawns its connect-back
// workers).  Must produce no findings.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace mpc {

int open_listener() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in sa{};
  bind(fd, static_cast<const sockaddr*>(static_cast<const void*>(&sa)),
       sizeof(sa));
  listen(fd, 16);
  return accept4(fd, nullptr, nullptr, 0);
}

int dial(const sockaddr_in& sa) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  connect(fd, static_cast<const sockaddr*>(static_cast<const void*>(&sa)),
          sizeof(sa));
  return fd;
}

int spawn_worker() { return fork(); }

}  // namespace mpc
