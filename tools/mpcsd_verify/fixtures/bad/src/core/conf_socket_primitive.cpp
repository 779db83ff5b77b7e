// Fixture: socket primitives outside transport_socket.cpp.  Network
// bytes cross the machine boundary only through the socket transport,
// so every raw socket syscall elsewhere is a framing bypass.
// The globally qualified ::socket / ::connect / ::socketpair spelling
// fires too; std::bind below is the classic homonym and must NOT fire.
#include <netinet/in.h>
#include <sys/socket.h>

#include <functional>

namespace mpcsd {

inline int add(int a, int b) { return a + b; }

int accept_one(int fd) {
  return ::accept4(fd, nullptr, nullptr, 0);  // mpcsd-expect: conf-socket-primitive
}

int open_side_channel() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);  // mpcsd-expect: conf-socket-primitive
  sockaddr_in sa{};
  bind(fd, static_cast<const sockaddr*>(static_cast<const void*>(&sa)),  // mpcsd-expect: conf-socket-primitive
       sizeof(sa));
  listen(fd, 1);  // mpcsd-expect: conf-socket-primitive
  connect(fd, static_cast<const sockaddr*>(static_cast<const void*>(&sa)),  // mpcsd-expect: conf-socket-primitive
          sizeof(sa));
  const int gfd = ::socket(AF_INET, SOCK_STREAM, 0);  // mpcsd-expect: conf-socket-primitive
  if (::connect(gfd, nullptr, 0) != 0) return -1;  // mpcsd-expect: conf-socket-primitive
  int pair[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) return -1;  // mpcsd-expect: conf-socket-primitive
  auto later = std::bind(add, 1, 2);  // homonym: no finding
  return fd + gfd + later();
}

}  // namespace mpcsd
