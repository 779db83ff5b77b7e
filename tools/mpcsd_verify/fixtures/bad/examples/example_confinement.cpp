// Fixture: an example program reaching past the library's boundaries.
// The confinement rules cover examples/ as well as src/, and unlike fuzz/
// an example may not reinterpret_cast either: it is library client code.
#include <x86intrin.h>  // mpcsd-expect: conf-intrinsics
#include <netinet/in.h>
#include <sys/mman.h>
#include <sys/socket.h>

#include <cstddef>
#include <cstdint>
#include <vector>

namespace {

constexpr double kRouterNsPerCell = 0.25;  // mpcsd-expect: conf-router-constant

}  // namespace

int main() {
  std::vector<std::uint8_t> bytes(8, 0);
  const auto word = *reinterpret_cast<const std::uint64_t*>(bytes.data());  // mpcsd-expect: conf-reinterpret-cast
  void* page = mmap(nullptr, 4096, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);  // mpcsd-expect: conf-process-primitive
  munmap(page, 4096);  // mpcsd-expect: conf-process-primitive
  const int fd = socket(AF_INET, SOCK_STREAM, 0);  // mpcsd-expect: conf-socket-primitive
  sockaddr_in sa{};
  bind(fd, static_cast<const sockaddr*>(static_cast<const void*>(&sa)),  // mpcsd-expect: conf-socket-primitive
       sizeof(sa));
  const int gfd = ::socket(AF_INET, SOCK_STREAM, 0);  // mpcsd-expect: conf-socket-primitive
  if (::connect(gfd, nullptr, 0) != 0) return 1;  // mpcsd-expect: conf-socket-primitive
  int pair[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) return 1;  // mpcsd-expect: conf-socket-primitive
  return static_cast<int>(word) + static_cast<int>(kRouterNsPerCell);  // mpcsd-expect: conf-router-constant
}
