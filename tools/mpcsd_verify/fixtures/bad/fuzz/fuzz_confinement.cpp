// Fixture: a fuzz harness reaching past the library's boundaries.  The
// confinement rules cover fuzz/ as well as src/: intrinsics headers,
// process and socket primitives and kRouter* constants stay behind their
// src/ boundaries.  reinterpret_cast is allowed in fuzz/ (see the clean
// fixture), so it is not exercised here.
#include <immintrin.h>  // mpcsd-expect: conf-intrinsics
#include <avx512vlintrin.h>  // mpcsd-expect: conf-intrinsics
#include <netinet/in.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>

namespace {

constexpr std::size_t kRouterProbeBudget = 64;  // mpcsd-expect: conf-router-constant

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size == 0 || size > kRouterProbeBudget) return 0;  // mpcsd-expect: conf-router-constant
  if (fork() == 0) return 0;  // mpcsd-expect: conf-process-primitive
  if (vfork() == 0) return 0;  // mpcsd-expect: conf-process-primitive
  void* page = mmap(nullptr, size, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);  // mpcsd-expect: conf-process-primitive
  const int fd = socket(AF_INET, SOCK_STREAM, 0);  // mpcsd-expect: conf-socket-primitive
  listen(fd, 1);  // mpcsd-expect: conf-socket-primitive
  connect(fd, nullptr, 0);  // mpcsd-expect: conf-socket-primitive
  const int gfd = ::socket(AF_INET, SOCK_STREAM, 0);  // mpcsd-expect: conf-socket-primitive
  if (::connect(gfd, nullptr, 0) != 0) return 0;  // mpcsd-expect: conf-socket-primitive
  int pair[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) return 0;  // mpcsd-expect: conf-socket-primitive
  return page == nullptr ? 0 : data[0];
}
