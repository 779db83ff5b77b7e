// Fixture: process/shared-memory primitive outside transport_socket.cpp.
// Isolation machinery lives behind the backend boundary only.
#include <unistd.h>

namespace mpcsd {

int spawn_helper() {
  return fork();  // mpcsd-expect: conf-process-primitive
}

}  // namespace mpcsd
