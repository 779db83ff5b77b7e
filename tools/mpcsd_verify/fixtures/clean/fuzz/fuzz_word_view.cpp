// Clean fixture: fuzz harnesses may reinterpret_cast (allow_reinterpret_cast
// permits fuzz/): they view raw fuzzer input as the types under test.
#include <cstddef>
#include <cstdint>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  const char* text = reinterpret_cast<const char*>(data);
  return text[0] == '\n' ? 1 : 0;
}
