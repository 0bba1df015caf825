// Seeded-bad fixture: a memcpy/memset into a Page buffer (buf_.data())
// must carry a FINELOG_CHECK bounds assertion within the preceding lines.
// This file is never compiled.

#include <cstring>
#include <string>

class FakePage {
 public:
  void UncheckedWrite(unsigned off, const std::string& data) {
    // No bounds assertion anywhere near: the lint must flag this.
    std::memcpy(buf_.data() + off, data.data(), data.size());  // bad
  }

 private:
  std::string buf_;
};
