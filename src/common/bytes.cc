#include "common/bytes.h"

#include <algorithm>

namespace lhrs {

Bytes BytesFromString(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string ToHex(std::span<const uint8_t> data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

void XorAssignPadded(Bytes& dst, std::span<const uint8_t> src) {
  // One pass: XOR the overlap word-wise, then append src's tail directly —
  // zero-filling the extension first and XORing over it again would touch
  // the tail bytes twice.
  const size_t common = std::min(dst.size(), src.size());
  XorBuffer(dst.data(), src.data(), common);
  if (src.size() > common) {
    dst.insert(dst.end(), src.begin() + common, src.end());
  }
}

Bytes PadTo(std::span<const uint8_t> b, size_t n) {
  Bytes out(b.begin(), b.begin() + std::min(b.size(), n));
  out.resize(n, 0);
  return out;
}

bool AllZero(std::span<const uint8_t> b) {
  // OR-reduce without an early exit, so the loop vectorizes.
  uint8_t acc = 0;
  for (uint8_t x : b) acc |= x;
  return acc == 0;
}

}  // namespace lhrs
