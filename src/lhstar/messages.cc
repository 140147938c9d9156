#include "lhstar/messages.h"

#include <algorithm>

namespace lhrs {

bool ScanPredicate::Matches(Key key, std::span<const uint8_t> value) const {
  if (has_key_range && (key < key_min || key > key_max)) return false;
  if (custom) return custom(key, value);
  if (contains.empty()) return true;
  return std::search(value.begin(), value.end(), contains.begin(),
                     contains.end()) != value.end();
}

}  // namespace lhrs
