#include "baselines/lhg/lhg_messages.h"

#include <span>

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace lhrs::lhg {

Bytes ParityRecordG::Serialize() const {
  LHRS_CHECK_EQ(members.size(), lengths.size());
  Bytes out;
  out.reserve(8 + members.size() * 12 + parity.size());
  auto put_u32 = [&out](uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  };
  auto put_u64 = [&out](uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  };
  put_u32(static_cast<uint32_t>(members.size()));
  for (size_t i = 0; i < members.size(); ++i) {
    put_u64(members[i]);
    put_u32(lengths[i]);
  }
  put_u32(static_cast<uint32_t>(parity.size()));
  out.insert(out.end(), parity.begin(), parity.end());
  return out;
}

ParityRecordG ParityRecordG::Deserialize(std::span<const uint8_t> data) {
  ParityRecordG out;
  size_t pos = 0;
  auto get_u32 = [&data, &pos] {
    LHRS_CHECK_LE(pos + 4, data.size());
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= uint32_t{data[pos++]} << (8 * i);
    return v;
  };
  auto get_u64 = [&data, &pos] {
    LHRS_CHECK_LE(pos + 8, data.size());
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t{data[pos++]} << (8 * i);
    return v;
  };
  const uint32_t count = get_u32();
  out.members.reserve(count);
  out.lengths.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    out.members.push_back(get_u64());
    out.lengths.push_back(get_u32());
  }
  const uint32_t parity_len = get_u32();
  LHRS_CHECK_LE(pos + parity_len, data.size());
  out.parity.assign(data.begin() + pos, data.begin() + pos + parity_len);
  return out;
}

int ParityRecordG::FindMember(Key c) const {
  auto it = std::find(members.begin(), members.end(), c);
  return it == members.end() ? -1 : static_cast<int>(it - members.begin());
}

void ParityRecordG::AddMember(Key c, uint32_t length) {
  LHRS_CHECK(!HasMember(c));
  members.push_back(c);
  lengths.push_back(length);
}

void ParityRecordG::RemoveMember(Key c) {
  const int i = FindMember(c);
  LHRS_CHECK_GE(i, 0);
  members.erase(members.begin() + i);
  lengths.erase(lengths.begin() + i);
}

void ParityRecordG::SetLength(Key c, uint32_t length) {
  const int i = FindMember(c);
  LHRS_CHECK_GE(i, 0);
  lengths[i] = length;
}

}  // namespace lhrs::lhg
