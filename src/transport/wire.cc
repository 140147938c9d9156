#include "transport/wire.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "lhrs/messages.h"
#include "lhstar/messages.h"

namespace lhrs::transport {

// --- WireWriter ------------------------------------------------------------

void WireWriter::Raw(const void* data, size_t n) {
  if (n == 0) return;
  if (pieces_.empty() || pieces_.back().is_view) {
    pieces_.emplace_back();
  }
  Bytes& run = pieces_.back().owned;
  const size_t old = run.size();
  run.resize(old + n);
  std::memcpy(run.data() + old, data, n);
  size_ += n;
}

void WireWriter::U16(uint16_t v) {
  uint8_t b[2] = {static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8)};
  Raw(b, sizeof(b));
}

void WireWriter::U32(uint32_t v) {
  uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
  Raw(b, sizeof(b));
}

void WireWriter::U64(uint64_t v) {
  uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
  Raw(b, sizeof(b));
}

void WireWriter::Pad(size_t n) {
  static constexpr uint8_t kZeros[16] = {};
  while (n > 0) {
    const size_t step = std::min(n, sizeof(kZeros));
    Raw(kZeros, step);
    n -= step;
  }
}

void WireWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  Raw(s.data(), s.size());
}

void WireWriter::BytesField(const Bytes& b) {
  U32(static_cast<uint32_t>(b.size()));
  Raw(b.data(), b.size());
}

void WireWriter::View(const BufferView& v) {
  U32(static_cast<uint32_t>(v.size()));
  if (v.empty()) return;
  Piece piece;
  piece.view = v;
  piece.is_view = true;
  pieces_.push_back(std::move(piece));
  size_ += v.size();
}

std::vector<WireWriter::Chunk> WireWriter::Chunks() const {
  std::vector<Chunk> chunks;
  chunks.reserve(pieces_.size());
  for (const Piece& p : pieces_) {
    if (p.is_view) {
      chunks.push_back(Chunk{p.view.data(), p.view.size()});
    } else if (!p.owned.empty()) {
      chunks.push_back(Chunk{p.owned.data(), p.owned.size()});
    }
  }
  return chunks;
}

Bytes WireWriter::Flatten() const {
  Bytes out;
  out.reserve(size_);
  for (const Chunk& c : Chunks()) {
    out.insert(out.end(), c.data, c.data + c.size);
  }
  return out;
}

// --- WireReader ------------------------------------------------------------

bool WireReader::Take(size_t n, const uint8_t** out) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool WireReader::U8(uint8_t* v) {
  const uint8_t* p;
  if (!Take(1, &p)) return false;
  *v = p[0];
  return true;
}

bool WireReader::U16(uint16_t* v) {
  const uint8_t* p;
  if (!Take(2, &p)) return false;
  *v = static_cast<uint16_t>(p[0] | (p[1] << 8));
  return true;
}

bool WireReader::U32(uint32_t* v) {
  const uint8_t* p;
  if (!Take(4, &p)) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return true;
}

bool WireReader::U64(uint64_t* v) {
  const uint8_t* p;
  if (!Take(8, &p)) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return true;
}

bool WireReader::I32(int32_t* v) {
  uint32_t u;
  if (!U32(&u)) return false;
  *v = static_cast<int32_t>(u);
  return true;
}

bool WireReader::Bool(bool* v) {
  uint8_t u;
  if (!U8(&u)) return false;
  if (u > 1) {  // Reject non-canonical booleans (corrupted frames).
    ok_ = false;
    return false;
  }
  *v = u != 0;
  return true;
}

bool WireReader::Skip(size_t n) {
  const uint8_t* p;
  return Take(n, &p);
}

bool WireReader::Str(std::string* s) {
  uint32_t n;
  if (!U32(&n)) return false;
  const uint8_t* p;
  if (!Take(n, &p)) return false;
  s->assign(reinterpret_cast<const char*>(p), n);
  return true;
}

bool WireReader::BytesField(Bytes* b) {
  uint32_t n;
  if (!U32(&n)) return false;
  const uint8_t* p;
  if (!Take(n, &p)) return false;
  b->assign(p, p + n);
  return true;
}

bool WireReader::View(BufferView* v) {
  uint32_t n;
  if (!U32(&n)) return false;
  if (data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  // Zero-copy: the decoded body shares the receive buffer.
  *v = data_.Slice(pos_, n);
  pos_ += n;
  return true;
}

// --- Scan predicate ---------------------------------------------------------

bool PutField(WireWriter& w, const ScanPredicate& p) {
  // A predicate carrying native selection code cannot travel; scans with
  // custom predicates stay a simulator-only feature.
  if (p.custom != nullptr) return false;
  // Predicate wire version, carved out of what used to be zero padding:
  // 0 = contains-only (byte-identical to the legacy frame), 1 = an
  // inclusive key range appended after the legacy fields.
  w.U8(p.has_key_range ? 1 : 0);
  w.Pad(6);
  w.BytesField(p.contains);
  w.Pad(12);
  if (p.has_key_range) {
    w.U64(p.key_min);
    w.U64(p.key_max);
  }
  return true;
}

bool GetField(WireReader& r, ScanPredicate* p) {
  uint8_t version = 0;
  if (!r.U8(&version) || !r.Skip(6) || !r.BytesField(&p->contains) ||
      !r.Skip(12)) {
    return false;
  }
  if (version >= 1) {
    p->has_key_range = true;
    if (!r.U64(&p->key_min) || !r.U64(&p->key_max)) return false;
  }
  // A newer sender may append predicate fields this build does not know;
  // the predicate ends its message, so the known prefix decodes and the
  // remainder is ignored.
  if (version > 1) return r.Skip(r.remaining());
  return true;
}

// --- Registry --------------------------------------------------------------

namespace {

template <class... Ms>
void AddCodecs(std::map<int, WireCodec>& registry, MessageList<Ms...>) {
  (registry.emplace(Ms::kKind, WireCodecFor<Ms>()), ...);
}

const std::map<int, WireCodec>& Registry() {
  static const auto* registry = [] {
    auto* codecs = new std::map<int, WireCodec>();
    AddCodecs(*codecs, LhStarMessages{});
    AddCodecs(*codecs, LhrsMessages{});
    return codecs;
  }();
  return *registry;
}

}  // namespace

const WireCodec* FindWireCodec(int kind) {
  auto it = Registry().find(kind);
  return it == Registry().end() ? nullptr : &it->second;
}

std::vector<int> RegisteredWireKinds() {
  std::vector<int> kinds;
  kinds.reserve(Registry().size());
  for (const auto& [kind, codec] : Registry()) kinds.push_back(kind);
  return kinds;
}

bool SerializeBody(const MessageBody& body, WireWriter& w) {
  const WireCodec* codec = FindWireCodec(body.kind());
  if (codec == nullptr) return false;
  return codec->serialize(body, w);
}

std::unique_ptr<MessageBody> DeserializeWith(const WireCodec& codec,
                                             BufferView payload) {
  WireReader reader(std::move(payload));
  std::unique_ptr<MessageBody> body = codec.deserialize(reader);
  if (body == nullptr || !reader.AtEnd()) return nullptr;
  return body;
}

std::unique_ptr<MessageBody> DeserializeBody(int kind, BufferView payload) {
  const WireCodec* codec = FindWireCodec(kind);
  if (codec == nullptr) return nullptr;
  return DeserializeWith(*codec, std::move(payload));
}

}  // namespace lhrs::transport
