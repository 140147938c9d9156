#include "parity/parity_code.h"

#include <algorithm>
#include <charconv>
#include <string>
#include <system_error>
#include <utility>

#include "common/logging.h"
#include "gf/gf256.h"
#include "gf/gf65536.h"
#include "parity/generator.h"
#include "parity/lrc_code.h"
#include "parity/rs_code.h"

namespace lhrs::parity {

std::vector<Bytes> DecodePlan::Decode(
    std::span<const BufferView* const> payloads) const {
  LHRS_CHECK_EQ(payloads.size(), inputs_.size());
  size_t len = 0;
  for (const BufferView* p : payloads) {
    if (p != nullptr) len = std::max(len, p->size());
  }
  len = PaddedLength(len);
  // Pad short inputs once; full-length ones feed the kernel in place.
  std::vector<Bytes> padded_storage;
  std::vector<const uint8_t*> srcs(payloads.size(), nullptr);
  for (size_t t = 0; t < payloads.size(); ++t) {
    const BufferView* p = payloads[t];
    if (p == nullptr || p->empty()) continue;
    if (p->size() == len) {
      srcs[t] = p->data();
    } else {
      padded_storage.push_back(PadTo(*p, len));
      srcs[t] = padded_storage.back().data();
    }
  }
  std::vector<Bytes> out;
  out.reserve(wanted_.size());
  for (size_t w = 0; w < wanted_.size(); ++w) {
    Bytes rec(len, 0);
    if (len != 0) MulAddRow(w, srcs.data(), len, rec.data());
    out.push_back(std::move(rec));
  }
  return out;
}

Result<std::vector<Bytes>> ParityCode::DecodeData(
    const std::vector<std::pair<size_t, BufferView>>& available,
    const std::vector<size_t>& missing_data) const {
  std::vector<uint32_t> columns;
  columns.reserve(available.size());
  for (const auto& [col, payload] : available) {
    columns.push_back(static_cast<uint32_t>(col));
  }
  auto plan = PlanDecode(
      columns, std::vector<uint32_t>(missing_data.begin(), missing_data.end()));
  if (!plan.ok()) return plan.status();
  std::vector<const BufferView*> payloads;
  payloads.reserve((*plan)->inputs().size());
  for (uint32_t col : (*plan)->inputs()) {
    auto it = std::find_if(available.begin(), available.end(),
                           [&](const auto& a) { return a.first == col; });
    payloads.push_back(&it->second);
  }
  return (*plan)->Decode(payloads);
}

std::string CodeSpec::Name() const {
  std::string name = kind == CodeKind::kRs
                         ? "rs"
                         : "lrc" + std::to_string(locality);
  if (progressive) name += "+prog";
  return name;
}

Result<CodeSpec> CodeSpec::Parse(std::string_view name) {
  CodeSpec spec;
  std::string_view rest = name;
  if (rest.size() >= 5 && rest.substr(rest.size() - 5) == "+prog") {
    spec.progressive = true;
    rest = rest.substr(0, rest.size() - 5);
  }
  if (rest == "rs") {
    spec.kind = CodeKind::kRs;
    return spec;
  }
  if (rest.substr(0, 3) == "lrc") {
    spec.kind = CodeKind::kLrc;
    rest = rest.substr(3);
    // from_chars takes digits only and refuses a value past uint32_t
    // instead of wrapping it.
    const char* end = rest.data() + rest.size();
    const auto [stop, error] = std::from_chars(rest.data(), end,
                                               spec.locality);
    if (error != std::errc() || stop != end || spec.locality == 0) {
      return Status::InvalidArgument(
          "LRC code name needs a locality in [1, 2^32), e.g. lrc2: " +
          std::string(name));
    }
    return spec;
  }
  return Status::InvalidArgument("unknown parity code name: " +
                                 std::string(name));
}

namespace {

template <GaloisField F>
Result<std::unique_ptr<ParityCode>> MakeTyped(const CodeSpec& spec,
                                              uint32_t m, uint32_t k) {
  if (m == 0 || k == 0) {
    return Status::InvalidArgument("parity code needs m >= 1 and k >= 1");
  }
  switch (spec.kind) {
    case CodeKind::kRs: {
      auto p = BuildParityMatrix<F>(m, k);
      if (!p.ok()) return p.status();
      return std::unique_ptr<ParityCode>(
          std::make_unique<RsCodeT<F>>(std::move(p).value(), spec));
    }
    case CodeKind::kLrc: {
      auto p = BuildLrcParityMatrix<F>(m, k, spec.locality);
      if (!p.ok()) return p.status();
      return std::unique_ptr<ParityCode>(
          std::make_unique<LrcCodeT<F>>(std::move(p).value(), spec));
    }
  }
  return Status::InvalidArgument("unknown parity code kind");
}

}  // namespace

Result<std::unique_ptr<ParityCode>> MakeParityCode(const CodeSpec& spec,
                                                   uint32_t m, uint32_t k,
                                                   FieldChoice field) {
  return field == FieldChoice::kGf256 ? MakeTyped<GF256>(spec, m, k)
                                      : MakeTyped<GF65536>(spec, m, k);
}

}  // namespace lhrs::parity
