#include "sdds/facade.h"

#include <utility>

namespace lhrs::sdds {

Result<OpOutcome> SddsFile::RunSync(size_t session, OpType op, Key key,
                                    Bytes value) {
  const OpToken token = Submit(session, op, key, std::move(value));
  network().RunUntilIdle();
  return Take(token);  // kInternal if the op never completed.
}

Status SddsFile::Insert(Key key, Bytes value) {
  LHRS_ASSIGN_OR_RETURN(
      OpOutcome out, RunSync(0, OpType::kInsert, key, std::move(value)));
  return out.status;
}

Result<Bytes> SddsFile::Search(Key key) {
  LHRS_ASSIGN_OR_RETURN(OpOutcome out, RunSync(0, OpType::kSearch, key, {}));
  if (!out.status.ok()) return out.status;
  return out.value.ToBytes();
}

Status SddsFile::Update(Key key, Bytes value) {
  LHRS_ASSIGN_OR_RETURN(
      OpOutcome out, RunSync(0, OpType::kUpdate, key, std::move(value)));
  return out.status;
}

Status SddsFile::Delete(Key key) {
  LHRS_ASSIGN_OR_RETURN(OpOutcome out, RunSync(0, OpType::kDelete, key, {}));
  return out.status;
}

Result<std::vector<WireRecord>> SddsFile::Scan(ScanPredicate /*predicate*/,
                                               bool /*deterministic*/) {
  return Status::InvalidArgument("scan not supported by this scheme");
}

}  // namespace lhrs::sdds
