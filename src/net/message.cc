#include "net/message.h"

#include "common/logging.h"
#include "net/stats.h"

namespace lhrs {

std::string MessageBody::Describe() const { return MessageKindName(kind()); }

std::unique_ptr<MessageBody> MessageBody::Clone() const {
  LHRS_LOG(Fatal) << "message " << Describe() << " cannot be copied";
  return nullptr;
}

}  // namespace lhrs
