#include "mc/footprint.h"

#include "os/looper.h"

namespace rchdroid::mc {

void
FootprintRecorder::onMessageSend(Looper &target, std::uint64_t msg_id)
{
    (void)msg_id;
    if (footprint_ != nullptr)
        footprint_->insert(target.name());
}

void
FootprintRecorder::onDispatchBegin(Looper &looper, std::uint64_t msg_id,
                                   const std::string &tag)
{
    (void)msg_id;
    (void)tag;
    if (footprint_ != nullptr)
        footprint_->insert(looper.name());
}

void
FootprintRecorder::onSyncBarrier(const void *scope, const char *label)
{
    (void)scope;
    (void)label;
    // A barrier is global synchronisation: conservatively poison the
    // footprint so the step is treated as dependent with everything.
    if (footprint_ != nullptr)
        footprint_->insert("<barrier>");
}

} // namespace rchdroid::mc
