#include "mc/footprint.h"

#include "os/looper.h"

namespace rchdroid::mc {

void
FootprintRecorder::onMessageSend(Looper &target, std::uint64_t msg_id,
                                 SimTime when, const std::string &tag)
{
    (void)msg_id;
    (void)tag;
    if (footprint_ == nullptr)
        return;
    footprint_->insert(target.name());
    segment_->posts.insert({target.name(), when});
}

void
FootprintRecorder::onDispatchBegin(Looper &looper, std::uint64_t msg_id,
                                   const std::string &tag)
{
    (void)msg_id;
    if (footprint_ == nullptr)
        return;
    footprint_->insert(looper.name());
    segment_->classes.insert(looper.name() + "#" + tag);
}

void
FootprintRecorder::onSyncBarrier(const void *scope, const char *label)
{
    (void)scope;
    (void)label;
    if (footprint_ == nullptr)
        return;
    // A barrier is global synchronisation: conservatively poison the
    // footprint so the step is treated as dependent with everything.
    footprint_->insert("<barrier>");
    segment_->barrier = true;
}

} // namespace rchdroid::mc
