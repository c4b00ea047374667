#include "view/progress_bar.h"

#include <algorithm>
#include <utility>

#include "platform/logging.h"

namespace rchdroid {

ProgressBar::ProgressBar(std::string id) : View(std::move(id))
{
}

void
ProgressBar::setProgress(int progress)
{
    requireAlive("setProgress");
    const int clamped = std::clamp(progress, 0, max_);
    if (clamped == progress_)
        return;
    progress_ = clamped;
    invalidate();
}

void
ProgressBar::setMax(int max)
{
    requireAlive("setMax");
    RCH_ASSERT(max > 0, "max must be positive");
    max_ = max;
    progress_ = std::min(progress_, max_);
    invalidate();
}

void
ProgressBar::applyMigration(View &target) const
{
    auto *peer = dynamic_cast<ProgressBar *>(&target);
    RCH_ASSERT(peer, "Progress migration onto ", target.typeName());
    peer->setMax(max_);
    peer->setProgress(progress_);
}

void
ProgressBar::onSaveState(Bundle &state, bool full) const
{
    // Plain ProgressBar progress is app-driven transient state that a
    // stock restart loses (Table 3 #9's "percentage set by the user");
    // the full snapshot keeps it.
    if (full) {
        state.putInt("progress", progress_);
        state.putInt("max", max_);
    }
}

void
ProgressBar::onRestoreState(const Bundle &state)
{
    max_ = static_cast<int>(state.getInt("max", max_));
    progress_ = static_cast<int>(state.getInt("progress", progress_));
}

} // namespace rchdroid
