#include "mc/independence.h"

namespace rchdroid::mc {

sa::IndependenceSpec
independenceForApp(const apps::AppSpec &spec, sa::HandlingModel handling)
{
    sa::IndependenceSpec independence; // open world (injections)
    const std::string process = spec.process();
    const bool has_task = spec.async.trigger != apps::AsyncTrigger::Never;
    if (has_task)
        independence.looper_process[process + ".async"] = process;
    // The task's completion and RCHDroid's GC tick run on the main
    // looper.
    if (has_task || handling == sa::HandlingModel::RchDroid)
        independence.looper_process[process + ".main"] = process;
    return independence;
}

} // namespace rchdroid::mc
