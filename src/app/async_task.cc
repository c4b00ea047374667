#include "app/async_task.h"

#include <utility>

#include "app/activity.h"
#include "app/activity_thread.h"
#include "os/looper.h"
#include "platform/logging.h"

namespace rchdroid {

AsyncTask::AsyncTask(ActivityThread &thread, std::shared_ptr<Activity> owner,
                     std::string name)
    : thread_(thread), owner_(std::move(owner)), name_(std::move(name))
{
}

void
AsyncTask::execute(SimDuration background_duration,
                   std::function<void()> on_post_execute, SimDuration ui_cost)
{
    RCH_ASSERT(state_ == TaskState::Pending, "execute() called twice on ",
               name_);
    RCH_ASSERT(background_duration >= 0, "negative background duration");
    state_ = TaskState::Running;
    auto self = shared_from_this();
    thread_.noteAsyncStarted(self);
    // One tracer flow id follows the whole task: flow-start here at the
    // execute site, a step at the worker dispatch (causal_continues), a
    // step at the result post, and the flow-end at onPostExecute.
    const std::uint64_t causal_id = beginTraceFlow(Looper::current(), name_);
    Message work;
    work.callback =
        [self, on_post = std::move(on_post_execute), ui_cost, causal_id] {
            // The background work occupies the worker thread until the
            // cost window closes; the result message is delivered to the
            // UI thread at that moment, like AsyncTask's internal
            // handler message.
            const SimTime done = self->thread_.workerLooper().currentCostEnd();
            self->thread_.postAppCallbackAt(
                done,
                [self, on_post] {
                    if (self->state_ == TaskState::Cancelled) {
                        self->thread_.noteAsyncFinished(self);
                        return;
                    }
                    self->state_ = TaskState::Finished;
                    // onPostExecute runs app logic; if the owning
                    // activity was restarted underneath it, the view
                    // accesses inside throw and the crash guard in
                    // postAppCallbackAt ends the process.
                    on_post();
                    self->thread_.noteAsyncFinished(self);
                },
                ui_cost, self->name_ + ".onPostExecute", causal_id);
        };
    work.when = thread_.workerLooper().now();
    work.cost = background_duration;
    work.tag = name_ + ".doInBackground";
    work.causal_id = causal_id;
    work.causal_continues = true;
    thread_.workerLooper().enqueue(std::move(work));
}

void
AsyncTask::cancel()
{
    if (state_ == TaskState::Pending || state_ == TaskState::Running)
        state_ = TaskState::Cancelled;
}

} // namespace rchdroid
