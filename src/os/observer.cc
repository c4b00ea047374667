#include "os/observer.h"

namespace rchdroid::obs {

namespace detail {
thread_local Subscription *g_head = nullptr;
} // namespace detail

namespace {

RCHDROID_NO_SANITIZE_NULL void
setHead(Subscription *node)
{
    detail::g_head = node;
}

} // namespace

Subscription::Subscription(Observer &observer)
    : observer_(observer), next_(head())
{
    if (next_ != nullptr)
        next_->prev_ = this;
    setHead(this);
}

Subscription::~Subscription()
{
    if (prev_ != nullptr)
        prev_->next_ = next_;
    else
        setHead(next_);
    if (next_ != nullptr)
        next_->prev_ = prev_;
}

} // namespace rchdroid::obs
