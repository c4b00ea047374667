/**
 * @file
 * The observer chain: delivery order, unlinking from any position, and
 * per-thread isolation.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "os/observer.h"

namespace rchdroid {
namespace {

/** Appends its name to a shared log on every onObjectGone. */
class Named final : public obs::Observer
{
  public:
    Named(std::string name, std::vector<std::string> &log)
        : name_(std::move(name)), log_(log)
    {
    }

    void onObjectGone(const void *object) override
    {
        (void)object;
        log_.push_back(name_);
    }

  private:
    std::string name_;
    std::vector<std::string> &log_;
};

std::vector<std::string>
deliver(std::vector<std::string> &log)
{
    log.clear();
    obs::notify(&obs::Observer::onObjectGone, &log);
    return log;
}

using Names = std::vector<std::string>;

TEST(ObserverChain, EmptyChainDeliversNothing)
{
    EXPECT_EQ(obs::head(), nullptr);
    std::vector<std::string> log;
    EXPECT_TRUE(deliver(log).empty());
}

TEST(ObserverChain, NewestSubscriberHearsFirst)
{
    std::vector<std::string> log;
    Named a("a", log), b("b", log), c("c", log);
    obs::Subscription sa(a);
    obs::Subscription sb(b);
    obs::Subscription sc(c);
    EXPECT_EQ(deliver(log), (Names{"c", "b", "a"}));
}

TEST(ObserverChain, SubscriptionsEndInAnyOrder)
{
    std::vector<std::string> log;
    Named a("a", log), b("b", log), c("c", log), d("d", log);
    auto sa = std::make_unique<obs::Subscription>(a);
    auto sb = std::make_unique<obs::Subscription>(b);
    auto sc = std::make_unique<obs::Subscription>(c);
    auto sd = std::make_unique<obs::Subscription>(d);

    sb.reset(); // from the middle
    EXPECT_EQ(deliver(log), (Names{"d", "c", "a"}));
    sa.reset(); // the oldest
    EXPECT_EQ(deliver(log), (Names{"d", "c"}));
    sd.reset(); // the head
    EXPECT_EQ(deliver(log), (Names{"c"}));
    sb = std::make_unique<obs::Subscription>(b);
    EXPECT_EQ(deliver(log), (Names{"b", "c"}));
    sc.reset();
    sb.reset();
    EXPECT_EQ(obs::head(), nullptr);
}

TEST(ObserverChain, EachThreadHasItsOwnChain)
{
    std::vector<std::string> log;
    Named a("a", log);
    obs::Subscription sa(a);
    bool other_thread_empty = false;
    std::thread([&] { other_thread_empty = obs::head() == nullptr; }).join();
    EXPECT_TRUE(other_thread_empty);
    EXPECT_EQ(deliver(log), (Names{"a"}));
}

} // namespace
} // namespace rchdroid
