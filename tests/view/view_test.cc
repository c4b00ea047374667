/**
 * @file
 * View base class: invalidation, host notification, RCHDroid state
 * flags, destruction semantics (the crash mechanics).
 */
#include <gtest/gtest.h>

#include <vector>

#include "view/text_view.h"
#include "view/view.h"
#include "view/view_group.h"

namespace rchdroid {
namespace {

class RecordingHost final : public ViewTreeHost
{
  public:
    void onViewInvalidated(View &view) override
    { invalidated.push_back(&view); }
    bool isShadowTree() const override { return shadow; }
    std::string hostName() const override { return "test-host"; }

    std::vector<View *> invalidated;
    bool shadow = false;
};

TEST(View, InvalidateMarksDirtyAndNotifiesHost)
{
    RecordingHost host;
    View view("v");
    view.attachToHost(&host);
    EXPECT_FALSE(view.isDirty());
    view.invalidate();
    EXPECT_TRUE(view.isDirty());
    ASSERT_EQ(host.invalidated.size(), 1u);
    EXPECT_EQ(host.invalidated[0], &view);
    EXPECT_EQ(view.invalidateCount(), 1u);
    view.clearDirty();
    EXPECT_FALSE(view.isDirty());
}

TEST(View, InvalidateWithoutHostIsSafe)
{
    View view("v");
    view.invalidate();
    EXPECT_TRUE(view.isDirty());
}

TEST(View, ShadowSunnyFlags)
{
    View view("v");
    EXPECT_FALSE(view.isShadow());
    EXPECT_FALSE(view.isSunny());
    view.setShadow(true);
    view.setSunny(true);
    EXPECT_TRUE(view.isShadow());
    EXPECT_TRUE(view.isSunny());
}

TEST(View, SunnyPeerWiring)
{
    View shadow("a"), sunny("a");
    EXPECT_EQ(shadow.sunnyPeer(), nullptr);
    shadow.setSunnyPeer(&sunny);
    EXPECT_EQ(shadow.sunnyPeer(), &sunny);
}

TEST(View, MarkDestroyedPropagatesAndClearsWiring)
{
    RecordingHost host;
    auto group = std::make_unique<FrameLayout>("root");
    auto &child = group->addChild(std::make_unique<TextView>("t"));
    group->attachToHost(&host);
    View peer("p");
    child.setSunnyPeer(&peer);

    group->markDestroyed();
    EXPECT_TRUE(group->isDestroyed());
    EXPECT_TRUE(child.isDestroyed());
    EXPECT_EQ(child.sunnyPeer(), nullptr);
}

TEST(View, MutatingDestroyedViewThrowsNullPointer)
{
    auto text = std::make_unique<TextView>("t");
    text->markDestroyed();
    try {
        text->setText("boom");
        FAIL() << "expected UiException";
    } catch (const UiException &e) {
        EXPECT_EQ(e.kind(), UiFailureKind::NullPointer);
        EXPECT_NE(std::string(e.what()).find("setText"), std::string::npos);
    }
}

TEST(View, InvalidateOnDestroyedViewThrows)
{
    View view("v");
    view.markDestroyed();
    EXPECT_THROW(view.invalidate(), UiException);
}

TEST(View, ReadingDestroyedViewIsAllowed)
{
    // Java references can still *read* a dead view; only UI mutation
    // blows up. The memory accountant relies on this.
    TextView text("t");
    text.setText("kept");
    text.markDestroyed();
    EXPECT_EQ(text.text(), "kept");
    EXPECT_GT(text.memoryFootprintBytes(), 0u);
}

TEST(View, FindViewByIdSelf)
{
    View view("me");
    EXPECT_EQ(view.findViewById("me"), &view);
    EXPECT_EQ(view.findViewById("other"), nullptr);
}

TEST(View, FrameAssignment)
{
    View view("v");
    view.setFrame(10, 20, 300, 400);
    EXPECT_EQ(view.frameLeft(), 10);
    EXPECT_EQ(view.frameTop(), 20);
    EXPECT_EQ(view.frameWidth(), 300);
    EXPECT_EQ(view.frameHeight(), 400);
}

TEST(View, CountViewsSingle)
{
    View view("v");
    EXPECT_EQ(view.countViews(), 1);
}

TEST(View, StateKeyRules)
{
    // The key, or "" when the view is skipped.
    const auto key = [](const View &view, bool full,
                         const std::string &path_key) {
        const std::string *found = view.stateKey(full, path_key);
        return found ? *found : std::string{};
    };
    View with_id("the_id");
    EXPECT_EQ(key(with_id, false, "@0/1"), "the_id");
    EXPECT_EQ(key(with_id, true, "@0/1"), "the_id");
    View no_id("");
    EXPECT_EQ(key(no_id, false, "@0/1"), "");
    EXPECT_EQ(key(no_id, true, "@0/1"), "@0/1");
    EXPECT_EQ(key(no_id, true, "@"), "");
}

} // namespace
} // namespace rchdroid
