/**
 * @file
 * Widget instance state: the default (stock Android) vs full (RCHDroid
 * explicit snapshot) coverage matrix that the paper's effectiveness
 * results rest on, exercised per widget and as a parameterised sweep.
 */
#include <gtest/gtest.h>

#include "view/image_view.h"
#include "view/list_view.h"
#include "view/progress_bar.h"
#include "view/text_view.h"
#include "view/video_view.h"
#include "view/view_group.h"

namespace rchdroid {
namespace {

/** Save `source` (default or full), then restore into `target`. */
void
transferState(const View &source, View &target, bool full)
{
    Bundle container;
    source.saveHierarchyState(container, full, "r");
    target.restoreHierarchyState(container, "r");
}

TEST(WidgetState, TextViewTextLostByDefaultKeptByFull)
{
    TextView source("t");
    source.setText("user text");
    {
        TextView fresh("t");
        transferState(source, fresh, /*full=*/false);
        EXPECT_EQ(fresh.text(), ""); // stock Android loses it
    }
    {
        TextView fresh("t");
        transferState(source, fresh, /*full=*/true);
        EXPECT_EQ(fresh.text(), "user text"); // RCHDroid keeps it
    }
}

TEST(WidgetState, EditTextKeptEvenByDefault)
{
    EditText source("e");
    source.typeText("draft");
    EditText fresh("e");
    transferState(source, fresh, /*full=*/false);
    EXPECT_EQ(fresh.text(), "draft");
    EXPECT_EQ(fresh.cursorPosition(), 5);
}

TEST(WidgetState, IdlessEditTextLostByDefaultKeptByFull)
{
    EditText source("");
    source.typeText("login");
    {
        EditText fresh("");
        transferState(source, fresh, false);
        EXPECT_EQ(fresh.text(), ""); // the "text box" issue class
    }
    {
        EditText fresh("");
        transferState(source, fresh, true);
        EXPECT_EQ(fresh.text(), "login"); // path-keyed full save
    }
}

TEST(WidgetState, CheckBoxCheckedKeptByDefault)
{
    CheckBox source("c");
    source.setChecked(true);
    CheckBox fresh("c");
    transferState(source, fresh, false);
    EXPECT_TRUE(fresh.isChecked());
}

TEST(WidgetState, ProgressBarLostByDefaultKeptByFull)
{
    ProgressBar source("p");
    source.setProgress(42);
    {
        ProgressBar fresh("p");
        transferState(source, fresh, false);
        EXPECT_EQ(fresh.progress(), 0);
    }
    {
        ProgressBar fresh("p");
        transferState(source, fresh, true);
        EXPECT_EQ(fresh.progress(), 42);
    }
}

TEST(WidgetState, ListSelectionLostByDefaultScrollKept)
{
    ListView source("l");
    source.setItems({"a", "b", "c", "d", "e"});
    source.setItemChecked(3);
    source.setSelectorPosition(3);
    source.scrollToPosition(2);

    ListView fresh("l");
    fresh.setItems({"a", "b", "c", "d", "e"});
    transferState(source, fresh, false);
    EXPECT_EQ(fresh.checkedItem(), -1);        // selection list issue
    EXPECT_EQ(fresh.firstVisiblePosition(), 2); // scroll kept (stock)

    ListView full("l");
    full.setItems({"a", "b", "c", "d", "e"});
    transferState(source, full, true);
    EXPECT_EQ(full.checkedItem(), 3);
    EXPECT_EQ(full.selectorPosition(), 3);
}

TEST(WidgetState, ScrollViewOffsetKeptWithIdLostWithout)
{
    {
        ScrollView source("sv");
        source.scrollTo(420);
        ScrollView fresh("sv");
        transferState(source, fresh, false);
        EXPECT_EQ(fresh.scrollY(), 420);
    }
    {
        ScrollView source("");
        source.scrollTo(420);
        ScrollView fresh("");
        transferState(source, fresh, false);
        EXPECT_EQ(fresh.scrollY(), 0); // the "scroll location" issue
        ScrollView full("");
        transferState(source, full, true);
        EXPECT_EQ(full.scrollY(), 420);
    }
}

TEST(WidgetState, VideoPositionLostByDefaultKeptByFull)
{
    VideoView source("v");
    source.setVideoUri("content://clip");
    source.seekTo(90'000);
    {
        VideoView fresh("v");
        transferState(source, fresh, false);
        EXPECT_EQ(fresh.positionMs(), 0);
    }
    {
        VideoView fresh("v");
        transferState(source, fresh, true);
        EXPECT_EQ(fresh.positionMs(), 90'000);
        EXPECT_EQ(fresh.videoUri(), "content://clip");
    }
}

TEST(WidgetState, ImageAssetIdentityOnlyInFullMode)
{
    ImageView source("i");
    source.setDrawable(DrawableValue{"photo", 32, 32});
    {
        ImageView fresh("i");
        transferState(source, fresh, false);
        EXPECT_FALSE(fresh.drawable().has_value());
    }
    {
        ImageView fresh("i");
        transferState(source, fresh, true);
        ASSERT_TRUE(fresh.drawable().has_value());
        EXPECT_EQ(fresh.drawable()->asset_name, "photo");
    }
}

TEST(WidgetState, ResourceDerivedTextExcludedFromFullSave)
{
    // Text resolved from a resource is configuration-derived, not user
    // state: the snapshot must NOT carry it, so a new instance shows
    // its own locale's string (the locale-switch correctness rule).
    TextView source("title");
    source.setTextFromResource("Hello");
    EXPECT_TRUE(source.isTextFromResource());

    TextView fresh("title");
    fresh.setTextFromResource("Bonjour"); // the new config's variant
    transferState(source, fresh, /*full=*/true);
    EXPECT_EQ(fresh.text(), "Bonjour");

    // Programmatic setText reclassifies the text as user state.
    source.setText("user text");
    EXPECT_FALSE(source.isTextFromResource());
    transferState(source, fresh, /*full=*/true);
    EXPECT_EQ(fresh.text(), "user text");
}

TEST(WidgetState, ResourceDerivedDrawableExcludedFromFullSave)
{
    ImageView source("hero");
    source.setDrawableFromResource(DrawableValue{"hero_port", 8, 8});
    ImageView fresh("hero");
    fresh.setDrawableFromResource(DrawableValue{"hero_land", 8, 8});
    transferState(source, fresh, /*full=*/true);
    // The new instance keeps its own orientation's variant.
    EXPECT_EQ(fresh.assetName(), "hero_land");

    source.setDrawable(DrawableValue{"user_photo", 8, 8});
    transferState(source, fresh, /*full=*/true);
    EXPECT_EQ(fresh.assetName(), "user_photo");
}

TEST(WidgetState, ResourceDerivedAttributesExcludedFromMigration)
{
    TextView shadow_title("t"), sunny_title("t");
    shadow_title.setTextFromResource("Hello");
    sunny_title.setTextFromResource("Bonjour");
    shadow_title.applyMigration(sunny_title);
    EXPECT_EQ(sunny_title.text(), "Bonjour"); // not clobbered

    ImageView shadow_img("i"), sunny_img("i");
    shadow_img.setDrawableFromResource(DrawableValue{"port", 4, 4});
    sunny_img.setDrawableFromResource(DrawableValue{"land", 4, 4});
    shadow_img.applyMigration(sunny_img);
    EXPECT_EQ(sunny_img.assetName(), "land");
}

TEST(WidgetState, ContainerRecursionCoversNestedChildren)
{
    auto tree = std::make_unique<LinearLayout>(
        "root", LinearLayout::Direction::Vertical);
    auto inner = std::make_unique<FrameLayout>(""); // id-less container
    auto edit = std::make_unique<EditText>("e");
    edit->typeText("nested");
    inner->addChild(std::move(edit));
    tree->addChild(std::move(inner));

    auto fresh = std::make_unique<LinearLayout>(
        "root", LinearLayout::Direction::Vertical);
    auto inner2 = std::make_unique<FrameLayout>("");
    inner2->addChild(std::make_unique<EditText>("e"));
    fresh->addChild(std::move(inner2));

    // Even default mode recurses through id-less containers.
    transferState(*tree, *fresh, false);
    auto *restored = dynamic_cast<EditText *>(fresh->findViewById("e"));
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->text(), "nested");
}

/**
 * Property sweep: a full-mode save/restore round trip is lossless for
 * every widget type, at any tree position, with or without an id.
 */
class FullSaveRoundTrip
    : public ::testing::TestWithParam<std::tuple<bool, int>>
{
};

std::unique_ptr<View>
makeWidget(int kind, const std::string &id)
{
    switch (kind) {
      case 0: {
        auto v = std::make_unique<TextView>(id);
        v->setText("T");
        return v;
      }
      case 1: {
        auto v = std::make_unique<EditText>(id);
        v->typeText("E");
        return v;
      }
      case 2: {
        auto v = std::make_unique<CheckBox>(id);
        v->setChecked(true);
        return v;
      }
      case 3: {
        auto v = std::make_unique<ProgressBar>(id);
        v->setProgress(9);
        return v;
      }
      case 4: {
        auto v = std::make_unique<ListView>(id);
        v->setItems({"x", "y", "z"});
        v->setItemChecked(1);
        return v;
      }
      case 5: {
        auto v = std::make_unique<VideoView>(id);
        v->setVideoUri("u");
        v->seekTo(123);
        return v;
      }
      default: {
        auto v = std::make_unique<ImageView>(id);
        v->setDrawable(DrawableValue{"a", 4, 4});
        return v;
      }
    }
}

bool
widgetStateEquals(const View &a, const View &b)
{
    if (auto *ta = dynamic_cast<const TextView *>(&a))
        return ta->text() == dynamic_cast<const TextView &>(b).text();
    if (auto *pa = dynamic_cast<const ProgressBar *>(&a))
        return pa->progress() ==
               dynamic_cast<const ProgressBar &>(b).progress();
    if (auto *la = dynamic_cast<const AbsListView *>(&a))
        return la->checkedItem() ==
               dynamic_cast<const AbsListView &>(b).checkedItem();
    if (auto *va = dynamic_cast<const VideoView *>(&a))
        return va->positionMs() ==
               dynamic_cast<const VideoView &>(b).positionMs();
    if (auto *ia = dynamic_cast<const ImageView *>(&a))
        return ia->assetName() ==
               dynamic_cast<const ImageView &>(b).assetName();
    return true;
}

TEST_P(FullSaveRoundTrip, Lossless)
{
    const bool with_id = std::get<0>(GetParam());
    const int kind = std::get<1>(GetParam());
    const std::string id = with_id ? "w" : "";

    LinearLayout source("root", LinearLayout::Direction::Vertical);
    auto &widget = source.addChild(makeWidget(kind, id));
    if (auto *list = dynamic_cast<AbsListView *>(&widget))
        (void)list;

    LinearLayout target("root", LinearLayout::Direction::Vertical);
    auto &fresh = target.addChild([&] {
        // A pristine widget of the same kind (lists pre-filled so the
        // restored positions are applicable).
        auto v = makeWidget(kind, id);
        if (auto *text = dynamic_cast<TextView *>(v.get()))
            text->setText("");
        if (auto *bar = dynamic_cast<ProgressBar *>(v.get()))
            bar->setProgress(0);
        if (auto *list = dynamic_cast<AbsListView *>(v.get()))
            list->clearItemChecked();
        if (auto *video = dynamic_cast<VideoView *>(v.get()))
            video->seekTo(0);
        if (auto *image = dynamic_cast<ImageView *>(v.get()))
            image->clearDrawable();
        return v;
    }());

    Bundle container;
    source.saveHierarchyState(container, /*full=*/true, "r");
    target.restoreHierarchyState(container, "r");
    EXPECT_TRUE(widgetStateEquals(widget, fresh))
        << "kind=" << kind << " with_id=" << with_id;
}

INSTANTIATE_TEST_SUITE_P(AllWidgets, FullSaveRoundTrip,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Range(0, 7)));

} // namespace
} // namespace rchdroid
