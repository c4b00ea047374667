/**
 * @file
 * Table 1 migration policies: each widget's applyMigration carries its
 * typed state to a peer of the same basic type — including user-defined
 * subclasses, which migrate "according to the types they belong to".
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

TEST(Migration, TextViewSetText)
{
    TextView shadow("t"), sunny("t");
    shadow.setText("updated by async");
    shadow.applyMigration(sunny);
    EXPECT_EQ(sunny.text(), "updated by async");
    EXPECT_TRUE(sunny.isDirty()); // setText invalidates the target
}

TEST(Migration, EditTextCarriesCursor)
{
    EditText shadow("e"), sunny("e");
    shadow.typeText("abcdef");
    shadow.setCursorPosition(3);
    shadow.applyMigration(sunny);
    EXPECT_EQ(sunny.text(), "abcdef");
    EXPECT_EQ(sunny.cursorPosition(), 3);
}

TEST(Migration, CheckBoxCarriesChecked)
{
    CheckBox shadow("c"), sunny("c");
    shadow.setChecked(true);
    shadow.applyMigration(sunny);
    EXPECT_TRUE(sunny.isChecked());
}

TEST(Migration, ImageViewSetDrawable)
{
    ImageView shadow("i"), sunny("i");
    shadow.setDrawable(DrawableValue{"async_img", 64, 64});
    shadow.applyMigration(sunny);
    ASSERT_TRUE(sunny.drawable().has_value());
    EXPECT_EQ(sunny.drawable()->asset_name, "async_img");
}

TEST(Migration, ImageViewClearPropagates)
{
    ImageView shadow("i"), sunny("i");
    sunny.setDrawable(DrawableValue{"stale", 8, 8});
    shadow.applyMigration(sunny);
    EXPECT_FALSE(sunny.drawable().has_value());
}

TEST(Migration, ProgressBarSetProgress)
{
    ProgressBar shadow("p"), sunny("p");
    shadow.setMax(200);
    shadow.setProgress(150);
    shadow.applyMigration(sunny);
    EXPECT_EQ(sunny.max(), 200);
    EXPECT_EQ(sunny.progress(), 150);
}

TEST(Migration, ListSelectorAndChecked)
{
    ListView shadow("l"), sunny("l");
    shadow.setItems({"a", "b", "c"});
    sunny.setItems({"a", "b", "c"});
    shadow.setSelectorPosition(2);
    shadow.setItemChecked(1);
    shadow.scrollToPosition(1);
    shadow.applyMigration(sunny);
    EXPECT_EQ(sunny.selectorPosition(), 2);
    EXPECT_EQ(sunny.checkedItem(), 1);
    EXPECT_EQ(sunny.firstVisiblePosition(), 1);
}

TEST(Migration, ListClampsWhenSunnyHasFewerItems)
{
    ListView shadow("l"), sunny("l");
    shadow.setItems({"a", "b", "c", "d"});
    sunny.setItems({"a"});
    shadow.setItemChecked(3);
    shadow.applyMigration(sunny); // must not throw / corrupt
    EXPECT_EQ(sunny.checkedItem(), -1);
}

TEST(Migration, VideoUriPositionAndPlayback)
{
    VideoView shadow("v"), sunny("v");
    shadow.setVideoUri("content://media/movie");
    shadow.seekTo(42'000);
    shadow.start();
    shadow.applyMigration(sunny);
    EXPECT_EQ(sunny.videoUri(), "content://media/movie");
    EXPECT_EQ(sunny.positionMs(), 42'000);
    EXPECT_TRUE(sunny.isPlaying());
}

TEST(Migration, ScrollViewOffset)
{
    ScrollView shadow("s"), sunny("s");
    shadow.scrollTo(777);
    shadow.applyMigration(sunny);
    EXPECT_EQ(sunny.scrollY(), 777);
}

TEST(Migration, GenericViewJustInvalidates)
{
    View shadow("g"), sunny("g");
    shadow.applyMigration(sunny);
    EXPECT_TRUE(sunny.isDirty());
}

/** A user-defined TextView subclass (paper: migrated by basic type). */
class BadgeView final : public TextView
{
  public:
    explicit BadgeView(std::string id) : TextView(std::move(id)) {}
    const char *typeName() const override { return "BadgeView"; }
    int badge_count = 0; // not migrated: not part of the basic type
};

TEST(Migration, UserDefinedSubclassMigratesByBasicType)
{
    BadgeView shadow("b"), sunny("b");
    shadow.setText("3 new");
    shadow.badge_count = 3;
    shadow.applyMigration(sunny);
    EXPECT_EQ(sunny.text(), "3 new"); // the Text policy applied
    EXPECT_EQ(sunny.badge_count, 0);  // custom fields are app business
}

TEST(MigrationDeath, CrossTypeMigrationPanics)
{
    TextView text("t");
    ImageView image("t");
    EXPECT_DEATH(text.applyMigration(image), "Text migration onto");
}

} // namespace
} // namespace rchdroid
