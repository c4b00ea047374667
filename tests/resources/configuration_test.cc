/**
 * @file
 * Configuration: diffs, derivation helpers, formatting.
 */
#include <gtest/gtest.h>

#include "resources/configuration.h"

namespace rchdroid {
namespace {

TEST(Configuration, DefaultEqualsItself)
{
    const Configuration a, b;
    EXPECT_EQ(a.diff(b), kConfigNone);
    EXPECT_TRUE(a == b);
}

TEST(Configuration, RotationFlipsOrientationAndSize)
{
    const Configuration port = Configuration::defaultPortrait();
    const Configuration land = port.rotated();
    EXPECT_EQ(land.orientation, Orientation::Landscape);
    EXPECT_EQ(land.screen_width_px, port.screen_height_px);
    EXPECT_EQ(land.screen_height_px, port.screen_width_px);
    const auto bits = port.diff(land);
    EXPECT_TRUE(bits & kConfigOrientation);
    EXPECT_TRUE(bits & kConfigScreenSize);
    EXPECT_FALSE(bits & kConfigLocale);
}

TEST(Configuration, DoubleRotationIsIdentity)
{
    const Configuration config = Configuration::defaultLandscape();
    EXPECT_TRUE(config.rotated().rotated() == config);
}

TEST(Configuration, ResizeDerivesOrientation)
{
    const Configuration config = Configuration::defaultPortrait();
    EXPECT_EQ(config.resized(1920, 1080).orientation, Orientation::Landscape);
    EXPECT_EQ(config.resized(1080, 1920).orientation, Orientation::Portrait);
}

TEST(Configuration, LocaleDiff)
{
    const Configuration en = Configuration::defaultPortrait();
    const Configuration fr = en.withLocale("fr-FR");
    EXPECT_EQ(en.diff(fr), kConfigLocale);
}

TEST(Configuration, KeyboardAndFontScaleDiff)
{
    Configuration a, b;
    b.keyboard = KeyboardState::Attached;
    b.font_scale = 1.3;
    const auto bits = a.diff(b);
    EXPECT_TRUE(bits & kConfigKeyboard);
    EXPECT_TRUE(bits & kConfigFontScale);
}

TEST(Configuration, DensityDiff)
{
    Configuration a, b;
    b.density_dpi = 480;
    EXPECT_EQ(a.diff(b), kConfigDensity);
}

TEST(Configuration, ToStringIsExact)
{
    // Traces and every model-checker fingerprint carry this text.
    EXPECT_EQ(Configuration::defaultPortrait().toString(),
              "port 1080x1920 en-US 320dpi");
    Configuration land = Configuration::defaultLandscape();
    land.keyboard = KeyboardState::Attached;
    land.font_scale = 1.3;
    EXPECT_EQ(land.toString(), "land 1920x1080 en-US 320dpi kbd font1.3");
    Configuration small_font;
    small_font.font_scale = 0.85;
    EXPECT_EQ(small_font.toString(), "port 1080x1920 en-US 320dpi font0.85");
}

TEST(Configuration, ChangeBitsToString)
{
    EXPECT_EQ(configChangeBitsToString(kConfigNone), "none");
    EXPECT_EQ(configChangeBitsToString(kConfigOrientation | kConfigLocale),
              "orientation|locale");
}

} // namespace
} // namespace rchdroid
