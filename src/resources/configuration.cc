#include "resources/configuration.h"

#include <cmath>
#include <cstdio>
#include <vector>

#include "platform/strings.h"

namespace rchdroid {

std::uint32_t
Configuration::diff(const Configuration &other) const
{
    std::uint32_t bits = kConfigNone;
    if (orientation != other.orientation)
        bits |= kConfigOrientation;
    if (screen_width_px != other.screen_width_px ||
        screen_height_px != other.screen_height_px) {
        bits |= kConfigScreenSize;
    }
    if (locale != other.locale)
        bits |= kConfigLocale;
    if (density_dpi != other.density_dpi)
        bits |= kConfigDensity;
    if (keyboard != other.keyboard)
        bits |= kConfigKeyboard;
    if (std::abs(font_scale - other.font_scale) > 1e-9)
        bits |= kConfigFontScale;
    return bits;
}

bool
Configuration::operator==(const Configuration &other) const
{
    return diff(other) == kConfigNone;
}

std::string
Configuration::toString() const
{
    std::string out;
    out.reserve(48);
    out += orientation == Orientation::Portrait ? "port " : "land ";
    out += std::to_string(screen_width_px);
    out += 'x';
    out += std::to_string(screen_height_px);
    out += ' ';
    out += locale;
    out += ' ';
    out += std::to_string(density_dpi);
    out += "dpi";
    if (keyboard == KeyboardState::Attached)
        out += " kbd";
    if (font_scale != 1.0) {
        // "%g" is what a default-formatted stream writes (precision 6),
        // which keeps the text the traces and fingerprints were built on.
        char scale[32];
        std::snprintf(scale, sizeof scale, " font%g", font_scale);
        out += scale;
    }
    return out;
}

Configuration
Configuration::defaultPortrait()
{
    return Configuration{};
}

Configuration
Configuration::defaultLandscape()
{
    return Configuration{}.rotated();
}

Configuration
Configuration::rotated() const
{
    Configuration out = *this;
    out.orientation = orientation == Orientation::Portrait
                          ? Orientation::Landscape
                          : Orientation::Portrait;
    out.screen_width_px = screen_height_px;
    out.screen_height_px = screen_width_px;
    return out;
}

Configuration
Configuration::withLocale(std::string new_locale) const
{
    Configuration out = *this;
    out.locale = std::move(new_locale);
    return out;
}

Configuration
Configuration::resized(int width_px, int height_px) const
{
    Configuration out = *this;
    out.screen_width_px = width_px;
    out.screen_height_px = height_px;
    out.orientation = width_px > height_px ? Orientation::Landscape
                                           : Orientation::Portrait;
    return out;
}

std::string
configChangeBitsToString(std::uint32_t bits)
{
    if (bits == kConfigNone)
        return "none";
    std::vector<std::string> names;
    if (bits & kConfigOrientation)
        names.push_back("orientation");
    if (bits & kConfigScreenSize)
        names.push_back("screenSize");
    if (bits & kConfigLocale)
        names.push_back("locale");
    if (bits & kConfigDensity)
        names.push_back("density");
    if (bits & kConfigKeyboard)
        names.push_back("keyboard");
    if (bits & kConfigFontScale)
        names.push_back("fontScale");
    return joinStrings(names, "|");
}

} // namespace rchdroid
