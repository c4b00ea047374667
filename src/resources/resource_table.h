/**
 * @file
 * ResourceTable: qualifier-matched resource storage, mirroring the AOSP
 * resource system (res/layout-land, res/values-fr, res/drawable-hdpi ...).
 *
 * The restarting-based handler's latency is dominated by re-resolving and
 * re-loading resources under the new configuration (paper §2.3 "new
 * resources must be loaded"); this table is what gets re-queried, and the
 * per-resource costs it reports are what the latency model charges.
 */
#ifndef RCHDROID_RESOURCES_RESOURCE_TABLE_H
#define RCHDROID_RESOURCES_RESOURCE_TABLE_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "platform/status.h"
#include "resources/configuration.h"

namespace rchdroid {

/** Opaque resource identifier, like R.layout.activity_main. */
using ResourceId = std::uint32_t;

/** Resource kind; encoded in the top byte of generated ids. */
enum class ResourceType : std::uint8_t {
    String = 1,
    Drawable = 2,
    Layout = 3,
    Dimension = 4,
};

/** Compose a resource id from a type and an index. */
constexpr ResourceId
makeResourceId(ResourceType type, std::uint32_t index)
{
    return (static_cast<std::uint32_t>(type) << 24) | (index & 0xffffffu);
}

/** Extract the type from a resource id. */
constexpr ResourceType
resourceIdType(ResourceId id)
{
    return static_cast<ResourceType>(id >> 24);
}

/**
 * The configuration axes a resource variant can be qualified on.
 * Unset fields match any configuration (like an unqualified res/ dir).
 */
struct ResourceQualifier
{
    std::optional<Orientation> orientation;
    std::optional<std::string> locale;
    /** Matches when the screen's smaller dimension (px) is >= this. */
    std::optional<int> min_smallest_width_px;
    std::optional<KeyboardState> keyboard;

    /** True when every set axis matches `config`. */
    bool matches(const Configuration &config) const;

    /**
     * Specificity score: number of set axes. Among matching variants the
     * highest score wins (a simplification of AOSP's ordered-axis rule
     * that behaves identically for the qualifiers used here).
     */
    int specificity() const;

    /** "land,fr,sw600" for traces. */
    std::string toString() const;

    /** Convenience builders. */
    static ResourceQualifier any() { return {}; }
    static ResourceQualifier forOrientation(Orientation o);
    static ResourceQualifier forLocale(std::string locale);
};

/** A localised string value. */
struct StringValue
{
    std::string text;
};

/**
 * A drawable asset; memory footprint and decode cost derive from the
 * bitmap dimensions (ARGB_8888, as Android decodes by default).
 */
struct DrawableValue
{
    std::string asset_name;
    int width_px = 0;
    int height_px = 0;

    std::size_t
    byteSize() const
    {
        return static_cast<std::size_t>(width_px) *
               static_cast<std::size_t>(height_px) * 4;
    }
};

/** One node of a layout resource: element name + attributes, like XML. */
struct LayoutNode
{
    /** Element name the inflater maps to a widget, e.g. "TextView". */
    std::string element;
    /** Attributes, e.g. {"id", "title"}, {"text", "@string/hello"}. */
    std::map<std::string, std::string> attrs;
    std::vector<LayoutNode> children;

    /** Total nodes in this subtree, including this one. */
    int countNodes() const;
};

/** A layout resource: a parsed element tree. */
struct LayoutValue
{
    LayoutNode root;
};

/** A dimension in pixels. */
struct DimensionValue
{
    double pixels = 0;
};

/**
 * Qualifier-matched storage of every resource an app declares.
 */
class ResourceTable
{
  public:
    ResourceTable() = default;

    /** @name Declaration (build-time of the simulated app)
     * Declaring a name twice returns the same id; each call adds one
     * qualified variant.
     * @{
     */
    ResourceId addString(const std::string &name, ResourceQualifier qual,
                         StringValue value);
    ResourceId addDrawable(const std::string &name, ResourceQualifier qual,
                           DrawableValue value);
    ResourceId addLayout(const std::string &name, ResourceQualifier qual,
                         LayoutValue value);
    ResourceId addDimension(const std::string &name, ResourceQualifier qual,
                            DimensionValue value);
    /** @} */

    /** Resolve a declared name to its id. */
    Result<ResourceId> idForName(ResourceType type,
                                 const std::string &name) const;

    /** @name Resolution under a configuration
     * Picks the most specific matching variant; NotFound when no variant
     * matches (an app bug Android would surface as Resources$NotFound).
     * A layout is handed out in place, not copied: the pointer stays
     * valid while the table lives, since a table is not changed once an
     * app is installed with it.
     * @{
     */
    Result<StringValue> resolveString(ResourceId id,
                                      const Configuration &config) const;
    Result<DrawableValue> resolveDrawable(ResourceId id,
                                          const Configuration &config) const;
    Result<const LayoutValue *> resolveLayout(
        ResourceId id, const Configuration &config) const;
    Result<DimensionValue> resolveDimension(ResourceId id,
                                            const Configuration &config) const;
    /** @} */

    /** Number of distinct resource names of a type. */
    std::size_t countOfType(ResourceType type) const;

  private:
    template <typename T>
    struct Variant
    {
        ResourceQualifier qualifier;
        T value;
    };

    template <typename T>
    struct EntrySet
    {
        std::map<std::string, ResourceId> ids;
        std::map<ResourceId, std::vector<Variant<T>>> variants;
        std::uint32_t next_index = 1;
    };

    template <typename T>
    ResourceId add(EntrySet<T> &set, ResourceType type,
                   const std::string &name, ResourceQualifier qual, T value);

    template <typename T>
    Result<const T *> resolve(const EntrySet<T> &set, ResourceId id,
                              const Configuration &config) const;

    EntrySet<StringValue> strings_;
    EntrySet<DrawableValue> drawables_;
    EntrySet<LayoutValue> layouts_;
    EntrySet<DimensionValue> dimensions_;
};

} // namespace rchdroid

#endif // RCHDROID_RESOURCES_RESOURCE_TABLE_H
