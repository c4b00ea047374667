#include "resources/resource_table.h"

#include <algorithm>
#include <sstream>

#include "platform/logging.h"

namespace rchdroid {

bool
ResourceQualifier::matches(const Configuration &config) const
{
    if (orientation && *orientation != config.orientation)
        return false;
    if (locale && *locale != config.locale)
        return false;
    if (min_smallest_width_px) {
        const int smallest =
            std::min(config.screen_width_px, config.screen_height_px);
        if (smallest < *min_smallest_width_px)
            return false;
    }
    if (keyboard && *keyboard != config.keyboard)
        return false;
    return true;
}

int
ResourceQualifier::specificity() const
{
    int score = 0;
    score += orientation.has_value();
    score += locale.has_value();
    score += min_smallest_width_px.has_value();
    score += keyboard.has_value();
    return score;
}

std::string
ResourceQualifier::toString() const
{
    std::ostringstream os;
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ',';
        first = false;
    };
    if (orientation) {
        sep();
        os << (*orientation == Orientation::Portrait ? "port" : "land");
    }
    if (locale) {
        sep();
        os << *locale;
    }
    if (min_smallest_width_px) {
        sep();
        os << "sw" << *min_smallest_width_px;
    }
    if (keyboard) {
        sep();
        os << (*keyboard == KeyboardState::Attached ? "kbd" : "nokbd");
    }
    if (first)
        os << "any";
    return os.str();
}

ResourceQualifier
ResourceQualifier::forOrientation(Orientation o)
{
    ResourceQualifier q;
    q.orientation = o;
    return q;
}

ResourceQualifier
ResourceQualifier::forLocale(std::string locale)
{
    ResourceQualifier q;
    q.locale = std::move(locale);
    return q;
}

int
LayoutNode::countNodes() const
{
    int n = 1;
    for (const auto &child : children)
        n += child.countNodes();
    return n;
}

template <typename T>
ResourceId
ResourceTable::add(EntrySet<T> &set, ResourceType type,
                   const std::string &name, ResourceQualifier qual, T value)
{
    RCH_ASSERT(!name.empty(), "resource name must be non-empty");
    ResourceId id;
    auto it = set.ids.find(name);
    if (it != set.ids.end()) {
        id = it->second;
    } else {
        id = makeResourceId(type, set.next_index++);
        set.ids.emplace(name, id);
    }
    set.variants[id].push_back(Variant<T>{std::move(qual), std::move(value)});
    return id;
}

template <typename T>
Result<const T *>
ResourceTable::resolve(const EntrySet<T> &set, ResourceId id,
                       const Configuration &config) const
{
    auto it = set.variants.find(id);
    if (it == set.variants.end())
        return Status::notFound("unknown resource id");
    const Variant<T> *best = nullptr;
    for (const auto &variant : it->second) {
        if (!variant.qualifier.matches(config))
            continue;
        if (!best ||
            variant.qualifier.specificity() > best->qualifier.specificity()) {
            best = &variant;
        }
    }
    if (!best) {
        return Status::notFound("no variant matches config " +
                                config.toString());
    }
    return &best->value;
}

namespace {

template <typename T>
Result<T>
copyOf(const Result<const T *> &found)
{
    if (!found)
        return found.status();
    return *found.value();
}

} // namespace

ResourceId
ResourceTable::addString(const std::string &name, ResourceQualifier qual,
                         StringValue value)
{
    return add(strings_, ResourceType::String, name, std::move(qual),
               std::move(value));
}

ResourceId
ResourceTable::addDrawable(const std::string &name, ResourceQualifier qual,
                           DrawableValue value)
{
    return add(drawables_, ResourceType::Drawable, name, std::move(qual),
               std::move(value));
}

ResourceId
ResourceTable::addLayout(const std::string &name, ResourceQualifier qual,
                         LayoutValue value)
{
    return add(layouts_, ResourceType::Layout, name, std::move(qual),
               std::move(value));
}

ResourceId
ResourceTable::addDimension(const std::string &name, ResourceQualifier qual,
                            DimensionValue value)
{
    return add(dimensions_, ResourceType::Dimension, name, std::move(qual),
               std::move(value));
}

Result<ResourceId>
ResourceTable::idForName(ResourceType type, const std::string &name) const
{
    const std::map<std::string, ResourceId> *ids = nullptr;
    switch (type) {
      case ResourceType::String: ids = &strings_.ids; break;
      case ResourceType::Drawable: ids = &drawables_.ids; break;
      case ResourceType::Layout: ids = &layouts_.ids; break;
      case ResourceType::Dimension: ids = &dimensions_.ids; break;
    }
    RCH_ASSERT(ids, "bad resource type");
    auto it = ids->find(name);
    if (it == ids->end())
        return Status::notFound("no resource named " + name);
    return it->second;
}

Result<StringValue>
ResourceTable::resolveString(ResourceId id, const Configuration &config) const
{
    return copyOf(resolve(strings_, id, config));
}

Result<DrawableValue>
ResourceTable::resolveDrawable(ResourceId id,
                               const Configuration &config) const
{
    return copyOf(resolve(drawables_, id, config));
}

Result<const LayoutValue *>
ResourceTable::resolveLayout(ResourceId id, const Configuration &config) const
{
    return resolve(layouts_, id, config);
}

Result<DimensionValue>
ResourceTable::resolveDimension(ResourceId id,
                                const Configuration &config) const
{
    return copyOf(resolve(dimensions_, id, config));
}

std::size_t
ResourceTable::countOfType(ResourceType type) const
{
    switch (type) {
      case ResourceType::String: return strings_.ids.size();
      case ResourceType::Drawable: return drawables_.ids.size();
      case ResourceType::Layout: return layouts_.ids.size();
      case ResourceType::Dimension: return dimensions_.ids.size();
    }
    return 0;
}

} // namespace rchdroid
