#include "view/layout_inflater.h"

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "platform/logging.h"
#include "platform/strings.h"
#include "view/image_view.h"
#include "view/list_view.h"
#include "view/progress_bar.h"
#include "view/text_view.h"
#include "view/video_view.h"
#include "view/view_group.h"

namespace rchdroid {

namespace {

/** The widget an element builds. */
enum class ElementKind : std::uint8_t {
    View,
    FrameLayout,
    LinearLayout,
    ScrollView,
    TextView,
    Button,
    EditText,
    CheckBox,
    ImageView,
    ProgressBar,
    ListView,
    VideoView,
};

struct BuiltinElement
{
    const char *name;
    ElementKind kind;
};

const BuiltinElement kBuiltinElements[] = {
    {"View", ElementKind::View},
    {"ViewGroup", ElementKind::FrameLayout},
    {"LinearLayout", ElementKind::LinearLayout},
    {"FrameLayout", ElementKind::FrameLayout},
    {"ScrollView", ElementKind::ScrollView},
    {"TextView", ElementKind::TextView},
    {"Button", ElementKind::Button},
    {"EditText", ElementKind::EditText},
    {"CheckBox", ElementKind::CheckBox},
    {"ImageView", ElementKind::ImageView},
    {"ProgressBar", ElementKind::ProgressBar},
    {"ListView", ElementKind::ListView},
    {"VideoView", ElementKind::VideoView},
};

std::optional<ElementKind>
elementKind(const std::string &element)
{
    for (const BuiltinElement &builtin : kBuiltinElements) {
        if (element == builtin.name)
            return builtin.kind;
    }
    return std::nullopt;
}

std::string
attrOr(const std::map<std::string, std::string> &attrs,
       const std::string &key, const std::string &fallback)
{
    auto it = attrs.find(key);
    return it != attrs.end() ? it->second : fallback;
}

int
attrInt(const std::map<std::string, std::string> &attrs,
        const std::string &key, int fallback)
{
    auto it = attrs.find(key);
    if (it == attrs.end())
        return fallback;
    return std::atoi(it->second.c_str());
}

/** A literal attribute value, or an "@string/" or "@drawable/" name. */
struct AttrValue
{
    enum class Source : std::uint8_t { Absent, Literal, Resource, Unresolved };
    Source source = Source::Absent;
    /** Resource: the id the name resolved to. */
    ResourceId id = 0;
    /** Literal: the value. Unresolved: the name the table does not have. */
    std::string text;
};

} // namespace

/**
 * One element of a compiled layout and its subtree. Only the fields of
 * the element's kind are filled in; compiling reads nothing but the
 * layout node and the resource table, so a plan serves every
 * configuration.
 */
struct InflatePlan
{
    ElementKind kind = ElementKind::View;
    /** The compiled node, whose name errors report. */
    const LayoutNode *source = nullptr;
    std::string id;
    /** Text family. */
    AttrValue text;
    /** EditText. */
    AttrValue hint;
    bool checked = false;
    /** ImageView. */
    AttrValue src;
    /** ListView; literal items are split at '|' once. */
    AttrValue items;
    std::vector<std::string> literal_items;
    bool horizontal = false;
    int max = 100;
    int progress = 0;
    std::string video;
    std::vector<InflatePlan> children;
};

namespace {

/** Read attribute `key`; a reference's name is looked up in `table`. */
AttrValue
compileAttr(const LayoutNode &node, const std::string &key, ResourceType type,
            const ResourceTable &table)
{
    AttrValue attr;
    auto it = node.attrs.find(key);
    if (it == node.attrs.end())
        return attr;
    const std::string prefix =
        type == ResourceType::Drawable ? "@drawable/" : "@string/";
    if (!startsWith(it->second, prefix)) {
        attr.source = AttrValue::Source::Literal;
        attr.text = it->second;
        return attr;
    }
    const std::string name = it->second.substr(prefix.size());
    if (auto id = table.idForName(type, name)) {
        attr.source = AttrValue::Source::Resource;
        attr.id = id.value();
    } else {
        attr.source = AttrValue::Source::Unresolved;
        attr.text = name;
    }
    return attr;
}

/**
 * Compile `node` and its subtree, reading only what its kind uses. An
 * element the inflater does not know fails the compile.
 */
Result<InflatePlan>
compile(const LayoutNode &node, const ResourceTable &table)
{
    const std::optional<ElementKind> kind = elementKind(node.element);
    if (!kind)
        return Status::notFound("unknown layout element " + node.element);
    InflatePlan plan;
    plan.kind = *kind;
    plan.source = &node;
    plan.id = attrOr(node.attrs, "id", "");
    switch (plan.kind) {
      case ElementKind::LinearLayout:
        plan.horizontal =
            attrOr(node.attrs, "orientation", "vertical") == "horizontal";
        break;
      case ElementKind::TextView:
      case ElementKind::Button:
      case ElementKind::EditText:
      case ElementKind::CheckBox:
        plan.text = compileAttr(node, "text", ResourceType::String, table);
        if (plan.kind == ElementKind::EditText)
            plan.hint = compileAttr(node, "hint", ResourceType::String, table);
        plan.checked = plan.kind == ElementKind::CheckBox &&
                       attrOr(node.attrs, "checked", "false") == "true";
        break;
      case ElementKind::ImageView:
        plan.src = compileAttr(node, "src", ResourceType::Drawable, table);
        break;
      case ElementKind::ProgressBar:
        plan.max = attrInt(node.attrs, "max", 100);
        plan.progress = attrInt(node.attrs, "progress", 0);
        break;
      case ElementKind::ListView:
        plan.items = compileAttr(node, "items", ResourceType::String, table);
        if (plan.items.source == AttrValue::Source::Literal)
            plan.literal_items = splitString(plan.items.text, '|');
        break;
      case ElementKind::VideoView:
        plan.video = attrOr(node.attrs, "video", "");
        break;
      case ElementKind::View:
      case ElementKind::FrameLayout:
      case ElementKind::ScrollView:
        break;
    }
    plan.children.reserve(node.children.size());
    for (const LayoutNode &child : node.children) {
        auto child_plan = compile(child, table);
        if (!child_plan)
            return child_plan.status();
        plan.children.push_back(std::move(child_plan).value());
    }
    return plan;
}

/** The table's own NotFound for a name compile could not resolve. */
Status
unresolved(const ResourceManager &resources, const AttrValue &attr,
           ResourceType type)
{
    return resources.table().idForName(type, attr.text).status();
}

/** Upcast for Result's single implicit conversion. */
template <typename Widget>
std::unique_ptr<View>
asView(std::unique_ptr<Widget> widget)
{
    return widget;
}

/** The attribute's text under `config`; loads an @string reference. */
Result<std::string>
resolveText(ResourceManager &resources, const AttrValue &attr,
            const Configuration &config, SimDuration &cost)
{
    if (attr.source == AttrValue::Source::Unresolved)
        return unresolved(resources, attr, ResourceType::String);
    if (attr.source != AttrValue::Source::Resource)
        return attr.text;
    auto loaded = resources.loadString(attr.id, config);
    if (!loaded)
        return loaded.status();
    cost += loaded.value().cost;
    return std::move(loaded).value().value.text;
}

/** Build a text-family widget with its text, hint and checked state. */
template <typename Widget>
Result<std::unique_ptr<View>>
makeTextWidget(const InflatePlan &plan, ResourceManager &resources,
               const Configuration &config, SimDuration &cost)
{
    auto widget = std::make_unique<Widget>(plan.id);
    if (plan.text.source != AttrValue::Source::Absent) {
        auto text = resolveText(resources, plan.text, config, cost);
        if (!text)
            return text.status();
        if (plan.text.source == AttrValue::Source::Resource)
            widget->setTextFromResource(std::move(text).value());
        else
            widget->setText(std::move(text).value());
    }
    if constexpr (std::is_base_of_v<EditText, Widget>) {
        if (plan.hint.source != AttrValue::Source::Absent) {
            auto hint = resolveText(resources, plan.hint, config, cost);
            if (!hint)
                return hint.status();
            widget->setHint(std::move(hint).value());
        }
    }
    if constexpr (std::is_base_of_v<CheckBox, Widget>) {
        if (plan.checked)
            widget->setChecked(true);
    }
    return asView(std::move(widget));
}

/** Build a ListView with its items. */
Result<std::unique_ptr<View>>
makeList(const InflatePlan &plan, ResourceManager &resources,
         const Configuration &config, SimDuration &cost)
{
    auto list = std::make_unique<ListView>(plan.id);
    if (plan.items.source == AttrValue::Source::Literal) {
        list->setItems(plan.literal_items);
    } else if (plan.items.source != AttrValue::Source::Absent) {
        auto raw = resolveText(resources, plan.items, config, cost);
        if (!raw)
            return raw.status();
        list->setItems(splitString(raw.value(), '|'));
    }
    return asView(std::move(list));
}

using PlanMap = std::unordered_map<const LayoutValue *, InflatePlan>;

/**
 * The compiled plans of one table, keyed by the table's variant and
 * shared by every inflater over that table on this host thread. The
 * slot holds the table itself: plans point into it, and while it is
 * held no later table can take its address. One table per thread, no
 * lock; inflating another table's layout replaces the slot.
 */
PlanMap &
plansFor(const std::shared_ptr<const ResourceTable> &table)
{
    struct Slot
    {
        std::shared_ptr<const ResourceTable> table;
        PlanMap plans;
    };
    thread_local Slot slot;
    if (slot.table != table) {
        slot.plans.clear();
        slot.table = table;
    }
    return slot.plans;
}

} // namespace

LayoutInflater::LayoutInflater(ResourceManager &resources,
                               SimDuration per_node_inflate_cost)
    : resources_(resources), per_node_inflate_cost_(per_node_inflate_cost)
{
}

Result<Loaded<std::unique_ptr<View>>>
LayoutInflater::inflate(ResourceId layout_id, const Configuration &config)
{
    auto layout = resources_.loadLayout(layout_id, config);
    if (!layout)
        return layout.status();
    const LayoutValue *variant = layout.value().value;
    PlanMap &plans = plansFor(resources_.sharedTable());
    auto cached = plans.find(variant);
    if (cached == plans.end()) {
        auto plan = compile(variant->root, resources_.table());
        if (!plan)
            return plan.status();
        cached = plans.emplace(variant, std::move(plan).value()).first;
    }
    // Building views inflates nothing, so the slot keeps this plan
    // until the walk ends.
    SimDuration cost = layout.value().cost;
    auto view = build(cached->second, config, cost);
    if (!view)
        return view.status();
    return Loaded<std::unique_ptr<View>>{std::move(view).value(), cost};
}

Result<std::unique_ptr<View>>
LayoutInflater::build(const InflatePlan &plan, const Configuration &config,
                      SimDuration &cost)
{
    cost += per_node_inflate_cost_;
    auto view = makeView(plan, config, cost);
    if (!view || plan.children.empty())
        return view;
    auto *group = dynamic_cast<ViewGroup *>(view.value().get());
    if (!group) {
        return Status::invalidArgument(plan.source->element +
                                       " cannot have children");
    }
    group->reserveChildren(plan.children.size());
    for (const InflatePlan &child_plan : plan.children) {
        auto child = build(child_plan, config, cost);
        if (!child)
            return child.status();
        group->addChild(std::move(child).value());
    }
    return view;
}

Result<std::unique_ptr<View>>
LayoutInflater::makeView(const InflatePlan &plan, const Configuration &config,
                         SimDuration &cost)
{
    switch (plan.kind) {
      case ElementKind::View:
        return std::make_unique<View>(plan.id);
      case ElementKind::FrameLayout:
        return asView(std::make_unique<FrameLayout>(plan.id));
      case ElementKind::LinearLayout:
        return asView(std::make_unique<LinearLayout>(
            plan.id, plan.horizontal ? LinearLayout::Direction::Horizontal
                                     : LinearLayout::Direction::Vertical));
      case ElementKind::ScrollView:
        return asView(std::make_unique<ScrollView>(plan.id));
      case ElementKind::TextView:
        return makeTextWidget<TextView>(plan, resources_, config, cost);
      case ElementKind::Button:
        return makeTextWidget<Button>(plan, resources_, config, cost);
      case ElementKind::EditText:
        return makeTextWidget<EditText>(plan, resources_, config, cost);
      case ElementKind::CheckBox:
        return makeTextWidget<CheckBox>(plan, resources_, config, cost);
      case ElementKind::ImageView: {
        auto image = std::make_unique<ImageView>(plan.id);
        if (plan.src.source == AttrValue::Source::Unresolved)
            return unresolved(resources_, plan.src, ResourceType::Drawable);
        if (plan.src.source == AttrValue::Source::Resource) {
            auto loaded = resources_.loadDrawable(plan.src.id, config);
            if (!loaded)
                return loaded.status();
            cost += loaded.value().cost;
            image->setDrawableFromResource(std::move(loaded).value().value);
        }
        return asView(std::move(image));
      }
      case ElementKind::ProgressBar: {
        auto bar = std::make_unique<ProgressBar>(plan.id);
        bar->setMax(plan.max);
        bar->setProgress(plan.progress);
        return asView(std::move(bar));
      }
      case ElementKind::ListView:
        return makeList(plan, resources_, config, cost);
      case ElementKind::VideoView: {
        auto video = std::make_unique<VideoView>(plan.id);
        if (!plan.video.empty())
            video->setVideoUri(plan.video);
        return asView(std::move(video));
      }
    }
    RCH_PANIC("bad element kind");
}

} // namespace rchdroid
