#include "apps/app_builder.h"

#include <optional>
#include <string>

#include "apps/simulated_app.h"
#include "platform/logging.h"

namespace rchdroid::apps {

namespace {

LayoutNode
leaf(std::string element, std::map<std::string, std::string> attrs)
{
    LayoutNode node;
    node.element = std::move(element);
    node.attrs = std::move(attrs);
    return node;
}

std::string
itemsLiteral(int count)
{
    std::string out;
    for (int i = 0; i < count; ++i) {
        if (i)
            out += '|';
        out += "item" + std::to_string(i);
    }
    return out;
}

} // namespace

int
AppSpec::totalLayoutViews() const
{
    // root + title + button + widgets (+ scroll container when present).
    int n = 3 + n_text_views + n_edit_texts + n_image_views + n_checkboxes +
            n_progress_bars + n_list_views + n_video_views;
    if (critical == CriticalState::ScrollOffsetNoId)
        n += 1;
    return n;
}

const char *
criticalStateName(CriticalState state)
{
    switch (state) {
      case CriticalState::None: return "None";
      case CriticalState::EditTextWithId: return "EditTextWithId";
      case CriticalState::EditTextNoId: return "EditTextNoId";
      case CriticalState::TextViewText: return "TextViewText";
      case CriticalState::ListSelection: return "ListSelection";
      case CriticalState::ScrollOffsetNoId: return "ScrollOffsetNoId";
      case CriticalState::ProgressValue: return "ProgressValue";
      case CriticalState::CheckBoxNoId: return "CheckBoxNoId";
      case CriticalState::VideoPosition: return "VideoPosition";
      case CriticalState::CustomVariable: return "CustomVariable";
    }
    return "Unknown";
}

LayoutNode
buildMainLayout(const AppSpec &spec)
{
    LayoutNode root;
    root.element = "LinearLayout";
    root.attrs = {{"id", "root"}, {"orientation", "vertical"}};

    root.children.push_back(
        leaf("TextView", {{"id", "title"}, {"text", "@string/title"}}));

    for (int i = 0; i < spec.n_text_views; ++i) {
        root.children.push_back(leaf(
            "TextView", {{"id", "text_" + std::to_string(i)},
                         {"text", "@string/placeholder"}}));
    }
    for (int i = 0; i < spec.n_edit_texts; ++i) {
        std::map<std::string, std::string> attrs = {
            {"hint", "@string/hint"}};
        // The "text box" issue class: the critical EditText lacks an id,
        // so the stock save path skips it.
        const bool idless =
            i == 0 && spec.critical == CriticalState::EditTextNoId;
        if (!idless)
            attrs["id"] = "edit_" + std::to_string(i);
        root.children.push_back(leaf("EditText", std::move(attrs)));
    }
    for (int i = 0; i < spec.n_checkboxes; ++i) {
        std::map<std::string, std::string> attrs = {{"text", "option"}};
        const bool idless =
            i == 0 && spec.critical == CriticalState::CheckBoxNoId;
        if (!idless)
            attrs["id"] = "check_" + std::to_string(i);
        root.children.push_back(leaf("CheckBox", std::move(attrs)));
    }
    for (int i = 0; i < spec.n_progress_bars; ++i) {
        root.children.push_back(
            leaf("ProgressBar",
                 {{"id", "prog_" + std::to_string(i)}, {"max", "100"}}));
    }
    for (int i = 0; i < spec.n_image_views; ++i) {
        root.children.push_back(
            leaf("ImageView", {{"id", "img_" + std::to_string(i)},
                               {"src", "@drawable/img_" + std::to_string(i)}}));
    }
    for (int i = 0; i < spec.n_list_views; ++i) {
        root.children.push_back(
            leaf("ListView", {{"id", "list_" + std::to_string(i)},
                              {"items", itemsLiteral(spec.list_items)}}));
    }
    for (int i = 0; i < spec.n_video_views; ++i) {
        root.children.push_back(
            leaf("VideoView", {{"id", "video_" + std::to_string(i)},
                               {"video", "content://media/clip.mp4"}}));
    }
    root.children.push_back(
        leaf("Button", {{"id", "btn"}, {"text", "@string/update"}}));

    if (spec.critical == CriticalState::ScrollOffsetNoId) {
        // The "scroll location" issue class: the content sits inside an
        // id-less ScrollView whose offset the stock save path skips.
        LayoutNode scroll;
        scroll.element = "ScrollView";
        scroll.children.push_back(std::move(root));
        LayoutNode outer;
        outer.element = "LinearLayout";
        outer.attrs = {{"id", "outer"}, {"orientation", "vertical"}};
        outer.children.push_back(std::move(scroll));
        return outer;
    }
    return root;
}

namespace {

BuiltApp
buildFresh(const AppSpec &spec)
{
    auto table = std::make_shared<ResourceTable>();

    // Strings: a locale-qualified variant exists so locale switches also
    // re-resolve, like values-*/strings.xml.
    table->addString("title", ResourceQualifier::any(),
                     StringValue{spec.name});
    table->addString("title", ResourceQualifier::forLocale("fr-FR"),
                     StringValue{spec.name + " (fr)"});
    table->addString("placeholder", ResourceQualifier::any(),
                     StringValue{"--"});
    table->addString("hint", ResourceQualifier::any(),
                     StringValue{"enter text"});
    table->addString("update", ResourceQualifier::any(),
                     StringValue{"Update"});

    // Drawables sized per the spec; orientation-qualified variants force
    // a re-decode after rotation, like drawable-land/ assets.
    for (int i = 0; i < spec.n_image_views; ++i) {
        const std::string asset = "img_" + std::to_string(i);
        table->addDrawable(
            asset, ResourceQualifier::forOrientation(Orientation::Portrait),
            DrawableValue{asset + "_port", spec.image_edge_px,
                          spec.image_edge_px});
        table->addDrawable(
            asset, ResourceQualifier::forOrientation(Orientation::Landscape),
            DrawableValue{asset + "_land", spec.image_edge_px,
                          spec.image_edge_px});
    }

    // The main layout: same structure in both orientations (the essence
    // mapping relies on ids, not structure, but identical structure also
    // keeps the full-save path keys stable), registered as two qualified
    // variants like layout-port/ and layout-land/.
    const LayoutNode tree = buildMainLayout(spec);
    BuiltApp built;
    built.main_layout = table->addLayout(
        "main", ResourceQualifier::forOrientation(Orientation::Portrait),
        LayoutValue{tree});
    table->addLayout("main",
                     ResourceQualifier::forOrientation(Orientation::Landscape),
                     LayoutValue{tree});

    built.resources = std::move(table);
    return built;
}

} // namespace

BuiltApp
buildAppResources(const AppSpec &spec)
{
    // One app per host thread: a model-checker execution replays from a
    // fresh system and a crashed app reopens on one, so the same spec
    // installs many times in a row. The table is immutable once built,
    // so an equal spec shares it. Thread-confined, hence no lock.
    struct Memo
    {
        AppSpec spec;
        BuiltApp built;
    };
    thread_local std::optional<Memo> memo;
    if (!memo || memo->spec != spec)
        memo = Memo{spec, buildFresh(spec)};
    return memo->built;
}

ActivityFactory
makeAppFactory(const AppSpec &spec, const BuiltApp &built)
{
    const ResourceId layout = built.main_layout;
    return [spec, layout]() -> std::unique_ptr<Activity> {
        return std::make_unique<SimulatedApp>(spec, layout);
    };
}

} // namespace rchdroid::apps
