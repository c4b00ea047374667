/**
 * @file
 * LayoutInflater: element construction, resource references, cost
 * accounting, custom factories, repeat inflates of a compiled layout,
 * and inflaters sharing one table's plans.
 */
#include <gtest/gtest.h>

#include "view/image_view.h"
#include "view/layout_inflater.h"
#include "view/list_view.h"
#include "view/progress_bar.h"
#include "view/text_view.h"
#include "view/video_view.h"
#include "view/view_group.h"

namespace rchdroid {
namespace {

struct InflaterFixture : ::testing::Test
{
    InflaterFixture()
    {
        auto table = std::make_shared<ResourceTable>();
        table->addString("hello", ResourceQualifier::any(),
                         StringValue{"Hello"});
        table->addString("hello", ResourceQualifier::forLocale("fr-FR"),
                         StringValue{"Bonjour"});
        table->addDrawable("pic", ResourceQualifier::any(),
                           DrawableValue{"pic_any", 16, 16});

        LayoutNode root;
        root.element = "LinearLayout";
        root.attrs = {{"id", "root"}, {"orientation", "vertical"}};
        LayoutNode text;
        text.element = "TextView";
        text.attrs = {{"id", "title"}, {"text", "@string/hello"}};
        LayoutNode image;
        image.element = "ImageView";
        image.attrs = {{"id", "img"}, {"src", "@drawable/pic"}};
        root.children = {text, image};
        layout_id = table->addLayout("main", ResourceQualifier::any(),
                                     LayoutValue{root});

        ResourceCostModel costs;
        costs.lookup_cost = microseconds(10);
        costs.drawable_base_cost = microseconds(50);
        costs.drawable_per_kib = microseconds(1);
        costs.layout_per_node = microseconds(20);
        resources.emplace(std::move(table), costs);
        inflater.emplace(*resources, microseconds(100));
    }

    ResourceId layout_id = 0;
    std::optional<ResourceManager> resources;
    std::optional<LayoutInflater> inflater;
    Configuration config = Configuration::defaultPortrait();
};

TEST_F(InflaterFixture, BuildsDeclaredTree)
{
    auto result = inflater->inflate(layout_id, config);
    ASSERT_TRUE(result.isOk());
    View &root = *result.value().value;
    EXPECT_STREQ(root.typeName(), "LinearLayout");
    auto *title = dynamic_cast<TextView *>(root.findViewById("title"));
    ASSERT_NE(title, nullptr);
    EXPECT_EQ(title->text(), "Hello");
    auto *img = dynamic_cast<ImageView *>(root.findViewById("img"));
    ASSERT_NE(img, nullptr);
    EXPECT_EQ(img->assetName(), "pic_any");
}

TEST_F(InflaterFixture, LocaleAffectsStringResolution)
{
    auto result =
        inflater->inflate(layout_id, config.withLocale("fr-FR"));
    ASSERT_TRUE(result.isOk());
    auto *title = dynamic_cast<TextView *>(
        result.value().value->findViewById("title"));
    ASSERT_NE(title, nullptr);
    EXPECT_EQ(title->text(), "Bonjour");
}

TEST_F(InflaterFixture, CostCoversParseInflateAndResources)
{
    auto result = inflater->inflate(layout_id, config);
    ASSERT_TRUE(result.isOk());
    // layout: lookup 10 + 3 nodes * 20 = 70
    // inflate: 3 nodes * 100 = 300
    // string: 10; drawable: 10 + 50 + 1 = 61
    EXPECT_EQ(result.value().cost, microseconds(70 + 300 + 10 + 61));
}

TEST_F(InflaterFixture, InflateNodeDirect)
{
    LayoutNode node;
    node.element = "ProgressBar";
    node.attrs = {{"id", "p"}, {"progress", "30"}, {"max", "60"}};
    auto result = inflater->inflateNode(node, config);
    ASSERT_TRUE(result.isOk());
    auto *bar = dynamic_cast<ProgressBar *>(result.value().value.get());
    ASSERT_NE(bar, nullptr);
    EXPECT_EQ(bar->progress(), 30);
    EXPECT_EQ(bar->max(), 60);
}

TEST_F(InflaterFixture, AllBuiltinElements)
{
    for (const char *element :
         {"View", "FrameLayout", "LinearLayout", "ScrollView", "TextView",
          "Button", "EditText", "CheckBox", "ImageView", "ProgressBar",
          "SeekBar", "ListView", "GridView", "AbsListView", "VideoView"}) {
        LayoutNode node;
        node.element = element;
        node.attrs = {{"id", "x"}};
        auto result = inflater->inflateNode(node, config);
        ASSERT_TRUE(result.isOk()) << element;
    }
}

TEST_F(InflaterFixture, ListItemsAttribute)
{
    LayoutNode node;
    node.element = "ListView";
    node.attrs = {{"id", "l"}, {"items", "a|b|c"}};
    auto result = inflater->inflateNode(node, config);
    ASSERT_TRUE(result.isOk());
    auto *list = dynamic_cast<ListView *>(result.value().value.get());
    ASSERT_NE(list, nullptr);
    EXPECT_EQ(list->itemCount(), 3u);
}

TEST_F(InflaterFixture, GridColumns)
{
    LayoutNode node;
    node.element = "GridView";
    node.attrs = {{"id", "g"}, {"columns", "4"}};
    auto result = inflater->inflateNode(node, config);
    ASSERT_TRUE(result.isOk());
    auto *grid = dynamic_cast<GridView *>(result.value().value.get());
    ASSERT_NE(grid, nullptr);
    EXPECT_EQ(grid->columns(), 4);
}

TEST_F(InflaterFixture, CheckedAttribute)
{
    LayoutNode node;
    node.element = "CheckBox";
    node.attrs = {{"id", "c"}, {"checked", "true"}};
    auto result = inflater->inflateNode(node, config);
    ASSERT_TRUE(result.isOk());
    auto *box = dynamic_cast<CheckBox *>(result.value().value.get());
    ASSERT_NE(box, nullptr);
    EXPECT_TRUE(box->isChecked());
}

TEST_F(InflaterFixture, UnknownElementFails)
{
    LayoutNode node;
    node.element = "FancyWidget";
    auto result = inflater->inflateNode(node, config);
    EXPECT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::NotFound);
}

TEST_F(InflaterFixture, LeafWithChildrenFails)
{
    LayoutNode node;
    node.element = "TextView";
    LayoutNode child;
    child.element = "View";
    node.children.push_back(child);
    auto result = inflater->inflateNode(node, config);
    EXPECT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidArgument);
}

TEST_F(InflaterFixture, MissingStringReferenceFails)
{
    LayoutNode node;
    node.element = "TextView";
    node.attrs = {{"text", "@string/nope"}};
    EXPECT_FALSE(inflater->inflateNode(node, config));
}

TEST_F(InflaterFixture, CustomFactoryBuildsUserDefinedView)
{
    class CustomCard final : public TextView
    {
      public:
        explicit CustomCard(std::string id) : TextView(std::move(id)) {}
        const char *typeName() const override { return "CustomCard"; }
    };

    ASSERT_TRUE(inflater->registerFactory(
        "CustomCard",
        [](const std::string &id, const auto &) {
            return std::make_unique<CustomCard>(id);
        }));
    LayoutNode node;
    node.element = "CustomCard";
    node.attrs = {{"id", "card"}};
    auto result = inflater->inflateNode(node, config);
    ASSERT_TRUE(result.isOk());
    EXPECT_STREQ(result.value().value->typeName(), "CustomCard");
    // Still carries the Text migration class (basic-type migration).
    EXPECT_EQ(result.value().value->migrationClass(), MigrationClass::Text);
}

/** A fixture table's layout holding one element with `attrs`. */
ResourceId
addSingleElementLayout(ResourceTable &table, const std::string &name,
                       const std::string &element,
                       std::map<std::string, std::string> attrs)
{
    LayoutNode root;
    root.element = "FrameLayout";
    root.attrs = {{"id", "frame"}};
    LayoutNode child;
    child.element = element;
    child.attrs = std::move(attrs);
    root.children = {child};
    return table.addLayout(name, ResourceQualifier::any(), LayoutValue{root});
}

struct LateInflaterFixture : ::testing::Test
{
    LateInflaterFixture()
    {
        auto table = std::make_shared<ResourceTable>();
        table->addString("hello", ResourceQualifier::any(),
                         StringValue{"Hello"});
        card = addSingleElementLayout(
            *table, "card", "Card", {{"id", "c"}, {"text", "@string/hello"}});
        unknown = addSingleElementLayout(*table, "unknown", "FancyWidget",
                                         {{"id", "f"}});
        missing = addSingleElementLayout(
            *table, "missing", "TextView",
            {{"id", "t"}, {"text", "@string/nope"}});
        missing_drawable = addSingleElementLayout(
            *table, "missing_drawable", "ImageView",
            {{"id", "i"}, {"src", "@drawable/gone"}});
        ResourceCostModel costs;
        costs.lookup_cost = microseconds(10);
        resources.emplace(std::move(table), costs);
        inflater.emplace(*resources, microseconds(100));
    }

    ResourceId card = 0, unknown = 0, missing = 0, missing_drawable = 0;
    std::optional<ResourceManager> resources;
    std::optional<LayoutInflater> inflater;
    Configuration config = Configuration::defaultPortrait();
};

TEST_F(LateInflaterFixture, FactoryRegisteredAfterFirstInflateIsUsed)
{
    auto before = inflater->inflate(card, config);
    ASSERT_FALSE(before.isOk());
    EXPECT_EQ(before.status().toString(),
              "NotFound: unknown layout element Card");

    std::string seen_text;
    ASSERT_TRUE(inflater->registerFactory(
        "Card", [&](const std::string &id, const auto &attrs) {
            seen_text = attrs.at("text");
            return std::make_unique<Button>(id);
        }));
    auto after = inflater->inflate(card, config);
    ASSERT_TRUE(after.isOk()) << after.status().toString();
    View *built = after.value().value->findViewById("c");
    ASSERT_NE(built, nullptr);
    EXPECT_STREQ(built->typeName(), "Button");
    // The factory sees the raw attrs; the inflater resolves nothing.
    EXPECT_EQ(seen_text, "@string/hello");
    EXPECT_EQ(resources->stats().string_loads, 0u);

    // A replacement factory takes over on the next inflate too.
    ASSERT_TRUE(inflater->registerFactory(
        "Card", [](const std::string &id, const auto &) {
            return std::make_unique<EditText>(id);
        }));
    auto replaced = inflater->inflate(card, config);
    ASSERT_TRUE(replaced.isOk());
    EXPECT_STREQ(replaced.value().value->findViewById("c")->typeName(),
                 "EditText");
}

TEST_F(LateInflaterFixture, FailuresRepeatOnEveryInflate)
{
    for (int round = 0; round < 3; ++round) {
        const ResourceLoadStats before = resources->stats();
        auto bad_element = inflater->inflate(unknown, config);
        ASSERT_FALSE(bad_element.isOk());
        EXPECT_EQ(bad_element.status().toString(),
                  "NotFound: unknown layout element FancyWidget");
        auto bad_string = inflater->inflate(missing, config);
        ASSERT_FALSE(bad_string.isOk());
        EXPECT_EQ(bad_string.status().toString(),
                  "NotFound: no resource named nope");
        auto bad_drawable = inflater->inflate(missing_drawable, config);
        ASSERT_FALSE(bad_drawable.isOk());
        EXPECT_EQ(bad_drawable.status().toString(),
                  "NotFound: no resource named gone");
        // Each failing inflate still loaded (and counted) its layout.
        EXPECT_EQ(resources->stats().layout_loads - before.layout_loads, 3u);
        EXPECT_EQ(resources->stats().string_loads, before.string_loads);
    }
}

TEST_F(InflaterFixture, InflateNodeBuildsEachTreeItIsGiven)
{
    LayoutNode node;
    node.element = "LinearLayout";
    node.attrs = {{"id", "a"}, {"orientation", "horizontal"}};
    LayoutNode text;
    text.element = "TextView";
    text.attrs = {{"id", "a_text"}, {"text", "@string/hello"}};
    node.children = {text};
    auto first = inflater->inflateNode(node, config);
    ASSERT_TRUE(first.isOk());

    // Same storage, different tree: nothing may be reused from the first.
    node.element = "FrameLayout";
    node.attrs = {{"id", "b"}};
    LayoutNode list;
    list.element = "ListView";
    list.attrs = {{"id", "b_list"}, {"items", "x|y"}};
    node.children = {list, text};
    auto second = inflater->inflateNode(node, config.withLocale("fr-FR"));
    ASSERT_TRUE(second.isOk());

    const View &a = *first.value().value;
    EXPECT_STREQ(a.typeName(), "LinearLayout");
    EXPECT_EQ(dynamic_cast<const LinearLayout &>(a).direction(),
              LinearLayout::Direction::Horizontal);
    EXPECT_EQ(dynamic_cast<const ViewGroup &>(a).childCount(), 1u);
    auto *a_text =
        dynamic_cast<TextView *>(first.value().value->findViewById("a_text"));
    ASSERT_NE(a_text, nullptr);
    EXPECT_EQ(a_text->text(), "Hello");
    EXPECT_TRUE(a_text->isTextFromResource());

    View &b = *second.value().value;
    EXPECT_STREQ(b.typeName(), "FrameLayout");
    EXPECT_EQ(b.id(), "b");
    ASSERT_EQ(dynamic_cast<ViewGroup &>(b).childCount(), 2u);
    auto *b_list = dynamic_cast<ListView *>(b.findViewById("b_list"));
    ASSERT_NE(b_list, nullptr);
    EXPECT_EQ(b_list->items(), (std::vector<std::string>{"x", "y"}));
    auto *b_text = dynamic_cast<TextView *>(b.findViewById("a_text"));
    ASSERT_NE(b_text, nullptr);
    EXPECT_EQ(b_text->text(), "Bonjour");
    // 2 + 3 nodes at 100 us, one string load (10 us) per tree.
    EXPECT_EQ(first.value().cost, microseconds(2 * 100 + 10));
    EXPECT_EQ(second.value().cost, microseconds(3 * 100 + 10));
}

/** The tree's types, ids, texts and assets, one line per view. */
std::string
describe(const View &view)
{
    std::string out = std::string(view.typeName()) + "#" + view.id();
    if (const auto *text = dynamic_cast<const TextView *>(&view))
        out += " text=" + text->text();
    if (const auto *image = dynamic_cast<const ImageView *>(&view))
        out += " asset=" + image->assetName();
    out += "\n";
    if (const auto *group = dynamic_cast<const ViewGroup *>(&view)) {
        for (std::size_t i = 0; i < group->childCount(); ++i)
            out += describe(group->childAt(i));
    }
    return out;
}

/** One inflate's tree, cost and the loads it added to `resources`. */
std::string
inflateSummary(LayoutInflater &inflater, const ResourceManager &resources,
               ResourceId layout, const Configuration &config)
{
    const ResourceLoadStats before = resources.stats();
    auto result = inflater.inflate(layout, config);
    if (!result)
        return result.status().toString();
    const ResourceLoadStats &after = resources.stats();
    return describe(*result.value().value) +
           "cost=" + std::to_string(result.value().cost) +
           " strings=" + std::to_string(after.string_loads - before.string_loads) +
           " drawables=" +
           std::to_string(after.drawable_loads - before.drawable_loads) +
           " layouts=" + std::to_string(after.layout_loads - before.layout_loads) +
           " bytes=" +
           std::to_string(after.drawable_bytes - before.drawable_bytes) +
           " load_cost=" + std::to_string(after.total_cost - before.total_cost);
}

TEST_F(InflaterFixture, InflatersOverOneTableMatchACopiedTable)
{
    // A second inflater over the same table shares its compiled plans;
    // one over a copy of the table compiles its own.
    ResourceManager shared(resources->sharedTable(), resources->costModel());
    LayoutInflater second(shared, microseconds(100));
    ResourceManager copied(std::make_shared<const ResourceTable>(
                               resources->table()),
                           resources->costModel());
    LayoutInflater fresh(copied, microseconds(100));

    for (const Configuration &each :
         {config, config.withLocale("fr-FR"), config, config}) {
        const std::string first =
            inflateSummary(*inflater, *resources, layout_id, each);
        EXPECT_EQ(inflateSummary(second, shared, layout_id, each), first);
        EXPECT_EQ(inflateSummary(fresh, copied, layout_id, each), first);
    }
    EXPECT_EQ(resources->stats().string_loads, copied.stats().string_loads);
    EXPECT_EQ(shared.stats().drawable_bytes, copied.stats().drawable_bytes);
    EXPECT_EQ(shared.stats().total_cost, copied.stats().total_cost);
}

TEST_F(LateInflaterFixture, FactoriesStayWithTheirInflater)
{
    ASSERT_TRUE(inflater->registerFactory(
        "Card", [](const std::string &id, const auto &) {
            return std::make_unique<Button>(id);
        }));
    ASSERT_TRUE(inflater->inflate(card, config).isOk());

    // Same table, so the plan compiled above is shared; the factory is not.
    ResourceManager shared(resources->sharedTable(), resources->costModel());
    LayoutInflater other(shared, microseconds(100));
    auto unregistered = other.inflate(card, config);
    ASSERT_FALSE(unregistered.isOk());
    EXPECT_EQ(unregistered.status().toString(),
              "NotFound: unknown layout element Card");

    ASSERT_TRUE(other.registerFactory(
        "Card", [](const std::string &id, const auto &) {
            return std::make_unique<EditText>(id);
        }));
    auto mine = inflater->inflate(card, config);
    auto theirs = other.inflate(card, config);
    ASSERT_TRUE(mine.isOk());
    ASSERT_TRUE(theirs.isOk());
    EXPECT_STREQ(mine.value().value->findViewById("c")->typeName(), "Button");
    EXPECT_STREQ(theirs.value().value->findViewById("c")->typeName(),
                 "EditText");
}

TEST_F(LateInflaterFixture, FactoryMayInflateAnotherTablesLayout)
{
    // The factory's inflate replaces this thread's plan cache while the
    // outer inflate is still walking its plan.
    auto other_table = std::make_shared<ResourceTable>();
    const ResourceId other_layout = addSingleElementLayout(
        *other_table, "other", "TextView", {{"id", "o"}, {"text", "x"}});
    ResourceManager other_resources(other_table, ResourceCostModel{});
    LayoutInflater other(other_resources, microseconds(100));
    ASSERT_TRUE(inflater->registerFactory(
        "Card", [&](const std::string &id, const auto &) {
            EXPECT_TRUE(other.inflate(other_layout, config).isOk());
            return std::make_unique<Button>(id);
        }));
    for (int round = 0; round < 2; ++round) {
        auto result = inflater->inflate(card, config);
        ASSERT_TRUE(result.isOk()) << result.status().toString();
        EXPECT_STREQ(result.value().value->findViewById("c")->typeName(),
                     "Button");
    }
}

TEST_F(InflaterFixture, CannotOverrideBuiltins)
{
    const auto status = inflater->registerFactory(
        "TextView", [](const std::string &id, const auto &) {
            return std::make_unique<TextView>(id);
        });
    EXPECT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), StatusCode::InvalidArgument);
}

} // namespace
} // namespace rchdroid
