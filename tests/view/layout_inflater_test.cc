/**
 * @file
 * LayoutInflater: element construction, resource references, cost
 * accounting, failures, repeat inflates of a compiled layout, and
 * inflaters sharing one table's plans.
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

    /** Inflate `root` as a layout added to a copy of the table. */
    Result<Loaded<std::unique_ptr<View>>>
    inflateTree(const LayoutNode &root)
    {
        auto table = std::make_shared<ResourceTable>(resources->table());
        const ResourceId tree = table->addLayout(
            "tree", ResourceQualifier::any(), LayoutValue{root});
        ResourceManager copy(std::move(table), resources->costModel());
        return LayoutInflater(copy, microseconds(100)).inflate(tree, config);
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

/** A childless `element` with `attrs`. */
LayoutNode
leaf(const std::string &element, std::map<std::string, std::string> attrs)
{
    LayoutNode node;
    node.element = element;
    node.attrs = std::move(attrs);
    return node;
}

TEST_F(InflaterFixture, ProgressAttributes)
{
    auto result = inflateTree(
        leaf("ProgressBar", {{"id", "p"}, {"progress", "30"}, {"max", "60"}}));
    ASSERT_TRUE(result.isOk());
    auto *bar = dynamic_cast<ProgressBar *>(result.value().value.get());
    ASSERT_NE(bar, nullptr);
    EXPECT_EQ(bar->progress(), 30);
    EXPECT_EQ(bar->max(), 60);
}

TEST_F(InflaterFixture, AllBuiltinElements)
{
    for (const char *element :
         {"View", "ViewGroup", "FrameLayout", "LinearLayout", "ScrollView",
          "TextView", "Button", "EditText", "CheckBox", "ImageView",
          "ProgressBar", "ListView", "VideoView"}) {
        auto result = inflateTree(leaf(element, {{"id", "x"}}));
        ASSERT_TRUE(result.isOk()) << element;
        EXPECT_EQ(result.value().value->id(), "x") << element;
    }
}

TEST_F(InflaterFixture, ListItemsAttribute)
{
    auto result = inflateTree(leaf("ListView", {{"id", "l"}, {"items", "a|b|c"}}));
    ASSERT_TRUE(result.isOk());
    auto *list = dynamic_cast<ListView *>(result.value().value.get());
    ASSERT_NE(list, nullptr);
    EXPECT_EQ(list->itemCount(), 3u);
}

TEST_F(InflaterFixture, CheckedAttribute)
{
    auto result =
        inflateTree(leaf("CheckBox", {{"id", "c"}, {"checked", "true"}}));
    ASSERT_TRUE(result.isOk());
    auto *box = dynamic_cast<CheckBox *>(result.value().value.get());
    ASSERT_NE(box, nullptr);
    EXPECT_TRUE(box->isChecked());
}

TEST_F(InflaterFixture, UnknownElementFails)
{
    auto result = inflateTree(leaf("FancyWidget", {}));
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::NotFound);
    EXPECT_EQ(result.status().toString(),
              "NotFound: unknown layout element FancyWidget");
}

TEST_F(InflaterFixture, LeafWithChildrenFails)
{
    LayoutNode node = leaf("TextView", {});
    node.children.push_back(leaf("View", {}));
    auto result = inflateTree(node);
    EXPECT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidArgument);
}

TEST_F(InflaterFixture, MissingStringReferenceFails)
{
    EXPECT_FALSE(inflateTree(leaf("TextView", {{"text", "@string/nope"}})));
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

struct BrokenLayoutFixture : ::testing::Test
{
    BrokenLayoutFixture()
    {
        auto table = std::make_shared<ResourceTable>();
        table->addString("hello", ResourceQualifier::any(),
                         StringValue{"Hello"});
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

    ResourceId unknown = 0, missing = 0, missing_drawable = 0;
    std::optional<ResourceManager> resources;
    std::optional<LayoutInflater> inflater;
    Configuration config = Configuration::defaultPortrait();
};

TEST_F(BrokenLayoutFixture, FailuresRepeatOnEveryInflate)
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

TEST(LayoutInflater, EachLayoutOfATableBuildsItsOwnTree)
{
    auto table = std::make_shared<ResourceTable>();
    table->addString("hello", ResourceQualifier::any(), StringValue{"Hello"});
    table->addString("hello", ResourceQualifier::forLocale("fr-FR"),
                     StringValue{"Bonjour"});
    const LayoutNode text =
        leaf("TextView", {{"id", "a_text"}, {"text", "@string/hello"}});
    LayoutNode a = leaf("LinearLayout", {{"id", "a"}, {"orientation", "horizontal"}});
    a.children = {text};
    LayoutNode b = leaf("FrameLayout", {{"id", "b"}});
    b.children = {leaf("ListView", {{"id", "b_list"}, {"items", "x|y"}}), text};
    const ResourceId a_id =
        table->addLayout("a", ResourceQualifier::any(), LayoutValue{a});
    const ResourceId b_id =
        table->addLayout("b", ResourceQualifier::any(), LayoutValue{b});
    ResourceCostModel costs;
    costs.lookup_cost = microseconds(10);
    costs.layout_per_node = microseconds(20);
    ResourceManager resources(std::move(table), costs);
    LayoutInflater inflater(resources, microseconds(100));
    const Configuration config = Configuration::defaultPortrait();

    // Alternate the two, so each inflate but the first two walks a
    // cached plan.
    for (int round = 0; round < 2; ++round) {
        auto first = inflater.inflate(a_id, config);
        ASSERT_TRUE(first.isOk());
        auto second = inflater.inflate(b_id, config.withLocale("fr-FR"));
        ASSERT_TRUE(second.isOk());

        const View &a_root = *first.value().value;
        EXPECT_STREQ(a_root.typeName(), "LinearLayout");
        EXPECT_EQ(dynamic_cast<const LinearLayout &>(a_root).direction(),
                  LinearLayout::Direction::Horizontal);
        EXPECT_EQ(dynamic_cast<const ViewGroup &>(a_root).childCount(), 1u);
        auto *a_text = dynamic_cast<TextView *>(
            first.value().value->findViewById("a_text"));
        ASSERT_NE(a_text, nullptr);
        EXPECT_EQ(a_text->text(), "Hello");
        EXPECT_TRUE(a_text->isTextFromResource());

        View &b_root = *second.value().value;
        EXPECT_STREQ(b_root.typeName(), "FrameLayout");
        EXPECT_EQ(b_root.id(), "b");
        ASSERT_EQ(dynamic_cast<ViewGroup &>(b_root).childCount(), 2u);
        auto *b_list = dynamic_cast<ListView *>(b_root.findViewById("b_list"));
        ASSERT_NE(b_list, nullptr);
        EXPECT_EQ(b_list->items(), (std::vector<std::string>{"x", "y"}));
        auto *b_text = dynamic_cast<TextView *>(b_root.findViewById("a_text"));
        ASSERT_NE(b_text, nullptr);
        EXPECT_EQ(b_text->text(), "Bonjour");
        // Layout lookup 10 + 20 per node, 100 per node, one string load
        // (10) per tree.
        EXPECT_EQ(first.value().cost, microseconds(10 + 2 * 20 + 2 * 100 + 10));
        EXPECT_EQ(second.value().cost,
                  microseconds(10 + 3 * 20 + 3 * 100 + 10));
    }
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

} // namespace
} // namespace rchdroid
