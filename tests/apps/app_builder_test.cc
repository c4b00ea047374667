/**
 * @file
 * app_builder: the generated resources and layout must express the
 * spec's composition and issue class; an equal spec reuses the table
 * built last on its thread, and threads never see each other's.
 */
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "apps/app_builder.h"
#include "apps/corpus.h"
#include "platform/logging.h"
#include "sim/android_system.h"

namespace rchdroid::apps {
namespace {

AppSpec
sampleSpec()
{
    AppSpec spec;
    spec.name = "Sample";
    spec.n_text_views = 2;
    spec.n_edit_texts = 1;
    spec.n_image_views = 3;
    spec.n_checkboxes = 1;
    spec.n_progress_bars = 1;
    spec.n_list_views = 1;
    spec.list_items = 4;
    spec.n_video_views = 1;
    spec.image_edge_px = 32;
    return spec;
}

int
countElement(const LayoutNode &node, const std::string &element)
{
    int n = node.element == element ? 1 : 0;
    for (const auto &child : node.children)
        n += countElement(child, element);
    return n;
}

TEST(AppBuilder, LayoutContainsDeclaredComposition)
{
    const LayoutNode root = buildMainLayout(sampleSpec());
    EXPECT_EQ(countElement(root, "TextView"), 3); // title + 2
    EXPECT_EQ(countElement(root, "EditText"), 1);
    EXPECT_EQ(countElement(root, "ImageView"), 3);
    EXPECT_EQ(countElement(root, "CheckBox"), 1);
    EXPECT_EQ(countElement(root, "ProgressBar"), 1);
    EXPECT_EQ(countElement(root, "ListView"), 1);
    EXPECT_EQ(countElement(root, "VideoView"), 1);
    EXPECT_EQ(countElement(root, "Button"), 1);
}

TEST(AppBuilder, TotalLayoutViewsMatchesNodeCount)
{
    const AppSpec spec = sampleSpec();
    const LayoutNode root = buildMainLayout(spec);
    // totalLayoutViews counts the layout's nodes (the decor view on top
    // of them belongs to the window, not the layout).
    EXPECT_EQ(root.countNodes(), spec.totalLayoutViews());
}

TEST(AppBuilder, EditTextNoIdIssueOmitsTheId)
{
    AppSpec spec = sampleSpec();
    spec.critical = CriticalState::EditTextNoId;
    const LayoutNode root = buildMainLayout(spec);
    bool found_idless_edit = false;
    std::function<void(const LayoutNode &)> walk =
        [&](const LayoutNode &node) {
            if (node.element == "EditText" && !node.attrs.count("id"))
                found_idless_edit = true;
            for (const auto &child : node.children)
                walk(child);
        };
    walk(root);
    EXPECT_TRUE(found_idless_edit);
}

TEST(AppBuilder, ScrollIssueWrapsContentInIdlessScrollView)
{
    AppSpec spec = sampleSpec();
    spec.critical = CriticalState::ScrollOffsetNoId;
    const LayoutNode root = buildMainLayout(spec);
    EXPECT_EQ(countElement(root, "ScrollView"), 1);
}

TEST(AppBuilder, ResourcesResolveUnderBothOrientations)
{
    const AppSpec spec = sampleSpec();
    const BuiltApp built = buildAppResources(spec);
    const auto port = built.resources->resolveLayout(
        built.main_layout, Configuration::defaultPortrait());
    const auto land = built.resources->resolveLayout(
        built.main_layout, Configuration::defaultLandscape());
    EXPECT_TRUE(port.isOk());
    EXPECT_TRUE(land.isOk());
}

TEST(AppBuilder, DrawablesAreOrientationQualified)
{
    const AppSpec spec = sampleSpec();
    const BuiltApp built = buildAppResources(spec);
    const auto id =
        built.resources->idForName(ResourceType::Drawable, "img_0");
    ASSERT_TRUE(id.isOk());
    const auto port = built.resources->resolveDrawable(
        id.value(), Configuration::defaultPortrait());
    const auto land = built.resources->resolveDrawable(
        id.value(), Configuration::defaultLandscape());
    ASSERT_TRUE(port.isOk());
    ASSERT_TRUE(land.isOk());
    EXPECT_NE(port.value().asset_name, land.value().asset_name);
    EXPECT_EQ(port.value().width_px, 32);
}

TEST(AppBuilder, TitleIsLocaleQualified)
{
    const AppSpec spec = sampleSpec();
    const BuiltApp built = buildAppResources(spec);
    const auto id = built.resources->idForName(ResourceType::String, "title");
    ASSERT_TRUE(id.isOk());
    const auto fr = built.resources->resolveString(
        id.value(), Configuration::defaultPortrait().withLocale("fr-FR"));
    ASSERT_TRUE(fr.isOk());
    EXPECT_EQ(fr.value().text, "Sample (fr)");
}

TEST(AppBuilder, FactoryProducesSimulatedApp)
{
    const AppSpec spec = sampleSpec();
    const BuiltApp built = buildAppResources(spec);
    const auto factory = makeAppFactory(spec, built);
    auto activity = factory();
    ASSERT_NE(activity, nullptr);
    EXPECT_EQ(activity->component(), spec.component());
}

TEST(AppBuilderReuse, EqualSpecReturnsTheSameTable)
{
    const BuiltApp first = buildAppResources(sampleSpec());
    const BuiltApp second = buildAppResources(sampleSpec());
    EXPECT_EQ(first.resources.get(), second.resources.get());
    EXPECT_EQ(first.main_layout, second.main_layout);
}

TEST(AppBuilderReuse, ChangedSpecBuildsANewTableWithItsContent)
{
    const BuiltApp base = buildAppResources(sampleSpec());
    const Configuration portrait = Configuration::defaultPortrait();
    const auto title = [&](const BuiltApp &built) {
        const auto id = built.resources->idForName(ResourceType::String,
                                                   "title");
        return built.resources->resolveString(id.value(), portrait)
            .value()
            .text;
    };
    const auto drawable = [&](const BuiltApp &built, const std::string &name) {
        return built.resources->idForName(ResourceType::Drawable, name);
    };
    const auto layout = [&](const BuiltApp &built) {
        return built.resources->resolveLayout(built.main_layout, portrait)
            .value()
            ->root;
    };

    AppSpec renamed = sampleSpec();
    renamed.name = "Renamed";
    const BuiltApp by_name = buildAppResources(renamed);
    EXPECT_NE(by_name.resources.get(), base.resources.get());
    EXPECT_EQ(title(by_name), "Renamed");

    AppSpec more_images = sampleSpec();
    more_images.n_image_views = 5;
    const BuiltApp by_images = buildAppResources(more_images);
    EXPECT_NE(by_images.resources.get(), by_name.resources.get());
    EXPECT_TRUE(drawable(by_images, "img_4").isOk());
    EXPECT_FALSE(drawable(by_name, "img_4").isOk());
    EXPECT_EQ(countElement(layout(by_images), "ImageView"), 5);

    AppSpec bigger = sampleSpec();
    bigger.image_edge_px = 64;
    const BuiltApp by_edge = buildAppResources(bigger);
    EXPECT_NE(by_edge.resources.get(), by_images.resources.get());
    const auto img = drawable(by_edge, "img_0");
    ASSERT_TRUE(img.isOk());
    EXPECT_EQ(by_edge.resources->resolveDrawable(img.value(), portrait)
                  .value()
                  .width_px,
              64);

    AppSpec scrolled = sampleSpec();
    scrolled.critical = CriticalState::ScrollOffsetNoId;
    const BuiltApp by_critical = buildAppResources(scrolled);
    EXPECT_NE(by_critical.resources.get(), by_edge.resources.get());
    EXPECT_EQ(countElement(layout(by_critical), "ScrollView"), 1);
    EXPECT_EQ(countElement(layout(by_edge), "ScrollView"), 0);
}

/** What one boot, rotate and verify of an app observed, as text. */
std::string
bootRotateVerify(const AppSpec &spec)
{
    sim::AndroidSystem system;
    system.install(spec);
    system.launch(spec);
    system.applyUserState(spec);
    system.rotate();
    system.waitHandlingComplete();
    ActivityThread &thread = system.threadFor(spec);
    const ResourceLoadStats &loads = thread.resources().stats();
    return spec.name + ": " +
           (thread.crashed() ? "crashed"
                             : system.verifyCriticalState(spec).toString()) +
           " end=" + std::to_string(system.scheduler().now()) +
           " strings=" + std::to_string(loads.string_loads) +
           " drawables=" + std::to_string(loads.drawable_loads) +
           " layouts=" + std::to_string(loads.layout_loads) +
           " bytes=" + std::to_string(loads.drawable_bytes) +
           " load_cost=" + std::to_string(loads.total_cost);
}

/** Worker `w`'s sequence: the shared spec between two of its own. */
std::vector<AppSpec>
workSequence(const std::vector<AppSpec> &corpus, int w)
{
    const AppSpec &shared = corpus[0];
    const AppSpec &own_a = corpus[1 + 2 * w];
    const AppSpec &own_b = corpus[2 + 2 * w];
    return {shared, own_a, shared, own_b, shared, shared, own_a, own_b};
}

TEST(AppBuilderReuse, ThreadsMatchTheSerialRun)
{
    ScopedLogSilencer quiet;
    const std::vector<AppSpec> corpus = tp37();
    constexpr int kWorkers = 4;
    std::vector<std::vector<std::string>> serial(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
        for (const AppSpec &spec : workSequence(corpus, w))
            serial[w].push_back(bootRotateVerify(spec));
    }

    std::vector<std::vector<std::string>> threaded(kWorkers);
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&, w] {
            ScopedLogSilencer worker_quiet;
            for (const AppSpec &spec : workSequence(corpus, w))
                threaded[w].push_back(bootRotateVerify(spec));
        });
    }
    for (std::thread &worker : workers)
        worker.join();

    for (int w = 0; w < kWorkers; ++w)
        EXPECT_EQ(threaded[w], serial[w]) << "worker " << w;
}

} // namespace
} // namespace rchdroid::apps
