/**
 * @file
 * Inflation is deterministic and memo-transparent: every corpus app's
 * main layout, plus three §5.1 benchmark apps, inflates to the same
 * tree, cost and resource loads on an inflater's first (compiling) and
 * second (memoized) inflate, and on a second inflater over the same
 * table (sharing the plans), under portrait en-US, landscape en-US and
 * landscape fr-FR. The combined digest pins the trees, costs and load
 * counts the inflater produced before layouts were compiled into plans.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/app_builder.h"
#include "apps/corpus.h"
#include "sa/sweep.h"
#include "view/image_view.h"
#include "view/layout_inflater.h"
#include "view/list_view.h"
#include "view/progress_bar.h"
#include "view/text_view.h"
#include "view/video_view.h"
#include "view/view_group.h"

namespace rchdroid {
namespace {

/** Digest of every dump below, generated before layouts were compiled. */
constexpr std::uint64_t kPinnedDigest = 0x8b1b67882d660e39ull;

std::uint64_t
fnv1a(std::uint64_t hash, const std::string &text)
{
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** One line per view, in child order, with every inflated attribute. */
void
dumpTree(const View &view, int depth, std::string &out)
{
    out += std::string(2 * depth, ' ') + view.typeName() + " id=\"" +
           view.id() + "\"";
    if (const auto *text = dynamic_cast<const TextView *>(&view)) {
        out += " text=\"" + text->text() + "\"" +
               (text->isTextFromResource() ? "(res)" : "");
    }
    if (const auto *edit = dynamic_cast<const EditText *>(&view))
        out += " hint=\"" + edit->hint() + "\"";
    if (const auto *box = dynamic_cast<const CheckBox *>(&view))
        out += box->isChecked() ? " checked" : " unchecked";
    if (const auto *image = dynamic_cast<const ImageView *>(&view)) {
        if (const auto &drawable = image->drawable()) {
            out += " drawable=" + drawable->asset_name + ":" +
                   std::to_string(drawable->width_px) + "x" +
                   std::to_string(drawable->height_px) +
                   (image->isDrawableFromResource() ? "(res)" : "");
        }
    }
    if (const auto *list = dynamic_cast<const AbsListView *>(&view)) {
        out += " items=[";
        for (const std::string &item : list->items())
            out += item + "|";
        out += "]";
    }
    if (const auto *bar = dynamic_cast<const ProgressBar *>(&view)) {
        out += " max=" + std::to_string(bar->max()) +
               " progress=" + std::to_string(bar->progress());
    }
    if (const auto *video = dynamic_cast<const VideoView *>(&view))
        out += " video=\"" + video->videoUri() + "\"";
    if (const auto *linear = dynamic_cast<const LinearLayout *>(&view)) {
        out += linear->direction() == LinearLayout::Direction::Horizontal
                   ? " horizontal"
                   : " vertical";
    }
    out += "\n";
    if (const auto *group = dynamic_cast<const ViewGroup *>(&view)) {
        for (std::size_t i = 0; i < group->childCount(); ++i)
            dumpTree(group->childAt(i), depth + 1, out);
    }
}

/** Inflate once; dump the tree, the cost and this inflate's loads. */
std::string
inflateAndDump(LayoutInflater &inflater, ResourceManager &resources,
               ResourceId layout, const Configuration &config)
{
    const ResourceLoadStats before = resources.stats();
    auto inflated = inflater.inflate(layout, config);
    if (!inflated)
        return "error " + inflated.status().toString() + "\n";
    const ResourceLoadStats &after = resources.stats();
    std::string out;
    dumpTree(*inflated.value().value, 0, out);
    out += "cost=" + std::to_string(inflated.value().cost) +
           " strings=" +
           std::to_string(after.string_loads - before.string_loads) +
           " drawables=" +
           std::to_string(after.drawable_loads - before.drawable_loads) +
           " layouts=" +
           std::to_string(after.layout_loads - before.layout_loads) +
           " dimensions=" +
           std::to_string(after.dimension_loads - before.dimension_loads) +
           " bytes=" +
           std::to_string(after.drawable_bytes - before.drawable_bytes) +
           " load_cost=" +
           std::to_string(after.total_cost - before.total_cost) + "\n";
    return out;
}

TEST(InflateEquivalence, MemoizedInflatesMatchFirstInflatesAndThePin)
{
    std::vector<apps::AppSpec> specs = sa::fullCorpus();
    for (int n : {1, 16, 128})
        specs.push_back(apps::makeBenchmarkApp(n));
    const Configuration configs[] = {
        Configuration::defaultPortrait(),
        Configuration::defaultLandscape(),
        Configuration::defaultLandscape().withLocale("fr-FR"),
    };

    ResourceCostModel costs;
    costs.lookup_cost = microseconds(7);
    costs.drawable_base_cost = microseconds(50);
    costs.drawable_per_kib = microseconds(3);
    costs.layout_per_node = microseconds(11);

    std::uint64_t digest = 0xcbf29ce484222325ull;
    int trees = 0;
    for (const apps::AppSpec &spec : specs) {
        const apps::BuiltApp built = apps::buildAppResources(spec);
        ResourceManager resources(built.resources, costs);
        LayoutInflater inflater(resources, microseconds(13));
        ResourceManager other_resources(built.resources, costs);
        LayoutInflater other(other_resources, microseconds(13));
        for (const Configuration &config : configs) {
            const std::string first =
                inflateAndDump(inflater, resources, built.main_layout, config);
            const std::string second =
                inflateAndDump(inflater, resources, built.main_layout, config);
            const std::string shared = inflateAndDump(
                other, other_resources, built.main_layout, config);
            EXPECT_EQ(first, second)
                << spec.name << " under " << config.toString();
            EXPECT_EQ(first, shared)
                << spec.name << " under " << config.toString();
            EXPECT_EQ(first.rfind("error ", 0), std::string::npos) << first;
            digest = fnv1a(digest, first);
            ++trees;
        }
    }
    EXPECT_EQ(trees, 3 * static_cast<int>(specs.size()));
    EXPECT_EQ(digest, kPinnedDigest) << std::hex << "0x" << digest;
}

} // namespace
} // namespace rchdroid
