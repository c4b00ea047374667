/**
 * @file
 * Random-tree property tests: for arbitrary generated view trees,
 *  (1) a full save → restore round trip into a structural clone is
 *      lossless for every migratable attribute, and
 *  (2) after an essence mapping, random mutations on one tree migrate
 *      to the other such that the id-matched views agree.
 * Seeded generation keeps every failure reproducible.
 */
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "platform/rng.h"
#include "rch/lazy_migrator.h"
#include "rch/view_tree_mapper.h"
#include "view/extra_widgets.h"
#include "view/image_view.h"
#include "view/text_view.h"
#include "view/video_view.h"
#include "view/view_group.h"

namespace rchdroid {
namespace {

/** Build a random widget; `id_counter` keeps ids unique and stable. */
std::unique_ptr<View>
randomWidget(Rng &rng, int &id_counter)
{
    const std::string id = rng.nextBool(0.85)
                               ? "w" + std::to_string(id_counter++)
                               : std::string{}; // some id-less views
    switch (rng.nextInt(0, 7)) {
      case 0: {
        auto v = std::make_unique<TextView>(id);
        v->setText("t" + std::to_string(rng.nextInt(0, 999)));
        return v;
      }
      case 1: {
        auto v = std::make_unique<EditText>(id);
        v->typeText("e" + std::to_string(rng.nextInt(0, 999)));
        return v;
      }
      case 2: {
        auto v = std::make_unique<CheckBox>(id);
        v->setChecked(rng.nextBool(0.5));
        return v;
      }
      case 3: {
        auto v = std::make_unique<ProgressBar>(id);
        v->setProgress(static_cast<int>(rng.nextInt(0, 100)));
        return v;
      }
      case 4: {
        auto v = std::make_unique<ListView>(id);
        v->setItems({"a", "b", "c", "d"});
        if (rng.nextBool(0.7))
            v->setItemChecked(static_cast<int>(rng.nextInt(0, 3)));
        return v;
      }
      case 5: {
        auto v = std::make_unique<ImageView>(id);
        if (rng.nextBool(0.7)) {
            v->setDrawable(DrawableValue{
                "img" + std::to_string(rng.nextInt(0, 99)), 8, 8});
        }
        return v;
      }
      case 6: {
        auto v = std::make_unique<VideoView>(id);
        v->setVideoUri("u" + std::to_string(rng.nextInt(0, 9)));
        v->seekTo(rng.nextInt(0, 100'000));
        return v;
      }
      default: {
        auto v = std::make_unique<RatingBar>(id, 5);
        v->setRating(static_cast<double>(rng.nextInt(0, 10)) / 2.0);
        return v;
      }
    }
}

/** Random tree: nested groups with random leaves. */
std::unique_ptr<ViewGroup>
randomTree(Rng &rng, int &id_counter, int depth = 0)
{
    auto group = [&]() -> std::unique_ptr<ViewGroup> {
        const std::string id = rng.nextBool(0.7)
                                   ? "g" + std::to_string(id_counter++)
                                   : std::string{};
        if (rng.nextBool(0.3))
            return std::make_unique<ScrollView>(id);
        return std::make_unique<LinearLayout>(
            id, rng.nextBool(0.5) ? LinearLayout::Direction::Vertical
                                  : LinearLayout::Direction::Horizontal);
    }();
    if (auto *scroll = dynamic_cast<ScrollView *>(group.get()))
        scroll->scrollTo(static_cast<int>(rng.nextInt(0, 500)));

    const int children = static_cast<int>(rng.nextInt(1, depth < 2 ? 5 : 3));
    for (int i = 0; i < children; ++i) {
        if (depth < 3 && rng.nextBool(0.25))
            group->addChild(randomTree(rng, id_counter, depth + 1));
        else
            group->addChild(randomWidget(rng, id_counter));
    }
    return group;
}

/**
 * Rebuild the same tree from the same seed — a structural clone with
 * identical ids but *reset* state where the builder randomises (we use
 * a fresh rng with the same seed so attributes match too, then wipe the
 * migratable state to defaults).
 */
std::unique_ptr<ViewGroup>
cloneStructure(std::uint64_t seed)
{
    Rng rng(seed);
    int id_counter = 0;
    auto tree = randomTree(rng, id_counter);
    tree->visit([](View &v) {
        if (auto *edit = dynamic_cast<EditText *>(&v)) {
            edit->setText("");
            edit->setCursorPosition(0);
        } else if (auto *text = dynamic_cast<TextView *>(&v)) {
            if (!dynamic_cast<Button *>(&v))
                text->setText("");
        }
        if (auto *box = dynamic_cast<CheckBox *>(&v))
            box->setChecked(false);
        if (auto *bar = dynamic_cast<ProgressBar *>(&v))
            bar->setProgress(0);
        if (auto *list = dynamic_cast<AbsListView *>(&v)) {
            list->clearItemChecked();
            list->scrollToPosition(0);
        }
        if (auto *image = dynamic_cast<ImageView *>(&v))
            image->clearDrawable();
        if (auto *video = dynamic_cast<VideoView *>(&v))
            video->seekTo(0);
        if (auto *scroll = dynamic_cast<ScrollView *>(&v))
            scroll->scrollTo(0);
    });
    return tree;
}

/** Compare migratable attributes of two structurally identical trees. */
::testing::AssertionResult
treesAgree(const View &a, const View &b)
{
    std::vector<const View *> flat_a, flat_b;
    a.visitConst([&flat_a](const View &v) { flat_a.push_back(&v); });
    b.visitConst([&flat_b](const View &v) { flat_b.push_back(&v); });
    if (flat_a.size() != flat_b.size())
        return ::testing::AssertionFailure() << "tree sizes differ";
    for (std::size_t i = 0; i < flat_a.size(); ++i) {
        const View *va = flat_a[i];
        const View *vb = flat_b[i];
        if (std::string(va->typeName()) != vb->typeName())
            return ::testing::AssertionFailure() << "type mismatch at " << i;
        if (const auto *ta = dynamic_cast<const TextView *>(va)) {
            if (ta->text() != dynamic_cast<const TextView *>(vb)->text())
                return ::testing::AssertionFailure()
                       << "text mismatch at '" << va->id() << "'";
        }
        if (const auto *pa = dynamic_cast<const ProgressBar *>(va)) {
            if (pa->progress() !=
                dynamic_cast<const ProgressBar *>(vb)->progress())
                return ::testing::AssertionFailure()
                       << "progress mismatch at '" << va->id() << "'";
        }
        if (const auto *la = dynamic_cast<const AbsListView *>(va)) {
            if (la->checkedItem() !=
                dynamic_cast<const AbsListView *>(vb)->checkedItem())
                return ::testing::AssertionFailure()
                       << "checked mismatch at '" << va->id() << "'";
        }
        if (const auto *ia = dynamic_cast<const ImageView *>(va)) {
            if (ia->assetName() !=
                dynamic_cast<const ImageView *>(vb)->assetName())
                return ::testing::AssertionFailure()
                       << "drawable mismatch at '" << va->id() << "'";
        }
        if (const auto *sa = dynamic_cast<const ScrollView *>(va)) {
            if (sa->scrollY() !=
                dynamic_cast<const ScrollView *>(vb)->scrollY())
                return ::testing::AssertionFailure()
                       << "scroll mismatch at '" << va->id() << "'";
        }
        if (const auto *vva = dynamic_cast<const VideoView *>(va)) {
            if (vva->positionMs() !=
                dynamic_cast<const VideoView *>(vb)->positionMs())
                return ::testing::AssertionFailure()
                       << "video mismatch at '" << va->id() << "'";
        }
    }
    return ::testing::AssertionSuccess();
}

class TreeFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TreeFuzz, FullSaveRestoreRoundTripIsLossless)
{
    Rng rng(GetParam());
    int id_counter = 0;
    auto original = randomTree(rng, id_counter);
    auto clone = cloneStructure(GetParam());

    Bundle container;
    original->saveHierarchyState(container, /*full=*/true, "r");
    clone->restoreHierarchyState(container, "r");
    EXPECT_TRUE(treesAgree(*original, *clone)) << "seed " << GetParam();
}

/** Activity wrapper hosting an arbitrary tree. */
class FuzzActivity : public Activity
{
  public:
    explicit FuzzActivity(std::unique_ptr<View> content)
        : Activity("fuzz/.A")
    {
        window().setContent(std::move(content));
        window().decorView().visit([this](View &v) { v.attachToHost(this); });
    }
};

TEST_P(TreeFuzz, RandomMutationsMigrateToMappedPeers)
{
    Rng rng(GetParam() ^ 0xabcdef);
    int id_counter = 0;
    FuzzActivity shadow(randomTree(rng, id_counter));
    FuzzActivity sunny(cloneStructure(GetParam() ^ 0xabcdef));

    // (cloneStructure consumed a different stream; rebuild the sunny
    // side from the same stream the shadow used.)
    // NOTE: simpler and fully equivalent: structural clone by seed.
    ViewTreeMapper mapper;
    mapper.buildMapping(sunny, shadow);

    shadow.performCreate(Configuration::defaultPortrait(), nullptr);
    shadow.performStart();
    shadow.performResume();
    shadow.enterShadowState();
    RchStats stats;
    LazyMigrator migrator(stats);
    shadow.setInvalidationListener(&migrator);

    // Random mutations on id-bearing shadow widgets.
    int mutations = 0;
    shadow.window().decorView().visit([&](View &v) {
        if (v.id().empty() || !v.sunnyPeer())
            return;
        if (auto *text = dynamic_cast<TextView *>(&v)) {
            text->setText("mut" + std::to_string(rng.nextInt(0, 99)));
            ++mutations;
        } else if (auto *bar = dynamic_cast<ProgressBar *>(&v)) {
            bar->setProgress(static_cast<int>(rng.nextInt(1, 100)));
            ++mutations;
        } else if (auto *image = dynamic_cast<ImageView *>(&v)) {
            image->setDrawable(DrawableValue{"mut", 4, 4});
            ++mutations;
        }
    });

    // Every mutated view's peer must now agree with it.
    int checked = 0;
    shadow.window().decorView().visit([&](View &v) {
        View *peer = v.sunnyPeer();
        if (!peer)
            return;
        if (auto *text = dynamic_cast<TextView *>(&v)) {
            EXPECT_EQ(dynamic_cast<TextView *>(peer)->text(), text->text())
                << "seed " << GetParam() << " id '" << v.id() << "'";
            ++checked;
        } else if (auto *bar = dynamic_cast<ProgressBar *>(&v)) {
            EXPECT_EQ(dynamic_cast<ProgressBar *>(peer)->progress(),
                      bar->progress());
            ++checked;
        } else if (auto *image = dynamic_cast<ImageView *>(&v)) {
            EXPECT_EQ(dynamic_cast<ImageView *>(peer)->assetName(),
                      image->assetName());
            ++checked;
        }
    });
    // A degenerate tree may have no mutable id-bearing widgets at all;
    // the property only binds when something was mutated.
    if (mutations > 0) {
        EXPECT_GT(checked, 0);
        EXPECT_GT(stats.views_migrated, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88,
                                           99, 1010, 2020, 3030));

} // namespace
} // namespace rchdroid
