/**
 * @file
 * Micro-benchmarks (google-benchmark) of the substrate hot paths: the
 * discrete-event scheduler, view-tree save/restore, and the
 * essence-mapping build. These measure
 * *host* performance of the simulator itself (not simulated time) and
 * guard against regressions that would make the table/figure benches
 * slow to run.
 */
#include <benchmark/benchmark.h>

#include "app/activity.h"
#include "os/scheduler.h"
#include "rch/view_tree_mapper.h"
#include "view/image_view.h"
#include "view/text_view.h"
#include "view/view_group.h"

namespace rchdroid {
namespace {

void
BM_SchedulerScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        SimScheduler scheduler;
        int sink = 0;
        for (int i = 0; i < state.range(0); ++i)
            scheduler.schedule(i, [&sink] { ++sink; });
        scheduler.runUntilIdle();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1000)->Arg(10000);

std::unique_ptr<ViewGroup>
makeTree(int leaves)
{
    auto root = std::make_unique<LinearLayout>(
        "root", LinearLayout::Direction::Vertical);
    for (int i = 0; i < leaves; ++i) {
        if (i % 3 == 0) {
            auto text =
                std::make_unique<TextView>("text_" + std::to_string(i));
            text->setText("hello " + std::to_string(i));
            root->addChild(std::move(text));
        } else {
            root->addChild(
                std::make_unique<ImageView>("img_" + std::to_string(i)));
        }
    }
    return root;
}

void
BM_SaveHierarchyFull(benchmark::State &state)
{
    auto tree = makeTree(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        Bundle container;
        tree->saveHierarchyState(container, /*full=*/true, "r");
        benchmark::DoNotOptimize(container);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SaveHierarchyFull)->Arg(32)->Arg(512);

/** Minimal Activity subclass for mapper benchmarking. */
class BenchActivity : public Activity
{
  public:
    explicit BenchActivity(int leaves) : Activity("bench/.A")
    {
        window().setContent(makeTree(leaves));
    }
};

void
BM_EssenceMappingHash(benchmark::State &state)
{
    const int leaves = static_cast<int>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        BenchActivity sunny(leaves), shadow(leaves);
        state.ResumeTiming();
        ViewTreeMapper mapper(MappingStrategy::HashTable);
        const auto result = mapper.buildMapping(sunny, shadow);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EssenceMappingHash)->Arg(32)->Arg(512);

void
BM_EssenceMappingLinear(benchmark::State &state)
{
    const int leaves = static_cast<int>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        BenchActivity sunny(leaves), shadow(leaves);
        state.ResumeTiming();
        ViewTreeMapper mapper(MappingStrategy::LinearScan);
        const auto result = mapper.buildMapping(sunny, shadow);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EssenceMappingLinear)->Arg(32)->Arg(512);

} // namespace
} // namespace rchdroid

BENCHMARK_MAIN();
