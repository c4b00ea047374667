/**
 * @file
 * DeviceModel: the ROC-RK3399-PC-PLUS calibration (paper §5.1 — 6-core
 * 2.0 GHz ARM64, Mali-T860 MP4, 2 GB DDR3, Android 10).
 *
 * Every latency/power constant of the simulation lives here, solved so
 * the simulator reproduces the paper's anchors (DESIGN.md §5):
 * Android-10 restart ≈ 141.8 ms and near-flat in view count, RCHDroid
 * flip ≈ 89.2 ms flat, RCHDroid-init 154.6 → 180.2 ms across 1 → 32
 * views, async migration 8.6 → 20.2 ms, and steady power 4.03 W.
 */
#ifndef RCHDROID_SIM_DEVICE_MODEL_H
#define RCHDROID_SIM_DEVICE_MODEL_H

#include "ams/atms_costs.h"
#include "app/framework_costs.h"
#include "platform/time.h"
#include "resources/resource_manager.h"

namespace rchdroid::sim {

/** Power-model parameters (board-level, measured at the supply). */
struct PowerModel
{
    /** Board + display + radios with the CPU idle, watts. */
    double idle_watts = 4.03;
    /** Additional draw at 100% CPU utilisation, watts. */
    double cpu_max_watts = 2.4;
};

/**
 * The complete calibrated device description.
 */
struct DeviceModel
{
    FrameworkCosts framework;
    AtmsCosts atms;
    ResourceCostModel resources;
    /** One-way binder transaction latency, either direction. */
    SimDuration binder_latency = 0;
    PowerModel power;

    /** The paper's evaluation board, fully calibrated. */
    static DeviceModel rk3399();

    /**
     * A uniformly faster device (flagship-class): all latencies scaled
     * by `speedup`. Used by sensitivity/ablation benches.
     */
    static DeviceModel scaled(double speedup);
};

} // namespace rchdroid::sim

#endif // RCHDROID_SIM_DEVICE_MODEL_H
