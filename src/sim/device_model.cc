#include "sim/device_model.h"

namespace rchdroid::sim {

DeviceModel
DeviceModel::rk3399()
{
    DeviceModel d;

    // Binder: one-way transaction ≈ 1 ms on this class of SoC under
    // load.
    d.binder_latency = microseconds(1000);

    // system_server costs. start_activity_base and record_create are
    // the extra server work the RCHDroid-init path pays over a plain
    // relaunch (which never enters the ActivityStarter).
    d.atms.config_dispatch = microseconds(2800);
    d.atms.start_activity_base = microseconds(13300);
    d.atms.record_create = microseconds(11600);
    d.atms.stack_search_per_record = microseconds(20);
    d.atms.flip_reorder = microseconds(2200);
    d.atms.transaction_handle = microseconds(400);

    // Resource resolution: cheap lookups, decode proportional to bitmap
    // size, parse proportional to layout nodes.
    d.resources.lookup_cost = microseconds(40);
    d.resources.drawable_base_cost = microseconds(40);
    d.resources.drawable_per_kib = nanoseconds(500);
    d.resources.layout_per_node = microseconds(40);

    // Client framework costs. on_create_base dominates the restart:
    // window/theme/context setup of a cold activity on this board.
    auto &f = d.framework;
    f.activity_construct = microseconds(8600);
    f.on_create_base = microseconds(90400);
    f.on_start = microseconds(5200);
    f.on_resume = microseconds(11500);
    f.on_pause = microseconds(3200);
    f.on_stop = microseconds(4100);
    f.on_destroy_base = microseconds(6400);
    f.destroy_per_view = microseconds(15);
    f.inflate_per_node = microseconds(50);
    f.layout_per_view = microseconds(25);
    f.draw_per_view = microseconds(15);
    f.draw_per_kib = microseconds(4);
    f.save_state_base = microseconds(2500);
    f.save_state_per_view = microseconds(25);
    f.restore_state_per_view = microseconds(40);
    // The essence mapping: hash insert + lookup/wire per view. These
    // carry most of the RCHDroid-init slope of Fig. 10(a).
    f.mapping_insert_per_view = microseconds(300);
    f.mapping_wire_per_view = microseconds(220);
    // Flip path: re-foregrounding the retained instance (surface and
    // window re-attach) plus a cheap per-view state sync.
    f.flip_fixed = microseconds(63100);
    f.flip_sync_per_view = microseconds(20);
    // Lazy migration: interception fixed cost per async batch plus the
    // typed attribute transfer per view (Fig. 10(b): 8.6 → 20.2 ms).
    f.migrate_batch_base = microseconds(8230);
    f.migrate_per_view = microseconds(370);
    f.gc_check = microseconds(150);
    f.transaction_handle = microseconds(400);

    // Measured board draw (§5.6): 4.03 W during the runtime-change
    // workloads on both systems — utilisation there is low, so the idle
    // term dominates.
    d.power.idle_watts = 4.03;
    d.power.cpu_max_watts = 2.4;
    return d;
}

namespace {

SimDuration
scale(SimDuration v, double factor)
{
    return static_cast<SimDuration>(static_cast<double>(v) / factor);
}

} // namespace

DeviceModel
DeviceModel::scaled(double speedup)
{
    DeviceModel d = rk3399();
    auto &f = d.framework;
    for (SimDuration *v :
         {&f.activity_construct, &f.on_create_base, &f.on_start,
          &f.on_resume, &f.on_pause, &f.on_stop, &f.on_destroy_base,
          &f.destroy_per_view, &f.inflate_per_node, &f.layout_per_view,
          &f.draw_per_view, &f.draw_per_kib, &f.save_state_base,
          &f.save_state_per_view, &f.restore_state_per_view,
          &f.mapping_insert_per_view, &f.mapping_wire_per_view,
          &f.flip_fixed, &f.flip_sync_per_view, &f.migrate_batch_base,
          &f.migrate_per_view, &f.gc_check, &f.transaction_handle}) {
        *v = scale(*v, speedup);
    }
    for (SimDuration *v :
         {&d.atms.config_dispatch, &d.atms.start_activity_base,
          &d.atms.record_create, &d.atms.stack_search_per_record,
          &d.atms.flip_reorder, &d.atms.transaction_handle}) {
        *v = scale(*v, speedup);
    }
    for (SimDuration *v :
         {&d.resources.lookup_cost, &d.resources.drawable_base_cost,
          &d.resources.drawable_per_kib, &d.resources.layout_per_node}) {
        *v = scale(*v, speedup);
    }
    d.binder_latency = scale(d.binder_latency, speedup);
    return d;
}

} // namespace rchdroid::sim
