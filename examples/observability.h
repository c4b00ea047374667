/**
 * @file
 * Shared observability flags for the example binaries:
 *
 *   --trace-out=FILE     write a Chrome trace-event JSON of the run
 *                        (open in Perfetto / chrome://tracing)
 *   --metrics-json=FILE  write the metrics registry as JSON
 *   --dumpsys            print a dumpsys-style state snapshot per device
 *
 * The helper strips its flags from argv (same pattern as
 * analysis::CheckMode), installs a MetricsRegistry for the whole run,
 * and installs a Tracer only when a trace was requested — with no flags
 * the instrumented framework pays the registry branch and nothing else.
 * Construct it after CheckMode: it is the last to read argv, so it
 * rejects what is left over, and an empty file name, with exit code 2.
 */
#ifndef RCHDROID_EXAMPLES_OBSERVABILITY_H
#define RCHDROID_EXAMPLES_OBSERVABILITY_H

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "platform/metrics.h"
#include "platform/tracing.h"
#include "sim/dumpsys.h"

namespace rchdroid::examples {

class ObservabilityFlags
{
  public:
    /**
     * Scans argv for the flags above and removes them; exits 2 on an
     * empty file name or any other argument.
     */
    ObservabilityFlags(int &argc, char **argv)
    {
        int kept = 1;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--trace-out=", 0) == 0) {
                trace_path_ = pathValue(arg, "--trace-out");
            } else if (arg.rfind("--metrics-json=", 0) == 0) {
                metrics_path_ = pathValue(arg, "--metrics-json");
            } else if (arg == "--dumpsys") {
                dumpsys_ = true;
            } else {
                argv[kept++] = argv[i];
            }
        }
        argc = kept;
        if (argc > 1)
            usageError("unknown flag: " + std::string(argv[1]));
        registry_guard_.emplace(&registry_);
        if (!trace_path_.empty()) {
            tracer_ = std::make_unique<trace::Tracer>();
            tracer_guard_.emplace(tracer_.get());
        }
    }

    /**
     * Report a finished device: prints dumpsys when requested and takes
     * the metrics snapshot (gauges are sampled from the live system).
     * Call once per device, before it is destroyed.
     */
    void
    report(sim::AndroidSystem &device)
    {
        if (dumpsys_)
            std::fputs(sim::dumpsys(device, &registry_).c_str(), stdout);
        if (!metrics_path_.empty())
            metrics_snapshot_ = sim::metricsJson(device, &registry_);
    }

    /**
     * Write the requested output files.
     * @return 0 on success, 1 on I/O failure (compose with CheckMode's
     *         exit code).
     */
    int
    finish()
    {
        int rc = 0;
        if (!trace_path_.empty()) {
            if (tracer_->writeChromeJson(trace_path_)) {
                std::printf("trace written to %s (%zu events)\n",
                            trace_path_.c_str(), tracer_->eventCount());
            } else {
                std::fprintf(stderr, "failed to write trace to %s\n",
                             trace_path_.c_str());
                rc = 1;
            }
        }
        if (!metrics_path_.empty()) {
            if (metrics_snapshot_.empty())
                metrics_snapshot_ = registry_.toJson();
            std::FILE *f = std::fopen(metrics_path_.c_str(), "w");
            bool written = false;
            if (f) {
                // fclose flushes: a short snapshot fails only there.
                written = std::fputs(metrics_snapshot_.c_str(), f) >= 0;
                written = std::fclose(f) == 0 && written;
            }
            if (written) {
                std::printf("metrics written to %s\n", metrics_path_.c_str());
            } else {
                std::fprintf(stderr, "failed to write metrics to %s\n",
                             metrics_path_.c_str());
                rc = 1;
            }
        }
        return rc;
    }

    metrics::MetricsRegistry &registry() { return registry_; }
    trace::Tracer *tracer() { return tracer_.get(); }
    bool dumpsysRequested() const { return dumpsys_; }

  private:
    [[noreturn]] static void
    usageError(const std::string &message)
    {
        std::fprintf(stderr, "%s\n", message.c_str());
        std::exit(2);
    }

    /** The file name of `--flag=FILE`; an empty one is a usage error. */
    static std::string
    pathValue(const std::string &arg, const std::string &flag)
    {
        std::string path = arg.substr(flag.size() + 1);
        if (path.empty())
            usageError(flag + " needs a file name");
        return path;
    }

    std::string trace_path_;
    std::string metrics_path_;
    bool dumpsys_ = false;
    metrics::MetricsRegistry registry_;
    std::unique_ptr<trace::Tracer> tracer_;
    std::string metrics_snapshot_;
    /** Guards last: destroyed first, restoring the previous installs. */
    std::optional<metrics::ScopedMetricsRegistry> registry_guard_;
    std::optional<trace::ScopedTracer> tracer_guard_;
};

} // namespace rchdroid::examples

#endif // RCHDROID_EXAMPLES_OBSERVABILITY_H
